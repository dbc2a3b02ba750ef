//===- obs/Json.cpp - Shared JSON pieces of the ccl-* writers -------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

std::string ccl::obs::jsonEscape(const std::string &Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (char C : Raw) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buffer[8];
        std::snprintf(Buffer, sizeof(Buffer), "\\u%04x", C);
        Out += Buffer;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

void ccl::obs::writeMeta(std::FILE *Out, const char *Schema,
                         const std::string &Binary, const std::string &Git) {
  std::fprintf(Out, "\"schema\":\"%s\",\"binary\":\"%s\",\"git\":\"%s\"",
               Schema, jsonEscape(Binary).c_str(), jsonEscape(Git).c_str());
}
