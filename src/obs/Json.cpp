//===- obs/Json.cpp - The JSON layer of the ccl-* formats -----------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <type_traits>

using namespace ccl::obs;

namespace {

bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// Deepest array/object nesting parseJson accepts.
constexpr unsigned MaxDepth = 32;

/// Recursive descent over one buffer. Recursion stops at MaxDepth, so
/// hostile nesting cannot exhaust the stack.
struct Parser {
  const char *P;
  const char *End;
  std::string &Error;

  /// Any failure at the end of the input is a truncation.
  bool fail(const char *Reason) {
    Error = P == End ? "truncated" : Reason;
    return false;
  }

  void space() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  bool eat(char C) {
    space();
    if (P == End || *P != C)
      return false;
    ++P;
    return true;
  }

  bool digits() {
    const char *Start = P;
    while (P != End && isDigit(*P))
      ++P;
    return P != Start;
  }

  bool value(JsonValue &Out, unsigned Depth) {
    space();
    if (P == End)
      return fail("");
    if (*P == '{' || *P == '[')
      return container(Out, *P == '{', Depth);
    if (*P == '"') {
      Out.Kind = JsonValue::Type::String;
      return string(Out.Text);
    }
    if (*P == '-' || isDigit(*P)) {
      Out.Kind = JsonValue::Type::Number;
      return number(Out.Text);
    }
    for (auto [Word, Kind] : {std::pair{"true", JsonValue::Type::True},
                              {"false", JsonValue::Type::False},
                              {"null", JsonValue::Type::Null}}) {
      size_t Len = std::strlen(Word);
      if (size_t(End - P) >= Len && std::memcmp(P, Word, Len) == 0) {
        P += Len;
        Out.Kind = Kind;
        return true;
      }
    }
    return fail("unexpected character");
  }

  bool container(JsonValue &Out, bool IsObject, unsigned Depth) {
    if (Depth == MaxDepth)
      return fail("nesting deeper than 32");
    ++P;
    Out.Kind = IsObject ? JsonValue::Type::Object : JsonValue::Type::Array;
    Out.Items.clear();
    Out.Keys.clear();
    char Close = IsObject ? '}' : ']';
    if (eat(Close))
      return true;
    do {
      if (IsObject) {
        space();
        if (P == End || *P != '"')
          return fail("expected a string key");
        if (!string(Out.Keys.emplace_back()))
          return false;
        if (!eat(':'))
          return fail("expected ':' after a key");
      }
      if (!value(Out.Items.emplace_back(), Depth + 1))
        return false;
    } while (eat(','));
    return eat(Close) ||
           fail(IsObject ? "expected ',' or '}'" : "expected ',' or ']'");
  }

  bool string(std::string &Out) {
    static const char Escapes[] = "\"\\/bfnrt";
    Out.clear();
    ++P;
    while (P != End && *P != '"') {
      unsigned char C = *P++;
      if (C < 0x20)
        return fail("control character in a string");
      if (C != '\\') {
        Out += char(C);
        continue;
      }
      const char *E = P == End ? nullptr : std::strchr(Escapes, *P);
      if (E && *E) {
        Out += "\"\\/\b\f\n\r\t"[E - Escapes];
        ++P;
      } else if (P == End || *P++ != 'u' || !unicode(Out)) {
        return fail("bad escape in a string");
      }
    }
    if (P == End)
      return fail("");
    ++P;
    return true;
  }

  bool hex4(uint32_t &Out) {
    if (End - P < 4)
      return false;
    auto [Ptr, Ec] = std::from_chars(P, P + 4, Out, 16);
    if (Ec != std::errc() || Ptr != P + 4)
      return false;
    P = Ptr;
    return true;
  }

  /// The digits of a \uXXXX escape, or of a surrogate pair, as UTF-8.
  bool unicode(std::string &Out) {
    uint32_t Code = 0, Low = 0;
    if (!hex4(Code) || (Code >= 0xDC00 && Code < 0xE000))
      return false;
    if (Code >= 0xD800 && Code < 0xDC00) {
      if (End - P < 2 || P[0] != '\\' || P[1] != 'u')
        return false;
      P += 2;
      if (!hex4(Low) || Low < 0xDC00 || Low >= 0xE000)
        return false;
      Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
    }
    static const unsigned char Lead[] = {0, 0xC0, 0xE0, 0xF0};
    int Tail = Code < 0x80 ? 0 : Code < 0x800 ? 1 : Code < 0x10000 ? 2 : 3;
    Out += char(Lead[Tail] | (Code >> (6 * Tail)));
    for (int I = Tail - 1; I >= 0; --I)
      Out += char(0x80 | ((Code >> (6 * I)) & 0x3F));
    return true;
  }

  bool number(std::string &Out) {
    const char *Start = P;
    if (*P == '-')
      ++P;
    bool Ok = true;
    if (P != End && *P == '0')
      ++P;
    else
      Ok = digits();
    if (Ok && P != End && *P == '.') {
      ++P;
      Ok = digits();
    }
    if (Ok && P != End && (*P == 'e' || *P == 'E')) {
      ++P;
      if (P != End && (*P == '+' || *P == '-'))
        ++P;
      Ok = digits();
    }
    Out.assign(Start, P);
    return Ok || fail("bad number");
  }
};

std::string quoted(std::string_view Key) {
  return "\"" + std::string(Key) + "\"";
}

} // namespace

bool ccl::obs::parseJson(std::string_view Text, JsonValue &Out,
                         std::string &Error) {
  Parser Parse{Text.data(), Text.data() + Text.size(), Error};
  if (!Parse.value(Out, 0))
    return false;
  Parse.space();
  return Parse.P == Parse.End ||
         Parse.fail("trailing text after the JSON value");
}

bool ccl::obs::jsonUnsigned(const JsonValue &Value, uint64_t Max,
                            uint64_t &Out) {
  // from_chars into an unsigned type takes digits only: a sign, fraction
  // or exponent leaves text unread, and 2^64 or more is out of range.
  const char *End = Value.Text.data() + Value.Text.size();
  uint64_t Parsed = 0;
  auto [Ptr, Ec] = std::from_chars(Value.Text.data(), End, Parsed);
  if (Value.Kind != JsonValue::Type::Number || Ec != std::errc() ||
      Ptr != End || Parsed > Max)
    return false;
  Out = Parsed;
  return true;
}

const JsonValue *JsonObject::find(std::string_view Key) const {
  for (size_t I = 0; I < Object.Keys.size(); ++I)
    if (Object.Keys[I] == Key)
      return &Object.Items[I];
  return nullptr;
}

bool JsonObject::fail(std::string Reason) {
  if (Error.empty())
    Error = std::move(Reason);
  return false;
}

template <typename T> void JsonObject::get(std::string_view Key, T &Out) {
  const JsonValue *V = find(Key);
  uint64_t Value = 0;
  if (!V)
    return;
  if constexpr (std::is_same_v<T, std::string>) {
    if (V->Kind == JsonValue::Type::String)
      Out = V->Text;
    else
      fail(quoted(Key) + ": expected a string");
  } else if constexpr (std::is_same_v<T, bool>) {
    if (V->Kind == JsonValue::Type::True || V->Kind == JsonValue::Type::False)
      Out = V->Kind == JsonValue::Type::True;
    else if (jsonUnsigned(*V, 1, Value))
      Out = Value == 1;
    else
      fail(quoted(Key) + ": expected 0 or 1");
  } else if (jsonUnsigned(*V, std::numeric_limits<T>::max(), Value)) {
    Out = T(Value);
  } else {
    fail(quoted(Key) + ": expected an unsigned " +
         std::to_string(std::numeric_limits<T>::digits) + "-bit integer");
  }
}

template void JsonObject::get(std::string_view, std::string &);
template void JsonObject::get(std::string_view, bool &);
template void JsonObject::get(std::string_view, uint32_t &);
template void JsonObject::get(std::string_view, uint64_t &);

bool ccl::obs::readJsonLines(const std::string &Path,
                             const std::function<void(JsonObject &)> &OnLine,
                             std::string &Error) {
  std::ifstream File;
  if (Path != "-")
    File.open(Path);
  std::istream &In = Path == "-" ? std::cin : File;
  if (!In) {
    Error = Path + ": cannot open";
    return false;
  }
  std::string Line, Reason;
  JsonValue Value;
  uint64_t LineNo = 0;
  while (Reason.empty() && std::getline(In, Line)) {
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    if (!parseJson(Line, Value, Reason))
      break;
    JsonObject Object(Value);
    if (Value.Kind != JsonValue::Type::Object)
      Object.fail("not a JSON object");
    else
      OnLine(Object);
    Reason = Object.error();
  }
  if (!Reason.empty())
    Error = Path + ": line " + std::to_string(LineNo) + ": " + Reason;
  else if (In.bad())
    Error = Path + ": read error";
  return Reason.empty() && !In.bad();
}

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

void ccl::obs::readMeta(JsonObject &Line, std::string &Schema,
                        std::string &Binary, std::string &Git) {
  Line.get("schema", Schema);
  Line.get("binary", Binary);
  Line.get("git", Git);
}
