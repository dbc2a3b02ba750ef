//===- tests/json_test.cpp - The ccl-* writers' shared JSON pieces --------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// jsonEscape's exact output and writeMeta's envelope. The readers are
// Python scripts; tests/tools_malformed_test.py runs scripts/cclstat.py
// on what these writers produce.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace ccl;
using namespace ccl::obs;

namespace {

/// What \p Write prints to a temporary file.
template <typename WriteFn> std::string captured(WriteFn &&Write) {
  std::FILE *F = std::tmpfile();
  EXPECT_NE(F, nullptr);
  Write(F);
  std::rewind(F);
  std::string Text;
  for (int C; (C = std::fgetc(F)) != EOF;)
    Text += char(C);
  std::fclose(F);
  return Text;
}

} // namespace

TEST(JsonEscape, QuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(jsonEscape("q\"b\\s/"), "q\\\"b\\\\s/");
  EXPECT_EQ(jsonEscape("t\tn\nr\r"), "t\\tn\\nr\\r");
  // Every other control character, NUL included, as \u00XX.
  const char *Hex = "0123456789abcdef";
  for (int C = 0; C < 0x20; ++C) {
    if (C == '\t' || C == '\n' || C == '\r')
      continue;
    std::string Expected = std::string("\\u00") + Hex[C >> 4] + Hex[C & 15];
    EXPECT_EQ(jsonEscape(std::string(1, char(C))), Expected) << C;
  }
}

TEST(JsonEscape, DeleteAndUtf8PassThrough) {
  std::string Raw = "\x7f\xc3\xa9\xf0\x9f\x98\x80 end";
  EXPECT_EQ(jsonEscape(Raw), Raw);
  EXPECT_EQ(jsonEscape(""), "");
}

TEST(WriteMeta, WritesTheEnvelopeWithEscapedStamps) {
  EXPECT_EQ(captured([](std::FILE *F) {
              writeMeta(F, "ccl-metrics-v1", "fig\"7\"", "a\\b\n");
            }),
            "\"schema\":\"ccl-metrics-v1\",\"binary\":\"fig\\\"7\\\"\","
            "\"git\":\"a\\\\b\\n\"");
}

TEST(WriteMeta, DefaultsToThisBinarysStamp) {
  EXPECT_EQ(captured([](std::FILE *F) { writeMeta(F, "ccl-bench-v1"); }),
            "\"schema\":\"ccl-bench-v1\",\"binary\":\"" +
                jsonEscape(binaryName()) + "\",\"git\":\"" +
                jsonEscape(gitDescribe()) + "\"");
}
