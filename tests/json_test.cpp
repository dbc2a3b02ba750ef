//===- tests/json_test.cpp - The ccl-* JSON layer on malformed input ------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// The shared parser (obs/Json.h) and the ccl-metrics-v1 mapper built on
// it: what they accept, what they skip, and what they reject, with the
// reason a tool prints.
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "obs/MetricsExport.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace ccl;
using namespace ccl::obs;

namespace {

/// Parses \p Text; returns the parser's reason ("" when it parsed).
std::string parseError(const std::string &Text) {
  JsonValue Value;
  std::string Error;
  return parseJson(Text, Value, Error) ? std::string() : Error;
}

/// Maps one line with \p Map; returns the rejection reason, "" when the
/// line was accepted or skipped. \p Mapped reports whether it was a
/// record.
template <typename MapFn>
std::string mapError(const std::string &Line, MapFn &&Map,
                     bool *Mapped = nullptr) {
  JsonValue Value;
  std::string Error;
  if (!parseJson(Line, Value, Error))
    return Error;
  JsonObject Object(Value);
  bool Record = Map(Object);
  if (Mapped)
    *Mapped = Record;
  return Object.error();
}

std::string metricsError(const std::string &Line, MetricsDoc &Doc,
                         bool *Mapped = nullptr) {
  return mapError(
      Line, [&](JsonObject &O) { return parseMetricsLine(O, Doc); }, Mapped);
}

std::string writeTemp(const std::string &Name, const std::string &Text) {
  std::string Path = testing::TempDir() + "/" + Name;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  EXPECT_NE(F, nullptr);
  std::fputs(Text.c_str(), F);
  std::fclose(F);
  return Path;
}

} // namespace

TEST(JsonParser, RejectsTruncatedAndTrailingText) {
  EXPECT_EQ(parseError(R"({"kind":"a","now":12)"), "truncated");
  EXPECT_EQ(parseError(R"({"kind":"region","name":"cut mid-str)"),
            "truncated");
  EXPECT_EQ(parseError(R"({"kind":"a"} {"kind":"a"})"),
            "trailing text after the JSON value");
  EXPECT_EQ(parseError(R"({"kind":"a"}x)"),
            "trailing text after the JSON value");
  EXPECT_EQ(parseError(""), "truncated");
  EXPECT_EQ(parseError("not json"), "unexpected character");
  EXPECT_EQ(parseError(R"({"a":1,})"), "expected a string key");
  EXPECT_EQ(parseError(R"({"a" 1})"), "expected ':' after a key");
  EXPECT_EQ(parseError(R"({"a":01})"), "expected ',' or '}'");
  EXPECT_EQ(parseError(R"({"a":1.})"), "bad number");
  EXPECT_EQ(parseError(R"({"a":"\q"})"), "bad escape in a string");
  EXPECT_EQ(parseError(R"({"a":"\u12"})"), "bad escape in a string");
  EXPECT_EQ(parseError(R"({"a":"\udc00"})"), "bad escape in a string");
  EXPECT_EQ(parseError(R"({"a":"\ud83d\u0041"})"), "bad escape in a string");
  EXPECT_EQ(parseError("{\"a\":\"tab\there\"}"),
            "control character in a string");
  EXPECT_EQ(parseError(R"({"a":tru})"), "unexpected character");
}

TEST(JsonParser, RejectsDeepNestingWithoutRecursingIntoIt) {
  EXPECT_EQ(parseError(std::string(100000, '[')), "nesting deeper than 32");
  std::string Deep32 = std::string(32, '[') + std::string(32, ']');
  EXPECT_EQ(parseError(Deep32), "");
  std::string Deep33 = std::string(33, '[') + std::string(33, ']');
  EXPECT_EQ(parseError(Deep33), "nesting deeper than 32");
}

TEST(JsonParser, KeepsNumberTokensAndDecodesEscapes) {
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(
      R"( {"n":-1.5e+3, "s":"a\"\\\/\b\f\n\r\t\u0001é😀",)"
      R"( "l":[true, false, null], "o":{}} )",
      V, Error))
      << Error;
  ASSERT_EQ(V.Kind, JsonValue::Type::Object);
  JsonObject O(V);
  ASSERT_NE(O.find("n"), nullptr);
  EXPECT_EQ(O.find("n")->Kind, JsonValue::Type::Number);
  EXPECT_EQ(O.find("n")->Text, "-1.5e+3");
  EXPECT_EQ(O.find("s")->Text,
            "a\"\\/\b\f\n\r\t\x01\xc3\xa9\xf0\x9f\x98\x80");
  ASSERT_EQ(O.find("l")->Items.size(), 3u);
  EXPECT_EQ(O.find("l")->Items[2].Kind, JsonValue::Type::Null);
  EXPECT_EQ(O.find("o")->Kind, JsonValue::Type::Object);
  EXPECT_EQ(O.find("absent"), nullptr);
}

TEST(JsonObject, UnsignedFieldsTakeOnlyDigitsThatFit) {
  // Negative, fractional, exponent and overflowing values reject the
  // line; strtoull used to turn -1 into 2^64-1 and saturate on overflow.
  for (const char *Bad : {"-5", "1.5", "1e3", "18446744073709551616",
                          "\"7\"", "true"}) {
    MetricsDoc Doc;
    std::string Line = std::string(R"({"kind":"c","name":"n","v":)") + Bad +
                       "}";
    EXPECT_EQ(metricsError(Line, Doc),
              "\"v\": expected an unsigned 64-bit integer")
        << Line;
  }
  MetricsDoc Doc;
  EXPECT_EQ(metricsError(R"({"kind":"c","name":"n","v":18446744073709551615})",
                         Doc),
            "");
  EXPECT_EQ(Doc.Data.Counters.at(0).Value, UINT64_MAX);

  // u32 fields stop at 2^32-1.
  MetricsDoc Spans;
  EXPECT_EQ(metricsError(R"({"kind":"s","name":"s","tid":4294967296})",
                         Spans),
            "\"tid\": expected an unsigned 32-bit integer");
  EXPECT_EQ(metricsError(R"({"kind":"s","name":"s","tid":-1})", Spans),
            "\"tid\": expected an unsigned 32-bit integer");
  EXPECT_EQ(metricsError(R"({"kind":"s","name":"s","tid":4294967295})",
                         Spans),
            "");
  ASSERT_EQ(Spans.Data.Spans.size(), 1u);
  EXPECT_EQ(Spans.Data.Spans[0].Tid, UINT32_MAX);

  // Flags are 0 or 1.
  MetricsDoc Meta;
  EXPECT_EQ(metricsError(R"({"kind":"meta","overflowed":2})", Meta),
            "\"overflowed\": expected 0 or 1");
  EXPECT_EQ(metricsError(R"({"kind":"meta","overflowed":1})", Meta), "");
  EXPECT_TRUE(Meta.Data.Overflowed);
}

TEST(JsonObject, ReadsTopLevelMembersOnly) {
  // A key inside a nested object is not the record's key; the old
  // substring search read 7 here.
  MetricsDoc Doc;
  ASSERT_EQ(metricsError(R"({"kind":"c","extra":{"v":7},"name":"n","v":1})",
                         Doc),
            "");
  ASSERT_EQ(Doc.Data.Counters.size(), 1u);
  EXPECT_EQ(Doc.Data.Counters[0].Value, 1u);

  // ...and key text inside a string value is not a key either.
  MetricsDoc Quoted;
  ASSERT_EQ(metricsError(R"({"kind":"c","name":"\"v\":9","v":2})", Quoted),
            "");
  ASSERT_EQ(Quoted.Data.Counters.size(), 1u);
  EXPECT_EQ(Quoted.Data.Counters[0].Name, "\"v\":9");
  EXPECT_EQ(Quoted.Data.Counters[0].Value, 2u);
}

TEST(JsonMappers, MissingOrMistypedKindRejects) {
  MetricsDoc M;
  EXPECT_EQ(metricsError(R"({"name":"n","v":1})", M), "missing \"kind\"");
  EXPECT_EQ(metricsError(R"({"kind":["c"]})", M),
            "\"kind\": expected a string");
}

TEST(JsonMappers, UnknownKindsAndKeysAreSkipped) {
  bool Mapped = true;
  MetricsDoc M;
  EXPECT_EQ(metricsError(R"({"kind":"future-kind","name":"n"})", M, &Mapped),
            "");
  EXPECT_FALSE(Mapped);
  EXPECT_EQ(metricsError(R"({"kind":"meta","simd":"avx2",)"
                         R"("future":{"x":[1,2]},"spans_dropped":3})",
                         M, &Mapped),
            "");
  EXPECT_TRUE(Mapped);
  EXPECT_EQ(M.Data.SpansDropped, 3u);
}

TEST(JsonMappers, RequiredKeysAndBucketPairs) {
  MetricsDoc M;
  EXPECT_EQ(metricsError(R"({"kind":"c","name":"n"})", M), "missing \"v\"");
  EXPECT_EQ(metricsError(R"({"kind":"h","name":"h","b":[[65,1]]})", M),
            "\"b\": expected [bucket, count] pairs");
  EXPECT_EQ(metricsError(R"({"kind":"h","name":"h","b":[[1,2,3]]})", M),
            "\"b\": expected [bucket, count] pairs");
  EXPECT_EQ(metricsError(R"({"kind":"h","name":"h","b":[[1,-2]]})", M),
            "\"b\": expected [bucket, count] pairs");
}

TEST(JsonMappers, PythonDumpsSpacingParsesLikeTheWriter) {
  // json.dumps puts a space after every ',' and ':'.
  MetricsDoc Py;
  ASSERT_EQ(metricsError(R"({"kind": "meta", "schema": "ccl-metrics-v1", )"
                         R"("binary": "py", "git": "abc", "overflowed": true})",
                         Py),
            "");
  ASSERT_EQ(metricsError(R"({"kind": "h", "name": "h", "count": 1, )"
                         R"("sum": 4, "b": [[3, 1]]})",
                         Py),
            "");
  EXPECT_EQ(Py.Binary, "py");
  EXPECT_EQ(Py.Git, "abc");
  EXPECT_TRUE(Py.Data.Overflowed);
  ASSERT_EQ(Py.Data.Histograms.size(), 1u);
  EXPECT_EQ(Py.Data.Histograms[0].Buckets[3], 1u);
}

TEST(JsonEscape, EveryEscapedStringRoundTripsThroughTheReader) {
  // The metrics reader used to turn \t into t, and \u0001 into u0001.
  std::string Raw = "q\"b\\s/t\tn\nr\r";
  for (int C = 1; C < 0x20; ++C)
    Raw += char(C);
  Raw += "\x7f\xc3\xa9 end";
  std::string Esc = jsonEscape(Raw);

  MetricsDoc M;
  ASSERT_EQ(metricsError(R"({"kind":"meta","binary":")" + Esc + "\"}", M), "");
  EXPECT_EQ(M.Binary, Raw);
  ASSERT_EQ(metricsError(R"({"kind":"c","name":")" + Esc + R"(","v":1})", M),
            "");
  EXPECT_EQ(M.Data.Counters.at(0).Name, Raw);
}

TEST(JsonLines, ReportsTheFirstBadLineByNumber) {
  std::string Path = writeTemp("json_lines.jsonl",
                               "{\"kind\":\"c\",\"name\":\"a\",\"v\":1}\n"
                               "\n"
                               "  \r\n"
                               "{\"kind\":\"c\",\"name\":\"b\",\"v\":2}\n"
                               "{\"kind\":\"c\",\"name\":\"cut");
  MetricsDoc Doc;
  std::string Error;
  long Records = 0;
  EXPECT_FALSE(readJsonLines(
      Path, [&](JsonObject &Line) { Records += parseMetricsLine(Line, Doc); },
      Error));
  EXPECT_EQ(Error, Path + ": line 5: truncated");
  EXPECT_EQ(Records, 2);

  std::string Array = writeTemp("json_array.jsonl", "[1,2]\n");
  EXPECT_FALSE(readJsonLines(Array, [](JsonObject &) {}, Error));
  EXPECT_EQ(Error, Array + ": line 1: not a JSON object");

  EXPECT_FALSE(readJsonLines(testing::TempDir() + "/absent.jsonl",
                             [](JsonObject &) {}, Error));
  EXPECT_NE(Error.find("absent.jsonl: cannot open"), std::string::npos);
}
