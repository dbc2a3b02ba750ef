//===- obs/BenchReader.cpp - ccl-bench-v1 document reader -----------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/BenchReader.h"

#include <charconv>

using namespace ccl::obs;

std::string BenchResultRecord::str(const std::string &Key,
                                   const std::string &Default) const {
  const JsonValue *V = JsonObject(Row).find(Key);
  return V && V->Kind == JsonValue::Type::String ? V->Text : Default;
}

double BenchResultRecord::num(const std::string &Key, bool *Ok) const {
  const JsonValue *V = JsonObject(Row).find(Key);
  double D = 0.0;
  bool Parsed = V && V->Kind == JsonValue::Type::Number;
  if (Parsed) {
    const char *Text = V->Text.data();
    Parsed = std::from_chars(Text, Text + V->Text.size(), D).ec == std::errc();
  }
  if (Ok)
    *Ok = Parsed;
  return Parsed ? D : 0.0;
}

bool ccl::obs::parseBenchJson(JsonObject &Doc, BenchDoc &Out) {
  std::string Schema;
  readMeta(Doc, Schema, Out.Binary, Out.Git);
  Doc.get("bench", Out.Bench);
  Doc.get("build_type", Out.BuildType);
  Doc.get("full", Out.Full);
  if (Doc.ok() && Schema != "ccl-bench-v1")
    return Doc.fail("not a ccl-bench-v1 document");
  const JsonValue *Results = Doc.find("results");
  if (!Results || Results->Kind != JsonValue::Type::Array)
    return Doc.fail("\"results\": expected an array of objects");
  for (const JsonValue &Row : Results->Items) {
    if (Row.Kind != JsonValue::Type::Object)
      return Doc.fail("\"results\": expected an array of objects");
    Out.Results.push_back({Row});
  }
  return Doc.ok();
}

bool ccl::obs::parseBenchJson(const std::string &Text, BenchDoc &Doc) {
  return mapJsonLine(
      Text, [&](JsonObject &Object) { return parseBenchJson(Object, Doc); });
}
