//===- obs/Json.h - The JSON layer of the ccl-* formats --------*- C++ -*-===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The writers' shared pieces for every ccl-* artifact, and the reader
/// of the ccl-metrics-v1 dumps: a strict parser, typed member reads, the
/// one JSONL loop, string escaping, and the envelope
/// "schema","binary","git" that every document starts with (a JSONL dump
/// in its first, "meta", line).
///
/// Reader contract: unknown kinds and keys
/// are skipped; absent optional keys keep their defaults; a known key of
/// the wrong type or out of range rejects the line (an unsigned field
/// takes only plain digits that fit it, a flag only 0 or 1); and a line
/// that is not one complete JSON object rejects the input.
///
//===----------------------------------------------------------------------===//

#ifndef CCL_OBS_JSON_H
#define CCL_OBS_JSON_H

#include "support/BuildInfo.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ccl::obs {

/// One parsed JSON value. Numbers keep their token text, so each field
/// decides which numbers it accepts.
struct JsonValue {
  enum class Type : uint8_t { Null, False, True, Number, String, Array, Object };
  Type Kind = Type::Null;
  std::string Text;              // String (unescaped) or Number (token)
  std::vector<JsonValue> Items;  // Array elements, or Object values
  std::vector<std::string> Keys; // Object keys, parallel to Items
};

/// Parses \p Text as exactly one JSON value, surrounding whitespace
/// allowed. False with a reason in \p Error on anything else: truncation,
/// trailing text, a bad escape or number, or nesting deeper than 32.
bool parseJson(std::string_view Text, JsonValue &Out, std::string &Error);

/// Reads \p Value as an unsigned integer no larger than \p Max: plain
/// digits only, no sign, fraction or exponent.
bool jsonUnsigned(const JsonValue &Value, uint64_t Max, uint64_t &Out);

/// Typed reads of one object's top-level members. get() of an absent
/// key leaves \p Out as it is. A present key of the wrong type or out of
/// range leaves it too, and rejects the line: error() keeps the first
/// reason, so a reader checks ok() once after its reads.
class JsonObject {
public:
  explicit JsonObject(const JsonValue &Object) : Object(Object) {}

  const JsonValue *find(std::string_view Key) const;

  /// \p Out is a std::string; a bool, read from 0/1 or true/false; or
  /// uint32_t or uint64_t, read from plain digits that fit it.
  template <typename T> void get(std::string_view Key, T &Out);

  /// get(), except that an absent key also rejects the line.
  template <typename T> void need(std::string_view Key, T &Out) {
    if (find(Key))
      get(Key, Out);
    else
      fail("missing \"" + std::string(Key) + "\"");
  }

  /// Rejects the line unless it already is; returns false.
  bool fail(std::string Reason);
  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }

private:
  const JsonValue &Object;
  std::string Error;
};

/// The one JSONL loop: reads \p Path ("-" = stdin) line by line. Every
/// non-blank line must be one JSON object, which \p OnLine maps and may
/// reject through JsonObject::fail(). Stops at the first bad line and
/// returns false with "<path>: line N: <reason>" in \p Error.
bool readJsonLines(const std::string &Path,
                   const std::function<void(JsonObject &)> &OnLine,
                   std::string &Error);

/// Parses \p Line as one JSON object and returns \p Map's verdict on it
/// (whether it is a record); false for anything else.
template <typename MapFn> bool mapJsonLine(std::string_view Line, MapFn &&Map) {
  JsonValue Value;
  std::string Error;
  if (!parseJson(Line, Value, Error) || Value.Kind != JsonValue::Type::Object)
    return false;
  JsonObject Object(Value);
  return Map(Object);
}

/// Escapes a string for inclusion in a JSON string literal (quotes not
/// included).
std::string jsonEscape(const std::string &Raw);

/// Writes `"schema":"<Schema>","binary":"<Binary>","git":"<Git>"`, the
/// members every ccl-* document starts with; the caller writes the
/// braces. A document derived from a dump passes the dump's stamp.
void writeMeta(std::FILE *Out, const char *Schema,
               const std::string &Binary = binaryName(),
               const std::string &Git = gitDescribe());

/// Reads the members writeMeta writes.
void readMeta(JsonObject &Line, std::string &Schema, std::string &Binary,
              std::string &Git);

} // namespace ccl::obs

#endif // CCL_OBS_JSON_H
