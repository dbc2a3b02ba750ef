//===- obs/BenchReader.cpp - ccl-bench-v1 document reader -----------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "obs/BenchReader.h"

#include <cstdio>
#include <cstdlib>

using namespace ccl::obs;

const std::string *BenchResultRecord::raw(const std::string &Key) const {
  for (const auto &[K, V] : Fields)
    if (K == Key)
      return &V;
  return nullptr;
}

std::string BenchResultRecord::str(const std::string &Key,
                                   const std::string &Default) const {
  const std::string *V = raw(Key);
  return V ? *V : Default;
}

double BenchResultRecord::num(const std::string &Key, bool *Ok) const {
  const std::string *V = raw(Key);
  if (!V) {
    if (Ok)
      *Ok = false;
    return 0.0;
  }
  char *End = nullptr;
  double D = std::strtod(V->c_str(), &End);
  bool Parsed = End != V->c_str();
  if (Ok)
    *Ok = Parsed;
  return Parsed ? D : 0.0;
}

namespace {

/// Scans one JSON scalar starting at \p P: a quoted string (unescaped
/// into \p Value) or a bare token up to , } ]. Returns the position
/// after the scalar, or npos on malformed input.
size_t scanScalar(const std::string &T, size_t P, std::string &Value) {
  Value.clear();
  if (P >= T.size())
    return std::string::npos;
  if (T[P] == '"') {
    for (++P; P < T.size() && T[P] != '"'; ++P) {
      if (T[P] == '\\' && P + 1 < T.size())
        ++P;
      Value += T[P];
    }
    return P < T.size() ? P + 1 : std::string::npos;
  }
  while (P < T.size() && T[P] != ',' && T[P] != '}' && T[P] != ']')
    Value += T[P++];
  return P;
}

/// Parses one flat object {"k":v,...} starting at the opening brace.
/// Returns position after the closing brace, or npos.
size_t scanFlatObject(const std::string &T, size_t P,
                      BenchResultRecord &Out) {
  if (P >= T.size() || T[P] != '{')
    return std::string::npos;
  ++P;
  while (P < T.size() && T[P] != '}') {
    if (T[P] != '"')
      return std::string::npos;
    std::string Key, Value;
    P = scanScalar(T, P, Key);
    if (P == std::string::npos || P >= T.size() || T[P] != ':')
      return std::string::npos;
    P = scanScalar(T, P + 1, Value);
    if (P == std::string::npos)
      return std::string::npos;
    Out.Fields.emplace_back(std::move(Key), std::move(Value));
    if (P < T.size() && T[P] == ',')
      ++P;
  }
  return P < T.size() ? P + 1 : std::string::npos;
}

} // namespace

bool ccl::obs::parseBenchJson(const std::string &Text, BenchDoc &Doc) {
  if (Text.find("\"schema\":\"ccl-bench-v1\"") == std::string::npos)
    return false;

  // Top-level scalar fields live before the results array.
  size_t ResultsPos = Text.find("\"results\":[");
  if (ResultsPos == std::string::npos)
    return false;
  BenchResultRecord Top;
  {
    // Reuse the flat-object scanner on the prefix: close it manually.
    std::string Prefix = Text.substr(0, ResultsPos);
    while (!Prefix.empty() &&
           (Prefix.back() == ',' || Prefix.back() == ' '))
      Prefix.pop_back();
    Prefix += '}';
    if (scanFlatObject(Prefix, 0, Top) == std::string::npos)
      return false;
  }
  Doc.Bench = Top.str("bench");
  Doc.BuildType = Top.str("build_type");
  Doc.Full = Top.str("full") == "true";

  size_t P = ResultsPos + std::string("\"results\":[").size();
  while (P < Text.size() && Text[P] != ']') {
    BenchResultRecord R;
    P = scanFlatObject(Text, P, R);
    if (P == std::string::npos)
      return false;
    Doc.Results.push_back(std::move(R));
    if (P < Text.size() && Text[P] == ',')
      ++P;
  }
  return P < Text.size();
}

bool ccl::obs::readBenchFile(const std::string &Path, BenchDoc &Doc) {
  std::FILE *In = Path == "-" ? stdin : std::fopen(Path.c_str(), "r");
  if (!In) {
    std::fprintf(stderr, "ccl-bench: cannot open %s\n", Path.c_str());
    return false;
  }
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
    Text.append(Buf, N);
  if (In != stdin)
    std::fclose(In);
  return parseBenchJson(Text, Doc);
}
