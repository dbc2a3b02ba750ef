//===- support/BuildInfo.h - Producing-binary identification --------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Identifies the producing binary for archived artifacts (traces,
// metrics dumps): the executable basename and the `git describe` string
// captured at CMake configure time. Note the git string goes stale
// between configure runs; it identifies the configured source state,
// which is what archived traces need for attribution.
//
//===----------------------------------------------------------------------===//

#ifndef CCL_SUPPORT_BUILDINFO_H
#define CCL_SUPPORT_BUILDINFO_H

#include <string>

namespace ccl {

/// `git describe --always --dirty` at configure time, or "unknown"
/// when the source tree was not a git checkout.
const char *gitDescribe();

/// Basename of the running executable (via /proc/self/exe), or "?"
/// when it cannot be resolved.
const std::string &binaryName();

} // namespace ccl

#endif // CCL_SUPPORT_BUILDINFO_H
