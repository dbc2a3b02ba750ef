//===- support/BuildInfo.cpp - Producing-binary identification ------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "support/BuildInfo.h"

#if defined(__linux__)
#include <unistd.h>
#endif

using namespace ccl;

#ifndef CCL_GIT_DESCRIBE
#define CCL_GIT_DESCRIBE "unknown"
#endif

const char *ccl::gitDescribe() { return CCL_GIT_DESCRIBE; }

const std::string &ccl::binaryName() {
  static const std::string Name = [] {
#if defined(__linux__)
    char Buf[4096];
    ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
    if (N > 0) {
      Buf[N] = '\0';
      std::string Path(Buf);
      size_t Slash = Path.find_last_of('/');
      return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
    }
#endif
    return std::string("?");
  }();
  return Name;
}
