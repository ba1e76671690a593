// Where and how a result was measured: recorded with every run so numbers
// from different machines or builds are never compared blindly.
#pragma once

#include <string>

namespace pfbench {

struct Provenance {
  int nproc = 0;                  ///< CPUs this process may run on
  unsigned hardware_concurrency = 0;
  std::string build_type;         ///< CMAKE_BUILD_TYPE of this binary
  bool release = false;           ///< build_type == "Release"
  std::string compiler;
  std::string caches;             ///< "L1d 48K, L2 2048K, ..." from sysfs
  std::string source_digest;      ///< passed in by the runner script
  std::string git_commit;         ///< passed in; "unknown" outside git
};

Provenance collect_provenance(const std::string& source_digest,
                              const std::string& git_commit);

/// One-line JSON object.
std::string to_json(const Provenance& p);

}  // namespace pfbench
