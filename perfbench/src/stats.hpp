// Small statistics and process helpers shared by the workloads.
#pragma once

#include <vector>

namespace pfbench {

/// Linear-interpolated percentile, p in [0, 100]. Empty input -> 0.
double percentile(std::vector<double> values, double p);
inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

/// Peak resident set size of this process so far [MiB].
double peak_rss_mb();

}  // namespace pfbench
