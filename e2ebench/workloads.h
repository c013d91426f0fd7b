#ifndef RAQLET_E2EBENCH_WORKLOADS_H_
#define RAQLET_E2EBENCH_WORKLOADS_H_

// The three workloads of the end-to-end benchmark and the closed loop that
// drives them. See e2ebench/README.md for what each workload exercises.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  /// Per-layer run: pairs every cycle with a traced repeat and reports the
  /// per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Self-test hook: the op with this id gets one row of its expected
  /// result corrupted, so the oracle must count it as failed.
  int64_t corrupt_op = -1;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Percentile metrics whose sample sits on a gap between two latency
  /// groups (see CheckGap), with the two groups.
  std::vector<std::string> gaps;
  /// Human-readable report printed before the result line.
  std::string text;
};

/// Runs one workload end to end: set-up (several times from scratch), the
/// timed closed loop, and the report. Fails only on an unknown workload.
bool RunWorkload(const std::string& name, const RunOptions& options,
                 RunReport* report);

}  // namespace e2e

#endif  // RAQLET_E2EBENCH_WORKLOADS_H_
