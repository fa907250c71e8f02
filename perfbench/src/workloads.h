// The three workloads (serve, integrate, reopen) and the metrics each run
// reports.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test.
  bool tiny = false;
  /// Flip one reference digest, so that every result of that statement
  /// must be reported as a failure (the self-test's negative check).
  bool tamper_digest = false;
  /// Directory for images; created and removed by the run.
  std::string work_dir;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Sets up, measures and checks one workload. Throws std::runtime_error
/// when the benchmark itself cannot run (bad option, setup failure).
RunResult RunWorkload(const RunOptions& options, Fingerprint* fingerprint);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
