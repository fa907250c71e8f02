// Small measurement helpers: clocks, order statistics, process memory
// and the run fingerprint.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

/// The q-quantile (0 <= q <= 1) with linear interpolation between
/// closest ranks; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Size of a file in bytes, 0 when it cannot be read.
uint64_t FileBytes(const std::string& path);

/// `nproc`-equivalent, CPU model string, and the other facts a result
/// must carry to be comparable with another run.
struct Fingerprint {
  std::string workload;
  uint64_t seed = 0;
  std::string git_sha;   // passed in by run.py; "unavailable" otherwise
  std::string src_hash;  // run.py's hash of the library sources
  unsigned nproc = 0;
  std::string cpu_model;
  bool batch_simd_active = false;
  std::string evident_mmap;  // the EVIDENT_MMAP environment value
  std::string build_type;
  std::string save_dir;
  std::string flush_policy;
  bool traced = false;
  bool tiny = false;

  std::string ToJson() const;
};

Fingerprint CollectFingerprint();

/// JSON string literal for `s` (quotes included).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
