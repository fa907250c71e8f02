// perfbench: sets up one workload from a seed, measures it for a
// given time through the public API, checks every result against a
// reference engine, and prints one JSON result line last.
//
//   perfbench --workload serve|integrate|reopen --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//                    [--trace-out FILE] [--tiny] [--tamper-digest]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics (a traced run). perfbench/run.py builds and invokes it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve|integrate|reopen --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE] [--tiny] "
               "[--tamper-digest]\n",
               problem.c_str());
  std::exit(2);
}

perfbench::RunOptions ParseArgs(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--trace-out") {
      o.trace_path = value();
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--tamper-digest") {
      o.tamper_digest = true;
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (o.workload.empty() || !have_seed || o.work_dir.empty()) {
    Usage("--workload, --seed and --work-dir are required");
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunOptions options = ParseArgs(argc, argv);
  perfbench::Fingerprint fp = perfbench::CollectFingerprint();
  fp.workload = options.workload;
  fp.seed = options.seed;
  fp.traced = options.trace;
  fp.tiny = options.tiny;
  perfbench::RunResult result;
  try {
    result = perfbench::RunWorkload(options, &fp);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!options.trace) {
    const double attempted = static_cast<double>(result.attempted);
    result.metrics.push_back(
        {"ok_rate", "ratio",
         attempted > 0 ? 1.0 - static_cast<double>(result.failed) / attempted
                       : 0.0});
    result.metrics.push_back({"peak_rss_mb", "MB", perfbench::PeakRssMb()});
  }

  for (const perfbench::Metric& m : result.metrics) {
    std::fprintf(stderr, "perfbench: %-34s %16.6f %s\n", m.name.c_str(),
                 m.value, m.unit.c_str());
  }
  std::printf("{\"fingerprint\": %s}\n", fp.ToJson().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", i ? ", " : "",
                perfbench::JsonString(m.name).c_str(), m.value,
                perfbench::JsonString(m.unit).c_str());
  }
  std::printf("}}\n");
  return 0;
}
