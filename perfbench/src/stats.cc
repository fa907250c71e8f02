#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <thread>

#include "ds/combination.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

namespace {

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string(fallback);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

Fingerprint CollectFingerprint() {
  Fingerprint f;
  f.git_sha = EnvOr("PERFBENCH_GIT_SHA", "unavailable");
  f.src_hash = EnvOr("PERFBENCH_SRC_HASH", "unavailable");
  f.nproc = std::thread::hardware_concurrency();
  f.cpu_model = CpuModel();
  f.batch_simd_active = evident::BatchSimdActive();
  f.evident_mmap = EnvOr("EVIDENT_MMAP", "(unset)");
  f.build_type = PERFBENCH_BUILD_TYPE;
  return f;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Fingerprint::ToJson() const {
  std::ostringstream o;
  o << "{\"workload\": " << JsonString(workload) << ", \"seed\": " << seed
    << ", \"git_sha\": " << JsonString(git_sha)
    << ", \"src_hash\": " << JsonString(src_hash) << ", \"nproc\": " << nproc
    << ", \"cpu_model\": " << JsonString(cpu_model)
    << ", \"batch_simd_active\": " << (batch_simd_active ? "true" : "false")
    << ", \"evident_mmap\": " << JsonString(evident_mmap)
    << ", \"build_type\": " << JsonString(build_type)
    << ", \"save_dir\": " << JsonString(save_dir)
    << ", \"flush_policy\": " << JsonString(flush_policy)
    << ", \"traced\": " << (traced ? "true" : "false")
    << ", \"scale\": " << JsonString(tiny ? "tiny" : "full") << "}";
  return o.str();
}

}  // namespace perfbench
