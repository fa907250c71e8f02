#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

int64_t SpanLog::Add(const char* name, Clock::time_point start,
                     Clock::time_point end, int64_t parent, uint64_t stmt,
                     int cls) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.stmt = stmt;
  s.cls = cls;
  spans_.push_back(s);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::Absorb(const SpanLog& other) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
}

TraceSummary Summarize(const SpanLog& log, const char* root) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> children_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) children_ms[s.parent] += s.ms();
  }
  TraceSummary out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out.durations[s.name].push_back(s.ms());
    out.self[s.name].push_back(s.ms() - children_ms[i]);
    if (std::strcmp(s.name, root) == 0) {
      out.covered_ms[s.cls] += children_ms[i];
      out.root_ms[s.cls] += s.ms();
    }
  }
  return out;
}

bool WriteTrace(const std::string& path, const std::string& fingerprint_json,
                const std::vector<std::string>& class_names,
                const SpanLog& log, Clock::time_point epoch) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"fingerprint\": %s,\n\"classes\": [",
               fingerprint_json.c_str());
  for (size_t i = 0; i < class_names.size(); ++i) {
    std::fprintf(f, "%s%s", i ? ", " : "", JsonString(class_names[i]).c_str());
  }
  std::fprintf(f,
               "],\n\"span_fields\": [\"name\", \"start_us\", \"end_us\", "
               "\"parent\", \"stmt\", \"class\"],\n\"spans\": [\n");
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  const std::vector<Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "[\"%s\", %.3f, %.3f, %lld, %llu, %d]%s\n", s.name,
                 us(s.start), us(s.end), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.stmt), s.cls,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
