// In-memory span log of the traced run. Spans are recorded by the
// benchmark around its own calls into each library module (server,
// query, core, ds, storage) and written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent = -1;  // index into the owning log; -1 = none
  uint64_t stmt = 0;    // statement id shared by one statement's spans
  int cls = -1;         // statement class, -1 outside statements

  double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

/// One thread's spans. Not thread-safe: every client owns its own log
/// and the logs are merged after the clients have been joined.
class SpanLog {
 public:
  /// Records a finished span and returns its index (usable as a parent).
  int64_t Add(const char* name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t stmt, int cls);

  /// Times `fn()` as a span and returns the span's index.
  template <typename Fn>
  int64_t Time(const char* name, int64_t parent, uint64_t stmt, int cls,
               Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    return Add(name, start, Clock::now(), parent, stmt, cls);
  }

  /// Re-parents a recorded span (a replayed child is attributed to the
  /// real call it stands for once that call's cache outcome is known).
  void SetParent(int64_t span, int64_t parent) { spans_[span].parent = parent; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends another log, shifting its parent indices.
  void Absorb(const SpanLog& other);

 private:
  std::vector<Span> spans_;
};

/// Aggregates over a merged log.
struct TraceSummary {
  /// Durations (ms) of every span, by name.
  std::map<std::string, std::vector<double>> durations;
  /// Self times (ms): duration minus the summed durations of the span's
  /// children (the replayed children of a call never overlap each other).
  std::map<std::string, std::vector<double>> self;
  /// Per statement class: summed durations of the children of the
  /// `root` spans, and summed durations of the roots themselves.
  std::map<int, double> covered_ms, root_ms;
};

TraceSummary Summarize(const SpanLog& log, const char* root);

/// Writes the log as JSON: the fingerprint, the class names, and one
/// [name, start_us, end_us, parent, stmt, class] array per span, with
/// times relative to `epoch`.
bool WriteTrace(const std::string& path, const std::string& fingerprint_json,
                const std::vector<std::string>& class_names,
                const SpanLog& log, Clock::time_point epoch);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
