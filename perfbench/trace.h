// Spans and sample statistics for the fro benchmark.
//
// A span records one call into a fro layer, timed from the harness: its
// name (`<layer>.<step>`, named after the src/ module), start and end on
// the steady clock, the span that caused it, and the request it belongs
// to. Spans are kept in memory, one SpanLog per thread, and written out
// when the run ends. A disabled log records nothing and reads no clock,
// so the untraced runs pay for one branch per call site.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

struct Span {
  /// `<layer>.<step>`; a string literal, never freed.
  const char* name = "";
  uint64_t id = 0;
  /// 0 for a root span.
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// One thread's spans. Ids are unique across logs made with distinct
/// `log_index` values.
class SpanLog {
 public:
  SpanLog(bool enabled, uint32_t log_index)
      : enabled_(enabled), next_id_((uint64_t{log_index} << 40) + 1) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  /// Closes the span `id` opened on this log.
  void End(uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint64_t next_id_;
  std::vector<Span> spans_;
  /// Index into spans_ of each span still open, innermost last.
  std::vector<size_t> open_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
             uint64_t request)
      : log_(log), id_(log->Begin(name, parent, request)) {}
  ~ScopedSpan() { log_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation
/// between closest ranks: position q * (n - 1) of the sorted values.
/// Sorts `values` in place; 0 for an empty vector.
double Quantile(std::vector<double>* values, double q);

/// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& values);

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once). Keyed by
/// span id.
std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans);

/// Checks that `spans` form a forest: ids unique and nonzero, every
/// parent present, every child inside its parent's interval and in its
/// parent's request, every span closed (end >= start). Returns "" when
/// well formed, else the first violation.
std::string CheckSpanTree(const std::vector<Span>& spans);

/// Durations in microseconds of every span called `name`.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name);

/// Writes one JSON object per span, one per line. False on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
