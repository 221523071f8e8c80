#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace perfbench {

uint64_t SpanLog::Begin(const char* name, uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return span.id;
}

void SpanLog::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const int64_t now = NowNs();
  for (size_t i = open_.size(); i-- > 0;) {
    Span& span = spans_[open_[i]];
    if (span.id != id) continue;
    span.end_ns = now;
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*values)[lo] + frac * ((*values)[hi] - (*values)[lo]);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      child_intervals;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      child_intervals[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& span : spans) {
    int64_t covered = 0;
    auto it = child_intervals.find(span.id);
    if (it != child_intervals.end()) {
      std::vector<std::pair<int64_t, int64_t>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      // Union of the children's intervals, clipped to the parent's.
      int64_t run_start = 0, run_end = 0;
      bool in_run = false;
      for (const auto& [start, end] : intervals) {
        const int64_t s = std::max(start, span.start_ns);
        const int64_t e = std::min(end, span.end_ns);
        if (e <= s) continue;
        if (in_run && s <= run_end) {
          run_end = std::max(run_end, e);
          continue;
        }
        if (in_run) covered += run_end - run_start;
        run_start = s;
        run_end = e;
        in_run = true;
      }
      if (in_run) covered += run_end - run_start;
    }
    self[span.id] = span.duration_ns() - covered;
  }
  return self;
}

std::string CheckSpanTree(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  for (const Span& span : spans) {
    if (span.id == 0) return std::string("span ") + span.name + " has id 0";
    if (!by_id.emplace(span.id, &span).second) {
      return "duplicate span id " + std::to_string(span.id);
    }
    if (span.end_ns < span.start_ns) {
      return std::string("span ") + span.name + " ends before it starts";
    }
  }
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    auto it = by_id.find(span.parent);
    if (it == by_id.end()) {
      return std::string("span ") + span.name + " has a missing parent";
    }
    const Span& parent = *it->second;
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      return std::string("span ") + span.name + " lies outside its parent " +
             parent.name;
    }
    if (span.request != parent.request) {
      return std::string("span ") + span.name +
             " belongs to another request than its parent " + parent.name;
    }
  }
  // Every chain of parents ends at a root: no cycles.
  for (const Span& span : spans) {
    const Span* at = &span;
    for (size_t steps = 0; at->parent != 0; ++steps) {
      if (steps > spans.size()) {
        return std::string("span ") + span.name + " sits on a parent cycle";
      }
      at = by_id.at(at->parent);
    }
  }
  return "";
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (std::string_view(span.name) == name) {
      out.push_back(static_cast<double>(span.duration_ns()) / 1e3);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
