// Per-layer accounting shared by the serve and analytic workloads: the
// run configuration, counters read from what fro already exposes
// (OptimizeOutcome pass stats, PlanOpStats, PlanCacheStats, the AST
// memo), and the one emitter that turns spans and counters into the
// per-layer metrics every traced run prints.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/stats_view.h"
#include "optimizer/feedback.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Cores the load may use: server workers plus generator threads, or
  /// intra-query workers, never exceed it.
  unsigned nproc = 1;
  /// Where a traced run writes its spans; empty writes none.
  std::string spans_path;
};

/// One query planned, run and fed back.
struct Execution {
  bool ok = false;
  fro::OptimizeOutcome outcome;
  fro::Relation relation;
  fro::PlanOpStats stats;
  int64_t drain_ns = 0;
};

/// The tail of lang::RunParsedQuery, called layer by layer: Optimize
/// through `cache` against a snapshot of `feedback`, build at `threads`
/// workers, drain, then feed the actuals back to the store and the
/// cache. Each step gets a span under `parent` on `log`:
/// optimizer.feedback_snapshot, optimizer.optimize, exec.build,
/// exec.drain, optimizer.feedback_observe.
Execution PlanAndRun(const fro::ExprPtr& query, const fro::Database& db,
                     fro::LruPlanCache* cache, fro::FeedbackStore* feedback,
                     int threads, SpanLog* log, uint64_t parent,
                     uint64_t request);

/// Counters gathered from the harness's own calls into the optimizer
/// and the executor.
struct LayerCounters {
  /// Calls that ran the rewrite pipeline (plan-cache misses).
  uint64_t pipeline_runs = 0;
  uint64_t plans_considered = 0;
  std::map<std::string, uint64_t> pass_applications;
  std::vector<double> cost_ratios;

  uint64_t executions = 0;
  uint64_t rows_out = 0;
  uint64_t tuples_read = 0;
  uint64_t probes = 0;
  uint64_t predicate_evals = 0;
  uint64_t leapfrog_probes = 0;
  uint64_t trie_build_reads = 0;
  uint64_t semijoin_reads = 0;
  int64_t drain_ns = 0;

  void AddOptimize(const fro::OptimizeOutcome& outcome);
  void AddExecution(const fro::PlanOpStats& stats, uint64_t rows,
                    int64_t drain_ns);
};

/// Everything a traced run measured, besides the spans' own durations.
struct LayerInputs {
  const std::vector<Span>* spans = nullptr;
  const LayerCounters* counters = nullptr;
  /// Plan-cache counters over the traced phases.
  fro::PlanCacheStats cache_delta;
  double max_q_error = 1;
  /// AST-memo hits and lookups over the traced phases (serve only).
  uint64_t ast_hits = 0;
  uint64_t ast_lookups = 0;
  uint64_t refused = 0;
  /// Serial drain time over parallel drain time of the same plans; 0
  /// where not measured.
  double morsel_speedup = 0;
  /// Traced over untraced time per unit of work, minus one, in percent.
  double overhead_pct = 0;
};

/// Appends every per-layer metric, in a fixed order, to `result`.
/// Metrics of layers a workload bypasses read 0.
void EmitLayerMetrics(const LayerInputs& in, RunResult* result);

/// Plan-cache counters accumulated between two snapshots.
fro::PlanCacheStats CacheDelta(const fro::PlanCacheStats& before,
                               const fro::PlanCacheStats& after);

/// The median of `values` (0 when empty).
double Median(std::vector<double> values);

/// The mean of `values` without their lowest and highest quarter (each
/// rounded down); 0 when empty.
double InterquartileMean(std::vector<double> values);

/// One metric measured per segment of a phase; the reported value is the
/// interquartile mean of the segments. On a shared VM the host's speed
/// moves in phases of seconds to minutes (every analytic query ran about
/// 1.35x slower in one), with short stalls on top.
/// Dropping the outer quarters ignores the stalls, and averaging the
/// middle half follows the share of slow phases smoothly instead of
/// jumping between the fast and the slow level as a single quantile does.
/// A change that slows every request moves every segment and so the value.
class SegmentStat {
 public:
  void Add(double value, uint64_t samples) {
    values_.push_back(value);
    samples_ += samples;
  }
  /// Adds the metric, and its per-segment values to the record.
  void Emit(const std::string& name, const std::string& unit,
            RunResult* result) const {
    result->Add(name, InterquartileMean(values_), unit, samples_);
    std::string list;
    for (double v : values_) list += (list.empty() ? "" : ", ") + JsonNumber(v);
    result->Detail("segments." + name, "[" + list + "]");
  }

 private:
  std::vector<double> values_;
  uint64_t samples_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
