#include "layers.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "algebra/expr.h"
#include "exec/batch_iterator.h"
#include "exec/morsel.h"

namespace perfbench {

Execution PlanAndRun(const fro::ExprPtr& query, const fro::Database& db,
                     fro::LruPlanCache* cache, fro::FeedbackStore* feedback,
                     int threads, SpanLog* log, uint64_t parent,
                     uint64_t request) {
  Execution run;
  const fro::CardinalityFeedback snapshot = [&] {
    ScopedSpan span(log, "optimizer.feedback_snapshot", parent, request);
    return feedback->Snapshot();
  }();
  fro::OptimizeOptions options;
  options.plan_cache = cache;
  options.feedback = &snapshot;
  fro::Result<fro::OptimizeOutcome> optimized = [&] {
    ScopedSpan span(log, "optimizer.optimize", parent, request);
    return fro::Optimize(query, db, options);
  }();
  if (!optimized.ok()) return run;
  fro::ParallelOptions parallel;
  parallel.threads = threads;
  fro::BatchIteratorPtr root = [&] {
    ScopedSpan span(log, "exec.build", parent, request);
    return fro::BuildParallelBatchIterator(optimized->plan, db, parallel);
  }();
  const int64_t drain_start = NowNs();
  fro::Result<fro::Relation> relation = [&] {
    ScopedSpan span(log, "exec.drain", parent, request);
    return fro::DrainChecked(root.get(), nullptr);
  }();
  run.drain_ns = NowNs() - drain_start;
  if (!relation.ok()) return run;
  {
    ScopedSpan span(log, "optimizer.feedback_observe", parent, request);
    run.stats = fro::SnapshotPlanStats(root.get());
    const double q_error = fro::ObservePlanExecution(
        feedback, optimized->plan->hash(), run.stats, optimized->op_estimates);
    cache->RecordExecution(query->hash(), q_error);
  }
  run.relation = std::move(*relation);
  run.outcome = std::move(*optimized);
  run.ok = true;
  return run;
}

void LayerCounters::AddOptimize(const fro::OptimizeOutcome& outcome) {
  if (outcome.original_cost > 0 && outcome.cost > 0) {
    cost_ratios.push_back(outcome.cost / outcome.original_cost);
  }
  if (outcome.cache_hit) return;
  ++pipeline_runs;
  for (const fro::PassStats& pass : outcome.passes) {
    plans_considered += pass.plans_considered;
    pass_applications[pass.pass] += static_cast<uint64_t>(pass.applications);
  }
}

void LayerCounters::AddExecution(const fro::PlanOpStats& stats, uint64_t rows,
                                 int64_t drain) {
  ++executions;
  rows_out += rows;
  drain_ns += drain;
  const fro::ExecStats total = fro::SumPipelineStats(stats);
  tuples_read += total.tuples_read();
  probes += total.probes;
  predicate_evals += total.predicate_evals;
  fro::ForEachOp(stats, [this](const fro::PlanOpStats& op, int) {
    if (op.passthrough) return;
    if (std::string_view(op.physical_name) == "LeapfrogTriejoin") {
      leapfrog_probes += op.stats.probes;
      trie_build_reads += op.stats.left_reads;
    }
    if (op.source_expr != nullptr &&
        op.source_expr->kind() == fro::OpKind::kSemijoin) {
      semijoin_reads += op.stats.tuples_read();
    }
  });
}

fro::PlanCacheStats CacheDelta(const fro::PlanCacheStats& before,
                               const fro::PlanCacheStats& after) {
  fro::PlanCacheStats delta = after;
  delta.hits -= before.hits;
  delta.misses -= before.misses;
  delta.insertions -= before.insertions;
  delta.evictions -= before.evictions;
  delta.replans -= before.replans;
  delta.stale_marks -= before.stale_marks;
  delta.invalidations -= before.invalidations;
  return delta;
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

double InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return values.empty()
             ? 0
             : sum / static_cast<double>(values.size() - 2 * cut);
}

void EmitLayerMetrics(const LayerInputs& in, RunResult* result) {
  const std::vector<Span>& spans = *in.spans;
  const LayerCounters& c = *in.counters;
  auto span_p50 = [&](const char* metric, const char* span) {
    std::vector<double> d = DurationsUs(spans, span);
    const uint64_t n = d.size();
    result->Add(metric, Median(std::move(d)), "us", n);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double runs = static_cast<double>(c.pipeline_runs);
  const double execs = static_cast<double>(c.executions);

  span_p50("lang.parse_us", "lang.parse");
  span_p50("lang.translate_us", "lang.translate");
  span_p50("relational.columnize_us", "relational.columnize");
  result->Add("server.ast_memo_hit_rate",
              ratio(static_cast<double>(in.ast_hits),
                    static_cast<double>(in.ast_lookups)),
              "ratio", in.ast_lookups);

  span_p50("optimizer.optimize_us", "optimizer.optimize");
  span_p50("optimizer.feedback_snapshot_us", "optimizer.feedback_snapshot");
  span_p50("optimizer.feedback_observe_us", "optimizer.feedback_observe");
  result->Add("optimizer.plans_considered",
              ratio(static_cast<double>(c.plans_considered), runs), "count",
              c.pipeline_runs);
  for (const char* pass :
       {"simplify", "reorder", "goj", "wcoj", "acyclic", "pushdown"}) {
    auto it = c.pass_applications.find(pass);
    const double apps =
        it == c.pass_applications.end() ? 0 : static_cast<double>(it->second);
    result->Add(std::string("optimizer.pass.") + pass + ".applications",
                ratio(apps, runs), "count", c.pipeline_runs);
  }
  result->Add("optimizer.cost_ratio", GeoMean(c.cost_ratios), "ratio",
              c.cost_ratios.size());
  const uint64_t lookups = in.cache_delta.hits + in.cache_delta.misses;
  result->Add("optimizer.plan_cache_hit_rate",
              ratio(static_cast<double>(in.cache_delta.hits),
                    static_cast<double>(lookups)),
              "ratio", lookups);
  result->Add("optimizer.plan_cache_evictions",
              static_cast<double>(in.cache_delta.evictions), "count", lookups);
  result->Add("optimizer.replans", static_cast<double>(in.cache_delta.replans),
              "count", lookups);
  result->Add("optimizer.max_q_error", in.max_q_error, "ratio",
              c.executions);

  span_p50("exec.build_us", "exec.build");
  span_p50("exec.drain_us", "exec.drain");
  result->Add("exec.rows_out", ratio(static_cast<double>(c.rows_out), execs),
              "count", c.executions);
  result->Add("exec.tuples_read",
              ratio(static_cast<double>(c.tuples_read), execs), "count",
              c.executions);
  result->Add("exec.reads_per_row",
              ratio(static_cast<double>(c.tuples_read),
                    static_cast<double>(c.rows_out)),
              "ratio", c.executions);
  result->Add("exec.probes", ratio(static_cast<double>(c.probes), execs),
              "count", c.executions);
  result->Add("exec.predicate_evals",
              ratio(static_cast<double>(c.predicate_evals), execs), "count",
              c.executions);
  result->Add("exec.drain_rows_per_s",
              ratio(static_cast<double>(c.rows_out),
                    static_cast<double>(c.drain_ns) / 1e9),
              "1/s", c.executions);
  result->Add("exec.morsel_speedup", in.morsel_speedup, "ratio",
              c.executions);
  result->Add("wcoj.leapfrog_probes",
              ratio(static_cast<double>(c.leapfrog_probes), execs), "count",
              c.executions);
  result->Add("wcoj.trie_build_reads",
              ratio(static_cast<double>(c.trie_build_reads), execs), "count",
              c.executions);
  result->Add("acyclic.semijoin_reads",
              ratio(static_cast<double>(c.semijoin_reads), execs), "count",
              c.executions);

  // Wire and session times of the same request, taken back to back.
  std::unordered_map<uint64_t, std::pair<double, double>> per_request;
  for (const Span& span : spans) {
    const std::string_view name(span.name);
    const double us = static_cast<double>(span.duration_ns()) / 1e3;
    if (name == "server.wire") per_request[span.request].first = us;
    if (name == "server.session") per_request[span.request].second = us;
  }
  std::vector<double> overhead;
  for (const auto& [request, times] : per_request) {
    if (times.first > 0 && times.second > 0) {
      overhead.push_back(times.first - times.second);
    }
  }
  span_p50("server.session_us", "server.session");
  span_p50("server.wire_us", "server.wire");
  const uint64_t paired = overhead.size();
  result->Add("server.overhead_us", Median(std::move(overhead)), "us",
              paired);
  span_p50("server.render_us", "server.render");
  result->Add("server.refused", static_cast<double>(in.refused), "count",
              lookups);

  // Time inside a replayed query that no layer span covers: the harness's
  // glue between calls (stats snapshots, feedback bookkeeping).
  const std::map<uint64_t, int64_t> self = SelfTimes(spans);
  std::vector<double> unaccounted;
  for (const Span& span : spans) {
    if (std::string_view(span.name) == "query") {
      unaccounted.push_back(static_cast<double>(self.at(span.id)) / 1e3);
    }
  }
  const uint64_t queries = unaccounted.size();
  result->Add("trace.unaccounted_us", Median(std::move(unaccounted)), "us",
              queries);
  result->Add("trace.overhead_pct", in.overhead_pct, "%", queries);
  result->Add("trace.spans", static_cast<double>(spans.size()), "count",
              spans.size());
}

}  // namespace perfbench
