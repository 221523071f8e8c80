// One-call facade for the Section 5 language: parse, translate, verify
// free reorderability, optimize, execute.
//
// Execution goes through the pipelined batch executor and drains through
// the Status-carrying DrainChecked surface, so a cancelled or
// deadline-exceeded run comes back as an error Status instead of a
// silently truncated relation.

#ifndef FRO_LANG_LANG_H_
#define FRO_LANG_LANG_H_

#include <chrono>
#include <optional>
#include <string>

#include "exec/batch_iterator.h"
#include "exec/stats_view.h"
#include "lang/ast.h"
#include "lang/model.h"
#include "lang/translate.h"
#include "optimizer/feedback.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace fro {

struct QueryRunResult {
  /// The flattened result relation.
  Relation relation;
  /// The translation artifacts (flattened database, graph, audit).
  TranslationResult translation;
  /// The optimizer's outcome (plan actually executed).
  OptimizeOutcome optimize;
  /// Per-operator execution counters of the pipeline that produced
  /// `relation` (see exec/stats_view.h).
  PlanOpStats plan_stats;
  /// Worst per-operator Q-error of this execution against the estimates
  /// the plan was chosen with; 1.0 when no feedback store was attached
  /// (nothing measured).
  double max_q_error = 1.0;
};

/// Execution options shared by every run surface: lang::RunQuery,
/// prepared-AST replay (RunParsedQuery), and the server's per-request
/// path all consume this one struct, so deadline, cache, and thread
/// count are set in exactly one place. Builder-style: construct, then
/// chain WithX() setters —
///
///   RunQuery(db, text, RunOptions()
///                          .WithPlanCache(&cache)
///                          .WithDeadline(std::chrono::milliseconds(50)));
struct RunOptions {
  /// Reorder via the DP optimizer; with false the translator's
  /// implementing tree is executed as is.
  bool optimize = true;
  CostKind cost_kind = CostKind::kCout;
  /// Optional plan cache threaded through to Optimize (keyed on the
  /// translated query's structural hash; see optimizer/plan_cache.h).
  /// Not owned. With caching, OptimizeOutcome::cache_hit reports reuse.
  PlanCacheInterface* plan_cache = nullptr;
  /// Physical join strategy constraint passed to the plan builder.
  JoinAlgo join_algo = JoinAlgo::kAuto;
  /// Worker threads for morsel-driven intra-query parallelism
  /// (exec/morsel.h); <= 1 executes the ordinary serial plan,
  /// bit-identical to the single-threaded engine.
  int threads = 1;
  /// Optional cooperative interrupt, e.g. the server's per-request cancel
  /// handle. Not owned; must outlive the run. When null and a deadline is
  /// set, the run uses an internal control.
  ExecControl* control = nullptr;
  /// Optional wall-clock budget for execution, armed on `control` (or on
  /// an internal control) when the run starts. Exceeding it surfaces as
  /// StatusCode::kDeadlineExceeded.
  std::optional<std::chrono::milliseconds> deadline;
  /// Optional cardinality-feedback store (optimizer/feedback.h). When
  /// set, each run plans against a snapshot of its corrections, then
  /// feeds its own measured per-operator cardinalities back — and, with
  /// `plan_cache` also set, reports the execution's Q-error so stale
  /// entries get re-planned. Not owned; must be thread-safe if runs are
  /// concurrent (FeedbackStore is).
  FeedbackStore* feedback = nullptr;

  RunOptions& WithOptimize(bool on) {
    optimize = on;
    return *this;
  }
  RunOptions& WithCostKind(CostKind kind) {
    cost_kind = kind;
    return *this;
  }
  RunOptions& WithPlanCache(PlanCacheInterface* cache) {
    plan_cache = cache;
    return *this;
  }
  RunOptions& WithJoinAlgo(JoinAlgo algo) {
    join_algo = algo;
    return *this;
  }
  RunOptions& WithThreads(int n) {
    threads = n;
    return *this;
  }
  RunOptions& WithControl(ExecControl* c) {
    control = c;
    return *this;
  }
  RunOptions& WithDeadline(std::chrono::milliseconds budget) {
    deadline = budget;
    return *this;
  }
  RunOptions& WithFeedback(FeedbackStore* store) {
    feedback = store;
    return *this;
  }
};

/// Parses and runs `query_text` against `nested`. Fails on syntax errors,
/// unknown types/fields, or disconnected From lists — and, through the
/// DrainChecked execution surface, on cancellation (kCancelled) or an
/// exceeded deadline (kDeadlineExceeded).
Result<QueryRunResult> RunQuery(const NestedDb& nested,
                                const std::string& query_text,
                                const RunOptions& options = RunOptions());

/// Runs an already-parsed query: the translate/optimize/execute tail of
/// RunQuery. Lets a serving layer parse once and replay the AST across
/// EXPLAIN / ANALYZE / execute without re-lexing the text.
Result<QueryRunResult> RunParsedQuery(const NestedDb& nested,
                                      const SelectQuery& ast,
                                      const RunOptions& options =
                                          RunOptions());

}  // namespace fro

#endif  // FRO_LANG_LANG_H_
