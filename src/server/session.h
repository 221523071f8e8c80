// The query-serving session: every data-bearing verb (QUERY / EXPLAIN /
// ANALYZE) funnels through here. One QuerySession is shared by all
// worker threads; it is stateless per call apart from three shared,
// internally synchronized components:
//
//   * an AST memo — repeated query texts are lexed and parsed once and
//     the SelectQuery replayed (the lang layer's parse-once reuse),
//   * the LRU plan cache threaded into Optimize (hash-keyed plan reuse),
//   * the metrics registry (latency, outcomes, per-operator totals).
//
// QUERY runs through lang::RunParsedQuery — the one Status-carrying
// execution surface — with the caller's ExecControl attached, so
// deadlines and CANCEL stop it mid-drain and surface as kCancelled /
// kDeadlineExceeded statuses; results render as the canonical table
// (sorted rows and columns), which is what makes "byte-identical to
// serial execution" a testable claim. Per-operator metrics roll up from
// the executed pipeline's PlanOpStats snapshot.

#ifndef FRO_SERVER_SESSION_H_
#define FRO_SERVER_SESSION_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "exec/batch_iterator.h"
#include "lang/ast.h"
#include "lang/model.h"
#include "server/metrics.h"
#include "optimizer/feedback.h"
#include "optimizer/plan_cache.h"
#include "server/protocol.h"

namespace fro {

/// A shared pool of *extra* intra-query worker threads — the server's
/// admission control for morsel-driven parallelism (exec/morsel.h). A
/// query wanting N workers asks for N-1 extras (it always keeps its own
/// serving thread); TryAcquire is best-effort and may grant fewer,
/// including zero, in which case the query simply runs serially. A busy
/// server therefore degrades to serial execution instead of queueing or
/// oversubscribing cores.
class ThreadBudget {
 public:
  explicit ThreadBudget(size_t capacity) : available_(capacity) {}

  /// Grants min(want, available) extra threads and reserves them.
  size_t TryAcquire(size_t want);

  /// Returns `granted` threads to the pool (pass TryAcquire's result).
  void Release(size_t granted);

  size_t available() const;

 private:
  mutable std::mutex mu_;
  size_t available_;
};

struct SessionOptions {
  /// Parsed-AST memo entries kept (LRU); 0 disables the memo.
  size_t ast_cache_capacity = 256;
  /// Per-query execution deadline armed through RunOptions; <= 0
  /// disables deadlines.
  int default_deadline_ms = 0;
  /// Intra-query worker threads used when a request carries no
  /// `?threads=` option; 1 = serial (the bit-identical default).
  int default_query_threads = 1;
  /// Hard per-request cap: a `?threads=N` ask is clamped to this before
  /// consulting the budget.
  int max_query_threads = 1;
  /// Optional shared pool of extra worker threads (admission control
  /// across concurrent queries). Not owned; null means no pooling — every
  /// request gets its clamped ask.
  ThreadBudget* thread_budget = nullptr;
  /// Optional shared cardinality-feedback store (optimizer/feedback.h).
  /// QUERY executions feed their measured per-operator cardinalities in
  /// and report Q-error to the plan cache; all three verbs plan against
  /// a snapshot of the corrections, and ANALYZE marks corrected
  /// estimates. Not owned; null disables the feedback loop.
  FeedbackStore* feedback = nullptr;
};

class QuerySession {
 public:
  /// None of the pointers are owned; `metrics` and `plan_cache` may be
  /// null (no recording / no caching). `db` must outlive the session and
  /// stay unmodified while queries run.
  QuerySession(const NestedDb* db, LruPlanCache* plan_cache,
               ServerMetrics* metrics,
               SessionOptions options = SessionOptions());

  /// Serves one QUERY / EXPLAIN / ANALYZE request. `control` may be null
  /// (no deadline, not cancellable). Thread-safe.
  Response Execute(const Request& request, ExecControl* control);

  /// Parse-once memo counters (hits = reused ASTs).
  uint64_t ast_hits() const;
  uint64_t ast_misses() const;

 private:
  Result<SelectQuery> ParseCached(const std::string& text);

  /// Resolves a request's thread ask into the worker count the query may
  /// actually use: clamp to [1, max_query_threads], then reserve the
  /// extras (ask - 1) from the budget. Pair with ReleaseThreads.
  int AcquireThreads(int requested);
  void ReleaseThreads(int acquired);

  Response RunQueryVerb(const std::string& text, int threads,
                        ExecControl* control, bool* cache_hit);
  Response RunExplainVerb(const std::string& text);
  Response RunAnalyzeVerb(const std::string& text, int threads);

  const NestedDb* db_;
  LruPlanCache* plan_cache_;
  ServerMetrics* metrics_;
  SessionOptions options_;

  mutable std::mutex ast_mu_;
  /// Front = most recently used.
  std::list<std::pair<std::string, SelectQuery>> ast_lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, SelectQuery>>::iterator>
      ast_index_;
  uint64_t ast_hits_ = 0;
  uint64_t ast_misses_ = 0;
};

}  // namespace fro

#endif  // FRO_SERVER_SESSION_H_
