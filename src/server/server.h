// fro_serve's TCP front end: an acceptor thread plus a fixed worker pool
// behind a bounded admission queue.
//
// Architecture. The acceptor enqueues accepted connections; each worker
// pops one and serves its frames sequentially until the client closes, so
// the worker count bounds in-flight queries and the queue bounds waiting
// connections. When the queue is full the acceptor replies with one
// `ERR ResourceExhausted` frame and closes — load is shed at admission,
// never by blocking the accept loop.
//
// Deadlines and cancellation. Every QUERY gets an ExecControl with a
// deadline of `options.default_deadline_ms`; the executor checks it
// cooperatively (exec/batch_iterator.h), so runaway queries stop within
// one batch. A QUERY whose verb carried `@tag` is registered while it runs,
// and `CANCEL tag` from any connection raises its cancel flag.
//
// Sharing. All workers share one read-only NestedDb, one LruPlanCache,
// and one ServerMetrics; per-query state (translation, plan, pipeline)
// is worker-local. This is exactly the concurrency regime the
// concurrent_smoke_test exercises under ThreadSanitizer.

#ifndef FRO_SERVER_SERVER_H_
#define FRO_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/batch_iterator.h"
#include "lang/model.h"
#include "server/metrics.h"
#include "optimizer/plan_cache.h"
#include "server/session.h"

namespace fro {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back via port() — how the tests avoid collisions).
  int port = 0;
  /// Worker threads = maximum concurrently served connections.
  int num_workers = 4;
  /// Admission queue bound: connections accepted but not yet claimed by a
  /// worker. Beyond it, new connections are refused with
  /// ResourceExhausted.
  int max_pending = 16;
  /// Per-query execution deadline; <= 0 disables deadlines.
  int default_deadline_ms = 30000;
  /// Plan-cache entries; 0 serves every query cold (cache off).
  size_t plan_cache_capacity = 128;
  /// Per-query cap on `?threads=N` asks (morsel-driven intra-query
  /// parallelism, exec/morsel.h); 1 serves every query serially.
  int max_query_threads = 1;
  /// Shared pool of *extra* intra-query worker threads across all
  /// concurrently served queries. 0 means no extras: every query runs
  /// serially no matter what it asks for. Extras are granted best-effort
  /// per query and returned when it finishes.
  int exec_thread_budget = 0;
  /// Cardinality-feedback loop (optimizer/feedback.h): executions feed
  /// measured per-operator cardinalities into a shared store, plans are
  /// chosen against the corrected numbers, and cached plans whose running
  /// Q-error drifts past the threshold are re-optimized once. Off turns
  /// the server back into a purely static-estimate planner.
  bool enable_feedback = true;
  /// Distinct subexpressions the feedback store remembers.
  size_t feedback_capacity = 1024;
  /// Running-Q-error threshold past which a cached plan is marked stale
  /// and re-planned on its next planning lookup.
  double q_error_threshold = 4.0;
};

class FroServer {
 public:
  /// `db` must outlive the server and is never mutated.
  FroServer(const NestedDb* db, ServerOptions options);
  ~FroServer();

  FroServer(const FroServer&) = delete;
  FroServer& operator=(const FroServer&) = delete;

  /// Binds, listens, and spawns the acceptor + workers.
  Status Start();

  /// Stops accepting, interrupts open connections and running queries,
  /// joins all threads. Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  int port() const { return port_; }

  const ServerMetrics& metrics() const { return metrics_; }
  const LruPlanCache& plan_cache() const { return plan_cache_; }
  const QuerySession& session() const { return *session_; }
  const FeedbackStore& feedback_store() const { return feedback_store_; }

  /// The STATS verb's payload: metrics, plan-cache, feedback, and
  /// AST-memo lines.
  std::string StatsText() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  Response Dispatch(const Request& request);

  /// Registry of cancellable in-flight queries (tag -> control).
  void RegisterQuery(const std::string& tag, ExecControl* control);
  void UnregisterQuery(const std::string& tag);
  bool CancelQuery(const std::string& tag);

  const NestedDb* db_;
  ServerOptions options_;
  LruPlanCache plan_cache_;
  /// Shared actuals registry feeding the re-planning loop; populated by
  /// every QUERY regardless of worker, consulted by every optimization.
  FeedbackStore feedback_store_;
  ServerMetrics metrics_;
  /// Admission control for intra-query parallelism, shared by all
  /// sessions/workers; sized by options_.exec_thread_budget.
  ThreadBudget thread_budget_;
  std::unique_ptr<QuerySession> session_;

  std::atomic<bool> running_{false};
  /// Atomic because Stop() closes it while AcceptLoop reads it to accept.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // accepted, unclaimed connection fds

  std::mutex conn_mu_;
  std::unordered_set<int> open_conns_;  // fds being served, for Stop()

  std::mutex inflight_mu_;
  std::unordered_map<std::string, ExecControl*> inflight_;
};

}  // namespace fro

#endif  // FRO_SERVER_SERVER_H_
