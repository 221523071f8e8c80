// Morsel-driven intra-query parallelism for the batch engine.
//
// A parallelizable plan region — its "spine": the probe/preserved side of
// a chain of filters, projections, and join-likes down to one base
// relation — runs as N worker pipelines behind one exchange. Each worker
// is compiled by the serial plan builder (exec/build.cc) with two
// substitutions: the spine's driver leaf becomes a MorselScanIterator,
// which pulls fixed-size row ranges ("morsels") from a shared atomic
// work queue so the scan self-balances, and each non-leaf off-spine
// input becomes a scan over one shared materialization that the
// exchange drains once per Open(). Everything else — filters, hash and
// nested-loop joins with their build-side flip, the GOJ — is the
// ordinary serial operator; every worker hashes the same shared build
// rows in build order, so candidate sets and their order equal the
// serial plan's. A BatchExchangeIterator hands the workers' batches
// through a bounded queue to the serial consumers above it (union,
// duplicate-eliminating projection, the rest of the plan).
//
// The paper-specific twist is outerjoin padding. Left-outer/anti padding
// is per probe row, hence naturally worker-local and exactly-once. GOJ
// padding (eq. 14) is not: it pads per *distinct* S-projection of the
// preserved operand absent from π[S] of the join, a property no single
// worker can decide. Each worker's GOJ runs the kernel's join step over
// its rows and folds the two projection sets into the exchange's
// GojPadMerge; the last worker to fold emits the pads, exactly once.
//
// Counter parity: each probe row is processed by exactly one worker and
// every worker operator is the serial one, so summing a counter across
// workers (CollectWorkerStats / SnapshotMerged), with the shared inputs'
// own pipelines and the base relations every worker scans whole counted
// once, reproduces the serial counters node by node — EXPLAIN ANALYZE,
// the feedback loop and fro_fuzz's stats-parity checks hold unchanged. With
// threads <= 1 the builder returns the ordinary serial batch plan,
// bit-identical to BuildBatchIterator's.

#ifndef FRO_EXEC_MORSEL_H_
#define FRO_EXEC_MORSEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "algebra/expr.h"
#include "exec/batch_iterator.h"
#include "exec/stats_view.h"
#include "relational/column.h"
#include "relational/database.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace fro {

/// Knobs for the parallel plan builder. The defaults parallelize a
/// 200k-row scan into ~200 morsels; tests and the fuzzer shrink
/// `morsel_rows`/`batch_capacity` to force cross-morsel paths on tiny
/// relations.
struct ParallelOptions {
  /// Worker pipelines per exchange; <= 1 builds the serial batch plan.
  int threads = 1;
  /// Rows per morsel claimed from the shared queue.
  size_t morsel_rows = 1024;
  /// TupleBatch capacity of the worker pipelines and the merged stream.
  size_t batch_capacity = TupleBatch::kDefaultCapacity;
  /// Join strategy, as in the serial builders.
  JoinAlgo algo = JoinAlgo::kAuto;
};

/// Work queue over the row range [0, total_rows): workers claim disjoint
/// morsels with one relaxed fetch_add until the range is exhausted.
class MorselQueue {
 public:
  MorselQueue(size_t total_rows, size_t morsel_rows);

  /// Re-arms the queue for a rescan. Call only while no worker claims.
  void Reset() { next_.store(0, std::memory_order_relaxed); }

  /// Claims the next morsel as [*begin, *end); false when exhausted.
  bool Claim(size_t* begin, size_t* end);

  size_t total_rows() const { return total_rows_; }
  size_t morsel_rows() const { return morsel_rows_; }

 private:
  size_t total_rows_;
  size_t morsel_rows_;
  std::atomic<size_t> next_{0};
};

/// Base-relation scan over morsels claimed from a shared queue. Each
/// claimed morsel streams out as zero-copy views of the relation's row
/// storage, at most a batch-capacity of rows at a time.
class MorselScanIterator : public BatchIterator {
 public:
  /// `columns` optionally attaches a relation-wide column cache shared by
  /// every worker (RelationColumns is internally synchronized), giving
  /// downstream vectorized operators transpose-free column access.
  MorselScanIterator(const Relation* relation,
                     std::shared_ptr<MorselQueue> queue,
                     std::shared_ptr<RelationColumns> columns = nullptr);
  const Scheme& scheme() const override;
  const char* physical_name() const override { return "MorselScan"; }

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  const Relation* relation_;
  std::shared_ptr<MorselQueue> queue_;
  std::shared_ptr<RelationColumns> columns_;
  size_t begin_ = 0;  // unconsumed remainder of the claimed morsel
  size_t end_ = 0;
};

class GojPadMerge;   // exec/batch_operators.h
struct SharedInput;  // morsel.cc: one off-spine input, drained per Open()

/// What one exchange shares among its workers: the morsel queue over the
/// spine's driver relation, the off-spine inputs' materializations, the
/// spine GOJs' pad merges, and the worker pipelines themselves. The plan
/// builder fills it while compiling each worker. Shared inputs and merges
/// are keyed by the spine operator they belong to, so every worker's copy
/// of that operator gets the same one.
class ExchangeState {
 public:
  ExchangeState();
  ~ExchangeState();

  /// The worker's driver scan. The first call fixes the driver relation
  /// and creates the queue; later workers claim from the same queue.
  BatchIteratorPtr MorselScan(const Relation* driver,
                              std::shared_ptr<RelationColumns> columns,
                              size_t morsel_rows);

  /// A scan of the shared materialization of spine operator `owner`'s
  /// off-spine input (each spine operator has exactly one). `build`
  /// compiles that input; it runs only for the first worker that asks.
  BatchIteratorPtr SharedInputScan(
      const Expr* owner, const std::function<BatchIteratorPtr()>& build);

  /// The pad merge of spine GOJ `goj`.
  std::shared_ptr<GojPadMerge> PadMerge(const Expr* goj);

  void AddWorker(BatchIteratorPtr worker);

 private:
  friend class BatchExchangeIterator;

  std::shared_ptr<MorselQueue> queue_;
  const Relation* driver_ = nullptr;
  std::unordered_map<const Expr*, std::shared_ptr<SharedInput>> inputs_;
  std::unordered_map<const Expr*, std::shared_ptr<GojPadMerge>> merges_;
  std::vector<BatchIteratorPtr> workers_;
};

/// Gathers N worker pipelines into one merged batch stream.
///
/// Open() materializes the shared inputs (each drained once), resets the
/// morsel queue, re-arms the GOJ pad merges, and spawns one thread per
/// worker; NextBatch() hands over whole worker batches from a bounded
/// queue (swapped, not copied); Close() wakes and joins the workers. The
/// workers and shared input subtrees are internal — children() stays
/// empty — so generic tree walks see a leaf; stats rollups instead splice
/// in SnapshotMerged(), a node-wise cross-worker merge of the worker
/// pipelines that counts shared work once. The exchange node itself is
/// stats-passthrough (PlanOpStats::passthrough).
class BatchExchangeIterator : public BatchIterator {
 public:
  BatchExchangeIterator(std::unique_ptr<ExchangeState> state,
                        size_t batch_capacity);
  ~BatchExchangeIterator() override;

  const Scheme& scheme() const override;
  const char* physical_name() const override { return "Exchange"; }
  void EnableTiming(bool on = true) override;
  void SetControl(ExecControl* control) override;

  /// Pipeline totals of everything behind the exchange: worker operator
  /// counters plus the shared input subtrees' totals, each counted once.
  ExecStats CollectWorkerStats() const;

  /// The worker pipelines merged node-wise (counters summed), with each
  /// shared input's snapshot spliced in where its scan sits and each
  /// off-spine base relation, scanned whole by every worker, counted
  /// once: every node reports the serial plan's counters.
  PlanOpStats SnapshotMerged() const;

 protected:
  void OpenImpl() override;
  bool NextBatchImpl(TupleBatch* out) override;
  void CloseImpl() override;

 private:
  /// Batches parked between producers and the consumer, per worker,
  /// before producers block.
  static constexpr size_t kQueueBatchesPerWorker = 4;

  void WorkerMain(size_t worker_index);

  std::unique_ptr<ExchangeState> state_;
  size_t batch_capacity_;
  size_t max_queued_ = 1;

  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<TupleBatch> ready_;
  /// Batches the consumer swapped out, recycled into the producers.
  std::vector<TupleBatch> spare_;
  size_t producers_live_ = 0;
  bool closed_ = false;
  std::vector<std::thread> threads_;
};

/// Parallel counterpart of BuildBatchIterator (defined with it in
/// exec/build.cc): compiles parallelizable regions to exchanges over
/// `options.threads` morsel-driven workers and everything else (unions,
/// deduplicating projections, multiway joins) to the ordinary serial
/// operators consuming the merged streams. With `options.threads <= 1`
/// this IS BuildBatchIterator — same objects, same plan, bit-identical
/// execution.
BatchIteratorPtr BuildParallelBatchIterator(const ExprPtr& expr,
                                            const Database& db,
                                            const ParallelOptions& options);

}  // namespace fro

#endif  // FRO_EXEC_MORSEL_H_
