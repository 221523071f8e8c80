#include "exec/morsel.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "exec/batch_operators.h"

namespace fro {

// --- Morsel queue / scan ---------------------------------------------------

MorselQueue::MorselQueue(size_t total_rows, size_t morsel_rows)
    : total_rows_(total_rows), morsel_rows_(morsel_rows) {
  FRO_CHECK_GE(morsel_rows_, size_t{1});
}

bool MorselQueue::Claim(size_t* begin, size_t* end) {
  const size_t start = next_.fetch_add(morsel_rows_, std::memory_order_relaxed);
  if (start >= total_rows_) return false;
  *begin = start;
  *end = std::min(total_rows_, start + morsel_rows_);
  return true;
}

MorselScanIterator::MorselScanIterator(const Relation* relation,
                                       std::shared_ptr<MorselQueue> queue,
                                       std::shared_ptr<RelationColumns> columns)
    : relation_(relation),
      queue_(std::move(queue)),
      columns_(std::move(columns)) {
  FRO_CHECK(relation_ != nullptr);
  FRO_CHECK(queue_ != nullptr);
}

void MorselScanIterator::OpenImpl() {
  begin_ = 0;
  end_ = 0;
}

bool MorselScanIterator::NextBatchImpl(TupleBatch* out) {
  if (begin_ >= end_ && !queue_->Claim(&begin_, &end_)) return false;
  const size_t n = std::min(out->capacity(), end_ - begin_);
  out->SetView(&relation_->rows()[begin_], n, columns_.get(), begin_);
  begin_ += n;
  return true;
}

void MorselScanIterator::CloseImpl() {}

const Scheme& MorselScanIterator::scheme() const {
  return relation_->scheme();
}

// --- Shared off-spine inputs -----------------------------------------------

/// One off-spine input of a spine operator, compiled once and drained
/// once per exchange Open() into rows every worker scans read-only. Its
/// counters are captured at the drain and spliced into rollups once,
/// however many workers scan the result.
struct SharedInput {
  BatchIteratorPtr child;
  Relation rows;
  std::unique_ptr<RelationColumns> columns;  // lazily-filled mirror of rows
  PlanOpStats snapshot;

  void Materialize() {
    columns.reset();
    rows = DrainBatches(child.get());
    columns = std::make_unique<RelationColumns>(&rows);
    snapshot = SnapshotPlanStats(child.get());
  }

  /// Drops the materialization (as the serial operators do at Close())
  /// but keeps `snapshot`: stats outlive Close.
  void Release() {
    columns.reset();
    rows = Relation();
  }
};

namespace {

/// A worker's scan of a SharedInput: zero-copy views of the shared rows
/// with the shared column mirror attached, so a worker hash join indexes
/// them in place (its whole-relation view detection) instead of copying.
class SharedInputScanIterator : public BatchIterator {
 public:
  explicit SharedInputScanIterator(std::shared_ptr<SharedInput> input)
      : input_(std::move(input)) {}

  const Scheme& scheme() const override { return input_->child->scheme(); }
  const char* physical_name() const override { return "SharedScan"; }
  const SharedInput& input() const { return *input_; }

 protected:
  void OpenImpl() override { pos_ = 0; }

  bool NextBatchImpl(TupleBatch* out) override {
    const Relation& rows = input_->rows;
    if (pos_ >= rows.NumRows()) return false;
    const size_t n = std::min(out->capacity(), rows.NumRows() - pos_);
    out->SetView(&rows.rows()[pos_], n, input_->columns.get(), pos_);
    pos_ += n;
    return true;
  }

  void CloseImpl() override {}

 private:
  std::shared_ptr<SharedInput> input_;
  size_t pos_ = 0;
};

}  // namespace

// --- Exchange state ----------------------------------------------------------

ExchangeState::ExchangeState() = default;
ExchangeState::~ExchangeState() = default;

BatchIteratorPtr ExchangeState::MorselScan(
    const Relation* driver, std::shared_ptr<RelationColumns> columns,
    size_t morsel_rows) {
  if (queue_ == nullptr) {
    driver_ = driver;
    queue_ = std::make_shared<MorselQueue>(driver->NumRows(), morsel_rows);
  }
  FRO_CHECK(driver == driver_) << "a spine has exactly one driver relation";
  return std::make_unique<MorselScanIterator>(driver, queue_,
                                              std::move(columns));
}

BatchIteratorPtr ExchangeState::SharedInputScan(
    const Expr* owner, const std::function<BatchIteratorPtr()>& build) {
  std::shared_ptr<SharedInput>& input = inputs_[owner];
  if (input == nullptr) {
    input = std::make_shared<SharedInput>();
    input->child = build();
  }
  return std::make_unique<SharedInputScanIterator>(input);
}

std::shared_ptr<GojPadMerge> ExchangeState::PadMerge(const Expr* goj) {
  std::shared_ptr<GojPadMerge>& merge = merges_[goj];
  if (merge == nullptr) merge = std::make_shared<GojPadMerge>();
  return merge;
}

void ExchangeState::AddWorker(BatchIteratorPtr worker) {
  FRO_CHECK(queue_ != nullptr) << "a worker pipeline needs a morsel scan";
  workers_.push_back(std::move(worker));
}

// --- Exchange --------------------------------------------------------------

BatchExchangeIterator::BatchExchangeIterator(
    std::unique_ptr<ExchangeState> state, size_t batch_capacity)
    : state_(std::move(state)), batch_capacity_(batch_capacity) {
  FRO_CHECK(!state_->workers_.empty());
  max_queued_ = kQueueBatchesPerWorker * state_->workers_.size();
}

BatchExchangeIterator::~BatchExchangeIterator() { CloseImpl(); }

const Scheme& BatchExchangeIterator::scheme() const {
  return state_->workers_.front()->scheme();
}

void BatchExchangeIterator::EnableTiming(bool on) {
  BatchIterator::EnableTiming(on);
  for (const BatchIteratorPtr& worker : state_->workers_) {
    worker->EnableTiming(on);
  }
  for (const auto& [owner, input] : state_->inputs_) {
    input->child->EnableTiming(on);
  }
}

void BatchExchangeIterator::SetControl(ExecControl* control) {
  BatchIterator::SetControl(control);
  for (const BatchIteratorPtr& worker : state_->workers_) {
    worker->SetControl(control);
  }
  for (const auto& [owner, input] : state_->inputs_) {
    input->child->SetControl(control);
  }
}

void BatchExchangeIterator::OpenImpl() {
  const size_t workers = state_->workers_.size();
  for (const auto& [owner, input] : state_->inputs_) input->Materialize();
  for (const auto& [goj, merge] : state_->merges_) {
    merge->Arm(static_cast<int>(workers));
  }
  state_->queue_->Reset();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.clear();
    closed_ = false;
    producers_live_ = workers;
  }
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back(&BatchExchangeIterator::WorkerMain, this, i);
  }
}

void BatchExchangeIterator::WorkerMain(size_t worker_index) {
  BatchIterator* worker = state_->workers_[worker_index].get();
  worker->Open();
  TupleBatch batch(batch_capacity_);
  while (worker->NextBatch(&batch)) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [&] {
        return closed_ || ready_.size() < max_queued_;
      });
      if (closed_) break;  // consumer abandoned the stream; drop the batch
      ready_.push_back(std::move(batch));
      if (spare_.empty()) {
        batch = TupleBatch(batch_capacity_);
      } else {
        batch = std::move(spare_.back());
        spare_.pop_back();
      }
    }
    not_empty_.notify_one();
  }
  worker->Close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    --producers_live_;
  }
  not_empty_.notify_all();
}

bool BatchExchangeIterator::NextBatchImpl(TupleBatch* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock,
                  [&] { return !ready_.empty() || producers_live_ == 0; });
  if (ready_.empty()) return false;
  // Hand the worker's batch over whole — columns, null masks, views —
  // and recycle the consumer's previous one into the producers.
  TupleBatch& front = ready_.front();
  std::swap(*out, front);
  if (front.capacity() == batch_capacity_ && spare_.size() < max_queued_) {
    spare_.push_back(std::move(front));
  }
  ready_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return true;
}

void BatchExchangeIterator::CloseImpl() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.clear();
    spare_.clear();
  }
  for (const auto& [owner, input] : state_->inputs_) input->Release();
}

ExecStats BatchExchangeIterator::CollectWorkerStats() const {
  ExecStats totals;
  for (const BatchIteratorPtr& worker : state_->workers_) {
    totals += CollectPipelineStats(worker.get());
  }
  for (const auto& [owner, input] : state_->inputs_) {
    totals += SumPipelineStats(input->snapshot);
  }
  return totals;
}

namespace {

void MergeSnapshots(PlanOpStats* into, const PlanOpStats& other) {
  FRO_CHECK_EQ(into->children.size(), other.children.size())
      << "worker pipelines must be structurally identical";
  into->stats += other.stats;
  into->built_left = into->built_left || other.built_left;
  for (size_t i = 0; i < into->children.size(); ++i) {
    MergeSnapshots(&into->children[i], other.children[i]);
  }
}

/// Makes `merged` — the workers' snapshots summed node-wise; `it` is the
/// first worker's operator at this node and `own` its snapshot — count
/// what the workers share once, as the serial plan does: a shared-input
/// scan becomes the snapshot of the subtree that filled it, and an
/// off-spine base relation, which every worker scans whole, keeps one
/// worker's counts. Only the driver's rows are split among the workers.
void CountSharedOnce(BatchIterator* it, const PlanOpStats& own,
                     PlanOpStats* merged) {
  if (auto* scan = dynamic_cast<SharedInputScanIterator*>(it)) {
    *merged = scan->input().snapshot;
    return;
  }
  if (dynamic_cast<BatchScanIterator*>(it) != nullptr) {
    *merged = own;
    return;
  }
  const std::vector<BatchIterator*> children = it->children();
  for (size_t i = 0; i < children.size(); ++i) {
    CountSharedOnce(children[i], own.children[i], &merged->children[i]);
  }
}

}  // namespace

PlanOpStats BatchExchangeIterator::SnapshotMerged() const {
  BatchIterator* first = state_->workers_.front().get();
  const PlanOpStats own = SnapshotPlanStats(first);
  PlanOpStats merged = own;
  for (size_t i = 1; i < state_->workers_.size(); ++i) {
    MergeSnapshots(&merged, SnapshotPlanStats(state_->workers_[i].get()));
  }
  CountSharedOnce(first, own, &merged);
  return merged;
}

}  // namespace fro
