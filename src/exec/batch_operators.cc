#include "exec/batch_operators.h"

#include <algorithm>

#include "common/check.h"
#include "exec/morsel.h"
#include "relational/ops.h"

namespace fro {

Relation DrainBatches(BatchIterator* iterator) {
  Relation out(iterator->scheme());
  iterator->Open();
  TupleBatch batch;
  while (iterator->NextBatch(&batch)) {
    const size_t n = batch.size();
    for (size_t i = 0; i < n; ++i) out.AddRow(batch.selected(i));
  }
  iterator->Close();
  return out;
}

Result<Relation> DrainChecked(BatchIterator* iterator, ExecControl* control) {
  Relation out = DrainBatches(iterator);
  if (control != nullptr) {
    // One authoritative deadline check at completion: the per-batch
    // check may never have read the clock after the deadline on a short
    // pipeline, but an armed deadline that has passed must surface
    // regardless of query size.
    control->ShouldStopBatch();
    FRO_RETURN_IF_ERROR(control->status());
  }
  return out;
}

ExecStats CollectPipelineStats(BatchIterator* root) {
  ExecStats totals;
  root->Visit([&](BatchIterator* node, int) {
    if (node->children().empty()) {
      // Scans: their emissions are already charged as reads to their
      // consumers. An exchange contributes its worker pipelines' totals
      // plus the shared build subtrees', each counted once.
      if (auto* exchange = dynamic_cast<BatchExchangeIterator*>(node)) {
        totals += exchange->CollectWorkerStats();
      }
      return;
    }
    totals += node->stats();
  });
  return totals;
}

// --- Scan ----------------------------------------------------------------

BatchScanIterator::BatchScanIterator(const Relation* relation,
                                     std::shared_ptr<RelationColumns> columns)
    : relation_(relation),
      columns_(columns != nullptr
                   ? std::move(columns)
                   : std::make_shared<RelationColumns>(relation)) {
  FRO_CHECK(relation != nullptr);
}

void BatchScanIterator::OpenImpl() { pos_ = 0; }

bool BatchScanIterator::NextBatchImpl(TupleBatch* out) {
  const size_t total = relation_->NumRows();
  if (pos_ >= total) return false;
  // Zero-copy: the batch views a capacity-sized window of the relation's
  // contiguous row storage, with the relation's columnized mirror
  // attached so downstream kernels get contiguous columns for free.
  // Consumers read in place; the relation outlives the pipeline
  // (BatchScanIterator's contract).
  const size_t n = std::min(out->capacity(), total - pos_);
  out->SetView(&relation_->rows()[pos_], n, columns_.get(), pos_);
  pos_ += n;
  return true;
}

void BatchScanIterator::CloseImpl() {}

const Scheme& BatchScanIterator::scheme() const { return relation_->scheme(); }

// --- Filter ----------------------------------------------------------------

BatchFilterIterator::BatchFilterIterator(BatchIteratorPtr child,
                                         PredicatePtr pred)
    : child_(std::move(child)), pred_(std::move(pred)) {
  FRO_CHECK(pred_ != nullptr);
}

void BatchFilterIterator::OpenImpl() {
  child_->Open();
  vec_bound_.Bind(pred_, child_->scheme());
  col_ptrs_.assign(child_->scheme().size(), nullptr);
}

bool BatchFilterIterator::NextBatchImpl(TupleBatch* out) {
  // Narrow the child's batch in place; loop past fully-filtered batches so
  // a true return always carries at least one live row. Counters update
  // once per batch (one read + one eval per live input row), keeping the
  // kernel free of bookkeeping. The kernel evaluates all raw rows
  // densely — masks of already-deselected rows are computed but never
  // consulted, which is cheaper than gathering survivors first.
  while (child_->NextBatch(out)) {
    const uint64_t n = out->size();
    mutable_stats().left_reads += n;
    mutable_stats().predicate_evals += n;
    const size_t raw_n = out->NumRows();
    if (raw_n > 0) {
      size_t offset = 0;
      for (int pos : vec_bound_.column_positions()) {
        col_ptrs_[static_cast<size_t>(pos)] =
            out->Column(static_cast<size_t>(pos), &offset);
      }
      keep_mask_.resize(raw_n);
      vec_bound_.Eval(col_ptrs_.data(), offset, raw_n, keep_mask_.data(),
                      nullptr);
      out->NarrowToMask(keep_mask_.data());
    }
    if (!out->empty()) return true;
  }
  return false;
}

void BatchFilterIterator::CloseImpl() { child_->Close(); }

const Scheme& BatchFilterIterator::scheme() const { return child_->scheme(); }

// --- Project ---------------------------------------------------------------

BatchProjectIterator::BatchProjectIterator(BatchIteratorPtr child,
                                           std::vector<AttrId> cols,
                                           bool dedup, size_t batch_capacity)
    : child_(std::move(child)),
      out_scheme_(Scheme(cols)),
      dedup_(dedup),
      input_(batch_capacity) {
  for (AttrId attr : cols) {
    int pos = child_->scheme().IndexOf(attr);
    FRO_CHECK_GE(pos, 0) << "projection column not in child scheme";
    positions_.push_back(pos);
  }
}

void BatchProjectIterator::OpenImpl() {
  child_->Open();
  seen_.clear();
  input_.Clear();
  input_pos_ = 0;
}

bool BatchProjectIterator::NextBatchImpl(TupleBatch* out) {
  for (;;) {
    if (input_pos_ >= input_.size()) {
      if (!child_->NextBatch(&input_)) return !out->empty();
      input_pos_ = 0;
      continue;
    }
    while (input_pos_ < input_.size()) {
      if (out->full()) return true;
      const Tuple& row = input_.selected(input_pos_++);
      ++mutable_stats().left_reads;
      if (dedup_) {
        key_scratch_.resize(positions_.size());
        for (size_t i = 0; i < positions_.size(); ++i) {
          key_scratch_[i] = row.value(static_cast<size_t>(positions_[i]));
        }
        if (!seen_.insert(key_scratch_).second) continue;
      }
      out->AppendSlot()->AssignMapped(row, positions_);
    }
  }
}

void BatchProjectIterator::CloseImpl() {
  child_->Close();
  seen_.clear();
}

const Scheme& BatchProjectIterator::scheme() const { return out_scheme_; }

// --- Union -----------------------------------------------------------------

BatchUnionIterator::BatchUnionIterator(BatchIteratorPtr left,
                                       BatchIteratorPtr right,
                                       size_t batch_capacity)
    : left_(std::move(left)),
      right_(std::move(right)),
      input_(batch_capacity) {
  AttrSet all =
      left_->scheme().ToAttrSet().Union(right_->scheme().ToAttrSet());
  out_scheme_ = Scheme(all.ids());
  for (size_t c = 0; c < out_scheme_.size(); ++c) {
    left_map_.push_back(left_->scheme().IndexOf(out_scheme_.col(c)));
    right_map_.push_back(right_->scheme().IndexOf(out_scheme_.col(c)));
  }
}

void BatchUnionIterator::OpenImpl() {
  left_->Open();
  right_->Open();
  on_right_ = false;
  input_.Clear();
  input_pos_ = 0;
}

bool BatchUnionIterator::NextBatchImpl(TupleBatch* out) {
  for (;;) {
    if (input_pos_ >= input_.size()) {
      BatchIterator* side = on_right_ ? right_.get() : left_.get();
      if (!side->NextBatch(&input_)) {
        if (!on_right_) {
          on_right_ = true;
          input_.Clear();
          input_pos_ = 0;
          continue;
        }
        return !out->empty();
      }
      input_pos_ = 0;
      continue;
    }
    const std::vector<int>& map = on_right_ ? right_map_ : left_map_;
    while (input_pos_ < input_.size()) {
      if (out->full()) return true;
      const Tuple& row = input_.selected(input_pos_++);
      if (on_right_) {
        ++mutable_stats().right_reads;
      } else {
        ++mutable_stats().left_reads;
      }
      out->AppendSlot()->AssignMapped(row, map);
    }
  }
}

void BatchUnionIterator::CloseImpl() {
  left_->Close();
  right_->Close();
}

const Scheme& BatchUnionIterator::scheme() const { return out_scheme_; }

// --- Nested-loop join ------------------------------------------------------

namespace {

Scheme BatchJoinOutScheme(const Scheme& left, const Scheme& right,
                          JoinMode mode) {
  switch (mode) {
    case JoinMode::kInner:
    case JoinMode::kLeftOuter:
      return left.Concat(right);
    case JoinMode::kAnti:
    case JoinMode::kSemi:
      return left;
  }
  return left;
}

}  // namespace

BatchNestedLoopJoinIterator::BatchNestedLoopJoinIterator(
    BatchIteratorPtr left, BatchIteratorPtr right, PredicatePtr pred,
    JoinMode mode, size_t batch_capacity)
    : left_(std::move(left)),
      right_(std::move(right)),
      pred_(std::move(pred)),
      mode_(mode),
      out_scheme_(
          BatchJoinOutScheme(left_->scheme(), right_->scheme(), mode)),
      joined_scheme_(left_->scheme().Concat(right_->scheme())),
      input_(batch_capacity) {}

void BatchNestedLoopJoinIterator::OpenImpl() {
  left_->Open();
  if (pred_ != nullptr) bound_.Bind(pred_, joined_scheme_);
  // Materialize the right input once (block nested loop).
  right_rows_.clear();
  right_->Open();
  TupleBatch scratch;
  while (right_->NextBatch(&scratch)) {
    const size_t n = scratch.size();
    for (size_t i = 0; i < n; ++i) right_rows_.push_back(scratch.selected(i));
  }
  right_->Close();
  input_.Clear();
  input_pos_ = 0;
  left_active_ = false;
}

bool BatchNestedLoopJoinIterator::NextBatchImpl(TupleBatch* out) {
  for (;;) {
    if (!left_active_) {
      if (input_pos_ >= input_.size()) {
        if (!left_->NextBatch(&input_)) return !out->empty();
        input_pos_ = 0;
        continue;
      }
      ++mutable_stats().left_reads;
      right_pos_ = 0;
      left_had_match_ = false;
      left_active_ = true;
    }
    const Tuple& lrow = input_.selected(input_pos_);
    bool dropped_left = false;
    while (right_pos_ < right_rows_.size()) {
      if (out->full()) return true;
      const Tuple& rrow = right_rows_[right_pos_++];
      ++mutable_stats().right_reads;
      // Build the candidate directly in the output slot; commit only on a
      // predicate match.
      Tuple* slot = out->PeekSlot();
      slot->AssignConcat(lrow, rrow);
      ++mutable_stats().predicate_evals;
      if (pred_ != nullptr && !IsTrue(bound_.Eval(*slot))) {
        continue;
      }
      left_had_match_ = true;
      switch (mode_) {
        case JoinMode::kInner:
        case JoinMode::kLeftOuter:
          out->CommitSlot();
          break;
        case JoinMode::kSemi:
          slot->AssignFrom(lrow);
          out->CommitSlot();
          dropped_left = true;
          break;
        case JoinMode::kAnti:
          dropped_left = true;
          break;
      }
      if (dropped_left) break;
    }
    if (!dropped_left) {
      // Right side exhausted for this left tuple.
      const bool unmatched = !left_had_match_;
      if (mode_ == JoinMode::kLeftOuter && unmatched) {
        if (out->full()) return true;
        out->AppendSlot()->AssignConcatNulls(lrow, right_->scheme().size());
      } else if (mode_ == JoinMode::kAnti && unmatched) {
        if (out->full()) return true;
        out->AppendSlot()->AssignFrom(lrow);
      }
    }
    left_active_ = false;
    ++input_pos_;
  }
}

void BatchNestedLoopJoinIterator::CloseImpl() {
  left_->Close();
  right_rows_.clear();
  left_active_ = false;
}

const Scheme& BatchNestedLoopJoinIterator::scheme() const {
  return out_scheme_;
}

// --- Hash join ---------------------------------------------------------

BatchHashJoinIterator::BatchHashJoinIterator(
    BatchIteratorPtr left, BatchIteratorPtr right, PredicatePtr pred,
    JoinMode mode, std::vector<AttrId> left_keys,
    std::vector<AttrId> right_keys, size_t batch_capacity)
    : left_(std::move(left)),
      right_(std::move(right)),
      pred_(std::move(pred)),
      mode_(mode),
      out_scheme_(
          BatchJoinOutScheme(left_->scheme(), right_->scheme(), mode)),
      joined_scheme_(left_->scheme().Concat(right_->scheme())),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      input_(batch_capacity) {
  FRO_CHECK(!left_keys_.empty());
  FRO_CHECK_EQ(left_keys_.size(), right_keys_.size());
  for (AttrId attr : left_keys_) {
    int pos = left_->scheme().IndexOf(attr);
    FRO_CHECK_GE(pos, 0);
    left_key_positions_.push_back(pos);
  }
}

PredicatePtr ResidualAfterEquiKeys(const PredicatePtr& pred,
                                   const std::vector<AttrId>& left_keys,
                                   const std::vector<AttrId>& right_keys) {
  if (pred == nullptr) return nullptr;
  std::vector<PredicatePtr> residual;
  for (const PredicatePtr& conjunct : pred->Conjuncts(pred)) {
    bool covered = false;
    if (conjunct->kind() == Predicate::Kind::kCmp &&
        conjunct->cmp_op() == CmpOp::kEq && conjunct->lhs().is_column() &&
        conjunct->rhs().is_column()) {
      const AttrId l = conjunct->lhs().attr();
      const AttrId r = conjunct->rhs().attr();
      for (size_t i = 0; i < left_keys.size() && !covered; ++i) {
        covered = (l == left_keys[i] && r == right_keys[i]) ||
                  (l == right_keys[i] && r == left_keys[i]);
      }
    }
    if (!covered) residual.push_back(conjunct);
  }
  if (residual.empty()) return nullptr;
  return Predicate::And(std::move(residual));
}

namespace {

// The flat probe table hashes with HashNumericKey (relational/column.h),
// shared with the batched HashColumns primitive so dense-hashed probes
// land in the same buckets the build filled.

/// NormalizeHashKeyValue restricted to numeric values: the normalized
/// double, or nothing when the value is null or non-numeric.
std::optional<double> NumericKey(const Value& v) {
  if (v.kind() == Value::Kind::kInt) {
    return static_cast<double>(v.AsInt());
  }
  if (v.kind() == Value::Kind::kDouble) {
    // Collapse -0.0 to +0.0 so equal keys hash identically.
    const double d = v.AsDouble();
    return d == 0.0 ? 0.0 : d;
  }
  return std::nullopt;
}

}  // namespace

template <typename ValueAt>
bool BatchHashJoinIterator::BuildFastIndex(size_t n,
                                           const ColumnVector* key_col,
                                           ValueAt value_at) {
  size_t cap = 16;
  while (cap < n * 2) cap <<= 1;
  fast_buckets_.assign(cap, FastBucket{0.0, 0});
  fast_next_.assign(n, 0);
  fast_mask_ = cap - 1;
  size_t cap_bits = 0;
  while ((size_t{1} << cap_bits) < cap) ++cap_bits;
  fast_shift_ = 64 - cap_bits;
  // Bloom prefilter: 16 bits per bucket (cap * 2 bytes), addressed by
  // the hash's top 32 bits so it is independent of the bucket index.
  fast_bloom_.assign(cap * 2, 0);
  fast_bloom_mask_ = cap * 2 - 1;
  // Per-bucket chain tail during the build, so duplicate keys chain in
  // build order (match order must equal the HashIndex path's).
  std::vector<uint32_t> tails(cap, 0);
  // Dense key pass when the key column is typed: one double/int load +
  // null byte per row, no Value indirection. A kGeneric column (mixed
  // int/double, strings) and row-only sources take the Value loop,
  // which gives up on the first non-numeric key.
  const bool dense_keys =
      key_col != nullptr && (key_col->tag() == ColumnVector::Tag::kInt ||
                             key_col->tag() == ColumnVector::Tag::kDouble ||
                             key_col->tag() == ColumnVector::Tag::kEmpty);
  for (size_t i = 0; i < n; ++i) {
    double key;
    if (dense_keys) {
      if (key_col->is_null(i)) continue;  // kEmpty columns are all null
      key = NormalizedNumericKey(*key_col, i);
    } else {
      const auto& v = value_at(i);
      if (v.is_null()) continue;
      const std::optional<double> k = NumericKey(v);
      if (!k.has_value()) return false;
      key = *k;
    }
    const uint64_t h = HashNumericKey(key);
    const uint64_t bh = h >> 32;
    fast_bloom_[(bh >> 3) & fast_bloom_mask_] |=
        static_cast<uint8_t>(1u << (bh & 7));
    size_t b = h >> fast_shift_;
    while (fast_buckets_[b].head != 0 && !(fast_buckets_[b].key == key)) {
      b = (b + 1) & fast_mask_;
    }
    if (fast_buckets_[b].head == 0) {
      fast_buckets_[b] = FastBucket{key, static_cast<uint32_t>(i + 1)};
    } else {
      fast_next_[tails[b] - 1] = static_cast<uint32_t>(i + 1);
    }
    tails[b] = static_cast<uint32_t>(i + 1);
  }
  return true;
}

uint32_t BatchHashJoinIterator::FastLookup(double key) const {
  const uint64_t h = HashNumericKey(key);
  const uint64_t bh = h >> 32;
  if (((fast_bloom_[(bh >> 3) & fast_bloom_mask_] >> (bh & 7)) & 1) == 0) {
    return 0;
  }
  for (size_t b = h >> fast_shift_; fast_buckets_[b].head != 0;
       b = (b + 1) & fast_mask_) {
    if (fast_buckets_[b].key == key) return fast_buckets_[b].head;
  }
  return 0;
}

void BatchHashJoinIterator::ResolveStreamChunk(const ColumnVector& key_col,
                                               size_t offset, size_t n) {
  stream_hits_.clear();
  probe_keys_.resize(n);
  probe_hashes_.resize(n);
  probe_has_.resize(n);
  if (!HashColumns({&key_col}, offset, n, probe_keys_.data(),
                   probe_hashes_.data(), probe_has_.data())) {
    // Generic key column: one lookup per row.
    for (size_t i = 0; i < n; ++i) {
      const std::optional<double> k = NumericKey(key_col.ValueAt(offset + i));
      const uint32_t head = k.has_value() ? FastLookup(*k) : 0;
      if (head != 0) {
        stream_hits_.push_back({static_cast<uint32_t>(offset + i), head});
      }
    }
    return;
  }
  // The table indexes the small side, so most streamed rows miss. Pass 1
  // keeps only the rows whose Bloom bit is set, compacted without a
  // branch; pass 2 looks those few up in the table.
  stream_cand_.resize(n);
  const uint8_t* bloom = fast_bloom_.data();
  const uint64_t bloom_mask = fast_bloom_mask_;
  const uint64_t* hashes = probe_hashes_.data();
  const uint8_t* has_key = probe_has_.data();
  uint32_t* cand = stream_cand_.data();
  size_t found = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bh = hashes[i] >> 32;
    cand[found] = static_cast<uint32_t>(i);
    found += has_key[i] &
             ((bloom[(bh >> 3) & bloom_mask] >> (bh & 7)) & 1u);
  }
  for (size_t c = 0; c < found; ++c) {
    const uint32_t i = cand[c];
    const double key = probe_keys_[i];
    for (size_t b = hashes[i] >> fast_shift_; fast_buckets_[b].head != 0;
         b = (b + 1) & fast_mask_) {
      if (fast_buckets_[b].key == key) {
        stream_hits_.push_back(
            {static_cast<uint32_t>(offset + i), fast_buckets_[b].head});
        break;
      }
    }
  }
}

void BatchHashJoinIterator::OpenImpl() {
  left_->Open();
  residual_ = ResidualAfterEquiKeys(pred_, left_keys_, right_keys_);
  if (residual_ != nullptr) bound_.Bind(residual_, joined_scheme_);
  // Build phase: materialize and index the right input, once per Open().
  // Zero-copy detection: a plain base-relation scan streams the whole of
  // one columnized relation as contiguous unselected views; when every
  // batch fits that pattern the build references the relation (and its
  // shared columnar mirror) instead of copying every tuple. The child is
  // still drained normally so its ExecStats match the kernel accounting.
  Relation raw(right_->scheme());
  right_->Open();
  TupleBatch scratch;
  const RelationColumns* shared = nullptr;
  size_t shared_end = 0;
  bool zero_copy = true;
  while (right_->NextBatch(&scratch)) {
    const size_t n = scratch.size();
    if (zero_copy) {
      size_t off = 0;
      const RelationColumns* src = scratch.view_source(&off);
      if (src != nullptr && !scratch.sel_active() &&
          (shared == nullptr ? off == 0 : (src == shared &&
                                           off == shared_end))) {
        shared = src;
        shared_end += n;
        continue;  // rows already live in the relation
      }
      // Pattern broke: backfill the prefix we skipped, then copy.
      zero_copy = false;
      for (size_t i = 0; i < shared_end; ++i) {
        raw.AddRow(shared->relation().row(i));
      }
    }
    for (size_t i = 0; i < n; ++i) raw.AddRow(scratch.selected(i));
  }
  right_->Close();
  if (zero_copy && shared != nullptr &&
      shared_end == shared->relation().NumRows()) {
    build_side_ = Relation();
    build_rel_ = &shared->relation();
    shared_build_cols_ = shared;
  } else {
    if (zero_copy && shared != nullptr) {
      // Contiguous views but not the whole relation (e.g. a morsel
      // range): materialize the drained prefix after all.
      for (size_t i = 0; i < shared_end; ++i) {
        raw.AddRow(shared->relation().row(i));
      }
    }
    build_side_ = std::move(raw);
    build_rel_ = &build_side_;
    shared_build_cols_ = nullptr;
  }
  // Columnar emission whenever the probe discharges the whole predicate:
  // matches are appended column-by-column from the probe side's columns
  // and the build side's columnized mirror, instead of assembling a
  // joined Tuple per match. Build columns are materialized once per
  // Open(), like the index.
  columnar_emit_ = residual_ == nullptr;
  build_cols_.reset();
  right_cols_.clear();
  if (columnar_emit_ &&
      (mode_ == JoinMode::kInner || mode_ == JoinMode::kLeftOuter)) {
    const RelationColumns* cols = shared_build_cols_;
    if (cols == nullptr) {
      build_cols_ = std::make_unique<RelationColumns>(&build_side_);
      cols = build_cols_.get();
    }
    for (size_t c = 0; c < build_rel_->scheme().size(); ++c) {
      right_cols_.push_back(&cols->Column(c));
    }
  }
  left_cols_.assign(left_->scheme().size(), nullptr);
  held_.clear();
  held_pos_ = 0;
  build_left_ = false;
  const size_t build_rows = build_rel_->NumRows();
  // The flip covers the fast path's shape only: one numeric key, no
  // residual, a mode that emits both sides (columnar, so the right rows
  // already have the column mirror the stream reads).
  if (left_key_positions_.size() == 1 && !right_cols_.empty() &&
      build_rows < (size_t{1} << 30) &&
      build_rows > kFlipMinBuildBatches * input_.capacity()) {
    build_left_ = TryBuildLeft();
  }
  use_fast_index_ = build_left_;
  // Single numeric key: build the flat probe table instead of the
  // generic HashIndex. Null keys are skipped (they never equi-match); a
  // non-numeric key value anywhere on the build side falls back to the
  // generic path, which handles heterogeneous keys.
  if (!build_left_ && left_key_positions_.size() == 1 &&
      build_rows < (size_t{1} << 30)) {
    const int build_pos = build_rel_->scheme().IndexOf(right_keys_[0]);
    FRO_CHECK_GE(build_pos, 0);
    const ColumnVector* kc =
        shared_build_cols_ != nullptr
            ? &shared_build_cols_->Column(static_cast<size_t>(build_pos))
            : nullptr;
    use_fast_index_ =
        BuildFastIndex(build_rows, kc, [&](size_t i) -> const Value& {
          return build_rel_->row(i).value(static_cast<size_t>(build_pos));
        });
  }
  if (!use_fast_index_) {
    fast_buckets_.clear();
    fast_next_.clear();
    fast_bloom_.clear();
    normalized_build_ = NormalizeOnKeyColumns(*build_rel_, right_keys_);
    index_ = std::make_unique<HashIndex>(normalized_build_, right_keys_);
  }
  probe_dense_ = false;
  emit_left_.clear();
  emit_right_.clear();
  gather_batch_ok_ = false;
  input_.Clear();
  input_pos_ = 0;
  left_active_ = false;
  matches_ = nullptr;
  fast_match_ = 0;
}

bool BatchHashJoinIterator::TryBuildLeft() {
  const size_t build_rows = build_rel_->NumRows();
  size_t pulled = 0;
  bool ended = false;
  while (!ended && pulled * kFlipProbeShare <= build_rows) {
    held_.emplace_back(input_.capacity());
    if (left_->NextBatch(&held_.back())) {
      pulled += held_.back().size();
    } else {
      held_.pop_back();
      ended = true;
    }
  }
  if (!ended) return false;
  // The left input is the small side: gather its live rows into owned
  // columns — they are the flat table's row space and the left half of
  // every emitted row.
  const size_t arity = left_->scheme().size();
  left_build_cols_.assign(arity, ColumnVector());
  std::vector<uint32_t> idx;
  for (const TupleBatch& batch : held_) {
    const size_t n = batch.size();
    idx.resize(n);
    for (size_t c = 0; c < arity; ++c) {
      size_t off = 0;
      const ColumnVector* col = batch.Column(c, &off);
      for (size_t i = 0; i < n; ++i) {
        idx[i] = static_cast<uint32_t>(off + batch.sel_index(i));
      }
      left_build_cols_[c].AppendGather(*col, idx.data(), n);
    }
  }
  const ColumnVector& key_col =
      left_build_cols_[static_cast<size_t>(left_key_positions_[0])];
  if (!BuildFastIndex(pulled, &key_col,
                      [&](size_t i) { return key_col.ValueAt(i); })) {
    // A non-numeric left key: hash the right input after all, replaying
    // the held batches as the probe input.
    left_build_cols_.clear();
    return false;
  }
  held_.clear();
  for (size_t c = 0; c < arity; ++c) left_cols_[c] = &left_build_cols_[c];
  left_off_ = 0;
  left_matched_.assign(mode_ == JoinMode::kLeftOuter ? pulled : 0, 0);
  stream_pos_ = 0;
  stream_hits_.clear();
  hit_pos_ = 0;
  pad_pos_ = 0;
  // Every left row is consumed once, as a probe would consume it.
  mutable_stats().left_reads += pulled;
  mutable_stats().probes += pulled;
  return true;
}

bool BatchHashJoinIterator::NextLeftBatch() {
  if (held_pos_ < held_.size()) {
    std::swap(input_, held_[held_pos_++]);
    return true;
  }
  held_.clear();
  held_pos_ = 0;
  return left_->NextBatch(&input_);
}

bool BatchHashJoinIterator::NextBatchFlipped(TupleBatch* out) {
  const size_t cap = out->capacity();
  const size_t rows = build_rel_->NumRows();
  const int build_pos = build_rel_->scheme().IndexOf(right_keys_[0]);
  const ColumnVector& key_col = *right_cols_[static_cast<size_t>(build_pos)];
  const bool pad = mode_ == JoinMode::kLeftOuter;
  uint64_t candidates = 0;
  bool full = false;
  for (;;) {
    // Emit the current right row's partners: its chain of equal-keyed
    // left rows, in left order.
    while (fast_match_ != 0) {
      if (out->NumRows() + emit_left_.size() >= cap) {
        full = true;
        break;
      }
      const uint32_t l = fast_match_ - 1;
      ++candidates;
      emit_left_.push_back(l);
      emit_right_.push_back(stream_row_);
      if (pad) left_matched_[l] = 1;
      fast_match_ = fast_next_[l];
    }
    if (full) break;
    if (hit_pos_ >= stream_hits_.size()) {
      if (stream_pos_ >= rows) break;
      // Find the next chunk's right rows with partners. Null keys never
      // match; a non-numeric key cannot equal an all-numeric left key.
      const size_t n = std::min(kStreamChunk, rows - stream_pos_);
      ResolveStreamChunk(key_col, stream_pos_, n);
      stream_pos_ += n;
      hit_pos_ = 0;
      continue;
    }
    stream_row_ = stream_hits_[hit_pos_].row;
    fast_match_ = stream_hits_[hit_pos_].head;
    ++hit_pos_;
  }
  mutable_stats().right_reads += candidates;
  mutable_stats().predicate_evals += candidates;
  if (!full && pad) {
    // The stream is over: pad the left rows that never found a partner.
    const size_t n = left_matched_.size();
    for (; pad_pos_ < n; ++pad_pos_) {
      if (left_matched_[pad_pos_]) continue;
      if (out->NumRows() + emit_left_.size() >= cap) break;
      emit_left_.push_back(static_cast<uint32_t>(pad_pos_));
      emit_right_.push_back(ColumnVector::kNullIndex);
    }
  }
  FlushGather(out);
  return !out->empty();
}

void BatchHashJoinIterator::FlushGather(TupleBatch* out) {
  const size_t n = emit_left_.size();
  if (n == 0) return;
  const size_t left_arity = left_cols_.size();
  for (size_t c = 0; c < left_arity; ++c) {
    out->mutable_column(c)->AppendGather(*left_cols_[c], emit_left_.data(),
                                         n);
  }
  for (size_t c = 0; c < right_cols_.size(); ++c) {
    out->mutable_column(left_arity + c)
        ->AppendGather(*right_cols_[c], emit_right_.data(), n);
  }
  out->CommitColumnRows(n);
  emit_left_.clear();
  emit_right_.clear();
}

bool BatchHashJoinIterator::NextBatchImpl(TupleBatch* out) {
  // NextBatch() hands us a cleared batch; columnar emission claims it
  // before any row lands in it.
  if (columnar_emit_) out->BeginColumns(out_scheme_.size());
  if (build_left_) return NextBatchFlipped(out);
  const size_t left_arity = left_cols_.size();
  // Gather-style emission: inner/left-outer matches accumulate as index
  // pairs and flush per column (FlushGather) instead of appending value
  // by value. Semi/anti emit too few values to be worth staging.
  const bool gather = columnar_emit_ && (mode_ == JoinMode::kInner ||
                                         mode_ == JoinMode::kLeftOuter);
  for (;;) {
    if (!left_active_) {
      if (input_pos_ >= input_.size()) {
        if (gather && !emit_left_.empty()) {
          // Pending pairs index the current input batch's columns; flush
          // before those pointers are refreshed by the next batch.
          FlushGather(out);
          return true;
        }
        if (!NextLeftBatch()) return !out->empty();
        input_pos_ = 0;
        // Per-batch probe preparation. Fast-index probes hash the whole
        // key column densely in one HashColumns pass (falling back to
        // the per-row path when the column is generic); columnar
        // emission refreshes the input's column pointers.
        const size_t raw_n = input_.NumRows();
        probe_dense_ = false;
        if (use_fast_index_ && raw_n > 0) {
          size_t koff = 0;
          const ColumnVector* kc =
              input_.Column(static_cast<size_t>(left_key_positions_[0]),
                            &koff);
          probe_keys_.resize(raw_n);
          probe_hashes_.resize(raw_n);
          probe_has_.resize(raw_n);
          probe_dense_ =
              HashColumns({kc}, koff, raw_n, probe_keys_.data(),
                          probe_hashes_.data(), probe_has_.data());
          if (probe_dense_) {
            // Resolve every row's chain head up front, in two passes.
            // Pass 1 inspects only the home bucket, with no data-
            // dependent branch in the loop body: hit stores the chain
            // head, anything else stores 0, and the rare rows whose home
            // bucket holds a *different* key are flagged in probe_needs_.
            // That body is a straight-line load/compare/select chain over
            // a dense index range, which the compiler can if-convert and
            // vectorize; an embedded probe walk (or any branch on probed
            // data) measured ~30x slower per row here. Pass 2 finishes
            // the flagged rows — a few percent at our load factor, and
            // Bloom-gated so definite misses never walk — with the plain
            // probe loop. Dead (unselected) rows are resolved too: the
            // dense pass is cheaper than gathering selection indices,
            // and their entries are simply never read.
            match_head_.resize(raw_n);
            probe_needs_.resize(raw_n);
            for (size_t raw = 0; raw < raw_n; ++raw) {
              const uint64_t h = probe_hashes_[raw];
              const FastBucket& fb = fast_buckets_[h >> fast_shift_];
              const uint64_t bh = h >> 32;
              const uint32_t bit =
                  (fast_bloom_[(bh >> 3) & fast_bloom_mask_] >> (bh & 7)) &
                  1u;
              const uint32_t has = probe_has_[raw];
              const uint32_t occ = fb.head != 0;
              const uint32_t hit =
                  has & occ &
                  static_cast<uint32_t>(fb.key == probe_keys_[raw]);
              match_head_[raw] = fb.head * hit;
              probe_needs_[raw] =
                  static_cast<uint8_t>(has & bit & occ & (hit ^ 1u));
            }
            for (size_t raw = 0; raw < raw_n; ++raw) {
              if (probe_needs_[raw]) {
                const double key = probe_keys_[raw];
                size_t b =
                    ((probe_hashes_[raw] >> fast_shift_) + 1) & fast_mask_;
                uint32_t m = 0;
                while (fast_buckets_[b].head != 0) {
                  if (fast_buckets_[b].key == key) {
                    m = fast_buckets_[b].head;
                    break;
                  }
                  b = (b + 1) & fast_mask_;
                }
                match_head_[raw] = m;
              }
            }
          }
        }
        if (columnar_emit_ && raw_n > 0) {
          for (size_t c = 0; c < left_arity; ++c) {
            left_cols_[c] = input_.Column(c, &left_off_);
          }
          // Gather indices are 32-bit with kNullIndex reserved; a batch
          // whose absolute row indices would not fit falls back to
          // value-at-a-time emission.
          gather_batch_ok_ =
              left_off_ + raw_n < ColumnVector::kNullIndex;
        }
        continue;
      }
      if (use_fast_index_ && probe_dense_ && gather && gather_batch_ok_) {
        // Dense probe loop: the whole input batch in one pass — probe,
        // chain walk, and gather-list emission per row with the counters
        // accumulated locally — instead of a trip through the resumable
        // state machine per row. When the output batch fills mid-row the
        // loop suspends into that state machine (left_active_ /
        // fast_match_), which resumes the chain exactly where the
        // generic path would.
        const size_t cap = out->capacity();
        const size_t base = out->NumRows();
        const size_t live = input_.size();
        const bool pad = mode_ == JoinMode::kLeftOuter;
        uint64_t rows_probed = 0;
        uint64_t candidates = 0;
        bool suspended = false;
        while (input_pos_ < live && !suspended) {
          const size_t raw = input_.sel_index(input_pos_);
          ++rows_probed;
          uint32_t m = match_head_[raw];
          bool had = false;
          for (;;) {
            if (m == 0) {
              if (!had && pad) {
                if (base + emit_left_.size() >= cap) {
                  // Suspend before the pad: the generic loop re-enters
                  // this row with an exhausted chain and pads it.
                  left_active_ = true;
                  left_had_match_ = false;
                  fast_match_ = 0;
                  suspended = true;
                  break;
                }
                emit_left_.push_back(
                    static_cast<uint32_t>(left_off_ + raw));
                emit_right_.push_back(ColumnVector::kNullIndex);
              }
              ++input_pos_;
              break;
            }
            if (base + emit_left_.size() >= cap) {
              // Suspend mid-chain; the generic loop resumes at m.
              left_active_ = true;
              left_had_match_ = had;
              fast_match_ = m;
              suspended = true;
              break;
            }
            const uint32_t ridx = m - 1;
            ++candidates;
            emit_left_.push_back(static_cast<uint32_t>(left_off_ + raw));
            emit_right_.push_back(ridx);
            had = true;
            m = fast_next_[ridx];
          }
        }
        mutable_stats().left_reads += rows_probed;
        mutable_stats().probes += rows_probed;
        mutable_stats().right_reads += candidates;
        mutable_stats().predicate_evals += candidates;
        if (suspended) {
          FlushGather(out);
          return true;
        }
        continue;  // batch exhausted: the refresh block takes over
      }
      ++mutable_stats().left_reads;
      left_had_match_ = false;
      match_pos_ = 0;
      ++mutable_stats().probes;
      if (use_fast_index_) {
        // A null probe key never matches; a non-numeric one cannot equal
        // any of the (all-numeric) build keys, so both yield no matches —
        // exactly what the generic probe would return.
        fast_match_ = 0;
        if (probe_dense_) {
          fast_match_ = match_head_[input_.sel_index(input_pos_)];
        } else {
          const Tuple& lrow = input_.selected(input_pos_);
          const std::optional<double> key = NumericKey(
              lrow.value(static_cast<size_t>(left_key_positions_[0])));
          if (key.has_value()) fast_match_ = FastLookup(*key);
        }
      } else {
        const Tuple& lrow = input_.selected(input_pos_);
        probe_key_.clear();
        bool null_key = false;
        for (int pos : left_key_positions_) {
          Value v =
              NormalizeHashKeyValue(lrow.value(static_cast<size_t>(pos)));
          if (v.is_null()) {
            null_key = true;
            break;
          }
          probe_key_.push_back(std::move(v));
        }
        matches_ = null_key
                       ? &no_matches_
                       : &index_->Probe(probe_key_.data(), probe_key_.size());
      }
      left_active_ = true;
    }
    const size_t lraw = input_.sel_index(input_pos_);
    bool dropped_left = false;
    for (;;) {
      size_t ridx;
      if (use_fast_index_) {
        if (fast_match_ == 0) break;
        ridx = fast_match_ - 1;
      } else {
        if (match_pos_ >= matches_->size()) break;
        ridx = (*matches_)[match_pos_];
      }
      if (gather ? out->NumRows() + emit_left_.size() >= out->capacity()
                 : out->full()) {
        FlushGather(out);
        return true;
      }
      if (use_fast_index_) {
        fast_match_ = fast_next_[ridx];
      } else {
        ++match_pos_;
      }
      ++mutable_stats().right_reads;
      // One predicate check per candidate, as in the kernels. When
      // the predicate is exactly the equi-key conjunction, the probe's
      // normalized-key equality already discharged it (no false
      // positives), so only a residual beyond the keys is re-evaluated.
      ++mutable_stats().predicate_evals;
      if (residual_ != nullptr) {
        const Tuple& lrow = input_.row(lraw);
        const Tuple& rrow = build_rel_->row(ridx);
        Tuple* slot = out->PeekSlot();
        slot->AssignConcat(lrow, rrow);
        if (!IsTrue(bound_.Eval(*slot))) continue;
        left_had_match_ = true;
        switch (mode_) {
          case JoinMode::kInner:
          case JoinMode::kLeftOuter:
            out->CommitSlot();
            break;
          case JoinMode::kSemi:
            slot->AssignFrom(lrow);
            out->CommitSlot();
            dropped_left = true;
            break;
          case JoinMode::kAnti:
            dropped_left = true;
            break;
        }
      } else {
        // Pure equi-join: columnar emission, value by value from the
        // probe and build columns — no joined-Tuple assembly.
        left_had_match_ = true;
        switch (mode_) {
          case JoinMode::kInner:
          case JoinMode::kLeftOuter:
            if (gather_batch_ok_ && ridx < ColumnVector::kNullIndex) {
              emit_left_.push_back(static_cast<uint32_t>(left_off_ + lraw));
              emit_right_.push_back(static_cast<uint32_t>(ridx));
            } else {
              for (size_t c = 0; c < left_arity; ++c) {
                out->mutable_column(c)->AppendFrom(*left_cols_[c],
                                                   left_off_ + lraw);
              }
              for (size_t c = 0; c < right_cols_.size(); ++c) {
                out->mutable_column(left_arity + c)
                    ->AppendFrom(*right_cols_[c], ridx);
              }
              out->CommitColumnRow();
            }
            break;
          case JoinMode::kSemi:
            for (size_t c = 0; c < left_arity; ++c) {
              out->mutable_column(c)->AppendFrom(*left_cols_[c],
                                                 left_off_ + lraw);
            }
            out->CommitColumnRow();
            dropped_left = true;
            break;
          case JoinMode::kAnti:
            dropped_left = true;
            break;
        }
      }
      if (dropped_left) break;
    }
    if (!dropped_left) {
      const bool unmatched = !left_had_match_;
      if (mode_ == JoinMode::kLeftOuter && unmatched) {
        if (gather ? out->NumRows() + emit_left_.size() >= out->capacity()
                   : out->full()) {
          FlushGather(out);
          return true;
        }
        if (columnar_emit_ && gather_batch_ok_) {
          emit_left_.push_back(static_cast<uint32_t>(left_off_ + lraw));
          emit_right_.push_back(ColumnVector::kNullIndex);
        } else if (columnar_emit_) {
          for (size_t c = 0; c < left_arity; ++c) {
            out->mutable_column(c)->AppendFrom(*left_cols_[c],
                                               left_off_ + lraw);
          }
          for (size_t c = 0; c < right_cols_.size(); ++c) {
            out->mutable_column(left_arity + c)->AppendNull();
          }
          out->CommitColumnRow();
        } else {
          out->AppendSlot()->AssignConcatNulls(input_.row(lraw),
                                               right_->scheme().size());
        }
      } else if (mode_ == JoinMode::kAnti && unmatched) {
        if (out->full()) return true;
        if (columnar_emit_) {
          for (size_t c = 0; c < left_arity; ++c) {
            out->mutable_column(c)->AppendFrom(*left_cols_[c],
                                               left_off_ + lraw);
          }
          out->CommitColumnRow();
        } else {
          out->AppendSlot()->AssignFrom(input_.row(lraw));
        }
      }
    }
    left_active_ = false;
    ++input_pos_;
  }
}

void BatchHashJoinIterator::CloseImpl() {
  left_->Close();
  held_.clear();
  left_build_cols_.clear();
  left_matched_.clear();
  index_.reset();
  fast_buckets_.clear();
  fast_next_.clear();
  fast_bloom_.clear();
  use_fast_index_ = false;
  fast_match_ = 0;
  // build_cols_ points into build_side_; drop it first.
  build_cols_.reset();
  right_cols_.clear();
  left_cols_.clear();
  columnar_emit_ = false;
  probe_dense_ = false;
  match_head_.clear();
  probe_needs_.clear();
  emit_left_.clear();
  emit_right_.clear();
  gather_batch_ok_ = false;
  build_rel_ = nullptr;
  shared_build_cols_ = nullptr;
  build_side_ = Relation();
  normalized_build_ = Relation();
  left_active_ = false;
  matches_ = nullptr;
}

const Scheme& BatchHashJoinIterator::scheme() const { return out_scheme_; }

// --- Generalized outerjoin ---------------------------------------------

BatchGojIterator::BatchGojIterator(BatchIteratorPtr left,
                                   BatchIteratorPtr right, PredicatePtr pred,
                                   AttrSet subset, JoinAlgo algo)
    : left_(std::move(left)),
      right_(std::move(right)),
      pred_(std::move(pred)),
      subset_(std::move(subset)),
      algo_(algo),
      out_scheme_(left_->scheme().Concat(right_->scheme())) {}

void BatchGojIterator::OpenImpl() {
  Relation left_rel = DrainBatches(left_.get());
  Relation right_rel = DrainBatches(right_.get());
  KernelStats ks;
  result_ = GeneralizedOuterJoin(left_rel, right_rel, pred_, subset_, algo_,
                                 &ks);
  ks.emitted = 0;  // counted by the base class as batches stream out
  mutable_stats() += ks;
  pos_ = 0;
}

bool BatchGojIterator::NextBatchImpl(TupleBatch* out) {
  if (pos_ >= result_.NumRows()) return false;
  while (!out->full() && pos_ < result_.NumRows()) {
    out->AppendSlot()->AssignFrom(result_.row(pos_++));
  }
  return true;
}

void BatchGojIterator::CloseImpl() {
  result_ = Relation();
  pos_ = 0;
}

const Scheme& BatchGojIterator::scheme() const { return out_scheme_; }

}  // namespace fro
