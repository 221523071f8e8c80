#include "exec/build.h"

#include "common/check.h"
#include "exec/batch_operators.h"
#include "exec/morsel.h"
#include "wcoj/leapfrog.h"

namespace fro {

namespace {

JoinMode ModeOf(OpKind kind) {
  switch (kind) {
    case OpKind::kJoin:
      return JoinMode::kInner;
    case OpKind::kOuterJoin:
      return JoinMode::kLeftOuter;
    case OpKind::kAntijoin:
      return JoinMode::kAnti;
    case OpKind::kSemijoin:
      return JoinMode::kSemi;
    default:
      FRO_CHECK(false) << "not a join-like operator";
  }
  return JoinMode::kInner;
}

/// How a plan is compiled. Outside worker pipelines every operator is
/// the serial one; with `threads` > 1 each spine (see SpineReachesLeaf)
/// becomes an exchange over `threads` worker pipelines, compiled by this
/// same builder with `worker` set.
struct BuildContext {
  const Database& db;
  JoinAlgo algo;
  size_t batch_capacity;
  int threads = 1;
  size_t morsel_rows = 1;
  /// Set while compiling a worker pipeline of this exchange: the spine's
  /// driver leaf becomes a morsel scan, non-leaf off-spine inputs become
  /// scans of shared materializations, spine GOJs share a pad merge.
  ExchangeState* worker = nullptr;

  BuildContext Outside() const {
    BuildContext outside = *this;
    outside.worker = nullptr;
    return outside;
  }
};

/// Whether a join-like's physical operator anchors its left operand on
/// the left: the preserved/kept operand is anchored (a plain join keeps
/// its order), so symmetric forms (`<-`, `<|`, `-<`) swap the operands.
bool AnchorsLeft(const ExprPtr& expr) {
  return expr->preserves_left() || expr->kind() == OpKind::kJoin;
}

/// True when a chain of restricts, non-deduplicating projections, GOJs
/// and join-likes, following each one's left/anchored operand, ends at a
/// base relation: the rows of that relation (the driver) can then be
/// split into morsels and the chain run per morsel. Deduplication,
/// union and multiway joins need their whole input and stay serial.
bool SpineReachesLeaf(const ExprPtr& expr) {
  switch (expr->kind()) {
    case OpKind::kLeaf:
      return true;
    case OpKind::kRestrict:
    case OpKind::kGoj:
      return SpineReachesLeaf(expr->left());
    case OpKind::kProject:
      return !expr->project_dedup() && SpineReachesLeaf(expr->left());
    case OpKind::kJoin:
    case OpKind::kOuterJoin:
    case OpKind::kAntijoin:
    case OpKind::kSemijoin:
      return SpineReachesLeaf(AnchorsLeft(expr) ? expr->left() : expr->right());
    case OpKind::kUnion:
    case OpKind::kMultiwayJoin:
      return false;
  }
  return false;
}

BatchIteratorPtr BuildBatch(const ExprPtr& expr, const BuildContext& ctx);

/// `owner`'s operand `input`, which a worker pipeline does not split: a
/// base relation is scanned whole by every worker; anything else is
/// compiled once, outside the workers, and scanned from its shared
/// materialization.
BatchIteratorPtr BuildOffSpine(const ExprPtr& owner, const ExprPtr& input,
                               const BuildContext& ctx) {
  if (ctx.worker == nullptr || input->is_leaf()) {
    return BuildBatch(input, ctx.Outside());
  }
  return ctx.worker->SharedInputScan(
      owner.get(), [&] { return BuildBatch(input, ctx.Outside()); });
}

BatchIteratorPtr BuildExchange(const ExprPtr& expr, const BuildContext& ctx) {
  auto state = std::make_unique<ExchangeState>();
  BuildContext worker = ctx;
  worker.worker = state.get();
  for (int i = 0; i < ctx.threads; ++i) {
    state->AddWorker(BuildBatch(expr, worker));
  }
  BatchIteratorPtr it = std::make_unique<BatchExchangeIterator>(
      std::move(state), ctx.batch_capacity);
  it->set_source_expr(expr);
  return it;
}

BatchIteratorPtr BuildBatch(const ExprPtr& expr, const BuildContext& ctx) {
  if (ctx.threads > 1 && ctx.worker == nullptr && !expr->is_leaf() &&
      SpineReachesLeaf(expr)) {
    return BuildExchange(expr, ctx);
  }
  const Database& db = ctx.db;
  const size_t capacity = ctx.batch_capacity;
  BatchIteratorPtr it;
  switch (expr->kind()) {
    case OpKind::kLeaf:
      if (ctx.worker != nullptr) {
        it = ctx.worker->MorselScan(&db.relation(expr->rel()),
                                    db.CachedColumns(expr->rel()),
                                    ctx.morsel_rows);
      } else {
        it = std::make_unique<BatchScanIterator>(
            &db.relation(expr->rel()), db.CachedColumns(expr->rel()));
      }
      break;
    case OpKind::kRestrict:
      it = std::make_unique<BatchFilterIterator>(BuildBatch(expr->left(), ctx),
                                                 expr->pred());
      break;
    case OpKind::kProject:
      it = std::make_unique<BatchProjectIterator>(
          BuildBatch(expr->left(), ctx), expr->project_cols(),
          expr->project_dedup(), capacity);
      break;
    case OpKind::kUnion:
      it = std::make_unique<BatchUnionIterator>(BuildBatch(expr->left(), ctx),
                                                BuildBatch(expr->right(), ctx),
                                                capacity);
      break;
    case OpKind::kGoj:
      it = std::make_unique<BatchGojIterator>(
          BuildBatch(expr->left(), ctx),
          BuildOffSpine(expr, expr->right(), ctx), expr->pred(),
          expr->goj_subset(), ctx.algo,
          ctx.worker != nullptr ? ctx.worker->PadMerge(expr.get()) : nullptr);
      break;
    case OpKind::kMultiwayJoin: {
      // Leapfrog runs serially over its trie indexes, and so do its inputs.
      BuildContext serial = ctx;
      serial.threads = 1;
      std::vector<BatchIteratorPtr> inputs;
      inputs.reserve(expr->mj_children().size());
      for (const ExprPtr& child : expr->mj_children()) {
        inputs.push_back(BuildBatch(child, serial));
      }
      return MakeBatchLeapfrogIterator(expr, std::move(inputs), capacity);
    }
    case OpKind::kJoin:
    case OpKind::kOuterJoin:
    case OpKind::kAntijoin:
    case OpKind::kSemijoin: {
      const bool anchors_left = AnchorsLeft(expr);
      BatchIteratorPtr left =
          BuildBatch(anchors_left ? expr->left() : expr->right(), ctx);
      BatchIteratorPtr right =
          BuildOffSpine(expr, anchors_left ? expr->right() : expr->left(), ctx);
      JoinMode mode = ModeOf(expr->kind());
      EquiKeys keys =
          ExtractEquiKeys(expr->pred(), left->scheme(), right->scheme());
      const bool use_hash =
          keys.Usable() &&
          (ctx.algo == JoinAlgo::kHash || ctx.algo == JoinAlgo::kAuto);
      if (use_hash) {
        it = std::make_unique<BatchHashJoinIterator>(
            std::move(left), std::move(right), expr->pred(), mode,
            std::move(keys.left), std::move(keys.right), capacity);
      } else {
        it = std::make_unique<BatchNestedLoopJoinIterator>(
            std::move(left), std::move(right), expr->pred(), mode, capacity);
      }
      break;
    }
  }
  it->set_source_expr(expr);
  return it;
}

}  // namespace

BatchIteratorPtr BuildBatchIterator(const ExprPtr& expr, const Database& db,
                                    JoinAlgo algo, size_t batch_capacity) {
  FRO_CHECK(expr != nullptr);
  return BuildBatch(expr, BuildContext{db, algo, batch_capacity});
}

BatchIteratorPtr BuildParallelBatchIterator(const ExprPtr& expr,
                                            const Database& db,
                                            const ParallelOptions& options) {
  FRO_CHECK(expr != nullptr);
  return BuildBatch(expr, BuildContext{db, options.algo, options.batch_capacity,
                                       options.threads, options.morsel_rows});
}

Relation ExecuteBatched(const ExprPtr& expr, const Database& db,
                        JoinAlgo algo, size_t batch_capacity) {
  BatchIteratorPtr root = BuildBatchIterator(expr, db, algo, batch_capacity);
  return DrainBatches(root.get());
}

}  // namespace fro
