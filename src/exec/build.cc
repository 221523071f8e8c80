#include "exec/build.h"

#include "common/check.h"
#include "exec/batch_operators.h"
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

BatchIteratorPtr BuildBatch(const ExprPtr& expr, const Database& db,
                            JoinAlgo algo, size_t batch_capacity) {
  BatchIteratorPtr it;
  switch (expr->kind()) {
    case OpKind::kLeaf:
      it = std::make_unique<BatchScanIterator>(&db.relation(expr->rel()),
                                               db.CachedColumns(expr->rel()));
      break;
    case OpKind::kRestrict:
      it = std::make_unique<BatchFilterIterator>(
          BuildBatch(expr->left(), db, algo, batch_capacity), expr->pred());
      break;
    case OpKind::kProject:
      it = std::make_unique<BatchProjectIterator>(
          BuildBatch(expr->left(), db, algo, batch_capacity),
          expr->project_cols(), expr->project_dedup(), batch_capacity);
      break;
    case OpKind::kUnion:
      it = std::make_unique<BatchUnionIterator>(
          BuildBatch(expr->left(), db, algo, batch_capacity),
          BuildBatch(expr->right(), db, algo, batch_capacity),
          batch_capacity);
      break;
    case OpKind::kGoj:
      it = std::make_unique<BatchGojIterator>(
          BuildBatch(expr->left(), db, algo, batch_capacity),
          BuildBatch(expr->right(), db, algo, batch_capacity), expr->pred(),
          expr->goj_subset(), algo);
      break;
    case OpKind::kMultiwayJoin: {
      std::vector<BatchIteratorPtr> inputs;
      inputs.reserve(expr->mj_children().size());
      for (const ExprPtr& child : expr->mj_children()) {
        inputs.push_back(BuildBatch(child, db, algo, batch_capacity));
      }
      return MakeBatchLeapfrogIterator(expr, std::move(inputs),
                                       batch_capacity);
    }
    default: {
      // Join-like: anchor the preserved/kept operand on the left.
      ExprPtr anchor = expr->left();
      ExprPtr other = expr->right();
      if (!expr->preserves_left() && expr->kind() != OpKind::kJoin) {
        std::swap(anchor, other);
      }
      BatchIteratorPtr left = BuildBatch(anchor, db, algo, batch_capacity);
      BatchIteratorPtr right = BuildBatch(other, db, algo, batch_capacity);
      JoinMode mode = ModeOf(expr->kind());
      EquiKeys keys =
          ExtractEquiKeys(expr->pred(), left->scheme(), right->scheme());
      const bool use_hash =
          keys.Usable() &&
          (algo == JoinAlgo::kHash || algo == JoinAlgo::kAuto);
      if (use_hash) {
        it = std::make_unique<BatchHashJoinIterator>(
            std::move(left), std::move(right), expr->pred(), mode,
            std::move(keys.left), std::move(keys.right), batch_capacity);
      } else {
        it = std::make_unique<BatchNestedLoopJoinIterator>(
            std::move(left), std::move(right), expr->pred(), mode,
            batch_capacity);
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
  return BuildBatch(expr, db, algo, batch_capacity);
}

Relation ExecuteBatched(const ExprPtr& expr, const Database& db,
                        JoinAlgo algo, size_t batch_capacity) {
  BatchIteratorPtr root = BuildBatchIterator(expr, db, algo, batch_capacity);
  return DrainBatches(root.get());
}

}  // namespace fro
