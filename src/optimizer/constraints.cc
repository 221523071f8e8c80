#include "optimizer/constraints.h"

#include <set>

#include "common/check.h"
#include "graph/from_expr.h"

namespace fro {

bool ConstraintSet::Covers(AttrId referencing, AttrId referenced) const {
  for (const ForeignKey& key : keys_) {
    if (key.referencing == referencing && key.referenced == referenced) {
      return true;
    }
  }
  return false;
}

Status ConstraintSet::Validate(const Database& db) const {
  for (const ForeignKey& key : keys_) {
    const Catalog& catalog = db.catalog();
    RelId from_rel = catalog.AttrRelation(key.referencing);
    RelId to_rel = catalog.AttrRelation(key.referenced);
    std::set<Value> targets;
    for (const Tuple& row : db.relation(to_rel).rows()) {
      int pos = db.scheme(to_rel).IndexOf(key.referenced);
      targets.insert(row.value(static_cast<size_t>(pos)));
    }
    int pos = db.scheme(from_rel).IndexOf(key.referencing);
    for (const Tuple& row : db.relation(from_rel).rows()) {
      const Value& v = row.value(static_cast<size_t>(pos));
      if (v.is_null()) {
        return FailedPrecondition(
            "foreign key violated: null value in " +
            catalog.AttrName(key.referencing));
      }
      if (targets.count(v) == 0) {
        return FailedPrecondition(
            "foreign key violated: " + catalog.AttrName(key.referencing) +
            " value " + v.ToString() + " has no match in " +
            catalog.AttrName(key.referenced));
      }
    }
  }
  return Status::Ok();
}

namespace {

// Attributes that some outerjoin inside `expr` can pad with nulls.
AttrSet PaddedAttrs(const ExprPtr& expr) {
  if (expr->is_leaf()) return AttrSet();
  AttrSet out;
  if (expr->left() != nullptr) out = out.Union(PaddedAttrs(expr->left()));
  if (expr->right() != nullptr) out = out.Union(PaddedAttrs(expr->right()));
  if (expr->kind() == OpKind::kOuterJoin) {
    const ExprPtr& null_side =
        expr->preserves_left() ? expr->right() : expr->left();
    out = out.Union(null_side->attrs());
  } else if (expr->kind() == OpKind::kGoj) {
    out = out.Union(expr->attrs().Subtract(expr->goj_subset()));
  }
  return out;
}

// True when the outerjoin node is guaranteed lossless by a constraint.
bool Convertible(const Expr& node, const ConstraintSet& constraints) {
  if (node.kind() != OpKind::kOuterJoin) return false;
  const PredicatePtr& pred = node.pred();
  if (pred->kind() != Predicate::Kind::kCmp ||
      pred->cmp_op() != CmpOp::kEq || !pred->lhs().is_column() ||
      !pred->rhs().is_column()) {
    return false;
  }
  const ExprPtr& preserved =
      node.preserves_left() ? node.left() : node.right();
  const ExprPtr& null_side =
      node.preserves_left() ? node.right() : node.left();
  AttrId a = pred->lhs().attr();
  AttrId b = pred->rhs().attr();
  if (!preserved->attrs().Contains(a)) std::swap(a, b);
  if (!preserved->attrs().Contains(a) || !null_side->attrs().Contains(b)) {
    return false;
  }
  if (!constraints.Covers(a, b)) return false;
  // The referencing column must reach this operator unpadded, and the
  // null-supplied operand must not drop referenced values: require it to
  // be the base relation itself (a leaf).
  if (PaddedAttrs(preserved).Contains(a)) return false;
  return null_side->is_leaf();
}

ExprPtr Rewrite(const ExprPtr& expr, const ConstraintSet& constraints,
                int* converted) {
  if (expr->is_leaf()) return expr;
  if (expr->is_multiway()) {
    std::vector<ExprPtr> children;
    children.reserve(expr->mj_children().size());
    for (const ExprPtr& child : expr->mj_children()) {
      children.push_back(Rewrite(child, constraints, converted));
    }
    return Expr::MultiwayJoin(std::move(children), expr->pred(),
                              expr->mj_var_order());
  }
  ExprPtr left = expr->left() != nullptr
                     ? Rewrite(expr->left(), constraints, converted)
                     : nullptr;
  ExprPtr right = expr->right() != nullptr
                      ? Rewrite(expr->right(), constraints, converted)
                      : nullptr;
  switch (expr->kind()) {
    case OpKind::kOuterJoin: {
      ExprPtr node = Expr::OuterJoin(left, right, expr->pred(),
                                     expr->preserves_left());
      if (Convertible(*node, constraints)) {
        ++*converted;
        return Expr::Join(node->left(), node->right(), node->pred());
      }
      return node;
    }
    case OpKind::kJoin:
      return Expr::Join(left, right, expr->pred());
    case OpKind::kAntijoin:
      return Expr::Antijoin(left, right, expr->pred(),
                            expr->preserves_left());
    case OpKind::kSemijoin:
      return Expr::Semijoin(left, right, expr->pred(),
                            expr->preserves_left());
    case OpKind::kGoj:
      return Expr::Goj(left, right, expr->pred(), expr->goj_subset());
    case OpKind::kUnion:
      return Expr::Union(left, right);
    case OpKind::kRestrict:
      return Expr::Restrict(left, expr->pred());
    case OpKind::kProject:
      return Expr::Project(left, expr->project_cols(),
                           expr->project_dedup());
    case OpKind::kLeaf:
    case OpKind::kMultiwayJoin:
      break;
  }
  FRO_CHECK(false) << "SimplifyWithConstraints: cannot rebuild a "
                   << OpKindName(expr->kind());
  return nullptr;
}

}  // namespace

Result<ConstraintSimplifyResult> SimplifyWithConstraints(
    const ExprPtr& expr, const ConstraintSet& constraints,
    const Database& db) {
  FRO_RETURN_IF_ERROR(constraints.Validate(db));
  ConstraintSimplifyResult result;
  result.expr = Rewrite(expr, constraints, &result.converted);
  Result<QueryGraph> graph = GraphOf(result.expr, db);
  result.still_freely_reorderable =
      graph.ok() && CheckFreelyReorderable(*graph).freely_reorderable();
  return result;
}

}  // namespace fro
