#include "optimizer/subquery.h"

#include "common/check.h"
#include "graph/from_expr.h"
#include "graph/nice.h"
#include "optimizer/dp.h"

namespace fro {

namespace {

// Tries to reorder this whole subtree; on success returns the optimized
// plan, otherwise recurses into children looking for smaller islands.
ExprPtr Visit(const ExprPtr& expr, const Database& db,
              const CostModel& cost_model, int* reordered) {
  if (expr->is_leaf()) return expr;

  // Whole-subtree attempt: pure Join/Outerjoin, >= 3 relations, nice,
  // strong.
  if ((expr->kind() == OpKind::kJoin ||
       expr->kind() == OpKind::kOuterJoin) &&
      expr->num_leaves() >= 3) {
    Result<QueryGraph> graph = GraphOf(expr, db);
    if (graph.ok() &&
        CheckFreelyReorderable(*graph).freely_reorderable()) {
      Result<PlanResult> best = OptimizeReorderable(*graph, db, cost_model);
      if (best.ok()) {
        ++*reordered;
        return best->plan;
      }
    }
  }

  // Otherwise: rebuild with reordered children.
  if (expr->is_multiway()) {
    bool changed = false;
    std::vector<ExprPtr> children;
    children.reserve(expr->mj_children().size());
    for (const ExprPtr& child : expr->mj_children()) {
      children.push_back(Visit(child, db, cost_model, reordered));
      changed = changed || children.back() != child;
    }
    if (!changed) return expr;
    return Expr::MultiwayJoin(std::move(children), expr->pred(),
                              expr->mj_var_order());
  }
  ExprPtr left = expr->left() != nullptr
                     ? Visit(expr->left(), db, cost_model, reordered)
                     : nullptr;
  ExprPtr right = expr->right() != nullptr
                      ? Visit(expr->right(), db, cost_model, reordered)
                      : nullptr;
  if (left == expr->left() && right == expr->right()) return expr;
  switch (expr->kind()) {
    case OpKind::kJoin:
      return Expr::Join(left, right, expr->pred());
    case OpKind::kOuterJoin:
      return Expr::OuterJoin(left, right, expr->pred(),
                             expr->preserves_left());
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
  FRO_CHECK(false) << "ReorderSubqueries: cannot rebuild a "
                   << OpKindName(expr->kind());
  return nullptr;
}

}  // namespace

SubqueryReorderResult ReorderSubqueries(const ExprPtr& expr,
                                        const Database& db,
                                        const CostModel& cost_model) {
  SubqueryReorderResult result;
  result.expr = Visit(expr, db, cost_model, &result.subqueries_reordered);
  return result;
}

}  // namespace fro
