#include "fuzz/oracle.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace fro {

namespace {

// True iff `pred` evaluates to True (not Unknown) on the concatenation
// (l, r) under the concatenated scheme. A null predicate is a cartesian
// operator: everything matches.
bool Matches(const PredicatePtr& pred, const Tuple& l, const Tuple& r,
             const Scheme& joint) {
  if (pred == nullptr) return true;
  return IsTrue(pred->Eval(l.Concat(r), joint));
}

// The filtered cross product over the concatenated scheme.
Relation BruteJoin(const Relation& left, const Relation& right,
                   const PredicatePtr& pred) {
  Relation out(left.scheme().Concat(right.scheme()));
  for (const Tuple& l : left.rows()) {
    for (const Tuple& r : right.rows()) {
      if (Matches(pred, l, r, out.scheme())) out.AddRow(l.Concat(r));
    }
  }
  return out;
}

// Whether tuple `probe` of `probe_side` has any partner in `other`.
// `probe_on_left` fixes the concatenation order the predicate sees.
bool HasPartner(const Tuple& probe, const Relation& probe_side,
                const Relation& other, const PredicatePtr& pred,
                bool probe_on_left) {
  const Scheme joint = probe_on_left
                           ? probe_side.scheme().Concat(other.scheme())
                           : other.scheme().Concat(probe_side.scheme());
  for (const Tuple& o : other.rows()) {
    const Tuple joined = probe_on_left ? probe.Concat(o) : o.Concat(probe);
    if (pred == nullptr || IsTrue(pred->Eval(joined, joint))) return true;
  }
  return false;
}

Relation BruteOuterJoin(const Relation& left, const Relation& right,
                        const PredicatePtr& pred, bool preserves_left) {
  Relation out = BruteJoin(left, right, pred);
  const size_t left_arity = left.scheme().size();
  const size_t right_arity = right.scheme().size();
  if (preserves_left) {
    for (const Tuple& l : left.rows()) {
      if (!HasPartner(l, left, right, pred, /*probe_on_left=*/true)) {
        out.AddRow(l.Concat(Tuple::Nulls(right_arity)));
      }
    }
  } else {
    for (const Tuple& r : right.rows()) {
      if (!HasPartner(r, right, left, pred, /*probe_on_left=*/false)) {
        out.AddRow(Tuple::Nulls(left_arity).Concat(r));
      }
    }
  }
  return out;
}

Relation BruteSemiAnti(const Relation& left, const Relation& right,
                       const PredicatePtr& pred, bool keeps_left,
                       bool want_partner) {
  const Relation& kept = keeps_left ? left : right;
  const Relation& other = keeps_left ? right : left;
  Relation out(kept.scheme());
  for (const Tuple& k : kept.rows()) {
    if (HasPartner(k, kept, other, pred, /*probe_on_left=*/keeps_left) ==
        want_partner) {
      out.AddRow(k);
    }
  }
  return out;
}

// Eq. 14: JN[p](L, R)  ∪  { (s padded with nulls) : s a distinct
// S-projection of L not appearing among the join's S-projections }.
Relation BruteGoj(const Relation& left, const Relation& right,
                  const PredicatePtr& pred, const AttrSet& subset) {
  Relation out = BruteJoin(left, right, pred);
  const Scheme& joint = out.scheme();

  auto project_s = [&subset](const Tuple& row, const Scheme& scheme) {
    std::vector<Value> values;
    values.reserve(subset.size());
    for (AttrId attr : subset) {
      int pos = scheme.IndexOf(attr);
      FRO_CHECK_GE(pos, 0);
      values.push_back(row.value(static_cast<size_t>(pos)));
    }
    return Tuple(std::move(values));
  };

  std::vector<Tuple> joined_projections;
  joined_projections.reserve(out.NumRows());
  for (const Tuple& j : out.rows()) {
    joined_projections.push_back(project_s(j, joint));
  }
  std::sort(joined_projections.begin(), joined_projections.end());

  // Distinct S-projections of L, in first-appearance order.
  std::vector<Tuple> left_projections;
  for (const Tuple& l : left.rows()) {
    Tuple p = project_s(l, left.scheme());
    if (std::find(left_projections.begin(), left_projections.end(), p) ==
        left_projections.end()) {
      left_projections.push_back(std::move(p));
    }
  }

  for (const Tuple& p : left_projections) {
    if (std::binary_search(joined_projections.begin(),
                           joined_projections.end(), p)) {
      continue;
    }
    std::vector<Value> values(joint.size());
    size_t s_index = 0;
    for (AttrId attr : subset) {
      values[static_cast<size_t>(joint.IndexOf(attr))] = p.value(s_index++);
    }
    out.AddRow(std::move(values));
  }
  return out;
}

// Padding and union written out longhand (not via BagUnionPadded): the
// union scheme is the sorted set of both schemes' attributes; each row
// maps its values across and leaves the rest null.
Relation BruteUnion(const Relation& left, const Relation& right) {
  std::vector<AttrId> cols = left.scheme().cols();
  for (AttrId attr : right.scheme().cols()) {
    if (std::find(cols.begin(), cols.end(), attr) == cols.end()) {
      cols.push_back(attr);
    }
  }
  std::sort(cols.begin(), cols.end());
  Relation out((Scheme(cols)));
  auto add_padded = [&out](const Relation& source) {
    for (const Tuple& row : source.rows()) {
      std::vector<Value> values(out.scheme().size());
      for (size_t c = 0; c < source.scheme().size(); ++c) {
        values[static_cast<size_t>(
            out.scheme().IndexOf(source.scheme().col(c)))] = row.value(c);
      }
      out.AddRow(std::move(values));
    }
  };
  add_padded(left);
  add_padded(right);
  return out;
}

Relation BruteRestrict(const Relation& input, const PredicatePtr& pred) {
  Relation out(input.scheme());
  for (const Tuple& row : input.rows()) {
    if (IsTrue(pred->Eval(row, input.scheme()))) out.AddRow(row);
  }
  return out;
}

Relation BruteProject(const Relation& input, const std::vector<AttrId>& cols,
                      bool dedup) {
  Relation out((Scheme(cols)));
  for (const Tuple& row : input.rows()) {
    std::vector<Value> values;
    values.reserve(cols.size());
    for (AttrId attr : cols) {
      values.push_back(row.value(static_cast<size_t>(
          input.scheme().IndexOf(attr))));
    }
    Tuple projected(std::move(values));
    if (dedup &&
        std::find(out.rows().begin(), out.rows().end(), projected) !=
            out.rows().end()) {
      continue;
    }
    out.AddRow(std::move(projected));
  }
  return out;
}

}  // namespace

Relation OracleEval(const ExprPtr& expr, const Database& db) {
  FRO_CHECK(expr != nullptr);
  switch (expr->kind()) {
    case OpKind::kLeaf:
      return db.relation(expr->rel());
    case OpKind::kJoin:
      return BruteJoin(OracleEval(expr->left(), db),
                       OracleEval(expr->right(), db), expr->pred());
    case OpKind::kOuterJoin:
      return BruteOuterJoin(OracleEval(expr->left(), db),
                            OracleEval(expr->right(), db), expr->pred(),
                            expr->preserves_left());
    case OpKind::kAntijoin:
      return BruteSemiAnti(OracleEval(expr->left(), db),
                           OracleEval(expr->right(), db), expr->pred(),
                           expr->preserves_left(), /*want_partner=*/false);
    case OpKind::kSemijoin:
      return BruteSemiAnti(OracleEval(expr->left(), db),
                           OracleEval(expr->right(), db), expr->pred(),
                           expr->preserves_left(), /*want_partner=*/true);
    case OpKind::kGoj:
      return BruteGoj(OracleEval(expr->left(), db),
                      OracleEval(expr->right(), db), expr->pred(),
                      expr->goj_subset());
    case OpKind::kUnion:
      return BruteUnion(OracleEval(expr->left(), db),
                        OracleEval(expr->right(), db));
    case OpKind::kRestrict:
      return BruteRestrict(OracleEval(expr->left(), db), expr->pred());
    case OpKind::kProject:
      return BruteProject(OracleEval(expr->left(), db),
                          expr->project_cols(), expr->project_dedup());
    case OpKind::kMultiwayJoin: {
      // The filtered cross product of the operands in scheme order.
      const std::vector<ExprPtr>& children = expr->mj_children();
      FRO_CHECK(!children.empty()) << "MultiwayJoin without operands";
      Relation acc = OracleEval(children[0], db);
      for (size_t i = 1; i < children.size(); ++i) {
        acc = BruteJoin(acc, OracleEval(children[i], db), nullptr);
      }
      if (expr->pred() == nullptr) return acc;
      return BruteRestrict(acc, expr->pred());
    }
  }
  FRO_CHECK(false) << "unreachable operator kind";
  return Relation();
}

}  // namespace fro
