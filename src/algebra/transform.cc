#include "algebra/transform.h"

#include "common/check.h"

namespace fro {

namespace {

// Single-character operator codes for classification keys:
//   '-' join, '>' outerjoin preserving left, '<' outerjoin preserving
//   right, 'a' antijoin keeping left, 'A' antijoin keeping right,
//   's' semijoin keeping left, 'S' semijoin keeping right, '?' other.
char OpCode(const Expr& node) {
  switch (node.kind()) {
    case OpKind::kJoin:
      return '-';
    case OpKind::kOuterJoin:
      return node.preserves_left() ? '>' : '<';
    case OpKind::kAntijoin:
      return node.preserves_left() ? 'a' : 'A';
    case OpKind::kSemijoin:
      return node.preserves_left() ? 's' : 'S';
    default:
      return '?';
  }
}

// Rebuilds a join-like node with the given children (keeping kind,
// orientation flag, and GOJ payload are not needed here: GOJ is excluded
// from BTs).
ExprPtr MakeJoinLike(OpKind kind, bool preserves_left, ExprPtr left,
                     ExprPtr right, PredicatePtr pred) {
  switch (kind) {
    case OpKind::kJoin:
      return Expr::Join(std::move(left), std::move(right), std::move(pred));
    case OpKind::kOuterJoin:
      return Expr::OuterJoin(std::move(left), std::move(right),
                             std::move(pred), preserves_left);
    case OpKind::kAntijoin:
      return Expr::Antijoin(std::move(left), std::move(right),
                            std::move(pred), preserves_left);
    case OpKind::kSemijoin:
      return Expr::Semijoin(std::move(left), std::move(right),
                            std::move(pred), preserves_left);
    default:
      FRO_CHECK(false) << "MakeJoinLike on " << OpKindName(kind);
  }
  return nullptr;
}

// The ingredients of a reassociation, independent of direction: the three
// subtrees and the two operators of the *identity's left-hand side*
// `(X o1 Y) o2 Z`.
struct AssocParts {
  ExprPtr x, y, z;
  // Lower operator (o1: between X and Y).
  OpKind kind1;
  bool flag1;
  PredicatePtr pred1;
  // Upper operator (o2: between (X o1 Y) and Z).
  OpKind kind2;
  bool flag2;
  PredicatePtr pred2;
  char code1, code2;
};

// Extracts reassociation parts; returns false if the node shapes do not
// match (non-binary operators, GOJ, etc.).
bool ExtractParts(const Expr* node, BtSite::Kind kind, AssocParts* parts) {
  if (node == nullptr || !node->is_join_like()) return false;
  if (kind == BtSite::Kind::kAssocLR) {
    const ExprPtr& lower = node->left();
    if (!lower->is_join_like()) return false;
    parts->x = lower->left();
    parts->y = lower->right();
    parts->z = node->right();
    parts->kind1 = lower->kind();
    parts->flag1 = lower->preserves_left();
    parts->pred1 = lower->pred();
    parts->kind2 = node->kind();
    parts->flag2 = node->preserves_left();
    parts->pred2 = node->pred();
    parts->code1 = OpCode(*lower);
    parts->code2 = OpCode(*node);
    return true;
  }
  // kAssocRL: the current tree is the identity's right-hand side
  // X o1 (Y o2 Z); o1 is this node, o2 is the right child.
  const ExprPtr& lower = node->right();
  if (!lower->is_join_like()) return false;
  parts->x = node->left();
  parts->y = lower->left();
  parts->z = lower->right();
  parts->kind1 = node->kind();
  parts->flag1 = node->preserves_left();
  parts->pred1 = node->pred();
  parts->kind2 = lower->kind();
  parts->flag2 = lower->preserves_left();
  parts->pred2 = lower->pred();
  parts->code1 = OpCode(*node);
  parts->code2 = OpCode(*lower);
  return true;
}

// Splits the conjuncts of the predicate that crosses between {X, Y} and
// the third subtree into those anchored at X and those anchored at Y.
// Returns false when the split is impossible (a conjunct touches both X
// and Y, or touches neither).
bool SplitConjuncts(const PredicatePtr& pred, const AttrSet& x_attrs,
                    const AttrSet& y_attrs,
                    std::vector<PredicatePtr>* touching_x,
                    std::vector<PredicatePtr>* touching_y) {
  if (pred == nullptr) return false;
  for (const PredicatePtr& conjunct : pred->Conjuncts(pred)) {
    const bool tx = conjunct->References().Overlaps(x_attrs);
    const bool ty = conjunct->References().Overlaps(y_attrs);
    if (tx == ty) return false;  // both or neither: cannot split
    (tx ? touching_x : touching_y)->push_back(conjunct);
  }
  return true;
}

// Checks that a join-like node's predicate is evaluable and meaningful:
// its references are covered by the operand outputs and every conjunct
// touches both sides.
bool WellFormedPred(const PredicatePtr& pred, const AttrSet& left_attrs,
                    const AttrSet& right_attrs) {
  if (pred == nullptr) return false;
  AttrSet visible = left_attrs.Union(right_attrs);
  if (!visible.ContainsAll(pred->References())) return false;
  for (const PredicatePtr& conjunct : pred->Conjuncts(pred)) {
    if (!conjunct->References().Overlaps(left_attrs)) return false;
    if (!conjunct->References().Overlaps(right_attrs)) return false;
  }
  return true;
}

// Builds the reassociation result. For kAssocLR the result is
// X o1 (Y o2 Z); for kAssocRL the result is (X o1 Y) o2 Z. Returns null if
// the transform is not applicable.
ExprPtr BuildAssocResult(const Expr* node, BtSite::Kind kind) {
  AssocParts parts;
  if (!ExtractParts(node, kind, &parts)) return nullptr;

  if (kind == BtSite::Kind::kAssocLR) {
    // Split o2's conjuncts: those touching X migrate up to o1.
    std::vector<PredicatePtr> movable, staying;
    if (!SplitConjuncts(parts.pred2, parts.x->attrs(), parts.y->attrs(),
                        &movable, &staying)) {
      return nullptr;
    }
    // "Applicable only if the predicate in o2 references some relation in
    // Q2" — and the new lower operator may not become a cross product.
    if (staying.empty()) return nullptr;
    // Conjunct migration is legal only between two regular joins.
    if (!movable.empty() &&
        (parts.kind1 != OpKind::kJoin || parts.kind2 != OpKind::kJoin)) {
      return nullptr;
    }
    PredicatePtr lower_pred = Predicate::And(staying);
    std::vector<PredicatePtr> upper_parts =
        parts.pred1->Conjuncts(parts.pred1);
    upper_parts.insert(upper_parts.end(), movable.begin(), movable.end());
    PredicatePtr upper_pred = Predicate::And(upper_parts);

    if (!WellFormedPred(lower_pred, parts.y->attrs(), parts.z->attrs())) {
      return nullptr;
    }
    ExprPtr lower = MakeJoinLike(parts.kind2, parts.flag2, parts.y, parts.z,
                                 lower_pred);
    if (!WellFormedPred(upper_pred, parts.x->attrs(), lower->attrs())) {
      return nullptr;
    }
    return MakeJoinLike(parts.kind1, parts.flag1, parts.x, lower, upper_pred);
  }

  // kAssocRL: conjuncts of o1 touching Z migrate down to o2.
  std::vector<PredicatePtr> movable, staying;
  if (!SplitConjuncts(parts.pred1, parts.z->attrs(), parts.y->attrs(),
                      &movable, &staying)) {
    return nullptr;
  }
  if (staying.empty()) return nullptr;  // new lower op would be a product
  if (!movable.empty() &&
      (parts.kind1 != OpKind::kJoin || parts.kind2 != OpKind::kJoin)) {
    return nullptr;
  }
  PredicatePtr lower_pred = Predicate::And(staying);
  std::vector<PredicatePtr> upper_parts = parts.pred2->Conjuncts(parts.pred2);
  upper_parts.insert(upper_parts.end(), movable.begin(), movable.end());
  PredicatePtr upper_pred = Predicate::And(upper_parts);

  if (!WellFormedPred(lower_pred, parts.x->attrs(), parts.y->attrs())) {
    return nullptr;
  }
  ExprPtr lower = MakeJoinLike(parts.kind1, parts.flag1, parts.x, parts.y,
                               lower_pred);
  if (!WellFormedPred(upper_pred, lower->attrs(), parts.z->attrs())) {
    return nullptr;
  }
  return MakeJoinLike(parts.kind2, parts.flag2, lower, parts.z, upper_pred);
}

ExprPtr BuildReversalResult(const Expr* node) {
  if (node == nullptr || !node->is_join_like()) return nullptr;
  return MakeJoinLike(node->kind(), !node->preserves_left(), node->right(),
                      node->left(), node->pred());
}

ExprPtr BuildResult(const Expr* node, BtSite::Kind kind) {
  if (kind == BtSite::Kind::kReversal) return BuildReversalResult(node);
  return BuildAssocResult(node, kind);
}

}  // namespace

const Expr* NodeAt(const ExprPtr& root, const ExprPath& path) {
  const Expr* node = root.get();
  for (bool go_right : path) {
    if (node == nullptr) return nullptr;
    node = go_right ? node->right().get() : node->left().get();
  }
  return node;
}

namespace {

// Returns the shared_ptr at `path` (needed to reuse subtrees).
ExprPtr SharedNodeAt(const ExprPtr& root, const ExprPath& path) {
  ExprPtr node = root;
  for (bool go_right : path) {
    FRO_CHECK(node != nullptr);
    node = go_right ? node->right() : node->left();
  }
  return node;
}

ExprPtr ReplaceAtImpl(const ExprPtr& root, const ExprPath& path, size_t depth,
                      ExprPtr replacement) {
  if (depth == path.size()) return replacement;
  FRO_CHECK(root != nullptr);
  // Paths address binary children; an n-ary MultiwayJoin has none.
  FRO_CHECK(root->kind() != OpKind::kMultiwayJoin)
      << "ReplaceAt: path descends through a MultiwayJoin";
  const bool go_right = path[depth];
  ExprPtr new_left = root->left();
  ExprPtr new_right = root->right();
  if (go_right) {
    new_right = ReplaceAtImpl(root->right(), path, depth + 1,
                              std::move(replacement));
  } else {
    new_left =
        ReplaceAtImpl(root->left(), path, depth + 1, std::move(replacement));
  }
  switch (root->kind()) {
    case OpKind::kJoin:
    case OpKind::kOuterJoin:
    case OpKind::kAntijoin:
    case OpKind::kSemijoin:
      return MakeJoinLike(root->kind(), root->preserves_left(),
                          std::move(new_left), std::move(new_right),
                          root->pred());
    case OpKind::kGoj:
      return Expr::Goj(std::move(new_left), std::move(new_right),
                       root->pred(), root->goj_subset());
    case OpKind::kUnion:
      return Expr::Union(std::move(new_left), std::move(new_right));
    case OpKind::kRestrict:
      return Expr::Restrict(std::move(new_left), root->pred());
    case OpKind::kProject:
      return Expr::Project(std::move(new_left), root->project_cols(),
                           root->project_dedup());
    case OpKind::kLeaf:
    case OpKind::kMultiwayJoin:
      break;
  }
  FRO_CHECK(false) << "ReplaceAt: path descends through a "
                   << OpKindName(root->kind());
  return nullptr;
}

}  // namespace

ExprPtr ReplaceAt(const ExprPtr& root, const ExprPath& path,
                  ExprPtr replacement) {
  return ReplaceAtImpl(root, path, 0, std::move(replacement));
}

bool IsApplicable(const ExprPtr& root, const BtSite& site) {
  const Expr* node = NodeAt(root, site.path);
  return BuildResult(node, site.kind) != nullptr;
}

namespace {

void CollectSites(const ExprPtr& root, const ExprPtr& node, ExprPath* path,
                  std::vector<BtSite>* out) {
  if (node == nullptr || node->is_leaf()) return;
  if (node->is_join_like()) {
    for (BtSite::Kind kind :
         {BtSite::Kind::kReversal, BtSite::Kind::kAssocLR,
          BtSite::Kind::kAssocRL}) {
      BtSite site{kind, *path};
      if (BuildResult(node.get(), kind) != nullptr) out->push_back(site);
    }
  }
  if (node->left() != nullptr) {
    path->push_back(false);
    CollectSites(root, node->left(), path, out);
    path->pop_back();
  }
  if (node->right() != nullptr) {
    path->push_back(true);
    CollectSites(root, node->right(), path, out);
    path->pop_back();
  }
}

}  // namespace

std::vector<BtSite> FindApplicableBts(const ExprPtr& root) {
  std::vector<BtSite> out;
  ExprPath path;
  CollectSites(root, root, &path, &out);
  return out;
}

Result<ExprPtr> ApplyBt(const ExprPtr& root, const BtSite& site) {
  const ExprPtr node = SharedNodeAt(root, site.path);
  ExprPtr result = BuildResult(node.get(), site.kind);
  if (result == nullptr) {
    return FailedPrecondition("basic transform not applicable at site");
  }
  return ReplaceAt(root, site.path, std::move(result));
}

BtClassification ClassifyBt(const ExprPtr& root, const BtSite& site) {
  BtClassification out;
  if (site.kind == BtSite::Kind::kReversal) {
    out.preservation = Preservation::kAlways;
    out.rule = "reversal (symmetric form)";
    return out;
  }
  const Expr* node = NodeAt(root, site.path);
  AssocParts parts;
  FRO_CHECK(ExtractParts(node, site.kind, &parts))
      << "ClassifyBt on a non-applicable site";

  const std::string key{parts.code1, parts.code2};
  auto always = [&](const char* rule) {
    out.preservation = Preservation::kAlways;
    out.rule = rule;
  };
  auto never = [&](const char* rule) {
    out.preservation = Preservation::kNever;
    out.rule = rule;
  };

  if (key == "--") {
    always("identity 1 (join associativity)");
  } else if (key == "->") {
    always("identity 11 (join below outerjoin)");
  } else if (key == "<>") {
    always("identity 13 (outerjoins sharing the preserved operand)");
  } else if (key == ">>") {
    out.preservation = Preservation::kConditional;
    out.condition_holds = parts.pred2->IsStrongWrt(
        parts.pred2->References().Intersect(parts.y->attrs()));
    out.rule = "identity 12 (requires P_yz strong w.r.t. Y)";
  } else if (key == "<<") {
    out.preservation = Preservation::kConditional;
    out.condition_holds = parts.pred1->IsStrongWrt(
        parts.pred1->References().Intersect(parts.y->attrs()));
    out.rule = "identity 12 mirrored (requires P_xy strong w.r.t. Y)";
  } else if (key == "<-") {
    always("join on the preserved side of an outerjoin commutes");
  } else if (key == "-a") {
    always("identity 2 (join/antijoin associativity)");
  } else if (key == "Aa") {
    always("identity 3 (antijoin associativity)");
  } else if (key == "A-" || key == "A>" || key == "<a") {
    always("derived antijoin/outerjoin commutation");
  } else if (key == "-s" || key == "<s") {
    always("semijoin over join/preserved outerjoin (Section 6.3)");
  } else if (key == ">-") {
    never("forbidden pattern [X -> Y - Z] (Example 2)");
  } else if (key == "><") {
    never("forbidden pattern [X -> Y <- Z]");
  } else {
    never("no supporting identity");
  }
  return out;
}

}  // namespace fro
