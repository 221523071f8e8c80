#include "relational/ops.h"

#include <set>
#include <utility>

#include "common/check.h"
#include "relational/index.h"

namespace fro {

EquiKeys ExtractEquiKeys(const PredicatePtr& pred, const Scheme& left,
                         const Scheme& right) {
  EquiKeys keys;
  if (pred == nullptr) return keys;
  for (const PredicatePtr& conjunct : pred->Conjuncts(pred)) {
    if (conjunct->kind() != Predicate::Kind::kCmp) continue;
    if (conjunct->cmp_op() != CmpOp::kEq) continue;
    const Operand& a = conjunct->lhs();
    const Operand& b = conjunct->rhs();
    if (!a.is_column() || !b.is_column()) continue;
    if (left.Contains(a.attr()) && right.Contains(b.attr())) {
      keys.left.push_back(a.attr());
      keys.right.push_back(b.attr());
    } else if (left.Contains(b.attr()) && right.Contains(a.attr())) {
      keys.left.push_back(b.attr());
      keys.right.push_back(a.attr());
    }
  }
  return keys;
}

Value NormalizeHashKeyValue(const Value& v) {
  if (v.kind() == Value::Kind::kInt) {
    return Value::Double(static_cast<double>(v.AsInt()));
  }
  return v;
}

Relation NormalizeOnKeyColumns(const Relation& rel,
                               const std::vector<AttrId>& key_attrs) {
  std::vector<int> positions;
  positions.reserve(key_attrs.size());
  for (AttrId attr : key_attrs) {
    positions.push_back(rel.scheme().IndexOf(attr));
  }
  Relation out(rel.scheme());
  out.Reserve(rel.NumRows());
  for (const Tuple& row : rel.rows()) {
    std::vector<Value> values = row.values();
    for (int pos : positions) {
      values[static_cast<size_t>(pos)] =
          NormalizeHashKeyValue(values[static_cast<size_t>(pos)]);
    }
    out.AddRow(Tuple(std::move(values)));
  }
  return out;
}

namespace {

// Internal match-driving core shared by join / outerjoin / antijoin /
// semijoin. For each left row it invokes `on_match` for every right row
// satisfying the full predicate and then `on_done(had_match)`.
class Matcher {
 public:
  Matcher(const Relation& left, const Relation& right,
          const PredicatePtr& pred, JoinAlgo algo, KernelStats* stats,
          const HashIndex* prebuilt = nullptr)
      : left_(left),
        right_(right),
        pred_(pred),
        stats_(stats),
        out_scheme_(left.scheme().Concat(right.scheme())) {
    EquiKeys keys = ExtractEquiKeys(pred, left.scheme(), right.scheme());
    // A prebuilt index is usable when every one of its key columns has an
    // equi-conjunct partner on the left (probe keys must cover the
    // index's full key, in its order).
    if (prebuilt != nullptr && keys.Usable() &&
        algo != JoinAlgo::kNestedLoop) {
      EquiKeys aligned;
      for (AttrId right_attr : prebuilt->key_attrs()) {
        for (size_t i = 0; i < keys.right.size(); ++i) {
          if (keys.right[i] == right_attr) {
            aligned.left.push_back(keys.left[i]);
            aligned.right.push_back(right_attr);
            break;
          }
        }
      }
      if (aligned.right.size() == prebuilt->key_attrs().size()) {
        use_hash_ = true;
        keys_ = std::move(aligned);
        index_ = prebuilt;
        return;
      }
    }
    use_hash_ = algo == JoinAlgo::kHash ||
                (algo == JoinAlgo::kAuto && keys.Usable());
    if (use_hash_ && !keys.Usable()) {
      // Hash requested but no equi keys: fall back to nested loop.
      use_hash_ = false;
    }
    if (use_hash_) {
      keys_ = std::move(keys);
      normalized_right_ = NormalizeOnKeyColumns(right_, keys_.right);
      owned_index_ =
          std::make_unique<HashIndex>(normalized_right_, keys_.right);
      index_ = owned_index_.get();
    }
  }

  const Scheme& out_scheme() const { return out_scheme_; }

  /// With `stop_after_first_match`, stops scanning candidates for a left
  /// row as soon as one match is found — the accounting (and work) the
  /// antijoin/semijoin kernels and the pipelined executor share.
  template <typename OnMatch, typename OnDone>
  void Run(OnMatch&& on_match, OnDone&& on_done,
           bool stop_after_first_match = false) {
    std::vector<int> left_key_positions;
    if (use_hash_) {
      for (AttrId attr : keys_.left) {
        left_key_positions.push_back(left_.scheme().IndexOf(attr));
      }
    }
    for (size_t i = 0; i < left_.NumRows(); ++i) {
      ++stats_->left_reads;
      const Tuple& lrow = left_.row(i);
      bool had_match = false;
      auto consider = [&](size_t right_index) {
        ++stats_->right_reads;
        const Tuple& rrow = right_.row(right_index);
        Tuple joined = lrow.Concat(rrow);
        ++stats_->predicate_evals;
        if (pred_ == nullptr || IsTrue(pred_->Eval(joined, out_scheme_))) {
          had_match = true;
          on_match(lrow, rrow, joined);
        }
      };
      if (use_hash_) {
        std::vector<Value> key;
        key.reserve(left_key_positions.size());
        bool null_key = false;
        for (int pos : left_key_positions) {
          Value v = NormalizeHashKeyValue(lrow.value(static_cast<size_t>(pos)));
          if (v.is_null()) {
            null_key = true;
            break;
          }
          key.push_back(std::move(v));
        }
        ++stats_->probes;
        if (!null_key) {
          for (size_t right_index : index_->Probe(key)) {
            consider(right_index);
            if (stop_after_first_match && had_match) break;
          }
        }
      } else {
        for (size_t right_index = 0; right_index < right_.NumRows();
             ++right_index) {
          consider(right_index);
          if (stop_after_first_match && had_match) break;
        }
      }
      on_done(lrow, had_match);
    }
  }

 private:
  const Relation& left_;
  const Relation& right_;
  PredicatePtr pred_;
  KernelStats* stats_;
  Scheme out_scheme_;
  bool use_hash_ = false;
  EquiKeys keys_;
  Relation normalized_right_;
  std::unique_ptr<HashIndex> owned_index_;
  const HashIndex* index_ = nullptr;
};

}  // namespace

Relation Join(const Relation& left, const Relation& right,
              const PredicatePtr& pred, JoinAlgo algo, KernelStats* stats,
              const HashIndex* prebuilt_right_index) {
  KernelStats local;
  Matcher matcher(left, right, pred, algo, &local, prebuilt_right_index);
  Relation out(matcher.out_scheme());
  matcher.Run(
      [&](const Tuple&, const Tuple&, const Tuple& joined) {
        ++local.emitted;
        out.AddRow(joined);
      },
      [](const Tuple&, bool) {});
  if (stats != nullptr) *stats += local;
  return out;
}

Relation LeftOuterJoin(const Relation& left, const Relation& right,
                       const PredicatePtr& pred, JoinAlgo algo,
                       KernelStats* stats,
                       const HashIndex* prebuilt_right_index) {
  KernelStats local;
  Matcher matcher(left, right, pred, algo, &local, prebuilt_right_index);
  Relation out(matcher.out_scheme());
  const size_t right_arity = right.scheme().size();
  matcher.Run(
      [&](const Tuple&, const Tuple&, const Tuple& joined) {
        ++local.emitted;
        out.AddRow(joined);
      },
      [&](const Tuple& lrow, bool had_match) {
        if (!had_match) {
          ++local.emitted;
          out.AddRow(lrow.Concat(Tuple::Nulls(right_arity)));
        }
      });
  if (stats != nullptr) *stats += local;
  return out;
}

Relation Antijoin(const Relation& left, const Relation& right,
                  const PredicatePtr& pred, JoinAlgo algo,
                  KernelStats* stats,
                  const HashIndex* prebuilt_right_index) {
  KernelStats local;
  Matcher matcher(left, right, pred, algo, &local, prebuilt_right_index);
  Relation out(left.scheme());
  matcher.Run([](const Tuple&, const Tuple&, const Tuple&) {},
              [&](const Tuple& lrow, bool had_match) {
                if (!had_match) {
                  ++local.emitted;
                  out.AddRow(lrow);
                }
              },
              /*stop_after_first_match=*/true);
  if (stats != nullptr) *stats += local;
  return out;
}

Relation Semijoin(const Relation& left, const Relation& right,
                  const PredicatePtr& pred, JoinAlgo algo,
                  KernelStats* stats,
                  const HashIndex* prebuilt_right_index) {
  KernelStats local;
  Matcher matcher(left, right, pred, algo, &local, prebuilt_right_index);
  Relation out(left.scheme());
  matcher.Run([](const Tuple&, const Tuple&, const Tuple&) {},
              [&](const Tuple& lrow, bool had_match) {
                if (had_match) {
                  ++local.emitted;
                  out.AddRow(lrow);
                }
              },
              /*stop_after_first_match=*/true);
  if (stats != nullptr) *stats += local;
  return out;
}

namespace {

std::vector<int> SubsetPositions(const Scheme& left_scheme,
                                 const AttrSet& subset) {
  std::vector<int> positions;
  for (AttrId attr : subset) positions.push_back(left_scheme.IndexOf(attr));
  return positions;
}

}  // namespace

GojJoinStep GojJoin(const Relation& left, const Relation& right,
                    const PredicatePtr& pred, const AttrSet& subset,
                    JoinAlgo algo, KernelStats* stats) {
  FRO_CHECK(left.scheme().ToAttrSet().ContainsAll(subset))
      << "GOJ subset must be contained in the left scheme";
  KernelStats local;
  Matcher matcher(left, right, pred, algo, &local);
  GojJoinStep step{Relation(matcher.out_scheme()), {}, {}};
  const std::vector<int> subset_positions =
      SubsetPositions(left.scheme(), subset);
  auto project_subset = [&](const Tuple& lrow) {
    std::vector<Value> key;
    key.reserve(subset_positions.size());
    for (int pos : subset_positions) {
      key.push_back(lrow.value(static_cast<size_t>(pos)));
    }
    return key;
  };
  matcher.Run(
      [&](const Tuple&, const Tuple&, const Tuple& joined) {
        ++local.emitted;
        step.joined.AddRow(joined);
      },
      [&](const Tuple& lrow, bool had_match) {
        (had_match ? step.matched : step.unmatched)
            .insert(project_subset(lrow));
      });
  if (stats != nullptr) *stats += local;
  return step;
}

void AppendGojPads(const Scheme& left_scheme, const AttrSet& subset,
                   const ProjectionSet& unmatched,
                   const ProjectionSet& matched, Relation* out,
                   KernelStats* stats) {
  const std::vector<int> subset_positions =
      SubsetPositions(left_scheme, subset);
  uint64_t pads = 0;
  for (const std::vector<Value>& key : unmatched) {
    if (matched.count(key) > 0) continue;
    std::vector<Value> values(out->scheme().size());
    for (size_t k = 0; k < subset_positions.size(); ++k) {
      values[static_cast<size_t>(subset_positions[k])] = key[k];
    }
    ++pads;
    out->AddRow(Tuple(std::move(values)));
  }
  if (stats != nullptr) stats->emitted += pads;
}

Relation GeneralizedOuterJoin(const Relation& left, const Relation& right,
                              const PredicatePtr& pred, const AttrSet& subset,
                              JoinAlgo algo, KernelStats* stats) {
  GojJoinStep step = GojJoin(left, right, pred, subset, algo, stats);
  AppendGojPads(left.scheme(), subset, step.unmatched, step.matched,
                &step.joined, stats);
  return std::move(step.joined);
}

Relation Restrict(const Relation& input, const PredicatePtr& pred,
                  KernelStats* stats) {
  KernelStats local;
  Relation out(input.scheme());
  for (const Tuple& row : input.rows()) {
    ++local.left_reads;
    ++local.predicate_evals;
    if (pred == nullptr || IsTrue(pred->Eval(row, input.scheme()))) {
      ++local.emitted;
      out.AddRow(row);
    }
  }
  if (stats != nullptr) *stats += local;
  return out;
}

Relation Project(const Relation& input, const std::vector<AttrId>& cols,
                 bool dedup, KernelStats* stats) {
  KernelStats local;
  std::vector<int> positions;
  positions.reserve(cols.size());
  for (AttrId attr : cols) {
    int pos = input.scheme().IndexOf(attr);
    FRO_CHECK_GE(pos, 0) << "projection column not in scheme";
    positions.push_back(pos);
  }
  Relation out((Scheme(cols)));
  std::set<std::vector<Value>> seen;
  for (const Tuple& row : input.rows()) {
    ++local.left_reads;
    std::vector<Value> values;
    values.reserve(positions.size());
    for (int pos : positions) {
      values.push_back(row.value(static_cast<size_t>(pos)));
    }
    if (dedup && !seen.insert(values).second) continue;
    ++local.emitted;
    out.AddRow(Tuple(std::move(values)));
  }
  if (stats != nullptr) *stats += local;
  return out;
}

Relation CrossProduct(const Relation& left, const Relation& right,
                      KernelStats* stats) {
  KernelStats local;
  Relation out(left.scheme().Concat(right.scheme()));
  out.Reserve(left.NumRows() * right.NumRows());
  for (const Tuple& lrow : left.rows()) {
    ++local.left_reads;
    for (const Tuple& rrow : right.rows()) {
      ++local.right_reads;
      ++local.emitted;
      out.AddRow(lrow.Concat(rrow));
    }
  }
  if (stats != nullptr) *stats += local;
  return out;
}

}  // namespace fro
