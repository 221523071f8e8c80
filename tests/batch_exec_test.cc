// Batch-engine equivalence suite: the pipelined batch executor must be
// result-transparent — byte-identical results (canonical form) and
// identical ExecStats counters — against the materializing evaluator,
// operator by operator, at capacities 1, 3 and 1024, on the paper's
// example databases, null-heavy outerjoin inputs, empty relations, and
// batch-boundary input sizes (0, 1, capacity, capacity+1). Also covers
// rescans and early close, the hash join's build-side flip, the
// Status-carrying DrainChecked surface (kCancelled / kDeadlineExceeded),
// and RunQuery's deadline and control options.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "algebra/eval.h"
#include "common/rng.h"
#include "enumerate/it_enum.h"
#include "exec/batch_operators.h"
#include "exec/build.h"
#include "exec/stats_view.h"
#include "lang/lang.h"
#include "testing/datagen.h"
#include "testing/graphgen.h"
#include "testing/nested_sample.h"

namespace fro {
namespace {

// Counter equality ignoring wall-clock fields (the evaluator keeps none).
void ExpectCountersEq(const ExecStats& got, const ExecStats& want,
                      const std::string& context) {
  EXPECT_EQ(got.left_reads, want.left_reads) << context;
  EXPECT_EQ(got.right_reads, want.right_reads) << context;
  EXPECT_EQ(got.emitted, want.emitted) << context;
  EXPECT_EQ(got.probes, want.probes) << context;
  EXPECT_EQ(got.predicate_evals, want.predicate_evals) << context;
}

// Runs `expr` through the evaluator and the batch pipeline (at
// `capacity` tuples per batch) and asserts results byte-identical in
// canonical form and pipeline counter totals equal.
void ExpectAllEnginesAgree(const ExprPtr& expr, const Database& db,
                           JoinAlgo algo, size_t capacity) {
  const std::string context =
      expr->ToString() + " cap=" + std::to_string(capacity);

  EvalOptions eval_options;
  eval_options.algo = algo;
  EvalStats eval_stats;
  Relation reference = Eval(expr, db, eval_options, &eval_stats);

  BatchIteratorPtr batch_root = BuildBatchIterator(expr, db, algo, capacity);
  Relation batch_out = DrainBatches(batch_root.get());

  EXPECT_EQ(CanonicalString(batch_out), CanonicalString(reference)) << context;
  ExpectCountersEq(CollectPipelineStats(batch_root.get()), eval_stats.totals,
                   context);
}

void ExpectAllEnginesAgreeAllCapacities(const ExprPtr& expr,
                                        const Database& db, JoinAlgo algo) {
  for (size_t capacity : {size_t{1}, size_t{3}, TupleBatch::kDefaultCapacity}) {
    ExpectAllEnginesAgree(expr, db, algo, capacity);
  }
}

// --- TupleBatch container semantics -----------------------------------

TEST(TupleBatchTest, AppendSizeAndSelection) {
  TupleBatch batch(4);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(batch.full());
  for (int i = 0; i < 4; ++i) {
    batch.Append(Tuple({Value::Int(i)}));
  }
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.NumRows(), 4u);

  // Keep even values only: selection narrows without moving tuples.
  batch.NarrowSelection([](const Tuple& row, uint32_t) {
    return row.value(0).AsInt() % 2 == 0;
  });
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.NumRows(), 4u);  // raw rows untouched
  EXPECT_EQ(batch.selected(0).value(0).AsInt(), 0);
  EXPECT_EQ(batch.selected(1).value(0).AsInt(), 2);

  // Narrowing composes: a second predicate sees only live rows.
  batch.NarrowSelection([](const Tuple& row, uint32_t) {
    return row.value(0).AsInt() > 0;
  });
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.selected(0).value(0).AsInt(), 2);
}

TEST(TupleBatchTest, PeekSlotCommitsOnlyOnRequest) {
  TupleBatch batch(2);
  Tuple* slot = batch.PeekSlot();
  slot->AssignFrom(Tuple({Value::Int(7)}));
  EXPECT_EQ(batch.size(), 0u);  // peeked, not committed: row is dead
  batch.CommitSlot();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.selected(0).value(0).AsInt(), 7);

  // A peeked-but-uncommitted candidate is simply overwritten next time.
  batch.PeekSlot()->AssignFrom(Tuple({Value::Int(8)}));
  batch.PeekSlot()->AssignFrom(Tuple({Value::Int(9)}));
  batch.CommitSlot();
  EXPECT_EQ(batch.selected(1).value(0).AsInt(), 9);
}

TEST(TupleBatchTest, ClearRetainsSlotsAndDropsSelection) {
  TupleBatch batch(3);
  batch.Append(Tuple({Value::Int(1), Value::Int(2)}));
  batch.NarrowSelection([](const Tuple&, uint32_t) { return false; });
  EXPECT_TRUE(batch.empty());
  batch.Clear();
  EXPECT_FALSE(batch.sel_active());
  EXPECT_EQ(batch.NumRows(), 0u);
  // Slots survive Clear(): refilling reuses them (same address).
  Tuple* slot = batch.PeekSlot();
  EXPECT_EQ(slot, &batch.mutable_row(0));
  slot->AssignFrom(Tuple({Value::Int(3), Value::Int(4)}));
  batch.CommitSlot();
  EXPECT_EQ(batch.size(), 1u);
}

// --- Operator-by-operator equivalence ---------------------------------

class BatchEquivTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *db_.AddRelation("R", {"a", "b"});
    s_ = *db_.AddRelation("S", {"c", "d"});
    a_ = db_.Attr("R", "a");
    b_ = db_.Attr("R", "b");
    c_ = db_.Attr("S", "c");
    d_ = db_.Attr("S", "d");
    db_.AddRow(r_, {Value::Int(1), Value::Int(10)});
    db_.AddRow(r_, {Value::Int(2), Value::Int(20)});
    db_.AddRow(r_, {Value::Int(2), Value::Int(21)});
    db_.AddRow(r_, {Value::Null(), Value::Int(30)});
    db_.AddRow(s_, {Value::Int(1), Value::Int(100)});
    db_.AddRow(s_, {Value::Int(1), Value::Int(101)});
    db_.AddRow(s_, {Value::Int(3), Value::Int(102)});
    db_.AddRow(s_, {Value::Null(), Value::Int(103)});
  }

  ExprPtr LeafR() const { return Expr::Leaf(r_, db_); }
  ExprPtr LeafS() const { return Expr::Leaf(s_, db_); }

  std::vector<ExprPtr> AllOperatorKinds() const {
    return {
        Expr::Join(LeafR(), LeafS(), EqCols(a_, c_)),
        Expr::OuterJoin(LeafR(), LeafS(), EqCols(a_, c_),
                        /*preserves_left=*/true),
        Expr::OuterJoin(LeafR(), LeafS(), EqCols(a_, c_),
                        /*preserves_left=*/false),
        Expr::Antijoin(LeafR(), LeafS(), EqCols(a_, c_), /*keeps_left=*/true),
        Expr::Antijoin(LeafR(), LeafS(), EqCols(a_, c_), /*keeps_left=*/false),
        Expr::Semijoin(LeafR(), LeafS(), EqCols(a_, c_), /*keeps_left=*/true),
        Expr::Semijoin(LeafR(), LeafS(), EqCols(a_, c_), /*keeps_left=*/false),
        Expr::Goj(LeafR(), LeafS(), EqCols(a_, c_), AttrSet::Of({a_, b_})),
        Expr::Restrict(LeafR(), CmpLit(CmpOp::kGe, b_, Value::Int(20))),
        Expr::Project(LeafR(), {a_}, /*dedup=*/false),
        Expr::Project(LeafR(), {a_}, /*dedup=*/true),
        Expr::Union(LeafR(), LeafS()),
        // A non-equi predicate forces the nested-loop path even under kAuto.
        Expr::Join(LeafR(), LeafS(), CmpCols(CmpOp::kLt, a_, c_)),
    };
  }

  Database db_;
  RelId r_, s_;
  AttrId a_, b_, c_, d_;
};

TEST_F(BatchEquivTest, EveryOperatorKindAgreesAcrossEngines) {
  for (const ExprPtr& expr : AllOperatorKinds()) {
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      ExpectAllEnginesAgreeAllCapacities(expr, db_, algo);
    }
  }
}

TEST_F(BatchEquivTest, CompositePipelineAgrees) {
  ExprPtr expr = Expr::Project(
      Expr::Restrict(Expr::Join(LeafR(), LeafS(), EqCols(a_, c_)),
                     CmpLit(CmpOp::kGe, d_, Value::Int(100))),
      {a_, d_}, /*dedup=*/true);
  for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
    ExpectAllEnginesAgreeAllCapacities(expr, db_, algo);
  }
}

// Union padding over partially overlapping schemes: left scheme {a, b},
// right scheme {b} (shared attribute). The union scheme is {a, b}; right
// rows are padded with null for `a` and keep their `b` values.
TEST_F(BatchEquivTest, UnionPadsPartiallyOverlappingSchemes) {
  ExprPtr expr =
      Expr::Union(LeafR(), Expr::Project(LeafR(), {b_}, /*dedup=*/false));
  ExpectAllEnginesAgreeAllCapacities(expr, db_, JoinAlgo::kAuto);

  Relation out = ExecuteBatched(expr, db_);
  EXPECT_EQ(out.NumRows(), 8u);
  ASSERT_EQ(out.scheme().size(), 2u);
  size_t a_pos = static_cast<size_t>(out.scheme().IndexOf(a_));
  size_t b_pos = static_cast<size_t>(out.scheme().IndexOf(b_));
  size_t padded = 0;
  for (size_t i = 0; i < out.NumRows(); ++i) {
    EXPECT_FALSE(out.row(i).value(b_pos).is_null()) << "row " << i;
    if (out.row(i).value(a_pos).is_null()) ++padded;
  }
  // One original null `a` from R plus four padded right-side rows.
  EXPECT_EQ(padded, 5u);
}

// Null join keys on both sides: the SQL three-valued-logic corners that
// distinguish outerjoin, antijoin, and semijoin.
TEST(BatchNullKeyTest, NullHeavyOuterAntiSemiAgree) {
  Database db;
  RelId r = *db.AddRelation("R", {"a"});
  RelId s = *db.AddRelation("S", {"c"});
  AttrId a = db.Attr("R", "a");
  AttrId c = db.Attr("S", "c");
  db.AddRow(r, {Value::Int(1)});
  db.AddRow(r, {Value::Null()});
  db.AddRow(r, {Value::Int(2)});
  db.AddRow(r, {Value::Null()});
  db.AddRow(s, {Value::Int(1)});
  db.AddRow(s, {Value::Null()});
  db.AddRow(s, {Value::Null()});

  auto leaf_r = [&] { return Expr::Leaf(r, db); };
  auto leaf_s = [&] { return Expr::Leaf(s, db); };
  std::vector<ExprPtr> exprs;
  for (bool flag : {true, false}) {
    exprs.push_back(Expr::OuterJoin(leaf_r(), leaf_s(), EqCols(a, c), flag));
    exprs.push_back(Expr::Antijoin(leaf_r(), leaf_s(), EqCols(a, c), flag));
    exprs.push_back(Expr::Semijoin(leaf_r(), leaf_s(), EqCols(a, c), flag));
  }
  for (const ExprPtr& expr : exprs) {
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      ExpectAllEnginesAgreeAllCapacities(expr, db, algo);
    }
  }
  // NULL = anything is unknown: null-key R rows survive the antijoin
  // ({null, 2, null}; 1 is matched) and never satisfy the semijoin.
  EXPECT_EQ(ExecuteBatched(exprs[1], db).NumRows(), 3u);
  EXPECT_EQ(ExecuteBatched(exprs[2], db).NumRows(), 1u);
}

// HashIndex requires its relation to outlive it: the hash join keeps the
// key-normalized build side as a member. With keys that actually need
// normalization (ints probed by doubles; SQL equality makes 1 == 1.0) the
// table must hash probe keys consistently, and output rows must carry
// the build side's original values, not the normalized copies.
TEST(HashIndexLifetimeTest, NormalizedBuildSideSurvivesOpen) {
  Database db;
  RelId r = *db.AddRelation("R", {"x"});
  RelId s = *db.AddRelation("S", {"y"});
  AttrId x = db.Attr("R", "x");
  AttrId y = db.Attr("S", "y");
  db.AddRow(r, {Value::Double(1.0)});
  db.AddRow(r, {Value::Double(2.5)});
  db.AddRow(r, {Value::Double(3.0)});
  db.AddRow(s, {Value::Int(1)});
  db.AddRow(s, {Value::Int(2)});
  db.AddRow(s, {Value::Int(3)});

  BatchHashJoinIterator join(
      std::make_unique<BatchScanIterator>(&db.relation(r)),
      std::make_unique<BatchScanIterator>(&db.relation(s)), EqCols(x, y),
      JoinMode::kInner, std::vector<AttrId>{x}, std::vector<AttrId>{y});
  Relation out = DrainBatches(&join);
  EXPECT_EQ(out.NumRows(), 2u);  // 1.0 == 1 and 3.0 == 3
  int y_pos = out.scheme().IndexOf(y);
  ASSERT_GE(y_pos, 0);
  for (size_t i = 0; i < out.NumRows(); ++i) {
    EXPECT_EQ(out.row(i).value(static_cast<size_t>(y_pos)).kind(),
              Value::Kind::kInt)
        << "row " << i;
  }

  // Rescan exercises a second build over the member relation.
  EXPECT_EQ(CanonicalString(DrainBatches(&join)), CanonicalString(out));

  ExprPtr expr =
      Expr::Join(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(x, y));
  ExpectAllEnginesAgreeAllCapacities(expr, db, JoinAlgo::kAuto);
}

// --- Hash join build-side flip ------------------------------------------

// A probe side far smaller than the build side: at capacities 1 and 3 the
// flip guard (build > 4 batches, probe <= build / 4) trips on 20 build
// rows, so the same data runs in both orientations across the capacities.
// Keys cover duplicates on both sides, preserved rows without a partner,
// NULL on both sides, and int/double and -0.0/0.0 equality.
class HashJoinFlipTest : public ::testing::Test {
 protected:
  void SetUp() override {
    p_ = *db_.AddRelation("P", {"k", "tag"});
    b_ = *db_.AddRelation("B", {"k", "v"});
    pk_ = db_.Attr("P", "k");
    bk_ = db_.Attr("B", "k");
    db_.AddRow(p_, {Value::Int(1), Value::Int(0)});
    db_.AddRow(p_, {Value::Int(1), Value::Int(1)});      // duplicate key
    db_.AddRow(p_, {Value::Int(2), Value::Int(2)});      // no partner
    db_.AddRow(p_, {Value::Null(), Value::Int(3)});      // null key
    db_.AddRow(p_, {Value::Double(-0.0), Value::Int(4)});  // equals 0
    db_.AddRow(b_, {Value::Double(1.0), Value::Int(100)});  // int = double
    db_.AddRow(b_, {Value::Double(1.0), Value::Int(101)});  // duplicate
    db_.AddRow(b_, {Value::Int(0), Value::Int(102)});
    db_.AddRow(b_, {Value::Double(0.0), Value::Int(103)});
    db_.AddRow(b_, {Value::Null(), Value::Int(104)});
    for (int i = 0; i < 15; ++i) {
      db_.AddRow(b_, {Value::Int(10 + i), Value::Int(200 + i)});
    }
  }

  ExprPtr Inner() const {
    return Expr::Join(Expr::Leaf(p_, db_), Expr::Leaf(b_, db_),
                      EqCols(pk_, bk_));
  }
  ExprPtr LeftOuter() const {
    return Expr::OuterJoin(Expr::Leaf(p_, db_), Expr::Leaf(b_, db_),
                           EqCols(pk_, bk_), /*preserves_left=*/true);
  }

  // Whether the root hash join hashed its left input when run at
  // `capacity`; also checks the plan snapshot reports the same.
  bool BuiltLeft(const ExprPtr& expr, size_t capacity) const {
    BatchIteratorPtr root =
        BuildBatchIterator(expr, db_, JoinAlgo::kAuto, capacity);
    DrainBatches(root.get());
    auto* join = dynamic_cast<BatchHashJoinIterator*>(root.get());
    EXPECT_NE(join, nullptr);
    if (join == nullptr) return false;
    EXPECT_EQ(SnapshotPlanStats(root.get()).built_left, join->built_left());
    return join->built_left();
  }

  Database db_;
  RelId p_, b_;
  AttrId pk_, bk_;
};

TEST_F(HashJoinFlipTest, InnerAndLeftOuterAgreeAcrossEngines) {
  for (const ExprPtr& expr : {Inner(), LeftOuter()}) {
    ExpectAllEnginesAgreeAllCapacities(expr, db_, JoinAlgo::kAuto);
  }
}

// The fixture's key columns mix ints and doubles, so they are stored as
// generic Values; typed (all-int or all-double) key columns take the
// dense hashing paths on both sides of the flip.
TEST(HashJoinFlipTypedTest, TypedKeyColumnsAgree) {
  for (const bool doubles : {false, true}) {
    auto key = [&](int k) {
      return doubles ? Value::Double(k == 0 ? -0.0 : k) : Value::Int(k);
    };
    Database db;
    const RelId p = *db.AddRelation("P", {"k"});
    const RelId b = *db.AddRelation("B", {"k", "v"});
    for (const int k : {1, 1, 2, 0}) db.AddRow(p, {key(k)});
    db.AddRow(p, {Value::Null()});
    for (const int k : {1, 1, 0}) db.AddRow(b, {key(k), Value::Int(k)});
    db.AddRow(b, {doubles ? Value::Double(0.0) : Value::Int(0),
                  Value::Int(9)});
    db.AddRow(b, {Value::Null(), Value::Int(9)});
    for (int i = 0; i < 15; ++i) db.AddRow(b, {key(10 + i), Value::Int(i)});
    const ExprPtr leaf_p = Expr::Leaf(p, db);
    const ExprPtr leaf_b = Expr::Leaf(b, db);
    const PredicatePtr eq = EqCols(db.Attr("P", "k"), db.Attr("B", "k"));
    for (const ExprPtr& expr :
         {Expr::Join(leaf_p, leaf_b, eq),
          Expr::OuterJoin(leaf_p, leaf_b, eq, /*preserves_left=*/true)}) {
      BatchIteratorPtr root = BuildBatchIterator(expr, db, JoinAlgo::kAuto, 1);
      DrainBatches(root.get());
      auto* join = dynamic_cast<BatchHashJoinIterator*>(root.get());
      ASSERT_NE(join, nullptr);
      EXPECT_TRUE(join->built_left());
      ExpectAllEnginesAgreeAllCapacities(expr, db, JoinAlgo::kAuto);
    }
  }
}

TEST_F(HashJoinFlipTest, FlipEngagesOnlyPastTheGuard) {
  for (const ExprPtr& expr : {Inner(), LeftOuter()}) {
    EXPECT_TRUE(BuiltLeft(expr, 1));
    EXPECT_TRUE(BuiltLeft(expr, 3));
    // 20 build rows are not more than 4 batches of 5 or 1024.
    EXPECT_FALSE(BuiltLeft(expr, 5));
    EXPECT_FALSE(BuiltLeft(expr, TupleBatch::kDefaultCapacity));
  }
}

TEST_F(HashJoinFlipTest, ProbePastAQuarterOfTheBuildKeepsOrientation) {
  // A sixth probe row passes 20 / 4: the pulled batches are replayed as
  // the probe input instead.
  db_.AddRow(p_, {Value::Int(12), Value::Int(5)});
  for (const ExprPtr& expr : {Inner(), LeftOuter()}) {
    EXPECT_FALSE(BuiltLeft(expr, 1));
    EXPECT_FALSE(BuiltLeft(expr, 3));
    ExpectAllEnginesAgreeAllCapacities(expr, db_, JoinAlgo::kAuto);
  }
}

TEST_F(HashJoinFlipTest, OtherShapesKeepOrientation) {
  const ExprPtr leaf_p = Expr::Leaf(p_, db_);
  const ExprPtr leaf_b = Expr::Leaf(b_, db_);
  const AttrId tag = db_.Attr("P", "tag");
  const AttrId v = db_.Attr("B", "v");
  const std::vector<ExprPtr> exprs = {
      // A residual beyond the equi-key.
      Expr::Join(leaf_p, leaf_b,
                 AndOf(EqCols(pk_, bk_), CmpCols(CmpOp::kLt, tag, v))),
      // Two key columns.
      Expr::Join(leaf_p, leaf_b, AndOf(EqCols(pk_, bk_), EqCols(tag, v))),
      Expr::Semijoin(leaf_p, leaf_b, EqCols(pk_, bk_), /*keeps_left=*/true),
      Expr::Antijoin(leaf_p, leaf_b, EqCols(pk_, bk_), /*keeps_left=*/true),
  };
  for (const ExprPtr& expr : exprs) {
    EXPECT_FALSE(BuiltLeft(expr, 1)) << expr->ToString();
    ExpectAllEnginesAgreeAllCapacities(expr, db_, JoinAlgo::kAuto);
  }
}

TEST_F(HashJoinFlipTest, FlippedJoinUnderAJoinAgrees) {
  // The flipped join's columnar output feeds a second join as its
  // (small) left input, which flips in turn at capacities 1 and 3.
  const RelId c = *db_.AddRelation("C", {"v2", "w"});
  for (int i = 0; i < 40; ++i) {
    db_.AddRow(c, {Value::Int(100 + i % 6), Value::Int(i)});
  }
  const ExprPtr chain = Expr::OuterJoin(
      LeftOuter(), Expr::Leaf(c, db_),
      EqCols(db_.Attr("B", "v"), db_.Attr("C", "v2")),
      /*preserves_left=*/true);
  // 8 rows reach the outer join, within a quarter of C's 40.
  EXPECT_TRUE(BuiltLeft(chain, 1));
  BatchIteratorPtr root = BuildBatchIterator(chain, db_, JoinAlgo::kAuto, 1);
  DrainBatches(root.get());
  auto* inner = dynamic_cast<BatchHashJoinIterator*>(root->children()[0]);
  ASSERT_NE(inner, nullptr);
  EXPECT_TRUE(inner->built_left());
  ExpectAllEnginesAgreeAllCapacities(chain, db_, JoinAlgo::kAuto);
}

// Empty inputs on either or both sides of every join mode.
TEST(BatchEmptyInputTest, EmptyRelationsAgree) {
  for (bool left_empty : {true, false}) {
    for (bool right_empty : {true, false}) {
      Database db;
      RelId r = *db.AddRelation("R", {"a"});
      RelId s = *db.AddRelation("S", {"c"});
      AttrId a = db.Attr("R", "a");
      AttrId c = db.Attr("S", "c");
      if (!left_empty) {
        db.AddRow(r, {Value::Int(1)});
        db.AddRow(r, {Value::Int(2)});
      }
      if (!right_empty) {
        db.AddRow(s, {Value::Int(1)});
      }
      std::vector<ExprPtr> exprs = {
          Expr::Leaf(r, db),
          Expr::Restrict(Expr::Leaf(r, db),
                         CmpLit(CmpOp::kGe, a, Value::Int(2))),
          Expr::Project(Expr::Leaf(r, db), {a}, /*dedup=*/true),
          Expr::Union(Expr::Leaf(r, db), Expr::Leaf(s, db)),
          Expr::Join(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c)),
          Expr::OuterJoin(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c),
                          /*preserves_left=*/true),
          Expr::Antijoin(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c),
                         /*keeps_left=*/true),
          Expr::Semijoin(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c),
                         /*keeps_left=*/true),
          Expr::Goj(Expr::Leaf(r, db), Expr::Leaf(s, db), EqCols(a, c),
                    AttrSet::Of({a})),
      };
      for (const ExprPtr& expr : exprs) {
        for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
          ExpectAllEnginesAgreeAllCapacities(expr, db, algo);
        }
      }
    }
  }
}

// Input sizes straddling the batch boundary: 0, 1, capacity, capacity+1
// rows through scan -> filter -> hash join at capacity 4, so every
// resume point (mid-left-row, unmatched-left epilogue) is exercised.
TEST(BatchBoundaryTest, SizesAroundCapacityAgree) {
  constexpr size_t kCapacity = 4;
  for (int rows : {0, 1, 4, 5}) {
    Database db;
    RelId r = *db.AddRelation("R", {"a", "b"});
    RelId s = *db.AddRelation("S", {"c"});
    AttrId a = db.Attr("R", "a");
    AttrId b = db.Attr("R", "b");
    AttrId c = db.Attr("S", "c");
    for (int i = 0; i < rows; ++i) {
      db.AddRow(r, {Value::Int(i % 3), Value::Int(i)});
    }
    // Build side fans out: two matches per key 0/1, none for key 2.
    db.AddRow(s, {Value::Int(0)});
    db.AddRow(s, {Value::Int(0)});
    db.AddRow(s, {Value::Int(1)});
    db.AddRow(s, {Value::Int(1)});

    ExprPtr expr = Expr::Join(
        Expr::Restrict(Expr::Leaf(r, db),
                       CmpLit(CmpOp::kGe, b, Value::Int(0))),
        Expr::Leaf(s, db), EqCols(a, c));
    ExprPtr outer = Expr::OuterJoin(Expr::Leaf(r, db), Expr::Leaf(s, db),
                                    EqCols(a, c), /*preserves_left=*/true);
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      ExpectAllEnginesAgree(expr, db, algo, kCapacity);
      ExpectAllEnginesAgree(outer, db, algo, kCapacity);
    }
  }
}

// The paper's Example 1 and DEPT/EMP databases, batch engine vs evaluator.
TEST(BatchExampleDatabasesTest, Example1OrdersAgree) {
  std::unique_ptr<Database> db = MakeExample1Database(100);
  RelId r1 = db->Rel("R1");
  RelId r2 = db->Rel("R2");
  RelId r3 = db->Rel("R3");
  AttrId r1k = db->Attr("R1", "k");
  AttrId r2k = db->Attr("R2", "k");
  AttrId r2fk = db->Attr("R2", "fk");
  AttrId r3k = db->Attr("R3", "k");

  ExprPtr naive = Expr::OuterJoin(
      Expr::Leaf(r1, *db),
      Expr::OuterJoin(Expr::Leaf(r2, *db), Expr::Leaf(r3, *db),
                      EqCols(r2fk, r3k), /*preserves_left=*/true),
      EqCols(r1k, r2k), /*preserves_left=*/true);
  ExprPtr reordered = Expr::OuterJoin(
      Expr::OuterJoin(Expr::Leaf(r1, *db), Expr::Leaf(r2, *db),
                      EqCols(r1k, r2k), /*preserves_left=*/true),
      Expr::Leaf(r3, *db), EqCols(r2fk, r3k), /*preserves_left=*/true);

  for (const ExprPtr& expr : {naive, reordered}) {
    ExpectAllEnginesAgreeAllCapacities(expr, *db, JoinAlgo::kAuto);
  }
  EXPECT_TRUE(BagEquals(ExecuteBatched(naive, *db),
                        ExecuteBatched(reordered, *db)));
}

TEST(BatchExampleDatabasesTest, DeptEmpOuterjoinAgrees) {
  std::unique_ptr<Database> db = MakeDeptEmpDatabase();
  RelId dept = db->Rel("DEPT");
  RelId emp = db->Rel("EMP");
  AttrId dept_dno = db->Attr("DEPT", "dno");
  AttrId emp_dno = db->Attr("EMP", "dno");
  ExprPtr expr =
      Expr::OuterJoin(Expr::Leaf(dept, *db), Expr::Leaf(emp, *db),
                      EqCols(dept_dno, emp_dno), /*preserves_left=*/true);
  for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
    ExpectAllEnginesAgreeAllCapacities(expr, *db, algo);
  }
}

// Example 2: the two bracketings of R1 -> (R2 - R3) genuinely differ
// (that is the paper's counterexample) — but *within* each bracketing,
// every engine must produce the same rows. Engine equivalence has to
// hold exactly where plan equivalence fails.
TEST(BatchExampleDatabasesTest, Example2BracketingsAgreePerTree) {
  Database db;
  RelId r1 = *db.AddRelation("R1", {"a"});
  RelId r2 = *db.AddRelation("R2", {"b"});
  RelId r3 = *db.AddRelation("R3", {"c"});
  AttrId a = db.Attr("R1", "a");
  AttrId b = db.Attr("R2", "b");
  AttrId c = db.Attr("R3", "c");
  db.AddRow(r1, {Value::Int(1)});
  db.AddRow(r2, {Value::Int(1)});   // matches r1 on the outerjoin pred
  db.AddRow(r3, {Value::Int(99)});  // does NOT match r2 on the join pred
  PredicatePtr poj = EqCols(a, b);
  PredicatePtr pjn = EqCols(b, c);
  ExprPtr oj_of_join = Expr::OuterJoin(
      Expr::Leaf(r1, db),
      Expr::Join(Expr::Leaf(r2, db), Expr::Leaf(r3, db), pjn), poj,
      /*preserves_left=*/true);
  ExprPtr join_of_oj = Expr::Join(
      Expr::OuterJoin(Expr::Leaf(r1, db), Expr::Leaf(r2, db), poj,
                      /*preserves_left=*/true),
      Expr::Leaf(r3, db), pjn);
  for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
    ExpectAllEnginesAgreeAllCapacities(oj_of_join, db, algo);
    ExpectAllEnginesAgreeAllCapacities(join_of_oj, db, algo);
  }
  // The counterexample itself still holds through the batch engine.
  EXPECT_EQ(ExecuteBatched(oj_of_join, db).NumRows(), 1u);
  EXPECT_EQ(ExecuteBatched(join_of_oj, db).NumRows(), 0u);
}

// Example 3: the non-strong predicate (… OR … IS NULL) that breaks
// identity 12. Null-supplied tuples satisfying a predicate via the
// IS NULL disjunct are exactly the case batched predicate evaluation
// must not get wrong.
TEST(BatchExampleDatabasesTest, Example3NonstrongPredicateAgreesPerTree) {
  Database db;
  RelId ra = *db.AddRelation("A", {"attr1"});
  RelId rb = *db.AddRelation("B", {"attr1", "attr2"});
  RelId rc = *db.AddRelation("C", {"attr1"});
  AttrId a1 = db.Attr("A", "attr1");
  AttrId b1 = db.Attr("B", "attr1");
  AttrId b2 = db.Attr("B", "attr2");
  AttrId c1 = db.Attr("C", "attr1");
  db.AddRow(ra, {Value::Int(0)});
  db.AddRow(rb, {Value::Int(1), Value::Null()});  // (b, -): b != a
  db.AddRow(rc, {Value::Int(2)});
  PredicatePtr pab = EqCols(a1, b1);
  PredicatePtr pbc = Predicate::Or(
      {EqCols(b2, c1), Predicate::IsNull(Operand::Column(b2))});
  ExprPtr left_assoc = Expr::OuterJoin(
      Expr::OuterJoin(Expr::Leaf(ra, db), Expr::Leaf(rb, db), pab,
                      /*preserves_left=*/true),
      Expr::Leaf(rc, db), pbc, /*preserves_left=*/true);
  ExprPtr right_assoc = Expr::OuterJoin(
      Expr::Leaf(ra, db),
      Expr::OuterJoin(Expr::Leaf(rb, db), Expr::Leaf(rc, db), pbc,
                      /*preserves_left=*/true),
      pab, /*preserves_left=*/true);
  for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
    ExpectAllEnginesAgreeAllCapacities(left_assoc, db, algo);
    ExpectAllEnginesAgreeAllCapacities(right_assoc, db, algo);
  }
  EXPECT_FALSE(BagEquals(ExecuteBatched(left_assoc, db),
                         ExecuteBatched(right_assoc, db)));
}

TEST(BatchPropertyTest, RandomQueriesAgreeAcrossEngines) {
  Rng rng(8804);
  for (int trial = 0; trial < 25; ++trial) {
    RandomQueryOptions options;
    options.num_relations = 3 + static_cast<int>(rng.Uniform(3));
    options.rows.null_prob = 0.25;
    GeneratedQuery q = GenerateRandomQuery(options, &rng);
    ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
    ASSERT_NE(tree, nullptr);
    for (JoinAlgo algo : {JoinAlgo::kAuto, JoinAlgo::kNestedLoop}) {
      const size_t capacity = 1 + rng.Uniform(5);
      ExpectAllEnginesAgree(tree, *q.db, algo, capacity);
      ExpectAllEnginesAgree(tree, *q.db, algo, TupleBatch::kDefaultCapacity);
    }
  }
}

// Pipelines are restartable: draining twice gives the same bag, at
// every capacity.
TEST(BatchPropertyTest, PipelinesRescanCleanly) {
  Rng rng(1802);
  RandomQueryOptions options;
  options.num_relations = 4;
  GeneratedQuery q = GenerateRandomQuery(options, &rng);
  ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
  for (size_t capacity : {size_t{1}, size_t{3}, TupleBatch::kDefaultCapacity}) {
    BatchIteratorPtr root =
        BuildBatchIterator(tree, *q.db, JoinAlgo::kAuto, capacity);
    Relation first = DrainBatches(root.get());
    Relation second = DrainBatches(root.get());
    EXPECT_EQ(CanonicalString(first), CanonicalString(second))
        << "cap=" << capacity;
  }
}

// Early termination: closing a pipeline mid-stream is safe and a
// subsequent reopen starts fresh.
TEST(BatchPropertyTest, EarlyCloseAndReopen) {
  Rng rng(1803);
  RandomQueryOptions options;
  options.num_relations = 4;
  options.rows.rows_min = 3;
  GeneratedQuery q = GenerateRandomQuery(options, &rng);
  ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
  for (size_t capacity : {size_t{1}, size_t{3}, TupleBatch::kDefaultCapacity}) {
    BatchIteratorPtr root =
        BuildBatchIterator(tree, *q.db, JoinAlgo::kAuto, capacity);
    root->Open();
    TupleBatch batch(capacity);
    root->NextBatch(&batch);  // consume at most one batch
    root->Close();
    EXPECT_TRUE(BagEquals(DrainBatches(root.get()), Eval(tree, *q.db)))
        << "cap=" << capacity;
  }
}

// --- DrainChecked: the Status-carrying execution surface --------------

TEST_F(BatchEquivTest, DrainCheckedSurfacesCancellation) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  ExecControl control;
  control.RequestCancel();
  BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
  root->SetControl(&control);
  Result<Relation> result = DrainChecked(root.get(), &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(BatchEquivTest, DrainCheckedSurfacesDeadline) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  ExecControl control;
  control.set_deadline(std::chrono::steady_clock::now());  // already due
  BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
  root->SetControl(&control);
  Result<Relation> result = DrainChecked(root.get(), &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(BatchEquivTest, DrainCheckedWithoutControlMatchesDrain) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
  Result<Relation> checked = DrainChecked(root.get(), nullptr);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(CanonicalString(*checked),
            CanonicalString(ExecuteBatched(expr, db_)));
}

// --- RunQuery: the facade's execution options -------------------------

// The facade's result and per-operator counters are those of the plan it
// reports, as the evaluator computes them.
TEST(BatchRunQueryTest, FacadeAgreesWithEval) {
  NestedDb db = MakeCompanyNestedDb();
  const std::string query =
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D#";
  Result<QueryRunResult> run = RunQuery(db, query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EvalStats eval_stats;
  Relation reference = Eval(run->optimize.plan, *run->translation.db,
                            EvalOptions(), &eval_stats);
  EXPECT_EQ(CanonicalString(run->relation), CanonicalString(reference));
  ExpectCountersEq(SumPipelineStats(run->plan_stats), eval_stats.totals,
                   query);
}

TEST(BatchRunQueryTest, ExpiredDeadlineSurfacesThroughRunQuery) {
  NestedDb db = MakeScaledCompanyNestedDb(50);
  const std::string query =
      "Select All From EMPLOYEE e1, EMPLOYEE e2 Where e1.Rank = e2.Rank";
  Result<QueryRunResult> run = RunQuery(
      db, query, RunOptions().WithDeadline(std::chrono::milliseconds(0)));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(BatchRunQueryTest, CancelledControlSurfacesThroughRunQuery) {
  NestedDb db = MakeCompanyNestedDb();
  ExecControl control;
  control.RequestCancel();
  Result<QueryRunResult> run =
      RunQuery(db, "Select All From EMPLOYEE",
               RunOptions().WithControl(&control));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace fro
