// Instrumented-execution tests: per-operator counters of the pipelined
// executor (each operator reports its own work, scans only their
// emissions), wall-clock timing only when enabled, and EXPLAIN ANALYZE
// reproducing Example 1's retrieval arithmetic (2n+1 base tuples for the
// naive order, 3 for the reordered one) with the evaluator's counters.
// Whole-pipeline counter agreement with the evaluator, operator kind by
// operator kind, is tests/batch_exec_test.cc's job.

#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "exec/build.h"
#include "optimizer/explain.h"
#include "testing/datagen.h"

namespace fro {
namespace {

// Counter equality ignoring wall-clock fields (the evaluator keeps none).
void ExpectCountersEq(const ExecStats& exec, const ExecStats& eval,
                      const std::string& context) {
  EXPECT_EQ(exec.left_reads, eval.left_reads) << context;
  EXPECT_EQ(exec.right_reads, eval.right_reads) << context;
  EXPECT_EQ(exec.emitted, eval.emitted) << context;
  EXPECT_EQ(exec.probes, eval.probes) << context;
  EXPECT_EQ(exec.predicate_evals, eval.predicate_evals) << context;
}

class ExecStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *db_.AddRelation("R", {"a", "b"});
    s_ = *db_.AddRelation("S", {"c", "d"});
    a_ = db_.Attr("R", "a");
    c_ = db_.Attr("S", "c");
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

  Database db_;
  RelId r_, s_;
  AttrId a_, c_;
};

// Per-operator stats: the root join must report its own counters (not
// tree totals), and Scan nodes report only emitted rows — at every
// capacity, since the counters are per tuple, not per batch.
TEST_F(ExecStatsTest, PerOperatorAttribution) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  for (size_t capacity : {size_t{1}, size_t{3}, TupleBatch::kDefaultCapacity}) {
    BatchIteratorPtr root =
        BuildBatchIterator(expr, db_, JoinAlgo::kAuto, capacity);
    Relation out = DrainBatches(root.get());
    EXPECT_EQ(root->stats().emitted, out.NumRows());
    // Hash join: one probe per left row, including the null-key row.
    EXPECT_EQ(root->stats().probes, 4u);
    EXPECT_EQ(root->stats().left_reads, 4u);
    ASSERT_EQ(root->children().size(), 2u);
    for (BatchIterator* child : root->children()) {
      EXPECT_STREQ(child->physical_name(), "Scan");
      EXPECT_EQ(child->stats().left_reads, 0u);
      EXPECT_EQ(child->stats().probes, 0u);
      EXPECT_EQ(child->stats().emitted, 4u);
    }
  }
}

// Timing is off by default and populated once enabled.
TEST_F(ExecStatsTest, TimingOnlyWhenEnabled) {
  ExprPtr expr = Expr::Join(LeafR(), LeafS(), EqCols(a_, c_));
  {
    BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
    DrainBatches(root.get());
    EXPECT_EQ(root->stats().open_ns, 0u);
    EXPECT_EQ(root->stats().next_ns, 0u);
  }
  {
    BatchIteratorPtr root = BuildBatchIterator(expr, db_, JoinAlgo::kAuto);
    root->EnableTiming();
    DrainBatches(root.get());
    EXPECT_GT(root->stats().open_ns + root->stats().next_ns, 0u);
  }
}

// --- Example 1 through the pipelined executor -------------------------

// The paper's Example 1 at scale n: the naive order R1 -> (R2 -> R3)
// retrieves 2n+1 base tuples while the reordered (R1 -> R2) -> R3
// retrieves 3, both for the same single-row result. (The paper uses
// n = 10^7; the arithmetic 2n+1 vs. 3 is what matters, so the test
// sweeps moderate n.)
TEST(ExecStatsExample1Test, PipelinedBaseRetrievalAccounting) {
  for (int n : {10, 50, 500}) {
    std::unique_ptr<Database> db = MakeExample1Database(n);
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

    ExplainAnalyzeResult naive_run = ExplainAnalyze(naive, *db);
    ExplainAnalyzeResult reordered_run = ExplainAnalyze(reordered, *db);

    EXPECT_TRUE(BagEquals(naive_run.result, reordered_run.result)) << n;
    EXPECT_EQ(naive_run.result.NumRows(), 1u) << n;
    EXPECT_EQ(naive_run.base_tuples_read, 2u * static_cast<uint64_t>(n) + 1u)
        << n;
    EXPECT_EQ(reordered_run.base_tuples_read, 3u) << n;

    // The executor's accounting must equal the evaluator's.
    for (const ExprPtr& expr : {naive, reordered}) {
      EvalStats eval_stats;
      Eval(expr, *db, EvalOptions(), &eval_stats);
      ExplainAnalyzeResult run = ExplainAnalyze(expr, *db);
      ExpectCountersEq(run.totals, eval_stats.totals, expr->ToString());
      EXPECT_EQ(run.base_tuples_read, eval_stats.base_tuples_read);
    }
  }
}

}  // namespace
}  // namespace fro
