#include <gtest/gtest.h>

#include "graph/from_expr.h"
#include "optimizer/explain.h"
#include "testing/datagen.h"

namespace fro {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeExample1Database(5);
    ExprPtr r1 = Expr::Leaf(db_->Rel("R1"), *db_);
    ExprPtr r2 = Expr::Leaf(db_->Rel("R2"), *db_);
    ExprPtr r3 = Expr::Leaf(db_->Rel("R3"), *db_);
    query_ = Expr::Join(
        r1,
        Expr::OuterJoin(r2, r3,
                        EqCols(db_->Attr("R2", "fk"), db_->Attr("R3", "k"))),
        EqCols(db_->Attr("R1", "k"), db_->Attr("R2", "k")));
  }

  std::unique_ptr<Database> db_;
  ExprPtr query_;
};

TEST_F(ExplainTest, ShowsOperatorsIndentedWithCardinalities) {
  std::string text = Explain(query_, *db_);
  EXPECT_NE(text.find("Join [R1.k=R2.k]"), std::string::npos);
  EXPECT_NE(text.find("OuterJoin (preserves left)"), std::string::npos);
  EXPECT_NE(text.find("Scan R1"), std::string::npos);
  EXPECT_NE(text.find("  Scan"), std::string::npos);  // indentation
  EXPECT_NE(text.find("rows"), std::string::npos);
  // The outerjoin of two 5-row key-linked relations estimates ~5 rows.
  EXPECT_NE(text.find("Scan R2  ~5 rows"), std::string::npos);
}

TEST_F(ExplainTest, OptionsSuppressAnnotations) {
  ExplainOptions options;
  options.show_cardinalities = false;
  options.show_predicates = false;
  std::string text = Explain(query_, *db_, options);
  EXPECT_EQ(text.find("rows"), std::string::npos);
  EXPECT_EQ(text.find("R1.k="), std::string::npos);
}

TEST_F(ExplainTest, RestrictProjectUnionLabels) {
  ExprPtr q = Expr::Project(
      Expr::Restrict(Expr::Leaf(db_->Rel("R2"), *db_),
                     CmpLit(CmpOp::kGt, db_->Attr("R2", "k"), Value::Int(1))),
      {db_->Attr("R2", "fk")}, /*dedup=*/true);
  std::string text = Explain(q, *db_);
  EXPECT_NE(text.find("Project distinct [R2.fk]"), std::string::npos);
  EXPECT_NE(text.find("Restrict [R2.k>1]"), std::string::npos);
}

TEST_F(ExplainTest, GojLabelShowsSubset) {
  ExprPtr r2 = Expr::Leaf(db_->Rel("R2"), *db_);
  ExprPtr r3 = Expr::Leaf(db_->Rel("R3"), *db_);
  ExprPtr goj =
      Expr::Goj(r2, r3, EqCols(db_->Attr("R2", "fk"), db_->Attr("R3", "k")),
                AttrSet::Of({db_->Attr("R2", "k")}));
  std::string text = Explain(goj, *db_);
  EXPECT_NE(text.find("Goj [S = {R2.k}]"), std::string::npos);
}

TEST_F(ExplainTest, ExplainAnalyzeRendersEstimatedAndActual) {
  ExplainAnalyzeResult run = ExplainAnalyze(query_, *db_);
  // Physical operators with their logical labels.
  EXPECT_NE(run.text.find("HashJoin: Join [R1.k=R2.k]"), std::string::npos);
  EXPECT_NE(run.text.find("Scan: Scan R1"), std::string::npos);
  // Estimated next to actual, plus the per-node Q-error column.
  EXPECT_NE(run.text.find("~"), std::string::npos);
  EXPECT_NE(run.text.find("actual rows="), std::string::npos);
  EXPECT_NE(run.text.find("reads="), std::string::npos);
  EXPECT_NE(run.text.find("time="), std::string::npos);
  EXPECT_NE(run.text.find("q-err="), std::string::npos);
  // The plan really executed: one result row for Example 1.
  EXPECT_EQ(run.result.NumRows(), 1u);
  EXPECT_GE(run.max_q_error, 1.0);
  // Naive order over n = 5: all of R2 and R3 plus one R1 row.
  EXPECT_EQ(run.base_tuples_read, 11u);
}

TEST(ExplainAnalyzeFlipTest, ShowsWhichInputAHashJoinHashed) {
  // Example 1 in its naive order at n = 5000: the top join's right input
  // (R2 -> R3) spans more than four default batches while R1 holds one
  // row, so that join hashes R1 instead. The counters do not change.
  std::unique_ptr<Database> db = MakeExample1Database(5000);
  ExprPtr query = Expr::Join(
      Expr::Leaf(db->Rel("R1"), *db),
      Expr::OuterJoin(Expr::Leaf(db->Rel("R2"), *db),
                      Expr::Leaf(db->Rel("R3"), *db),
                      EqCols(db->Attr("R2", "fk"), db->Attr("R3", "k"))),
      EqCols(db->Attr("R1", "k"), db->Attr("R2", "k")));
  ExplainAnalyzeResult run = ExplainAnalyze(query, *db);
  EXPECT_NE(run.text.find("HashJoin build=left: Join [R1.k=R2.k]"),
            std::string::npos)
      << run.text;
  EXPECT_NE(run.text.find("HashJoin: OuterJoin"), std::string::npos)
      << run.text;
  EXPECT_EQ(run.result.NumRows(), 1u);
  EXPECT_EQ(run.base_tuples_read, 2u * 5000u + 1u);
}

TEST_F(ExplainTest, ExplainAnalyzeHonorsJoinAlgo) {
  ExplainAnalyzeResult run =
      ExplainAnalyze(query_, *db_, JoinAlgo::kNestedLoop);
  EXPECT_NE(run.text.find("NestedLoopJoin"), std::string::npos);
  EXPECT_EQ(run.text.find("HashJoin"), std::string::npos);
  EXPECT_EQ(run.result.NumRows(), 1u);
}

TEST_F(ExplainTest, ExprToDotWellFormed) {
  std::string dot = ExprToDot(query_, *db_);
  EXPECT_NE(dot.find("digraph plan"), std::string::npos);
  // 5 nodes (2 operators + 3 scans), 4 edges.
  int nodes = 0, edges = 0;
  size_t pos = 0;
  while ((pos = dot.find("[label=", pos)) != std::string::npos) {
    ++nodes;
    ++pos;
  }
  pos = 0;
  while ((pos = dot.find(" -> ", pos)) != std::string::npos) {
    ++edges;
    ++pos;
  }
  EXPECT_EQ(nodes, 5);
  EXPECT_EQ(edges, 4);
}

TEST_F(ExplainTest, GraphToDotMarksEdgeKinds) {
  Result<QueryGraph> graph = GraphOf(query_, *db_);
  ASSERT_TRUE(graph.ok());
  std::string dot = GraphToDot(*graph, *db_);
  EXPECT_NE(dot.find("digraph query_graph"), std::string::npos);
  // One undirected (join) edge and one directed (outerjoin) edge.
  EXPECT_NE(dot.find("dir=none"), std::string::npos);
  int arrows = 0;
  size_t pos = 0;
  while ((pos = dot.find(" -> ", pos)) != std::string::npos) {
    ++arrows;
    ++pos;
  }
  EXPECT_EQ(arrows, 2);  // both edges use ->; the join edge hides the head
}

}  // namespace
}  // namespace fro
