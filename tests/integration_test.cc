// Full-stack integration fuzzing: random nested databases and random
// Section 5 query texts driven through lexer -> parser -> translator ->
// reorderability audit -> optimizer -> BOTH executors, asserting
// agreement everywhere.

#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "common/rng.h"
#include "enumerate/it_enum.h"
#include "lang/lang.h"
#include "testing/nested_gen.h"

namespace fro {
namespace {

TEST(IntegrationTest, FullStackAgreesOnRandomNestedQueries) {
  Rng rng(2101);
  int executed = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomNestedOptions options;
    options.num_types = 2 + static_cast<int>(rng.Uniform(3));
    GeneratedNestedQuery g = GenerateRandomNestedQuery(options, &rng);

    RunOptions no_opt;
    no_opt.optimize = false;
    Result<QueryRunResult> plain = RunQuery(g.db, g.query_text, no_opt);
    ASSERT_TRUE(plain.ok())
        << g.query_text << " -> " << plain.status().ToString();
    Result<QueryRunResult> optimized = RunQuery(g.db, g.query_text);
    ASSERT_TRUE(optimized.ok()) << g.query_text;

    // Translation invariant (Section 5.3): always freely reorderable.
    EXPECT_TRUE(plain->translation.audit.freely_reorderable())
        << g.query_text;

    // Optimized and unoptimized agree.
    EXPECT_TRUE(BagEquals(plain->relation, optimized->relation))
        << g.query_text;

    // The pipelined executor agrees with the materializing evaluator on
    // the optimized plan.
    Relation evaluated =
        Eval(optimized->optimize.plan, *optimized->translation.db);
    EXPECT_TRUE(BagEquals(evaluated, optimized->relation)) << g.query_text;

    // And every implementing tree of the translated block agrees with
    // the executed result (Theorem 1, end to end). Bound the tree count
    // to keep the test fast.
    const QueryGraph& graph = plain->translation.graph;
    if (CountIts(graph) <= 60) {
      // Compare the cores only (restrictions commute; compare via the
      // unrestricted trees against the translator's own tree core).
      ExprPtr translated = plain->translation.query;
      PredicatePtr filter;
      if (translated->kind() == OpKind::kRestrict) {
        filter = translated->pred();
      }
      for (const ExprPtr& tree :
           EnumerateIts(graph, *plain->translation.db, 60)) {
        ExprPtr candidate =
            filter != nullptr ? Expr::Restrict(tree, filter) : tree;
        EXPECT_TRUE(BagEquals(Eval(candidate, *plain->translation.db),
                              plain->relation))
            << g.query_text << "\n tree: " << tree->ToString();
      }
    }
    ++executed;
  }
  EXPECT_EQ(executed, 60);
}

TEST(IntegrationTest, GeneratedQueriesAreDeterministic) {
  RandomNestedOptions options;
  Rng a(7);
  Rng b(7);
  GeneratedNestedQuery q1 = GenerateRandomNestedQuery(options, &a);
  GeneratedNestedQuery q2 = GenerateRandomNestedQuery(options, &b);
  EXPECT_EQ(q1.query_text, q2.query_text);
  Result<QueryRunResult> r1 = RunQuery(q1.db, q1.query_text);
  Result<QueryRunResult> r2 = RunQuery(q2.db, q2.query_text);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(BagEquals(r1->relation, r2->relation));
}

TEST(IntegrationTest, StressManySmallQueries) {
  Rng rng(2102);
  for (int trial = 0; trial < 150; ++trial) {
    RandomNestedOptions options;
    options.num_types = 2;
    options.rows_max = 4;
    GeneratedNestedQuery g = GenerateRandomNestedQuery(options, &rng);
    Result<QueryRunResult> run = RunQuery(g.db, g.query_text);
    ASSERT_TRUE(run.ok()) << g.query_text;
  }
}

}  // namespace
}  // namespace fro
