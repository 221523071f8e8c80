// Facade-level invariants: optimizer idempotence and stability, and
// composition with the pipelined executor.

#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "common/rng.h"
#include "enumerate/it_enum.h"
#include "exec/build.h"
#include "optimizer/optimizer.h"
#include "testing/graphgen.h"

namespace fro {
namespace {

TEST(FacadePropertyTest, OptimizeIsIdempotent) {
  Rng rng(2801);
  for (int trial = 0; trial < 25; ++trial) {
    RandomQueryOptions options;
    options.num_relations = 3 + static_cast<int>(rng.Uniform(4));
    options.rows.rows_min = 1;
    GeneratedQuery q = GenerateRandomQuery(options, &rng);
    ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
    Result<OptimizeOutcome> once = Optimize(tree, *q.db);
    ASSERT_TRUE(once.ok());
    Result<OptimizeOutcome> twice = Optimize(once->plan, *q.db);
    ASSERT_TRUE(twice.ok());
    // Re-optimizing an already-optimal plan changes neither the cost nor
    // the result.
    EXPECT_NEAR(once->cost, twice->cost, 1e-9 * (1 + once->cost))
        << once->plan->ToString() << " vs " << twice->plan->ToString();
    EXPECT_TRUE(BagEquals(Eval(once->plan, *q.db), Eval(twice->plan, *q.db)));
  }
}

TEST(FacadePropertyTest, OptimizeIsDeterministic) {
  Rng rng(2802);
  RandomQueryOptions options;
  options.num_relations = 5;
  GeneratedQuery q = GenerateRandomQuery(options, &rng);
  ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
  Result<OptimizeOutcome> a = Optimize(tree, *q.db);
  Result<OptimizeOutcome> b = Optimize(tree, *q.db);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(ExprEquals(a->plan, b->plan));
  EXPECT_EQ(a->cost, b->cost);
}

TEST(FacadePropertyTest, OptimizedPlansExecuteBatched) {
  Rng rng(2803);
  for (int trial = 0; trial < 25; ++trial) {
    RandomQueryOptions options;
    options.num_relations = 3 + static_cast<int>(rng.Uniform(4));
    options.weak_pred_prob = trial % 2 == 0 ? 0.0 : 0.5;
    GeneratedQuery q = GenerateRandomQuery(options, &rng);
    ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
    Result<OptimizeOutcome> outcome = Optimize(tree, *q.db);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(BagEquals(ExecuteBatched(outcome->plan, *q.db),
                          Eval(tree, *q.db)))
        << tree->ToString() << " => " << outcome->plan->ToString();
  }
}

TEST(FacadePropertyTest, CostNeverWorseThanOriginalWhenReorderable) {
  Rng rng(2804);
  for (int trial = 0; trial < 25; ++trial) {
    RandomQueryOptions options;
    options.num_relations = 4 + static_cast<int>(rng.Uniform(3));
    options.rows.rows_min = 2;
    GeneratedQuery q = GenerateRandomQuery(options, &rng);
    ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
    Result<OptimizeOutcome> outcome = Optimize(tree, *q.db);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->freely_reorderable);
    EXPECT_LE(outcome->cost, outcome->original_cost + 1e-9)
        << tree->ToString();
  }
}

TEST(FacadePropertyTest, LargeGraphsFallBackToGreedy) {
  Rng rng(2805);
  RandomQueryOptions options;
  options.num_relations = 20;  // beyond the exact DP threshold
  options.rows.rows_min = 1;
  options.rows.rows_max = 3;
  GeneratedQuery q = GenerateRandomQuery(options, &rng);
  ExprPtr tree = RandomIt(q.graph, *q.db, &rng);
  ASSERT_NE(tree, nullptr);
  Result<OptimizeOutcome> outcome = Optimize(tree, *q.db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->freely_reorderable);
  EXPECT_NE(outcome->classification.find("greedy"), std::string::npos);
  EXPECT_TRUE(BagEquals(Eval(tree, *q.db), Eval(outcome->plan, *q.db)));
  // Forcing a higher DP limit keeps the exact path available.
  OptimizeOptions exact;
  exact.max_dp_relations = 10;
  Result<OptimizeOutcome> still_greedy = Optimize(tree, *q.db, exact);
  ASSERT_TRUE(still_greedy.ok());
  EXPECT_NE(still_greedy->classification.find("greedy"), std::string::npos);
}

}  // namespace
}  // namespace fro
