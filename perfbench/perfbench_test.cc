// Tests of the benchmark harness itself: its arithmetic, its spans, its
// generated queries and its reference check.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analytic.h"
#include "layers.h"
#include "exec/build.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "optimizer/optimizer.h"
#include "reference.h"
#include "server/session.h"
#include "serve.h"
#include "testing/nested_sample.h"
#include "trace.h"

namespace perfbench {
namespace {

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end,
              uint64_t request = 1) {
  Span span;
  span.name = "s";
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(QuantileTest, InterpolatesBetweenClosestRanks) {
  std::vector<double> values = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Quantile(&values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(&values, 0.9), 3.7);
  EXPECT_DOUBLE_EQ(Quantile(&values, 0.0), 1);
  EXPECT_DOUBLE_EQ(Quantile(&values, 1.0), 4);
  std::vector<double> one = {7};
  EXPECT_DOUBLE_EQ(Quantile(&one, 0.9), 7);
  std::vector<double> none;
  EXPECT_DOUBLE_EQ(Quantile(&none, 0.5), 0);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
}

TEST(QuantileTest, GeoMean) {
  EXPECT_DOUBLE_EQ(GeoMean({}), 0);
  EXPECT_NEAR(GeoMean({1, 4}), 2, 1e-12);
  EXPECT_NEAR(GeoMean({2, 8, 4}), 4, 1e-12);
}

TEST(QuantileTest, InterquartileMeanDropsTheOuterQuarters) {
  EXPECT_DOUBLE_EQ(InterquartileMean({}), 0);
  EXPECT_DOUBLE_EQ(InterquartileMean({7}), 7);
  EXPECT_DOUBLE_EQ(InterquartileMean({1, 5, 3}), 3);
  // A stalled segment (100) and the fastest one (1) are dropped.
  EXPECT_DOUBLE_EQ(InterquartileMean({1, 2, 3, 4, 100, 2, 3, 3}), 2.75);
}

TEST(QuantileTest, SegmentStatTakesTheInterquartileMean) {
  SegmentStat time;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) time.Add(v, 10);
  RunResult result;
  time.Emit("t", "us", &result);
  ASSERT_EQ(result.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(result.metrics[0].value, 3);
  EXPECT_EQ(result.metrics[0].samples, 50u);
  ASSERT_EQ(result.details.size(), 1u);
  EXPECT_EQ(result.details[0].first, "segments.t");
  EXPECT_EQ(result.details[0].second, "[5, 1, 3, 2, 4]");
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  // Parent [0, 100]; children [10, 30] and [20, 50] overlap (union 40),
  // [60, 70] adds 10, and [90, 120] is clipped to [90, 100].
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),  MakeSpan(2, 1, 10, 30),
      MakeSpan(3, 1, 20, 50),  MakeSpan(4, 1, 60, 70),
      MakeSpan(5, 1, 90, 120), MakeSpan(6, 2, 12, 18),
  };
  const std::map<uint64_t, int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self.at(1), 100 - 40 - 10 - 10);
  EXPECT_EQ(self.at(2), 20 - 6);
  EXPECT_EQ(self.at(3), 30);
  EXPECT_EQ(self.at(6), 6);
}

TEST(SpanTreeTest, NestedScopedSpansAreWellFormed) {
  SpanLog log(true, 3);
  {
    ScopedSpan root(&log, "request", 0, 9);
    { ScopedSpan a(&log, "lang.parse", root.id(), 9); }
    {
      ScopedSpan b(&log, "query", root.id(), 9);
      ScopedSpan c(&log, "exec.drain", b.id(), 9);
    }
  }
  ASSERT_EQ(log.spans().size(), 4u);
  EXPECT_EQ(CheckSpanTree(log.spans()), "");
  EXPECT_EQ(DurationsUs(log.spans(), "exec.drain").size(), 1u);
  for (const Span& span : log.spans()) EXPECT_GE(span.end_ns, span.start_ns);
}

TEST(SpanTreeTest, DisabledLogRecordsNothing) {
  SpanLog log(false, 1);
  { ScopedSpan span(&log, "request", 0, 1); }
  EXPECT_TRUE(log.spans().empty());
}

TEST(SpanTreeTest, RejectsMalformedTrees) {
  EXPECT_NE(CheckSpanTree({MakeSpan(1, 0, 0, 10), MakeSpan(2, 7, 1, 2)}), "");
  EXPECT_NE(CheckSpanTree({MakeSpan(1, 0, 0, 10), MakeSpan(2, 1, 5, 11)}), "");
  EXPECT_NE(CheckSpanTree({MakeSpan(1, 0, 0, 10), MakeSpan(2, 1, 1, 2, 8)}),
            "");
  EXPECT_NE(CheckSpanTree({MakeSpan(1, 0, 0, 10), MakeSpan(1, 0, 0, 10)}), "");
  EXPECT_NE(CheckSpanTree({MakeSpan(1, 0, 10, 5)}), "");
  EXPECT_NE(CheckSpanTree({MakeSpan(1, 2, 0, 10), MakeSpan(2, 1, 0, 10)}), "");
  EXPECT_EQ(CheckSpanTree({MakeSpan(1, 0, 0, 10), MakeSpan(2, 1, 0, 10)}), "");
}

TEST(AdhocQueriesTest, EveryTextParsesAndTranslates) {
  const fro::NestedDb db = fro::MakeScaledCompanyNestedDb(kAdhocScale);
  for (uint64_t seed : {1, 2, 3}) {
    const size_t wanted = 300;
    const std::vector<std::string> texts =
        GenerateAdhocQueries(seed, wanted, kAdhocScale);
    const double distinct_share =
        static_cast<double>(std::set<std::string>(texts.begin(), texts.end())
                                .size()) /
        static_cast<double>(wanted);
    std::printf("seed %llu: %zu texts, distinct-text share %.3f\n",
                static_cast<unsigned long long>(seed), texts.size(),
                distinct_share);
    EXPECT_GE(distinct_share, 0.95);
    for (const std::string& text : texts) {
      fro::Result<fro::SelectQuery> ast = fro::ParseQuery(text);
      ASSERT_TRUE(ast.ok()) << text << ": " << ast.status().ToString();
      fro::Result<fro::TranslationResult> translation =
          fro::TranslateQuery(db, *ast);
      ASSERT_TRUE(translation.ok())
          << text << ": " << translation.status().ToString();
      EXPECT_GE(translation->db->num_relations(), 2u) << text;
      EXPECT_LE(translation->db->num_relations(), 9u) << text;
      EXPECT_TRUE(translation->audit.freely_reorderable()) << text;
    }
  }
}

TEST(ReferenceTest, ServedResultMatchesAndWrongResultIsCaught) {
  const fro::NestedDb db = fro::MakeCompanyNestedDb();
  fro::LruPlanCache cache(128);
  fro::QuerySession session(&db, &cache, nullptr);
  for (const std::string& text : HotQueries()) {
    const std::string prefix = ReferencePrefix(db, text);
    ASSERT_FALSE(prefix.empty()) << text;
    const Reference reference = ReferenceOf(prefix);
    fro::Request request;
    request.verb = fro::Verb::kQuery;
    request.argument = text;
    const fro::Response served = session.Execute(request, nullptr);
    ASSERT_TRUE(served.status.ok()) << text;
    EXPECT_TRUE(MatchesReference(served.body, reference)) << text;

    // A deliberately wrong result: one character of the table changed,
    // a row dropped from the count, or extra output appended.
    std::string altered = served.body;
    altered[altered.size() / 3] ^= 1;
    EXPECT_FALSE(MatchesReference(altered, reference)) << text;
    EXPECT_FALSE(MatchesReference(served.body.substr(0, prefix.size() - 8),
                                  reference));
    EXPECT_FALSE(MatchesReference(served.body + "extra\n", reference)) << text;
  }
  EXPECT_FALSE(MatchesReference("anything", ReferenceOf("")));
}

TEST(ReferenceTest, ChecksumIgnoresOrderButNotContent) {
  fro::Relation a(fro::Scheme({0, 1}));
  a.AddRow({fro::Value::Int(1), fro::Value::Int(2)});
  a.AddRow({fro::Value::Int(3), fro::Value::Null()});
  // Same rows, other row order, other column order.
  fro::Relation b(fro::Scheme({1, 0}));
  b.AddRow({fro::Value::Null(), fro::Value::Int(3)});
  b.AddRow({fro::Value::Int(2), fro::Value::Int(1)});
  EXPECT_EQ(ChecksumOf(a), ChecksumOf(b));
  // One value changed, or the values swapped between columns.
  fro::Relation c(fro::Scheme({0, 1}));
  c.AddRow({fro::Value::Int(1), fro::Value::Int(2)});
  c.AddRow({fro::Value::Int(4), fro::Value::Null()});
  EXPECT_NE(ChecksumOf(a), ChecksumOf(c));
  fro::Relation d(fro::Scheme({0, 1}));
  d.AddRow({fro::Value::Int(2), fro::Value::Int(1)});
  d.AddRow({fro::Value::Int(3), fro::Value::Null()});
  EXPECT_NE(ChecksumOf(a), ChecksumOf(d));
}

TEST(ReferenceTest, EveryAnalyticPlanMatchesItsUnoptimizedTree) {
  AnalyticData data;
  BuildAnalyticData(/*seed=*/5, /*scale=*/0.02, &data);
  ASSERT_EQ(data.mix.size(), 4u);
  for (const MixQuery& query : data.mix) {
    const Checksum expected =
        ChecksumOf(fro::ExecuteBatched(query.query, data.db));
    fro::Result<fro::OptimizeOutcome> plan =
        fro::Optimize(query.query, data.db);
    ASSERT_TRUE(plan.ok()) << query.name;
    fro::Relation got = fro::ExecuteBatched(plan->plan, data.db);
    EXPECT_EQ(ChecksumOf(got), expected) << query.name;
    EXPECT_GT(expected.rows, 0u) << query.name;
    // A wrong result (one row lost) is caught.
    fro::Relation truncated(got.scheme());
    for (size_t i = 1; i < got.NumRows(); ++i) truncated.AddRow(got.row(i));
    EXPECT_NE(ChecksumOf(truncated), expected) << query.name;
  }
}

}  // namespace
}  // namespace perfbench
