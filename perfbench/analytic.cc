#include "analytic.h"

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "exec/batch_iterator.h"
#include "exec/build.h"
#include "exec/morsel.h"
#include "reference.h"
#include "relational/predicate.h"

namespace perfbench {
namespace {

// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
// Every measured phase runs at least this many mix rounds.
constexpr int kMinRounds = 5;
// Each measured phase is cut into this many equal time segments (see
// SegmentStat); fewer than the serve workloads, as a parallel mix round
// takes a few hundred milliseconds.
constexpr int kSegments = 10;
// Warm-up gives up waiting for the plans to settle after this many rounds.
constexpr int kMaxWarmRounds = 8;

using fro::Expr;
using fro::ExprPtr;
using fro::RelId;
using fro::Value;

RelId AddRelation(fro::Database* db, const std::string& name,
                  std::vector<std::string> columns) {
  return *db->AddRelation(name, std::move(columns));
}

void AddPair(fro::Database* db, RelId rel, int64_t a, int64_t b) {
  db->AddRow(rel, {Value::Int(a), Value::Int(b)});
}

int64_t Draw(fro::Rng* rng, size_t bound) {
  return static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(bound)));
}

bool Contains(const ExprPtr& expr, fro::OpKind kind) {
  if (expr == nullptr) return false;
  if (expr->kind() == kind) return true;
  if (expr->is_multiway()) {
    for (const ExprPtr& child : expr->mj_children()) {
      if (Contains(child, kind)) return true;
    }
    return false;
  }
  return Contains(expr->left(), kind) || Contains(expr->right(), kind);
}

// The planner and executor state a library caller keeps across queries:
// one plan cache, one feedback store, a fixed worker count.
struct Engine {
  const AnalyticData* data = nullptr;
  int threads = 1;
  fro::LruPlanCache cache{128};
  fro::FeedbackStore feedback;
};

struct QueryRun {
  Execution execution;
  int64_t total_ns = 0;
};

QueryRun RunMixQuery(Engine* engine, const MixQuery& query, SpanLog* log,
                     uint64_t parent, uint64_t request) {
  QueryRun run;
  const int64_t start = NowNs();
  {
    ScopedSpan span(log, "query", parent, request);
    run.execution = PlanAndRun(query.query, engine->data->db, &engine->cache,
                               &engine->feedback, engine->threads, log,
                               span.id(), request);
  }
  run.total_ns = NowNs() - start;
  return run;
}

// Drain time of `plan` at `threads` workers, its result checked.
int64_t TimedDrain(const fro::ExprPtr& plan, const fro::Database& db,
                   int threads, const Checksum& expected, bool* ok) {
  fro::ParallelOptions parallel;
  parallel.threads = threads;
  fro::BatchIteratorPtr root =
      fro::BuildParallelBatchIterator(plan, db, parallel);
  const int64_t start = NowNs();
  fro::Result<fro::Relation> relation = fro::DrainChecked(root.get(), nullptr);
  const int64_t elapsed = NowNs() - start;
  *ok = relation.ok() && ChecksumOf(*relation) == expected;
  return elapsed;
}

struct MixStats {
  std::vector<std::vector<double>> query_us;  // per mix query
  std::vector<double> round_ms;
  uint64_t queries = 0;
  int64_t busy_ns = 0;
};

}  // namespace

void BuildAnalyticData(uint64_t seed, double scale, AnalyticData* out) {
  fro::Rng rng(seed);
  fro::Database* db = &out->db;
  auto n = [scale](double base) {
    return std::max<size_t>(8, static_cast<size_t>(base * scale));
  };
  auto attr = [db](const char* rel, const char* name) {
    return db->Attr(rel, name);
  };

  // 1. scan -> filter -> hash join. S holds unique keys and is the build
  //    side; about half the filtered R rows find a partner.
  const size_t s_rows = n(60000), r_rows = n(120000);
  const RelId r = AddRelation(db, "R", {"a", "b"});
  const RelId s = AddRelation(db, "S", {"c", "d"});
  for (size_t i = 0; i < r_rows; ++i) {
    AddPair(db, r, Draw(&rng, 2 * s_rows), Draw(&rng, 1000));
  }
  for (size_t k = 0; k < s_rows; ++k) {
    AddPair(db, s, static_cast<int64_t>(k), Draw(&rng, 1000));
  }
  out->mix.push_back(
      {"scan_filter_hashjoin",
       Expr::Join(Expr::Restrict(Expr::Leaf(r, *db),
                                 fro::CmpLit(fro::CmpOp::kLt, attr("R", "b"),
                                             Value::Int(500))),
                  Expr::Leaf(s, *db), fro::EqCols(attr("R", "a"),
                                                  attr("S", "c")))});

  // 2. Example 1 at scale: C1 - (C2 -> (C3 -> C4)). The selective join
  //    with the small C1 is written last; every order is equivalent, and
  //    the cheap one joins C1 first.
  const size_t c1_rows = n(1000), c_rows = n(80000);
  const RelId c1 = AddRelation(db, "C1", {"k", "p"});
  const RelId c2 = AddRelation(db, "C2", {"k", "m"});
  const RelId c3 = AddRelation(db, "C3", {"m", "v"});
  const RelId c4 = AddRelation(db, "C4", {"v", "w"});
  for (size_t i = 0; i < c1_rows; ++i) {
    AddPair(db, c1, Draw(&rng, c_rows), static_cast<int64_t>(i));
  }
  // Keys past the partner's range leave rows to be padded with nulls.
  for (size_t i = 0; i < c_rows; ++i) {
    AddPair(db, c2, static_cast<int64_t>(i), Draw(&rng, c_rows + c_rows / 4));
    AddPair(db, c3, static_cast<int64_t>(i), Draw(&rng, c_rows + c_rows / 4));
    AddPair(db, c4, static_cast<int64_t>(i), Draw(&rng, 1000));
  }
  ExprPtr c34 = Expr::OuterJoin(Expr::Leaf(c3, *db), Expr::Leaf(c4, *db),
                                fro::EqCols(attr("C3", "v"), attr("C4", "v")),
                                /*preserves_left=*/true);
  ExprPtr c234 = Expr::OuterJoin(Expr::Leaf(c2, *db), c34,
                                 fro::EqCols(attr("C2", "m"), attr("C3", "m")),
                                 /*preserves_left=*/true);
  out->mix.push_back(
      {"outerjoin_chain_bad_order",
       Expr::Join(Expr::Leaf(c1, *db), c234,
                  fro::EqCols(attr("C1", "k"), attr("C2", "k")))});

  // 3. A triangle core in an outerjoin shell: (E1 - E2 - E3) -> T. The
  //    edges are the AGM-hard hub {0}x[1..m] u [1..m]x{0} u {(0,0)}
  //    plus seeded random edges, so every binary order builds a ~m^2
  //    intermediate and the wcoj gate collapses the core.
  const size_t hub = n(150), noise = n(6000), vertices = n(6000);
  const RelId e1 = AddRelation(db, "E1", {"x", "y"});
  const RelId e2 = AddRelation(db, "E2", {"y", "z"});
  const RelId e3 = AddRelation(db, "E3", {"z", "x"});
  const RelId t = AddRelation(db, "T", {"t", "label"});
  for (RelId e : {e1, e2, e3}) {
    AddPair(db, e, 0, 0);
    for (size_t j = 1; j <= hub; ++j) {
      AddPair(db, e, 0, static_cast<int64_t>(j));
      AddPair(db, e, static_cast<int64_t>(j), 0);
    }
    for (size_t j = 0; j < noise; ++j) {
      AddPair(db, e, 1 + Draw(&rng, vertices), 1 + Draw(&rng, vertices));
    }
  }
  for (size_t i = 0; i < vertices / 2; ++i) {
    AddPair(db, t, 2 * static_cast<int64_t>(i), Draw(&rng, 1000));
  }
  ExprPtr e12 = Expr::Join(Expr::Leaf(e1, *db), Expr::Leaf(e2, *db),
                           fro::EqCols(attr("E1", "y"), attr("E2", "y")));
  ExprPtr core = Expr::Join(
      e12, Expr::Leaf(e3, *db),
      fro::AndOf(fro::EqCols(attr("E2", "z"), attr("E3", "z")),
                 fro::EqCols(attr("E3", "x"), attr("E1", "x"))));
  out->mix.push_back(
      {"triangle_in_outerjoin_shell",
       Expr::OuterJoin(core, Expr::Leaf(t, *db),
                       fro::EqCols(attr("E1", "x"), attr("T", "t")),
                       /*preserves_left=*/true)});

  // 4. A skewed dangling chain A0 - A1 - A2: A1 carries K rows on a heavy
  //    key that die toward A2 and K rows that die toward A0, so every
  //    binary order builds a ~K^2 intermediate of dangling tuples while
  //    the semijoin program reduces A1 to its live block first. Payloads
  //    are seeded.
  const size_t k = n(600), live = n(30), fan = n(30);
  const RelId a0 = AddRelation(db, "A0", {"a0", "a1"});
  const RelId a1 = AddRelation(db, "A1", {"a0", "a1"});
  const RelId a2 = AddRelation(db, "A2", {"a0", "a1"});
  const int64_t dead = 1000000;
  for (size_t i = 0; i < fan; ++i) {
    AddPair(db, a0, Draw(&rng, dead), 0);  // live, key 0
    AddPair(db, a2, 0, Draw(&rng, dead));
  }
  for (size_t j = 0; j < k; ++j) {
    AddPair(db, a0, Draw(&rng, dead), 1);  // heavy key 1
    AddPair(db, a2, 2, Draw(&rng, dead));  // heavy key 2
    AddPair(db, a1, 1, dead + static_cast<int64_t>(j));
    AddPair(db, a1, 2 * dead + static_cast<int64_t>(j), 2);
  }
  for (size_t i = 0; i < live; ++i) AddPair(db, a1, 0, 0);
  ExprPtr chain = Expr::Join(
      Expr::Join(Expr::Leaf(a0, *db), Expr::Leaf(a1, *db),
                 fro::EqCols(attr("A0", "a1"), attr("A1", "a0"))),
      Expr::Leaf(a2, *db), fro::EqCols(attr("A1", "a1"), attr("A2", "a0")));
  out->mix.push_back({"skewed_dangling_chain", chain});
}

RunResult RunAnalytic(const RunConfig& config) {
  const int threads = config.workload == "analytic_parallel"
                          ? static_cast<int>(config.nproc)
                          : 1;
  RunResult result;
  uint64_t attempted = 0, failed = 0;

  // Set-up, several times: data generation plus warm-up rounds that fill
  // the plan cache, the feedback store and the column mirrors, until the
  // feedback loop's re-plans have settled (a round of cache hits only).
  std::vector<double> setup_s;
  std::unique_ptr<AnalyticData> data;
  std::unique_ptr<Engine> engine;
  SpanLog untraced(false, 0);
  const int setups = config.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    engine.reset();
    data.reset();
    const int64_t start = NowNs();
    data = std::make_unique<AnalyticData>();
    BuildAnalyticData(config.seed, 1.0, data.get());
    engine = std::make_unique<Engine>();
    engine->data = data.get();
    engine->threads = threads;
    for (int round = 0; round < kMaxWarmRounds; ++round) {
      bool settled = true;
      for (const MixQuery& query : data->mix) {
        ++attempted;
        const QueryRun run = RunMixQuery(engine.get(), query, &untraced, 0, 0);
        if (!run.execution.ok) ++failed;
        settled = settled && run.execution.outcome.cache_hit;
      }
      if (settled) break;
    }
    setup_s.push_back(SecondsSince(start));
  }
  const std::vector<MixQuery>& mix = data->mix;

  // References: the unoptimized trees, run serially.
  std::vector<Checksum> refs;
  for (const MixQuery& query : mix) {
    fro::BatchIteratorPtr root = fro::BuildBatchIterator(query.query, data->db);
    fro::Result<fro::Relation> relation =
        fro::DrainChecked(root.get(), nullptr);
    refs.push_back(relation.ok() ? ChecksumOf(*relation) : Checksum());
  }

  // The rewrites each query exists to exercise must fire.
  LayerCounters counters;
  std::string gates;
  for (const MixQuery& query : mix) {
    fro::Result<fro::OptimizeOutcome> plan =
        fro::Optimize(query.query, data->db);
    if (!plan.ok()) {
      gates += std::string(query.name) + " failed to plan; ";
      continue;
    }
    counters.AddOptimize(*plan);
    const std::string name = query.name;
    if (name == "outerjoin_chain_bad_order" &&
        !(plan->cost < plan->original_cost)) {
      gates += "chain not reordered; ";
    }
    if (name == "triangle_in_outerjoin_shell" &&
        !Contains(plan->plan, fro::OpKind::kMultiwayJoin)) {
      gates += "wcoj gate did not fire; ";
    }
    if (name == "skewed_dangling_chain" &&
        !Contains(plan->plan, fro::OpKind::kSemijoin)) {
      gates += "acyclic gate did not fire; ";
    }
  }
  result.Detail("gates", JsonString(gates.empty() ? "ok" : gates));
  if (!gates.empty()) result.correct = false;
  // peak_rss_mb covers the measured phase, not the reference runs above.
  const bool rss_reset = ResetPeakRss();

  // Closed loop: one caller runs rounds of the mix back to back.
  // Returns one MixStats per time segment of the phase.
  auto run_rounds = [&](double seconds, SpanLog* log, LayerCounters* count) {
    std::vector<MixStats> segments(kSegments);
    for (MixStats& segment : segments) segment.query_us.resize(mix.size());
    const int64_t start = NowNs();
    const int64_t length = static_cast<int64_t>(seconds * 1e9);
    for (uint64_t round = 0; round < kMinRounds || NowNs() < start + length;
         ++round) {
      MixStats& stats = segments[std::min<size_t>(
          kSegments - 1,
          static_cast<size_t>((NowNs() - start) * kSegments / length))];
      ScopedSpan span(log, "round", 0, round + 1);
      int64_t round_ns = 0;
      for (size_t q = 0; q < mix.size(); ++q) {
        QueryRun run = RunMixQuery(engine.get(), mix[q], log, span.id(),
                                round + 1);
        ++attempted;
        const Execution& e = run.execution;
        if (!e.ok || ChecksumOf(e.relation) != refs[q]) {
          ++failed;
          continue;
        }
        round_ns += run.total_ns;
        stats.query_us[q].push_back(static_cast<double>(run.total_ns) / 1e3);
        if (count != nullptr) {
          count->AddOptimize(e.outcome);
          count->AddExecution(e.stats, e.relation.NumRows(), e.drain_ns);
        }
      }
      stats.round_ms.push_back(static_cast<double>(round_ns) / 1e6);
      stats.queries += mix.size();
      stats.busy_ns += round_ns;
    }
    return segments;
  };
  // Mean time of one round over a whole phase.
  auto mean_round_ns = [](const std::vector<MixStats>& segments) {
    int64_t busy = 0;
    size_t rounds = 0;
    for (const MixStats& segment : segments) {
      busy += segment.busy_ns;
      rounds += segment.round_ms.size();
    }
    return rounds == 0 ? 0.0 : static_cast<double>(busy) / rounds;
  };

  result.Detail("threads", std::to_string(threads));
  std::string sizes;
  for (size_t q = 0; q < mix.size(); ++q) {
    sizes += std::string(q == 0 ? "" : ", ") + "\"" + mix[q].name +
             "\": " + std::to_string(refs[q].rows);
  }
  result.Detail("result_rows", "{" + sizes + "}");

  if (!config.trace) {
    std::vector<MixStats> segments =
        run_rounds(config.seconds, &untraced, nullptr);
    SegmentStat latency_p50, latency_p90, throughput, mix_p50, mix_p90;
    std::vector<std::vector<double>> query_us(mix.size());
    for (MixStats& stats : segments) {
      // A query's latency is the geometric mean over the mix of each
      // query's own quantile, so every query weighs the same.
      std::vector<double> p50s, p90s;
      for (size_t q = 0; q < mix.size(); ++q) {
        p50s.push_back(Quantile(&stats.query_us[q], 0.5));
        p90s.push_back(Quantile(&stats.query_us[q], 0.9));
        query_us[q].insert(query_us[q].end(), stats.query_us[q].begin(),
                           stats.query_us[q].end());
      }
      latency_p50.Add(GeoMean(p50s), stats.queries);
      latency_p90.Add(GeoMean(p90s), stats.queries);
      throughput.Add(static_cast<double>(stats.queries) /
                         (static_cast<double>(stats.busy_ns) / 1e9),
                     stats.queries);
      mix_p50.Add(Quantile(&stats.round_ms, 0.5), stats.round_ms.size());
      mix_p90.Add(Quantile(&stats.round_ms, 0.9), stats.round_ms.size());
    }
    latency_p50.Emit("latency_p50_us", "us", &result);
    latency_p90.Emit("latency_p90_us", "us", &result);
    throughput.Emit("throughput_qps", "1/s", &result);
    mix_p50.Emit("mix_latency_ms_p50", "ms", &result);
    mix_p90.Emit("mix_latency_ms_p90", "ms", &result);
    std::string per_query;
    for (size_t q = 0; q < mix.size(); ++q) {
      per_query += std::string(q == 0 ? "" : ", ") + "\"" + mix[q].name +
                   "\": " + JsonNumber(Median(query_us[q]));
    }
    result.Add("setup_s", Median(setup_s), "s", setup_s.size());
    result.Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
    result.Detail("peak_rss_since", JsonString(rss_reset ? "measurement"
                                                         : "process start"));
    result.Detail("query_p50_us", "{" + per_query + "}");
  } else {
    const fro::PlanCacheStats cache_before = engine->cache.stats();
    // Tracing overhead: rounds without and with spans, in alternating
    // slices so that drift in the host's speed hits both.
    SpanLog log(true, 1);
    std::vector<double> plain_ns, traced_ns;
    for (int slice = 0; slice < 6; ++slice) {
      const bool traced = slice % 2 == 1;
      const double share = traced ? 0.4 / 3 : 0.1;
      const double mean = mean_round_ns(
          run_rounds(config.seconds * share, traced ? &log : &untraced,
                     traced ? &counters : nullptr));
      (traced ? traced_ns : plain_ns).push_back(mean);
    }

    // Morsel speedup, on both analytic workloads: the same cached plans
    // drained serially and at nproc workers, alternating, in this run.
    int64_t serial_ns = 0, parallel_ns = 0;
    fro::OptimizeOptions cached;
    cached.plan_cache = &engine->cache;
    const int64_t end = NowNs() + static_cast<int64_t>(config.seconds * 0.2e9);
    for (int round = 0; round < kMinRounds || NowNs() < end; ++round) {
      for (size_t q = 0; q < mix.size(); ++q) {
        fro::Result<fro::OptimizeOutcome> plan =
            fro::Optimize(mix[q].query, data->db, cached);
        attempted += 2;
        if (!plan.ok()) {
          failed += 2;
          continue;
        }
        bool ok_serial = false, ok_parallel = false;
        serial_ns += TimedDrain(plan->plan, data->db, 1, refs[q], &ok_serial);
        parallel_ns += TimedDrain(plan->plan, data->db,
                                  static_cast<int>(config.nproc), refs[q],
                                  &ok_parallel);
        failed += (ok_serial ? 0 : 1) + (ok_parallel ? 0 : 1);
      }
    }
    const double speedup = parallel_ns > 0
                               ? static_cast<double>(serial_ns) /
                                     static_cast<double>(parallel_ns)
                               : 0;

    const std::vector<Span>& spans = log.spans();
    const std::string well_formed = CheckSpanTree(spans);
    result.Detail("span_tree", JsonString(well_formed.empty() ? "ok"
                                                              : well_formed));
    if (!well_formed.empty()) result.correct = false;
    LayerInputs in;
    in.spans = &spans;
    in.counters = &counters;
    in.cache_delta = CacheDelta(cache_before, engine->cache.stats());
    in.max_q_error = engine->feedback.stats().max_q_error;
    in.morsel_speedup = speedup;
    const double plain_mean = Median(plain_ns);
    in.overhead_pct =
        plain_mean > 0 ? (Median(traced_ns) / plain_mean - 1) * 100 : 0;
    EmitLayerMetrics(in, &result);
    if (!config.spans_path.empty() && !WriteSpans(config.spans_path, spans)) {
      result.correct = false;
    }
    result.Detail("spans_file", JsonString(config.spans_path));
  }

  result.attempted = attempted;
  result.failed = failed;
  if (failed > 0) result.correct = false;
  return result;
}

}  // namespace perfbench
