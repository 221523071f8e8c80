// Executor comparison: the pipelined batch engine versus the
// materializing evaluator, on optimized plans at increasing scale. Also
// measures per-operator pipeline overheads.

#include <benchmark/benchmark.h>

#include "algebra/eval.h"
#include "common/check.h"
#include "exec/build.h"
#include "testing/datagen.h"

namespace fro {
namespace {

struct Fixture {
  std::unique_ptr<Database> db;
  ExprPtr plan;  // (R1 - R2) -> R3 over the Example 1 database
};

Fixture MakeFixture(int n) {
  Fixture f;
  f.db = MakeExample1Database(n);
  ExprPtr r1 = Expr::Leaf(f.db->Rel("R1"), *f.db);
  ExprPtr r2 = Expr::Leaf(f.db->Rel("R2"), *f.db);
  ExprPtr r3 = Expr::Leaf(f.db->Rel("R3"), *f.db);
  f.plan = Expr::OuterJoin(
      Expr::Join(r1, r2, EqCols(f.db->Attr("R1", "k"), f.db->Attr("R2", "k"))),
      r3, EqCols(f.db->Attr("R2", "fk"), f.db->Attr("R3", "k")));
  return f;
}

void BM_MaterializingEval(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Relation out = Eval(f.plan, *f.db);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MaterializingEval)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_PipelinedExec(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Relation out = ExecuteBatched(f.plan, *f.db);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_PipelinedExec)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Pipelines can stop early without paying for the full result: take the
// first batch of a large join. The materializing evaluator must compute
// everything.
void BM_Pipelined_FirstRowOnly(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    BatchIteratorPtr root = BuildBatchIterator(f.plan, *f.db);
    root->Open();
    TupleBatch batch;
    bool got = root->NextBatch(&batch);
    FRO_CHECK(got);
    root->Close();
    benchmark::DoNotOptimize(batch);
  }
}
BENCHMARK(BM_Pipelined_FirstRowOnly)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Counter-instrumentation overhead: the same pipeline with wall-clock
// timing enabled on every operator. Compare against BM_PipelinedExec
// (counters only, timing off — the default) to price the instrumentation;
// the counters themselves should stay within a few percent of free.
void BM_PipelinedExec_Timed(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    BatchIteratorPtr root = BuildBatchIterator(f.plan, *f.db);
    root->EnableTiming();
    Relation out = DrainBatches(root.get());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_PipelinedExec_Timed)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Nested-loop pipeline where every output row costs a candidate pair
// build and a predicate evaluation: per-row overhead dominates. R2 -> R3
// is one-to-one, so n rows stream through the join.
void BM_NestedLoopManyRows(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto db = MakeExample1Database(n);
  ExprPtr q = Expr::OuterJoin(
      Expr::Leaf(db->Rel("R2"), *db), Expr::Leaf(db->Rel("R3"), *db),
      EqCols(db->Attr("R2", "fk"), db->Attr("R3", "k")));
  for (auto _ : state) {
    Relation out = ExecuteBatched(q, *db, JoinAlgo::kNestedLoop);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NestedLoopManyRows)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// Same shape through the hash join: one probe per row, n output rows.
void BM_HashJoinManyRows(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto db = MakeExample1Database(n);
  ExprPtr q = Expr::OuterJoin(
      Expr::Leaf(db->Rel("R2"), *db), Expr::Leaf(db->Rel("R3"), *db),
      EqCols(db->Attr("R2", "fk"), db->Attr("R3", "k")));
  for (auto _ : state) {
    Relation out = ExecuteBatched(q, *db);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoinManyRows)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Agreement check under the timer (doubles as a soak test).
void BM_ExecutorsAgree(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    bool equal =
        BagEquals(Eval(f.plan, *f.db), ExecuteBatched(f.plan, *f.db));
    FRO_CHECK(equal);
    benchmark::DoNotOptimize(equal);
  }
}
BENCHMARK(BM_ExecutorsAgree)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMillisecond);

// Raw scan-filter pipeline throughput.
void BM_ScanFilterPipeline(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto db = MakeExample1Database(n);
  ExprPtr q = Expr::Restrict(
      Expr::Leaf(db->Rel("R2"), *db),
      CmpLit(CmpOp::kLt, db->Attr("R2", "k"), Value::Int(n / 2)));
  for (auto _ : state) {
    Relation out = ExecuteBatched(q, *db);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScanFilterPipeline)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Hash-index probe paths: allocating a fresh key vector per probe versus
// borrowing a reused scratch buffer (the generic-key hash join probe
// loop).
struct ProbeFixture {
  std::unique_ptr<Database> db;
  std::unique_ptr<Relation> rel;
  std::unique_ptr<HashIndex> index;
};

ProbeFixture MakeProbeFixture(int n) {
  ProbeFixture f;
  f.db = MakeExample1Database(n);
  f.rel = std::make_unique<Relation>(f.db->relation(f.db->Rel("R2")));
  f.index = std::make_unique<HashIndex>(
      *f.rel, std::vector<AttrId>{f.db->Attr("R2", "k")});
  return f;
}

void BM_ProbeAllocKey(benchmark::State& state) {
  ProbeFixture f = MakeProbeFixture(static_cast<int>(state.range(0)));
  const int n = static_cast<int>(state.range(0));
  size_t hits = 0;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      std::vector<Value> key;
      key.reserve(1);
      key.push_back(Value::Int(i));
      hits += f.index->Probe(key).size();
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ProbeAllocKey)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_ProbeBorrowedKey(benchmark::State& state) {
  ProbeFixture f = MakeProbeFixture(static_cast<int>(state.range(0)));
  const int n = static_cast<int>(state.range(0));
  size_t hits = 0;
  std::vector<Value> key;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      key.clear();
      key.push_back(Value::Int(i));
      hits += f.index->Probe(key.data(), key.size()).size();
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ProbeBorrowedKey)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fro

BENCHMARK_MAIN();
