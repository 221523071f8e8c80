// Before/after report for the plan-space-search optimizations: closure
// dedup by fingerprint string (the seed behaviour, replicated locally)
// versus cached structural hash and the parallel worker pool; DP by
// all-masks submask scan versus DPccp csg-cmp enumeration; hash-index
// probing with a per-probe key allocation versus a borrowed scratch key.
//
// Emits a JSON array of {op, n, wall_ns, plans_considered,
// states_visited} rows on stdout (scripts/bench.sh redirects it into
// BENCH_PR2.json). `--smoke` runs one repetition of everything so CI can
// exercise the binary cheaply.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "algebra/transform.h"
#include "common/check.h"
#include "common/rng.h"
#include "enumerate/closure.h"
#include "enumerate/it_enum.h"
#include "optimizer/dp.h"
#include "relational/index.h"
#include "testing/datagen.h"

namespace fro {
namespace {

struct Row {
  const char* op;
  int n;
  int64_t wall_ns;
  uint64_t plans_considered;
  uint64_t states_visited;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Topology {
  std::unique_ptr<Database> db;
  QueryGraph graph;
};

Topology MakeChain(int n, bool with_outerjoins) {
  Topology t;
  t.db = std::make_unique<Database>();
  for (int i = 0; i < n; ++i) {
    RelId r = *t.db->AddRelation("R" + std::to_string(i), {"a"});
    t.graph.AddNode(r, t.db->scheme(r).ToAttrSet());
    t.db->AddRow(r, {Value::Int(i % 3)});
    t.db->AddRow(r, {Value::Int((i + 1) % 3)});
  }
  for (int i = 0; i + 1 < n; ++i) {
    PredicatePtr pred = EqCols(t.db->Attr("R" + std::to_string(i), "a"),
                               t.db->Attr("R" + std::to_string(i + 1), "a"));
    if (with_outerjoins && i >= (n - 1) / 2) {
      FRO_CHECK(t.graph.AddOuterJoinEdge(i, i + 1, pred).ok());
    } else {
      FRO_CHECK(t.graph.AddJoinEdge(i, i + 1, pred).ok());
    }
  }
  return t;
}

// ---------------------------------------------------------------------
// Seed-replica closure: breadth-first search deduplicated on
// Fingerprint() strings, exactly as the pre-hash implementation did.

void CollectJoinLikePaths(const ExprPtr& node, ExprPath* path,
                          std::vector<ExprPath>* out) {
  if (node == nullptr || node->is_leaf()) return;
  if (node->is_join_like()) out->push_back(*path);
  if (node->left() != nullptr) {
    path->push_back(false);
    CollectJoinLikePaths(node->left(), path, out);
    path->pop_back();
  }
  if (node->right() != nullptr) {
    path->push_back(true);
    CollectJoinLikePaths(node->right(), path, out);
    path->pop_back();
  }
}

std::vector<ExprPtr> FingerprintNeighbors(const ExprPtr& tree,
                                          uint64_t* applications) {
  std::vector<ExprPtr> out;
  std::vector<ExprPath> paths;
  ExprPath scratch;
  CollectJoinLikePaths(tree, &scratch, &paths);
  for (const ExprPath& p : paths) {
    for (bool flip_node : {false, true}) {
      ExprPtr t1 = tree;
      if (flip_node) {
        Result<ExprPtr> flipped =
            ApplyBt(tree, BtSite{BtSite::Kind::kReversal, p});
        if (!flipped.ok()) continue;
        t1 = *flipped;
      }
      for (BtSite::Kind kind :
           {BtSite::Kind::kAssocLR, BtSite::Kind::kAssocRL}) {
        ExprPath child_path = p;
        child_path.push_back(kind == BtSite::Kind::kAssocRL);
        for (bool flip_child : {false, true}) {
          ExprPtr t2 = t1;
          if (flip_child) {
            Result<ExprPtr> flipped =
                ApplyBt(t1, BtSite{BtSite::Kind::kReversal, child_path});
            if (!flipped.ok()) continue;
            t2 = *flipped;
          }
          BtSite site{kind, p};
          if (!IsApplicable(t2, site)) continue;
          Result<ExprPtr> next = ApplyBt(t2, site);
          FRO_CHECK(next.ok());
          ++*applications;
          out.push_back(CanonicalOrientation(*next));
        }
      }
    }
  }
  return out;
}

size_t FingerprintClosure(const ExprPtr& start, uint64_t* applications) {
  std::unordered_set<std::string> seen;
  std::deque<ExprPtr> queue;
  ExprPtr canonical_start = CanonicalOrientation(start);
  seen.insert(canonical_start->Fingerprint());
  queue.push_back(canonical_start);
  while (!queue.empty()) {
    ExprPtr tree = queue.front();
    queue.pop_front();
    for (const ExprPtr& next : FingerprintNeighbors(tree, applications)) {
      if (seen.insert(next->Fingerprint()).second) queue.push_back(next);
    }
  }
  return seen.size();
}

// ---------------------------------------------------------------------

Row BenchClosureFingerprint(const ExprPtr& start, int n, int reps) {
  int64_t best = -1;
  uint64_t applications = 0;
  size_t states = 0;
  for (int r = 0; r < reps; ++r) {
    uint64_t apps = 0;
    int64_t t0 = NowNs();
    states = FingerprintClosure(start, &apps);
    int64_t dt = NowNs() - t0;
    if (best < 0 || dt < best) best = dt;
    applications = apps;
  }
  return {"closure_fingerprint", n, best, applications, states};
}

Row BenchClosureHash(const ExprPtr& start, int n, int reps, int threads,
                     const char* op) {
  int64_t best = -1;
  ClosureResult result;
  for (int r = 0; r < reps; ++r) {
    ClosureOptions options;
    options.num_threads = threads;
    int64_t t0 = NowNs();
    result = BtClosure(start, options);
    int64_t dt = NowNs() - t0;
    if (best < 0 || dt < best) best = dt;
  }
  FRO_CHECK(!result.truncated);
  return {op, n, best, result.bt_applications, result.trees.size()};
}

Row BenchDp(const Topology& t, const CostModel& model, int n, int reps,
            DpAlgorithm algorithm, const char* op, double* cost_out) {
  int64_t best_dt = -1;
  PlanResult plan;
  DpOptions options;
  options.algorithm = algorithm;
  for (int r = 0; r < reps; ++r) {
    int64_t t0 = NowNs();
    Result<PlanResult> best =
        OptimizeReorderable(t.graph, *t.db, model, /*maximize=*/false,
                            options);
    int64_t dt = NowNs() - t0;
    FRO_CHECK(best.ok());
    plan = *best;
    if (best_dt < 0 || dt < best_dt) best_dt = dt;
  }
  *cost_out = plan.cost;
  return {op, n, best_dt, plan.plans_considered, plan.states_visited};
}

Row BenchProbe(const HashIndex& index, int probes, int reps, bool borrowed,
               const char* op) {
  int64_t best = -1;
  size_t hits = 0;
  std::vector<Value> scratch;
  for (int r = 0; r < reps; ++r) {
    hits = 0;
    int64_t t0 = NowNs();
    for (int i = 0; i < probes; ++i) {
      if (borrowed) {
        scratch.clear();
        scratch.push_back(Value::Int(i));
        hits += index.Probe(scratch.data(), scratch.size()).size();
      } else {
        std::vector<Value> key;
        key.reserve(1);
        key.push_back(Value::Int(i));
        hits += index.Probe(key).size();
      }
    }
    int64_t dt = NowNs() - t0;
    if (best < 0 || dt < best) best = dt;
  }
  return {op, probes, best, 0, hits};
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = smoke ? 1 : 5;
  std::vector<Row> rows;

  // Closure of an 8-node join chain: fingerprint-string dedup (seed
  // replica) vs cached-hash dedup, serial and parallel.
  {
    const int n = smoke ? 6 : 8;
    Topology t = MakeChain(n, /*with_outerjoins=*/false);
    Rng rng(100);
    ExprPtr start = RandomIt(t.graph, *t.db, &rng);
    FRO_CHECK(start != nullptr);
    Row fp = BenchClosureFingerprint(start, n, reps);
    Row hash = BenchClosureHash(start, n, reps, 1, "closure_hash");
    Row par = BenchClosureHash(start, n, reps, 4, "closure_parallel");
    FRO_CHECK_EQ(fp.states_visited, hash.states_visited);
    FRO_CHECK_EQ(fp.states_visited, par.states_visited);
    rows.push_back(fp);
    rows.push_back(hash);
    rows.push_back(par);
  }

  // DP over a 14-node join chain (a nice graph): all-masks submask scan
  // vs DPccp. Chosen costs must agree exactly.
  {
    const int n = smoke ? 10 : 14;
    Topology t = MakeChain(n, /*with_outerjoins=*/false);
    CostModel model(*t.db, CostKind::kCout);
    double cost_all = 0, cost_ccp = 0;
    rows.push_back(BenchDp(t, model, n, reps, DpAlgorithm::kAllMasks,
                           "dp_allmasks", &cost_all));
    rows.push_back(BenchDp(t, model, n, reps, DpAlgorithm::kDpccp,
                           "dp_dpccp", &cost_ccp));
    FRO_CHECK_EQ(cost_all, cost_ccp);
  }

  // Hash-index probes: fresh key vector per probe vs borrowed scratch.
  {
    const int probes = smoke ? 1000 : 100000;
    auto db = MakeExample1Database(probes);
    const Relation& rel = db->relation(db->Rel("R2"));
    HashIndex index(rel, std::vector<AttrId>{db->Attr("R2", "k")});
    rows.push_back(BenchProbe(index, probes, reps, false, "probe_alloc"));
    rows.push_back(BenchProbe(index, probes, reps, true, "probe_borrowed"));
  }

  std::printf("[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("  {\"op\": \"%s\", \"n\": %d, \"wall_ns\": %lld, "
                "\"plans_considered\": %llu, \"states_visited\": %llu}%s\n",
                r.op, r.n, static_cast<long long>(r.wall_ns),
                static_cast<unsigned long long>(r.plans_considered),
                static_cast<unsigned long long>(r.states_visited),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("]\n");
  return 0;
}

}  // namespace
}  // namespace fro

int main(int argc, char** argv) { return fro::Main(argc, argv); }
