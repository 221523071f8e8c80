// The analytic workloads: a library caller plans and runs a fixed mix of
// four outerjoin-bearing queries over a seeded relational database whose
// hash-join build sides exceed a 2 MiB per-core L2.
//
//   analytic_serial    the mix at one worker thread;
//   analytic_parallel  the same mix at nproc morsel-driven workers.
//
// The traced run of either also drains the same plans serially and at
// nproc workers, which gives exec/morsel's speedup.

#ifndef PERFBENCH_ANALYTIC_H_
#define PERFBENCH_ANALYTIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "layers.h"
#include "relational/database.h"
#include "report.h"

namespace perfbench {

struct MixQuery {
  const char* name;
  /// The query as written; its unoptimized tree is the reference.
  fro::ExprPtr query;
};

struct AnalyticData {
  fro::Database db;
  std::vector<MixQuery> mix;
};

/// Builds the database and the four-query mix from `seed`. `scale`
/// multiplies every relation's size (1 is the benchmark's size; tests
/// use a small fraction).
void BuildAnalyticData(uint64_t seed, double scale, AnalyticData* out);

/// Runs analytic_serial or analytic_parallel.
RunResult RunAnalytic(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_ANALYTIC_H_
