// The served workloads: Section 5 queries sent over the wire to an
// in-process FroServer.
//
//   serve_hot    the 14 queries of bench_server over the small company
//                database, with the plan cache and AST memo warmed;
//   serve_adhoc  seeded queries over the scaled company schema, with far
//                more distinct texts than the plan cache or the AST memo
//                holds, so parse and the full rewrite pipeline run on
//                nearly every request.

#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "layers.h"
#include "report.h"

namespace perfbench {

/// Scale of MakeScaledCompanyNestedDb behind serve_adhoc.
constexpr int kAdhocScale = 8;
/// Distinct texts generated per run for serve_adhoc.
constexpr size_t kAdhocPoolSize = 2048;

/// The 14 Section 5 queries of the hot workload.
const std::vector<std::string>& HotQueries();

/// One seeded Section 5 query over the scaled company schema: 2 to 9
/// tuple variables, `*` and `-->` chains, random constants, From items
/// connected by equi-joins on D#.
std::string GenerateAdhocQuery(fro::Rng* rng, int scale);

/// `count` distinct queries drawn from `seed` (fewer if the generator
/// repeats itself too often).
std::vector<std::string> GenerateAdhocQueries(uint64_t seed, size_t count,
                                              int scale);

/// Runs serve_hot or serve_adhoc.
RunResult RunServe(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
