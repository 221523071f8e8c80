// The differential driver: runs one fuzz case through every execution
// and rewrite pipeline the library has and compares each against the
// brute-force oracle (fuzz/oracle.h).
//
// Result checks (bag equality against the oracle):
//   eval-nl / eval-hash    the materializing evaluator, both kernels
//   batch-engine[-capN]    the pipelined batch executor at the default
//                          capacity and at 1, 2 and 3 tuples per batch
//                          (the tiny ones move batch boundaries inside
//                          join matches and let the hash join's
//                          build-side flip engage on fuzz-sized
//                          relations)
//   parallel-engine-wN     the morsel-driven parallel pipeline at N
//                          workers (tiny morsels force real splitting)
//   wcoj-*                 forced multiway plans (every pure-join region
//                          collapsed to a leapfrog join) through the
//                          evaluator, the batch executor at capacities
//                          1024/1/3 and the parallel pipeline
//   acyclic-*              forced Yannakakis semijoin programs (every
//                          acyclic pure-join region fully reduced,
//                          bottom-up + top-down, no gates), likewise
//   optimizer[-batch[-cap1]]  the plan Optimize() picks, through the
//                          evaluator and the batch executor
//   plan-cache             a second Optimize through an LruPlanCache must
//                          hit and replay an equal-result plan
//   feedback-replan        one closed feedback loop (optimizer/feedback.h):
//                          plan, execute, persist actuals, report Q-error
//                          past the staleness threshold — the next lookup
//                          must claim exactly one re-plan
//   feedback-replay        and the lookup after that must replay the
//                          re-planned entry from cache (no thrash)
//   feedback-batch[-cap1]  the feedback-corrected re-plan ≡ oracle
//                          (feedback steers plan choice only, never
//                          results)
//   feedback-parallel-wN   ... and on the parallel pipeline at N workers,
//                          with serial-batch counter parity
//                          (feedback-parallel-stats-parity-wN)
//   closure                every implementing tree in the result-
//                          preserving BT closure (size-capped)
//   it-enum                on freely-reorderable graphs, every
//                          implementing tree (count-capped) — Theorem 1
//
// Counter parity (ExecStats totals: reads, emitted, probes, predicate
// evaluations), each with a `-results` companion comparing the two runs'
// results:
//   stats-parity           the batch pipeline must report exactly the
//                          materializing evaluator's kernel totals
//   acyclic-stats-parity   likewise for the forced semijoin program
//   wcoj-stats-parity      the forced multiway plan at capacity 1 must
//                          report the default capacity's totals (the
//                          evaluator prices a multiway node as a cross
//                          product, so it is no reference there)
//   parallel-stats-parity-wN  the N-worker parallel pipeline must report
//                          exactly the serial batch engine's totals
//
// Metamorphic checks (transform the *query*, re-run the oracle, compare
// with the oracle on the original):
//   bt:<rule>              every applicable result-preserving basic
//                          transform (Section 3.2)
//   simplify               the Section 4 outerjoin-to-join rule
//   goj-rewrite            Section 6.2 left-deepening (identities 15/16),
//                          gated on duplicate-free base relations — the
//                          identities' stated precondition
//   canonical-orientation  reversal normalization
//
// Each divergence carries the check name and a canonical rendering of
// expected vs. actual, so a failing case is diagnosable from the report
// alone; fuzz/shrink.h re-runs a single named check while minimizing.

#ifndef FRO_FUZZ_DIFFERENTIAL_H_
#define FRO_FUZZ_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/case_gen.h"

namespace fro {

struct DiffOptions {
  /// Cap on closure states explored / trees evaluated per case.
  size_t max_closure_trees = 32;
  /// Cap on enumerated implementing trees per freely-reorderable case.
  size_t max_enum_trees = 16;
  /// Cap on metamorphic BT sites exercised per case.
  size_t max_bt_sites = 12;
  /// Run the (oracle-squared cost) metamorphic checks.
  bool metamorphic = true;
  /// Exercise plan-cache replay.
  bool plan_cache = true;
  /// Exercise the cardinality-feedback loop (execute, persist actuals,
  /// re-plan, verify the corrected plan on every engine).
  bool feedback = true;
};

struct Divergence {
  std::string check;
  std::string detail;
};

struct DiffReport {
  std::vector<Divergence> divergences;
  uint64_t checks_run = 0;
  /// Hash joins in the batch-engine-cap1/2/3 runs that hashed their
  /// left input (the build-side flip) — how often the oracle covered it.
  uint64_t hash_left_builds = 0;

  bool ok() const { return divergences.empty(); }
  std::string ToString() const;
};

/// Runs every pipeline over `fuzz_case` and returns the divergences.
DiffReport RunDifferential(const FuzzCase& fuzz_case,
                           const DiffOptions& options = DiffOptions());

/// Re-runs only the named check (a Divergence::check value; "bt:*"
/// prefixes match any basic-transform site). True if the check still
/// diverges — the shrinker's predicate.
bool CheckStillDiverges(const FuzzCase& fuzz_case, const std::string& check,
                        const DiffOptions& options = DiffOptions());

}  // namespace fro

#endif  // FRO_FUZZ_DIFFERENTIAL_H_
