// fro_fuzz: differential + metamorphic fuzzing driver.
//
// Modes:
//   fro_fuzz --seed S --cases N        fuzz N flat-algebra cases derived
//                                      from master seed S (the default)
//   fro_fuzz --case-seed X             run exactly one case seed
//   fro_fuzz --replay FILE             replay a tests/corpus/*.case file
//   fro_fuzz --nested N [--server]     N full-stack Section 5 cases
//                                      (parser -> session) held to the
//                                      unoptimized implementing tree,
//                                      optionally round-tripped through
//                                      a live TCP server
//
// Every failing case prints its case seed (replayable with --case-seed),
// is shrunk to a minimal repro (disable with --no-shrink), and — when
// --corpus-out DIR is given — written as a .case file for check-in.
// Exit status: 0 when every case is divergence-free, 1 otherwise.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "fuzz/case_gen.h"
#include "fuzz/corpus.h"
#include "fuzz/differential.h"
#include "fuzz/shrink.h"
#include "lang/lang.h"
#include "relational/pretty.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session.h"
#include "testing/nested_gen.h"

namespace fro {
namespace {

struct FuzzArgs {
  uint64_t seed = 1;
  int cases = 100;
  bool have_case_seed = false;
  uint64_t case_seed = 0;
  double time_budget_s = 0;  // 0 = unlimited
  FuzzProfile profile = FuzzProfile::kNumProfiles;
  bool shrink = true;
  std::string corpus_out;
  std::string replay;
  int nested = 0;
  bool server = false;
  int max_failures = 5;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: fro_fuzz [--seed S] [--cases N] [--case-seed X]\n"
      "                [--time-budget-s T] [--profile NAME] [--no-shrink]\n"
      "                [--corpus-out DIR] [--replay FILE]\n"
      "                [--nested N] [--server] [--max-failures K]\n");
}

bool ParseArgs(int argc, char** argv, FuzzArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--cases") {
      const char* v = next();
      if (v == nullptr) return false;
      args->cases = std::atoi(v);
    } else if (arg == "--case-seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->have_case_seed = true;
      args->case_seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--time-budget-s") {
      const char* v = next();
      if (v == nullptr) return false;
      args->time_budget_s = std::atof(v);
    } else if (arg == "--profile") {
      const char* v = next();
      if (v == nullptr) return false;
      args->profile = FuzzProfileFromName(v);
      if (args->profile == FuzzProfile::kNumProfiles) {
        std::fprintf(stderr, "unknown profile '%s'\n", v);
        return false;
      }
    } else if (arg == "--no-shrink") {
      args->shrink = false;
    } else if (arg == "--corpus-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->corpus_out = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return false;
      args->replay = v;
    } else if (arg == "--nested") {
      const char* v = next();
      if (v == nullptr) return false;
      args->nested = std::atoi(v);
    } else if (arg == "--server") {
      args->server = true;
    } else if (arg == "--max-failures") {
      const char* v = next();
      if (v == nullptr) return false;
      args->max_failures = std::atoi(v);
    } else {
      Usage();
      return false;
    }
  }
  return true;
}

// Prints a failing case: the report, the shrunken repro, and (when
// requested) the corpus file written.
void ReportFailure(const FuzzCase& fuzz_case, const DiffReport& report,
                   const FuzzArgs& args) {
  std::printf("FAIL case-seed 0x%llx profile %s\n%s\n",
              static_cast<unsigned long long>(fuzz_case.seed),
              FuzzProfileName(fuzz_case.profile),
              report.ToString().c_str());
  const std::string& check = report.divergences.front().check;
  const FuzzCase* repro = &fuzz_case;
  FuzzCase shrunk;
  if (args.shrink) {
    ShrinkStats stats;
    shrunk = ShrinkCase(fuzz_case, check, DiffOptions(), &stats);
    repro = &shrunk;
    std::printf(
        "shrunk for [%s] to %zu tuple(s) (%d reductions, %d evals):\n%s\n",
        check.c_str(), CaseTupleCount(shrunk), stats.accepted_reductions,
        stats.property_evaluations, CorpusCaseToText(shrunk, check).c_str());
  }
  if (!args.corpus_out.empty()) {
    Result<std::string> path = SaveCorpusCase(*repro, check, args.corpus_out);
    if (path.ok()) {
      std::printf("repro written to %s\n", path->c_str());
    } else {
      std::printf("corpus write failed: %s\n",
                  path.status().ToString().c_str());
    }
  }
}

int RunReplay(const FuzzArgs& args) {
  Result<CorpusCase> loaded = LoadCorpusCase(args.replay);
  if (!loaded.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 loaded.status().ToString().c_str());
    return 2;
  }
  DiffReport report = RunDifferential(loaded->fuzz_case);
  std::printf("%s: %s\n", args.replay.c_str(), report.ToString().c_str());
  return report.ok() ? 0 : 1;
}

// The part of a QUERY response body that does not depend on the plan:
// the canonical table and the row count, up to the plan notes.
std::string CanonicalResultPrefix(const QueryRunResult& run) {
  PrettyOptions pretty;
  pretty.canonical = true;
  pretty.max_rows = static_cast<size_t>(-1);
  return PrettyTable(run.relation, &run.translation.db->catalog(), pretty) +
         "(" + std::to_string(run.relation.NumRows()) + " rows; ";
}

// Full-stack Section 5 cases: the optimizing session's answer must equal
// the translator's implementing tree executed as is (no reordering);
// with --server it must also round-trip unchanged through a live TCP
// server.
int RunNestedCases(const FuzzArgs& args) {
  int failures = 0;
  for (int i = 0; i < args.nested; ++i) {
    const uint64_t case_seed = DeriveSeed(args.seed ^ 0x6e657374, i);
    Rng rng(case_seed);
    RandomNestedOptions gen_options;
    GeneratedNestedQuery generated =
        GenerateRandomNestedQuery(gen_options, &rng);

    QuerySession session(&generated.db, nullptr, nullptr);
    Request request;
    request.verb = Verb::kQuery;
    request.argument = generated.query_text;
    Response response = session.Execute(request, nullptr);
    Result<QueryRunResult> reference =
        RunQuery(generated.db, generated.query_text,
                 RunOptions().WithOptimize(false));
    const std::string want =
        reference.ok() ? CanonicalResultPrefix(*reference) : "";
    bool diverged = false;
    if (response.status.ok() != reference.ok() ||
        response.body.compare(0, want.size(), want) != 0) {
      std::printf(
          "FAIL nested-seed 0x%llx optimized session disagrees with the "
          "unoptimized tree\nquery: %s\nsession: %s\nreference: %s\n",
          static_cast<unsigned long long>(case_seed),
          generated.query_text.c_str(),
          response.status.ok() ? response.body.c_str()
                               : response.status.ToString().c_str(),
          reference.ok() ? want.c_str()
                         : reference.status().ToString().c_str());
      diverged = true;
    }
    if (args.server && !diverged) {
      FroServer server(&generated.db, ServerOptions());
      Status started = server.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     started.ToString().c_str());
        return 2;
      }
      FroClient client;
      Status connected = client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        std::fprintf(stderr, "connect failed: %s\n",
                     connected.ToString().c_str());
        server.Stop();
        return 2;
      }
      Result<Response> remote = client.Query(generated.query_text);
      if (!remote.ok() || remote->status.ok() != response.status.ok() ||
          remote->body != response.body) {
        std::printf(
            "FAIL nested-seed 0x%llx server round-trip disagrees\n"
            "query: %s\nlocal: %s\nserver: %s\n",
            static_cast<unsigned long long>(case_seed),
            generated.query_text.c_str(), response.body.c_str(),
            remote.ok() ? remote->body.c_str() : "<transport error>");
        diverged = true;
      }
      server.Stop();
    }
    if (diverged && ++failures >= args.max_failures) break;
  }
  std::printf("nested: %d case(s), %d failure(s)\n", args.nested, failures);
  return failures == 0 ? 0 : 1;
}

int RunFlatCases(const FuzzArgs& args) {
  const auto start = std::chrono::steady_clock::now();
  auto out_of_budget = [&]() {
    if (args.time_budget_s <= 0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= args.time_budget_s;
  };

  int failures = 0;
  int ran = 0;
  uint64_t checks = 0;
  uint64_t left_builds = 0;
  const int total = args.have_case_seed ? 1 : args.cases;
  for (int i = 0; i < total; ++i) {
    if (out_of_budget()) break;
    const uint64_t case_seed =
        args.have_case_seed ? args.case_seed : DeriveSeed(args.seed, i);
    FuzzCase fuzz_case = GenerateFuzzCase(case_seed, args.profile);
    DiffReport report = RunDifferential(fuzz_case);
    ++ran;
    checks += report.checks_run;
    left_builds += report.hash_left_builds;
    if (!report.ok()) {
      ReportFailure(fuzz_case, report, args);
      if (++failures >= args.max_failures) {
        std::printf("stopping after %d failure(s)\n", failures);
        break;
      }
    }
    if (ran % 100 == 0) {
      std::printf("... %d/%d cases, %llu checks, %d failure(s)\n", ran,
                  total, static_cast<unsigned long long>(checks), failures);
      std::fflush(stdout);
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::printf(
      "flat: %d case(s), %llu checks, %d failure(s) in %.1fs (seed 0x%llx)\n",
      ran, static_cast<unsigned long long>(checks), failures,
      elapsed.count(), static_cast<unsigned long long>(args.seed));
  std::printf("hash-join left builds: %llu\n",
              static_cast<unsigned long long>(left_builds));
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  FuzzArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (!args.replay.empty()) return RunReplay(args);
  int status = 0;
  if (args.cases > 0 || args.have_case_seed) {
    status = RunFlatCases(args);
  }
  if (args.nested > 0) {
    const int nested_status = RunNestedCases(args);
    if (status == 0) status = nested_status;
  }
  return status;
}

}  // namespace
}  // namespace fro

int main(int argc, char** argv) { return fro::Main(argc, argv); }
