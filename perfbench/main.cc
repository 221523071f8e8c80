// fro_perfbench: runs one benchmark workload and prints its record and
// result line (see README.md in this directory).
//
//   fro_perfbench --workload serve_hot --seed 7 --seconds 10 --trace 0
//                 [--out-dir DIR] [--commit ID]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the per-layer metrics, and the spans go to
// DIR/<workload>-<seed>-trace.spans.jsonl.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "analytic.h"
#include "report.h"
#include "serve.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "fro_perfbench: %s\nusage: fro_perfbench --workload "
               "{serve_hot|serve_adhoc|analytic_serial|analytic_parallel} "
               "--seed N --seconds S --trace {0|1} [--out-dir DIR] "
               "[--commit ID]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string out_dir, commit;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::string stem = out_dir.empty()
                               ? ""
                               : out_dir + "/" + config.workload + "-" +
                                     std::to_string(config.seed) +
                                     (config.trace ? "-trace" : "");
  if (config.trace && !stem.empty()) config.spans_path = stem + ".spans.jsonl";

  perfbench::RunResult result;
  if (config.workload == "serve_hot" || config.workload == "serve_adhoc") {
    result = perfbench::RunServe(config);
  } else if (config.workload == "analytic_serial" ||
             config.workload == "analytic_parallel") {
    result = perfbench::RunAnalytic(config);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  perfbench::PrintResult(result, config.workload, config.seed, config.trace,
                         perfbench::CurrentHost(commit),
                         stem.empty() ? "" : stem + ".record.json");
  return 0;
}
