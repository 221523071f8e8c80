// The benchmark's output: metrics with units and sample counts, the
// host fingerprint that decides which runs may be compared, and the two
// JSON lines every run prints (a full record, then the result line).

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples the value was computed from.
  uint64_t samples = 0;
};

/// Absolute numbers compare only between runs with equal fingerprints.
struct HostFingerprint {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  bool simd = false;
  /// Commit id, or a digest of the sources when built outside git.
  std::string commit;
};

HostFingerprint CurrentHost(const std::string& commit);

/// Starts a new peak of the resident set: returns freed heap memory to
/// the system, then resets the kernel's high-water mark of this process
/// to its current resident set. False when the kernel refuses the reset;
/// PeakRssMb then keeps counting from the start of the process.
bool ResetPeakRss();

/// Peak resident set size of this process since the last ResetPeakRss,
/// in MiB.
double PeakRssMb();

/// One workload run's outcome.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  /// Failed, refused or wrong results.
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra record fields: key -> JSON value text.
  std::vector<std::pair<std::string, std::string>> details;

  void Add(std::string name, double value, std::string unit,
           uint64_t samples) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples});
  }
  void Detail(std::string key, std::string json_value) {
    details.emplace_back(std::move(key), std::move(json_value));
  }
};

/// JSON rendering of a number with all its digits (0 for NaN/inf).
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

/// Writes the full record (workload, seed, host, every metric with its
/// sample count, error rate, details) to `record_path` when non-empty
/// and as one line to stdout, then prints the result line
/// {"correct", "attempted", "failed", "metrics"} as the last line.
void PrintResult(const RunResult& result, const std::string& workload,
                 uint64_t seed, bool trace, const HostFingerprint& host,
                 const std::string& record_path);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
