#include "report.h"

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {

HostFingerprint CurrentHost(const std::string& commit) {
  HostFingerprint host;
  host.nproc = std::thread::hardware_concurrency();
#ifdef __clang__
  host.compiler = std::string("clang ") + __clang_version__;
#else
  host.compiler = std::string("gcc ") + __VERSION__;
#endif
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.simd = PERFBENCH_SIMD != 0;
  host.commit = commit.empty() ? "unknown" : commit;
  return host;
}

bool ResetPeakRss() {
  malloc_trim(0);
  // Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
  FILE* clear = std::fopen("/proc/self/clear_refs", "w");
  if (clear == nullptr) return false;
  const bool written = std::fputs("5", clear) >= 0;
  return std::fclose(clear) == 0 && written;
}

double PeakRssMb() {
  if (FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kib = std::strtol(line + 6, nullptr, 10);
        break;
      }
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintResult(const RunResult& result, const std::string& workload,
                 uint64_t seed, bool trace, const HostFingerprint& host,
                 const std::string& record_path) {
  const double error_rate =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::string record = "{\"workload\": " + JsonString(workload) +
                       ", \"seed\": " + std::to_string(seed) +
                       ", \"trace\": " + (trace ? "true" : "false") +
                       ", \"host\": {\"nproc\": " +
                       std::to_string(host.nproc) +
                       ", \"compiler\": " + JsonString(host.compiler) +
                       ", \"build_type\": " + JsonString(host.build_type) +
                       ", \"FRO_ENABLE_SIMD\": " +
                       (host.simd ? "true" : "false") +
                       ", \"commit\": " + JsonString(host.commit) + "}" +
                       ", \"error_rate\": " + JsonNumber(error_rate) +
                       ", \"metrics\": [";
  std::string metrics_line;
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const std::string sep = i == 0 ? "" : ", ";
    record += sep + "{\"name\": " + JsonString(m.name) +
              ", \"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) +
              ", \"samples\": " + std::to_string(m.samples) + "}";
    metrics_line += sep + JsonString(m.name) + ": {\"value\": " +
                    JsonNumber(m.value) + ", \"unit\": " +
                    JsonString(m.unit) + "}";
  }
  record += "]";
  for (const auto& [key, value] : result.details) {
    record += ", " + JsonString(key) + ": " + value;
  }
  record += "}";

  if (!record_path.empty()) {
    if (FILE* out = std::fopen(record_path.c_str(), "w")) {
      std::fprintf(out, "%s\n", record.c_str());
      std::fclose(out);
    }
  }
  std::printf("{\"record\": %s}\n", record.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics_line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
