// Statistics, host fingerprint and result printing for bench_resinfer.
#ifndef RESBENCH_REPORT_H_
#define RESBENCH_REPORT_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "linalg/vector_ops.h"

namespace resbench {

// Median of per-pass, per-window or per-rep samples; 0 when there are
// none. Latency percentiles come from resinfer::Histogram instead, in the
// closed and the open loop alike.
inline double Median(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : resinfer::linalg::EmpiricalQuantile(values, 0.5);
}

inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A field of /proc/self/status in MiB ("VmHWM", "VmRSS"); 0 if absent.
inline double ProcStatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

// The metrics of one run, printed once as human-readable lines and once as
// the final JSON object the benchmark contract asks for.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples) {
    metrics_.push_back(
        {name, std::isfinite(value) ? value : 0.0, unit, samples});
  }

  void PrintLines() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-32s %.6g %s (n=%lld)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    }
  }

  void PrintJson(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace resbench

#endif  // RESBENCH_REPORT_H_
