#include "bench/workload/runner.h"

#include <cstdio>

namespace stacktrack::bench::workload {

LatencySummary Summarize(const LatencyHistogram& histogram) {
  LatencySummary summary;
  summary.count = histogram.count();
  summary.p50_ns = histogram.Percentile(50.0);
  summary.p99_ns = histogram.Percentile(99.0);
  summary.p999_ns = histogram.Percentile(99.9);
  summary.max_ns = histogram.max();
  summary.mean_ns = histogram.mean();
  return summary;
}

std::string LatencyToJson(const LatencyHistogram& histogram) {
  const LatencySummary s = Summarize(histogram);
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"count\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu,\"p999_ns\":%llu,"
                "\"max_ns\":%llu,\"mean_ns\":%.1f}",
                static_cast<unsigned long long>(s.count),
                static_cast<unsigned long long>(s.p50_ns),
                static_cast<unsigned long long>(s.p99_ns),
                static_cast<unsigned long long>(s.p999_ns),
                static_cast<unsigned long long>(s.max_ns), s.mean_ns);
  return buffer;
}

core::Stats StatsDelta(const core::Stats& before, const core::Stats& after) {
  core::Stats delta = after;
  delta -= before;
  return delta;
}

}  // namespace stacktrack::bench::workload
