#include "ondevice/clock.h"

#include <algorithm>

namespace memcom {

namespace {
double percentile(const std::vector<double>& sorted, std::size_t percent) {
  if (sorted.empty()) {
    return 0.0;
  }
  // Nearest-rank: the smallest sample with at least percent% of samples
  // <= it. Computed in exact integer arithmetic — the float version
  // (ceil(p/100.0 * n)) rounds 0.95*20 up to 19.000000000000004, whose
  // ceil is 20, silently returning the max instead of the 19th sample
  // whenever p*n lands on an inexact double (test_engine pins this).
  const std::size_t n = sorted.size();
  const std::size_t rank = (percent * n + 99) / 100;  // ceil(percent*n/100)
  const std::size_t idx = rank > 0 ? rank - 1 : 0;
  return sorted[std::min(idx, n - 1)];
}
}  // namespace

LatencyStats latency_stats_from_samples(std::vector<double> samples_ms) {
  LatencyStats stats;
  stats.runs = static_cast<int>(samples_ms.size());
  if (samples_ms.empty()) {
    return stats;
  }
  std::sort(samples_ms.begin(), samples_ms.end());
  stats.min_ms = samples_ms.front();
  stats.max_ms = samples_ms.back();
  double total = 0.0;
  for (const double s : samples_ms) {
    total += s;
  }
  stats.mean_ms = total / static_cast<double>(samples_ms.size());
  stats.p50_ms = percentile(samples_ms, 50);
  stats.p95_ms = percentile(samples_ms, 95);
  stats.p99_ms = percentile(samples_ms, 99);
  return stats;
}

}  // namespace memcom
