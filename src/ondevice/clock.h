// Shared steady-clock timing helpers for the on-device latency paths. Every
// reported millisecond figure (ExecutionContext forward timings, serving
// wall clock) must come from this one clock source, and every latency
// distribution from latency_stats_from_samples, so they stay comparable.
#pragma once

#include <chrono>
#include <vector>

namespace memcom {

using SteadyClock = std::chrono::steady_clock;

inline double elapsed_ms(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

struct LatencyStats {
  double mean_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  int runs = 0;
};

// Nearest-rank percentiles + min/mean/max over per-run samples. Consumes the
// sample vector (sorts in place). The rank is computed with exact integer
// math (ceil(p*n/100) as (p*n+99)/100), so p95 of exactly 20 samples is the
// 19th sample — not the max, which the naive double ceil() produces. Empty
// input yields all-zero stats with runs == 0.
LatencyStats latency_stats_from_samples(std::vector<double> samples_ms);

}  // namespace memcom
