// Shared pieces of the serving-stack benchmark: run options, the metric
// sheet every workload fills, sample statistics, the in-memory span tracer
// and the host tag.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ondevice/clock.h"

namespace perfbench {

using memcom::SteadyClock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for the generated .mcm files and the span dump.
  std::string workdir;
};

// One named figure with its unit, printed in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload hands back to main(): its end-to-end sheet, its
// per-layer sheet (filled only by traced runs), the operation counts and
// human-readable notes printed ahead of the JSON line.
struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Set when a check of the checks (a corrupted answer that must be
  // rejected) did not reject: the verdicts of this run cannot be trusted.
  bool checks_broken = false;
  std::vector<std::string> notes;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
};

inline double ms_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

// The highest percentile of the ladder p50, p90, p99, p99.9, p99.99 that
// still leaves at least ten samples beyond it — the deepest tail the
// sample supports. Empty label when fewer than forty samples exist.
struct Tail {
  std::string label;
  double value = 0.0;
  std::size_t beyond = 0;
};
Tail supported_tail(const std::vector<double>& samples);

// Spans kept in memory and written out when the run ends. A span names the
// layer call it wraps, the request it belongs to (0 when none) and its
// parent span (0 for a root).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1 << 20);
    }
  }
  bool enabled() const { return enabled_; }

  // Records [start, end) and returns the new span's id (0 when disabled).
  std::uint64_t record(const char* name, std::uint64_t request,
                       std::uint64_t parent, SteadyClock::time_point start,
                       SteadyClock::time_point end);

  // Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;

  // Writes one JSON object per span; returns false when the file could not
  // be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t request;
    std::uint64_t parent;
    SteadyClock::time_point start;
    SteadyClock::time_point end;
  };
  bool enabled_;
  std::vector<Span> spans_;
  SteadyClock::time_point origin_ = SteadyClock::now();
};

// Times `fn` and records it as a span when tracing; returns the duration.
template <class Fn>
double timed_span(Tracer& tracer, const char* name, Fn&& fn) {
  const auto t0 = SteadyClock::now();
  fn();
  const auto t1 = SteadyClock::now();
  tracer.record(name, 0, 0, t0, t1);
  return ms_between(t0, t1);
}

// CPU time counters of the whole host from /proc/stat, for the steal
// share over a run (zeros where the file is unreadable).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool valid = false;
};
CpuTimes read_cpu_times();

// "arch=... hardware_threads=... kernels=... steal=..." for the run log.
std::string host_tag(const CpuTimes& begin, const CpuTimes& end);

}  // namespace perfbench
