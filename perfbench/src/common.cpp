#include "common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "ondevice/kernels.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (rank >= n) {
    rank = n - 1;
  }
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

Tail supported_tail(const std::vector<double>& samples) {
  Tail tail;
  const double n = static_cast<double>(samples.size());
  if (samples.size() < 40) {
    return tail;
  }
  const struct {
    const char* label;
    double q;
  } ladder[] = {{"p99.99", 0.9999}, {"p99.9", 0.999}, {"p99", 0.99},
                {"p90", 0.9},       {"p50", 0.5}};
  for (const auto& rung : ladder) {
    const double beyond = n * (1.0 - rung.q);
    if (beyond >= 10.0) {
      tail.label = rung.label;
      tail.value = quantile(samples, rung.q);
      tail.beyond = static_cast<std::size_t>(beyond);
      return tail;
    }
  }
  return tail;
}

std::uint64_t Tracer::record(const char* name, std::uint64_t request,
                             std::uint64_t parent,
                             SteadyClock::time_point start,
                             SteadyClock::time_point end) {
  if (!enabled_) {
    return 0;
  }
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, request, parent, start, end});
  return id;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(ms_between(s.start, s.end));
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  const auto us = [&](SteadyClock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"start_us\":" << us(s.start) << ",\"end_us\":" << us(s.end)
        << "}\n";
  }
  return static_cast<bool>(out);
}

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") {
    return t;
  }
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t field[8] = {};
  for (std::uint64_t& f : field) {
    if (!(in >> f)) {
      return t;
    }
  }
  t.total = std::accumulate(std::begin(field), std::end(field), std::uint64_t{0});
  t.steal = field[7];
  t.valid = true;
  return t;
}

std::string host_tag(const CpuTimes& begin, const CpuTimes& end) {
  std::ostringstream s;
#if defined(__x86_64__)
  s << "arch=x86_64";
#elif defined(__aarch64__)
  s << "arch=aarch64";
#else
  s << "arch=other";
#endif
  s << " hardware_threads=" << std::thread::hardware_concurrency()
    << " kernels=" << memcom::select_kernels().name << " steal=";
  if (begin.valid && end.valid && end.total > begin.total) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f",
                  static_cast<double>(end.steal - begin.steal) /
                      static_cast<double>(end.total - begin.total));
    s << buf;
  } else {
    s << "unavailable";
  }
  return s.str();
}

}  // namespace perfbench
