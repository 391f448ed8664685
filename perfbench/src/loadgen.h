// The load generator: one thread that issues operations and observes their
// completion. Two shapes:
//
//   * open loop — operation i is due at start + i / rate whatever happened
//     before it; latency runs from the due time, so a stall is charged to
//     every request it delays, and lateness records how far behind the
//     generator itself fell;
//   * closed loop — a fixed window of operations stays outstanding; each
//     completion releases the next. Completions per second are counted in
//     short slices of the window.
//
// A run alternates the two in rounds (drive_rounds), so that the latency
// and the throughput figures both sample the whole run: this host's speed
// drifts by a quarter over tens of seconds, and a figure taken from one
// stretch of the run would inherit that stretch's speed.
//
// Asynchronous operations return a future the generator polls between due
// times (it never blocks on one, so a slow request cannot delay the
// schedule). Synchronous operations (a cold boot) run on the generator
// thread and report their own latency.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <vector>

#include "common.h"

namespace perfbench {

// What the generator saw of one asynchronous operation.
struct OpTiming {
  SteadyClock::time_point due;
  SteadyClock::time_point submit_begin;
  SteadyClock::time_point submit_end;
  SteadyClock::time_point resolved;
};

// Closed-loop slice length (phases shorter than two slices form one
// slice): throughput is the median slice's, so a burst of interference from
// outside the process moves one slice, not the figure.
inline constexpr double kSliceSeconds = 0.25;
// Open/closed rounds per run.
inline constexpr int kRounds = 5;

struct PhaseStats {
  std::vector<double> latency_ms;   // due -> resolved, one per operation
  std::vector<double> late_ms;      // issue - due (open loop only)
  std::vector<double> slice_rates;  // closed loop: completions/s per slice

  double throughput() const { return median(slice_rates); }

  void append(const PhaseStats& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
    slice_rates.insert(slice_rates.end(), other.slice_rates.begin(),
                       other.slice_rates.end());
  }
};

namespace detail {

template <class Result>
struct Pending {
  std::uint64_t op = 0;
  std::future<Result> future;
  OpTiming timing;
};

// Completions per slice of a closed-loop window that starts at `start`.
class SliceCounter {
 public:
  SliceCounter(SteadyClock::time_point start, double seconds)
      : start_(start),
        counts_(std::max<std::size_t>(
                    1, static_cast<std::size_t>(seconds / kSliceSeconds)),
                0.0),
        slice_s_(seconds / static_cast<double>(counts_.size())) {}

  void count(SteadyClock::time_point t) {
    const double at = ms_between(start_, t) / 1000.0 / slice_s_;
    if (at >= 0.0 && at < static_cast<double>(counts_.size())) {
      counts_[static_cast<std::size_t>(at)] += 1.0;
    }
  }
  void rates_into(std::vector<double>& out) const {
    for (const double c : counts_) {
      out.push_back(c / slice_s_);
    }
  }

 private:
  SteadyClock::time_point start_;
  std::vector<double> counts_;
  double slice_s_;
};

// Resolves every ready future, keeping the rest in issue order.
template <class Result, class Complete>
void poll(std::vector<Pending<Result>>& pending, PhaseStats& stats,
          Complete& complete, SliceCounter* slices) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    Pending<Result>& p = pending[i];
    if (p.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      if (kept != i) {
        pending[kept] = std::move(p);
      }
      ++kept;
      continue;
    }
    p.timing.resolved = SteadyClock::now();
    if (slices != nullptr) {
      slices->count(p.timing.resolved);
    }
    stats.latency_ms.push_back(ms_between(p.timing.due, p.timing.resolved));
    complete(p.op, p.future.get(), p.timing);
  }
  pending.resize(kept);
}

template <class Result, class Submit>
void issue(std::vector<Pending<Result>>& pending, std::uint64_t& next_op,
           SteadyClock::time_point due, Submit& submit, PhaseStats& stats) {
  Pending<Result> p;
  p.op = next_op++;
  p.timing.due = due;
  p.timing.submit_begin = SteadyClock::now();
  p.future = submit(p.op);
  p.timing.submit_end = SteadyClock::now();
  stats.late_ms.push_back(ms_between(due, p.timing.submit_begin));
  pending.push_back(std::move(p));
}

inline SteadyClock::duration seconds_to_duration(double seconds) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace detail

// Open loop at `rate` operations per second for `seconds`, then waits for
// every outstanding operation. `submit(op)` returns a future; `complete(op,
// result, timing)` sees each result once, in completion order.
template <class Result, class Submit, class Complete>
PhaseStats drive_open(double rate, double seconds, std::uint64_t& next_op,
                      Submit& submit, Complete& complete) {
  PhaseStats stats;
  std::vector<detail::Pending<Result>> pending;
  const auto period = detail::seconds_to_duration(1.0 / rate);
  const auto start = SteadyClock::now() + std::chrono::milliseconds(1);
  const auto end = start + detail::seconds_to_duration(seconds);
  for (std::int64_t k = 0;; ++k) {
    const auto due = start + period * k;
    if (due >= end) {
      break;
    }
    while (SteadyClock::now() < due) {
      detail::poll(pending, stats, complete, nullptr);
    }
    detail::issue(pending, next_op, due, submit, stats);
  }
  while (!pending.empty()) {
    detail::poll(pending, stats, complete, nullptr);
  }
  return stats;
}

// Closed loop with `window` operations outstanding for `seconds`; the
// operations still outstanding at the end are drained and checked but not
// counted in the throughput.
template <class Result, class Submit, class Complete>
PhaseStats drive_closed(int window, double seconds, std::uint64_t& next_op,
                        Submit& submit, Complete& complete) {
  PhaseStats stats;
  std::vector<detail::Pending<Result>> pending;
  const auto start = SteadyClock::now();
  const auto end = start + detail::seconds_to_duration(seconds);
  detail::SliceCounter slices(start, seconds);
  while (SteadyClock::now() < end) {
    while (pending.size() < static_cast<std::size_t>(window)) {
      detail::issue(pending, next_op, SteadyClock::now(), submit, stats);
    }
    detail::poll(pending, stats, complete, &slices);
  }
  while (!pending.empty()) {
    detail::poll(pending, stats, complete, nullptr);
  }
  stats.late_ms.clear();  // a closed loop has no schedule to fall behind
  slices.rates_into(stats.slice_rates);
  return stats;
}

// Synchronous operations: `op(index)` runs to completion on this thread
// and returns its own latency in ms.
template <class Op>
PhaseStats drive_open_sync(double rate, double seconds, std::uint64_t& next_op,
                           Op& op) {
  PhaseStats stats;
  const auto period = detail::seconds_to_duration(1.0 / rate);
  const auto start = SteadyClock::now() + std::chrono::milliseconds(1);
  const auto end = start + detail::seconds_to_duration(seconds);
  for (std::int64_t k = 0;; ++k) {
    const auto due = start + period * k;
    if (due >= end) {
      break;
    }
    while (SteadyClock::now() < due) {
    }
    stats.late_ms.push_back(ms_between(due, SteadyClock::now()));
    stats.latency_ms.push_back(op(next_op++));
  }
  return stats;
}

template <class Op>
PhaseStats drive_closed_sync(double seconds, std::uint64_t& next_op, Op& op) {
  PhaseStats stats;
  const auto start = SteadyClock::now();
  const auto end = start + detail::seconds_to_duration(seconds);
  detail::SliceCounter slices(start, seconds);
  while (SteadyClock::now() < end) {
    stats.latency_ms.push_back(op(next_op++));
    slices.count(SteadyClock::now());
  }
  slices.rates_into(stats.slice_rates);
  return stats;
}

// `seconds` of alternating open and closed phases in kRounds rounds, an
// `open_share` of each round open; `between(i)` runs untimed after round i
// (all but the last). Returns the open phases' and the closed phases'
// figures, each merged over the rounds.
struct RoundStats {
  PhaseStats open;
  PhaseStats closed;
};

template <class OpenPhase, class ClosedPhase, class Between>
RoundStats drive_rounds(double seconds, double open_share, OpenPhase&& open,
                        ClosedPhase&& closed, Between&& between) {
  RoundStats r;
  const double round = seconds / kRounds;
  for (int i = 0; i < kRounds; ++i) {
    r.open.append(open(round * open_share));
    r.closed.append(closed(round * (1.0 - open_share)));
    if (i + 1 < kRounds) {
      between(i);
    }
  }
  return r;
}

}  // namespace perfbench
