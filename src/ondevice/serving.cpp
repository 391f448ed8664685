#include "ondevice/serving.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/check.h"

namespace memcom {

namespace {
using Clock = SteadyClock;
}  // namespace

ServingHarness::ServingHarness(const MmapModel& model,
                               const DeviceProfile& profile, int threads,
                               std::size_t cache_budget_bytes)
    : ServingHarness(std::make_shared<const CompiledModel>(model), profile,
                     threads, cache_budget_bytes) {}

ServingHarness::ServingHarness(std::shared_ptr<const CompiledModel> compiled,
                               const DeviceProfile& profile, int threads,
                               std::size_t cache_budget_bytes)
    : compiled_(std::move(compiled)) {
  check(compiled_ != nullptr, "serving: null compiled model");
  // A non-positive pool would leave serve() with no one to drain the cursor
  // (and historically made output_dim() dereference an empty worker list).
  check(threads > 0, "serving: thread count must be positive");
  contexts_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    // Every worker shares the ONE plan; only per-thread state is built here.
    contexts_.push_back(std::make_unique<ExecutionContext>(compiled_, profile));
    if (cache_budget_bytes > 0) {
      contexts_.back()->enable_row_cache(cache_budget_bytes);
    }
  }
}

namespace {
// Folds one cache's counters into a fleet total. Each worker owns a private
// slab, so the fleet pays the sum (unlike the shared weight pages, where the
// footprint is the max).
void add_cache(RowCacheStats& total, const RowCacheStats& s) {
  if (!s.enabled) {
    return;
  }
  total.enabled = true;
  total.hits += s.hits;
  total.misses += s.misses;
  total.resident_bytes += s.resident_bytes;
  total.capacity_bytes += s.capacity_bytes;
}

RowCacheStats aggregate_cache_stats(
    const std::vector<std::unique_ptr<ExecutionContext>>& contexts) {
  RowCacheStats total;
  for (const auto& context : contexts) {
    add_cache(total, context->row_cache_stats());
  }
  return total;
}

// A drain's report must cover THAT drain: hit/miss counters are lifetime
// totals per context, so subtract the pre-drain snapshot (resident/capacity
// stay absolute — they describe the slab, not the traffic).
RowCacheStats cache_stats_delta(const RowCacheStats& before,
                                const RowCacheStats& after) {
  RowCacheStats delta = after;
  delta.hits = after.hits - before.hits;
  delta.misses = after.misses - before.misses;
  return delta;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double per_second(std::uint64_t count, double ms) {
  return ms > 0.0 ? static_cast<double>(count) / (ms / 1000.0) : 0.0;
}

// What a drain learns from its own results: how each request left the
// server and, for the executed ones, the latency figures its AsyncResult
// carries. The closed-loop harness carries no deadlines, so every request it
// serves counts as within SLO; it keeps its own latency samples.
struct DrainOutcomes {
  std::uint64_t shed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t within_slo = 0;  // executed before its deadline, or had none
  bool sessions = false;         // every request was submit_next_item traffic
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> service_ms;
  std::map<std::string, std::vector<double>> model_latency_ms;

  void add(const AsyncResult& result) {
    if (result.status == RequestStatus::kShed) {
      ++shed;
      return;
    }
    if (result.deadline_missed) {
      ++deadline_misses;
    } else {
      ++within_slo;
    }
    latency_ms.push_back(result.total_ms);
    queue_wait_ms.push_back(result.queue_wait_ms);
    service_ms.push_back(result.service_ms);
    model_latency_ms[result.model_id].push_back(result.total_ms);
  }
};

// The head every drain report shares: who ran it and the cold-start slice
// of the plan it served (`plan` null: the model is gone, the slice stays
// zero).
ServingReport open_report(int threads, int shards, std::uint64_t requests,
                          const CompiledModel* plan) {
  ServingReport report;
  report.threads = threads;
  report.shards = shards;
  report.requests = requests;
  if (plan != nullptr) {
    report.plan_adopted = plan->plan_adopted();
    report.plan_compile_ms = plan->compile_ms();
    report.plan_fallback_reason = plan->plan_fallback_reason();
  }
  return report;
}

// The tail every drain report shares: the per-outcome counts and the rates
// derived from them, once wall_ms, batches and modeled_busy_ms are filled.
// mean_batch and modeled_qps divide EXECUTED requests: shed ones never
// joined a batch or ran on a device.
void close_report(ServingReport& report, const DrainOutcomes& outcomes) {
  const std::uint64_t executed = report.requests - outcomes.shed;
  report.shed = outcomes.shed;
  report.shed_rate = ratio(outcomes.shed, report.requests);
  report.deadline_misses = outcomes.deadline_misses;
  report.deadline_miss_rate = ratio(outcomes.deadline_misses, executed);
  report.qps = per_second(report.requests, report.wall_ms);
  report.goodput_qps = per_second(outcomes.within_slo, report.wall_ms);
  report.mean_batch = ratio(executed, report.batches);
  report.modeled_qps = per_second(executed, report.modeled_busy_ms);
}

// The columns an AsyncServer drain builds from its own executed results
// (see serving.h), once the per-batch counters are folded in. Each result's
// batch recorded its model's lane before the result resolved, so per_model
// already holds a row for every model a result names.
void fold_results(ServingReport& report, DrainOutcomes outcomes) {
  report.latency = latency_stats_from_samples(std::move(outcomes.latency_ms));
  report.queue_wait =
      latency_stats_from_samples(std::move(outcomes.queue_wait_ms));
  report.service = latency_stats_from_samples(std::move(outcomes.service_ms));
  if (outcomes.sessions) {
    report.session_requests = static_cast<std::uint64_t>(report.latency.runs);
    report.session_latency = report.latency;
  }
  for (ModelReport& model : report.per_model) {
    std::vector<double>& samples = outcomes.model_latency_ms[model.model_id];
    model.requests = samples.size();
    model.latency = latency_stats_from_samples(std::move(samples));
    model.mean_batch = ratio(model.requests, model.batches);
    model.modeled_qps = per_second(model.requests, model.modeled_busy_ms);
  }
}

// splitmix64 finisher for shard routing: std::hash on short strings can be
// weak in the low bits, sequential session ids must not pile onto one
// shard, and the low bits are all a modulo sees.
std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}
}  // namespace

ServingReport ServingHarness::serve(
    const std::vector<std::vector<std::int32_t>>& requests, int repeat,
    Tensor* logits_out) {
  check(repeat > 0, "serving: repeat must be positive");
  const std::size_t unique = requests.size();
  const std::uint64_t total =
      static_cast<std::uint64_t>(unique) * static_cast<std::uint64_t>(repeat);
  const Index dim = output_dim();
  if (logits_out != nullptr) {
    *logits_out = Tensor({static_cast<Index>(unique), dim});
  }

  ServingReport report = open_report(threads(), 0, total, compiled_.get());
  if (total == 0) {
    return report;
  }
  const RowCacheStats cache_before = aggregate_cache_stats(contexts_);

  std::atomic<std::uint64_t> cursor{0};
  std::vector<std::vector<double>> samples(contexts_.size());
  std::vector<double> modeled(contexts_.size(), 0.0);
  // Reserve ~2× the fair share per worker: enough headroom for work-stealing
  // imbalance without pre-allocating threads×total samples on large drains.
  // A rare mid-drain realloc happens between timing windows, so it can only
  // nudge aggregate wall_ms/QPS, never an individual latency sample.
  const std::uint64_t per_worker = std::min(
      total, total / static_cast<std::uint64_t>(contexts_.size()) * 2 + 64);
  for (auto& s : samples) {
    s.reserve(static_cast<std::size_t>(per_worker));
  }

  const auto run_worker = [&](std::size_t worker) {
    ExecutionContext& context = *contexts_[worker];
    std::vector<double>& lat = samples[worker];
    double busy_ms = 0.0;
    for (;;) {
      const std::uint64_t i =
          cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) {
        break;
      }
      const std::size_t r = static_cast<std::size_t>(i % unique);
      const auto& history = requests[r];
      const auto start = Clock::now();
      const InferenceView view = context.run_view(history);
      lat.push_back(elapsed_ms(start));
      busy_ms += view.total_ms;
      // Only the first repetition writes logits, so rows are written by
      // exactly one worker (repeat passes would produce identical bytes).
      if (logits_out != nullptr && i < unique) {
        std::memcpy(&logits_out->at2(static_cast<Index>(r), 0), view.logits,
                    static_cast<std::size_t>(dim) * sizeof(float));
      }
    }
    modeled[worker] = busy_ms;
  };

  const auto wall_start = Clock::now();
  if (contexts_.size() == 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(contexts_.size());
    for (std::size_t w = 0; w < contexts_.size(); ++w) {
      workers.emplace_back(run_worker, w);
    }
    for (std::thread& t : workers) {
      t.join();
    }
  }
  report.wall_ms = elapsed_ms(wall_start);

  std::vector<double> all;
  all.reserve(static_cast<std::size_t>(total));
  for (const auto& s : samples) {
    all.insert(all.end(), s.begin(), s.end());
  }
  report.latency = latency_stats_from_samples(std::move(all));
  report.modeled_busy_ms =
      *std::max_element(modeled.begin(), modeled.end());
  report.cache =
      cache_stats_delta(cache_before, aggregate_cache_stats(contexts_));
  DrainOutcomes outcomes;
  outcomes.within_slo = total;
  close_report(report, outcomes);
  return report;
}

double ServingHarness::max_resident_megabytes() const {
  double max_mb = 0.0;
  for (const auto& context : contexts_) {
    max_mb = std::max(max_mb, context->resident_megabytes());
  }
  // The plan's pre-dequantized buffers are resident exactly once for the
  // whole fleet (compile-once sharing); the per-context figure above covers
  // only per-thread state.
  return max_mb +
         static_cast<double>(plan_resident_bytes()) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// AsyncServer

AsyncServer::AsyncServer(const MmapModel& model, const DeviceProfile& profile,
                         AsyncServerConfig config)
    : config_(config),
      profile_(profile),
      owned_registry_(std::make_unique<ModelRegistry>()),
      registry_(owned_registry_.get()),
      default_model_(kDefaultModelId) {
  // The caller owns the mapping (it must outlive the server, as before);
  // the private registry only owns the compiled plan.
  owned_registry_->publish(default_model_,
                           std::make_shared<const CompiledModel>(model));
  start();
}

AsyncServer::AsyncServer(ModelRegistry& registry,
                         std::string default_model_id,
                         const DeviceProfile& profile,
                         AsyncServerConfig config)
    : config_(config),
      profile_(profile),
      registry_(&registry),
      default_model_(std::move(default_model_id)) {
  start();
}

// Shared tail of both constructors: validate the configuration and the
// default model, build the shards, then bring the pipeline threads up.
// Checks run BEFORE any thread spawns, so a failed construction never leaks
// a running thread.
void AsyncServer::start() {
  check(config_.threads > 0, "AsyncServer: thread count must be positive");
  check(config_.shards > 0, "AsyncServer: shard count must be positive");
  check(config_.shards <= config_.threads,
        "AsyncServer: shards must not exceed threads (every shard needs a "
        "primary worker)");
  check(config_.max_batch > 0, "AsyncServer: max_batch must be positive");
  check(config_.max_delay_us >= 0.0,
        "AsyncServer: max_delay_us must be non-negative");
  check(config_.deadline_us >= 0.0,
        "AsyncServer: deadline_us must be non-negative");
  check(config_.queue_capacity >= static_cast<std::size_t>(config_.shards),
        "AsyncServer: queue_capacity must be at least the shard count");
  check(config_.session_capacity >= 0,
        "AsyncServer: session_capacity must be non-negative");
  check(config_.session_capacity == 0 ||
            config_.session_capacity >= static_cast<Index>(config_.shards),
        "AsyncServer: session_capacity must be at least the shard count");
  check(config_.session_history > 0,
        "AsyncServer: session_history must be positive");
  check(config_.nprobe >= 0, "AsyncServer: nprobe must be non-negative");
  check(registry_->has_model(default_model_),
        "AsyncServer: default model not in registry: " + default_model_);

  const std::size_t shards = static_cast<std::size_t>(config_.shards);
  // queue_capacity is the TOTAL admission bound: split it across shards,
  // first `remainder` shards take one extra slot. Each dispatch queue keeps
  // the shard's share of the worker pool fed plus a small runway — bounding
  // it propagates worker backpressure to admission (and on to producers).
  const std::size_t per_shard = config_.queue_capacity / shards;
  const std::size_t remainder = config_.queue_capacity % shards;
  const std::size_t dispatch_cap = std::max<std::size_t>(
      2, static_cast<std::size_t>(config_.threads) * 2 / shards);
  shards_.reserve(shards);
  // session_capacity is TOTAL too, split the same way (first shards take
  // the remainder). Stores are built up front so the session path never
  // allocates after start().
  const std::size_t sess_per_shard =
      static_cast<std::size_t>(config_.session_capacity) / shards;
  const std::size_t sess_remainder =
      static_cast<std::size_t>(config_.session_capacity) % shards;
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        per_shard + (s < remainder ? 1 : 0), dispatch_cap));
    if (config_.session_capacity > 0) {
      shards_.back()->sessions = std::make_unique<SessionStore>(
          static_cast<Index>(sess_per_shard + (s < sess_remainder ? 1 : 0)),
          config_.session_history);
    }
  }

  worker_stats_.resize(static_cast<std::size_t>(config_.threads));
  for (std::size_t s = 0; s < shards; ++s) {
    shards_[s]->former = std::thread(&AsyncServer::former_loop, this, s);
  }
  workers_.reserve(static_cast<std::size_t>(config_.threads));
  for (int w = 0; w < config_.threads; ++w) {
    workers_.emplace_back(&AsyncServer::worker_loop, this,
                          static_cast<std::size_t>(w));
  }
}

AsyncServer::~AsyncServer() {
  // Close every admission queue: pops drain what was accepted, then each
  // former flushes its pending batches and closes its dispatch queue, and
  // the workers exit once every dispatch queue is drained.
  for (auto& shard : shards_) {
    shard->queue.close();
  }
  for (auto& shard : shards_) {
    if (shard->former.joinable()) {
      shard->former.join();
    }
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

std::size_t AsyncServer::shard_for(const std::string& model_id) const {
  if (shards_.size() == 1) {
    return 0;
  }
  return static_cast<std::size_t>(
      mix64(static_cast<std::uint64_t>(std::hash<std::string>{}(model_id))) %
      shards_.size());
}

std::size_t AsyncServer::shard_for_session(std::uint64_t session_id) const {
  if (shards_.size() == 1) {
    return 0;
  }
  return static_cast<std::size_t>(mix64(session_id) % shards_.size());
}

Index AsyncServer::output_dim() const {
  const auto compiled = registry_->acquire(default_model_);
  check(compiled != nullptr,
        "AsyncServer: default model retired: " + default_model_);
  return compiled->output_dim();
}

AsyncServer::QueuedRequest AsyncServer::make_request(
    std::string model_id, std::vector<std::int32_t> history,
    double deadline_us) const {
  QueuedRequest request;
  request.model_id = std::move(model_id);
  request.history = std::move(history);
  request.enqueue_tp = Clock::now();
  const double effective =
      deadline_us < 0.0 ? config_.deadline_us : deadline_us;
  request.deadline_tp =
      effective > 0.0
          ? request.enqueue_tp +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::micro>(effective))
          : Clock::time_point::max();
  return request;
}

bool AsyncServer::should_shed(const Shard& shard,
                              Clock::time_point enqueue_tp,
                              Clock::time_point deadline_tp) const {
  if (!config_.shed || deadline_tp == Clock::time_point::max()) {
    return false;
  }
  // Estimate alone is not enough: after a burst drains, the peak-decay
  // estimator can stay above the deadline with an empty queue. Demand a
  // real backlog (at least one full micro-batch queued) so admission
  // always recovers once the shard catches up.
  if (shard.queue.size() < static_cast<std::size_t>(config_.max_batch)) {
    return false;
  }
  const auto slack_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            deadline_tp - enqueue_tp)
                            .count();
  return shard.wait_p99_est_us.load(std::memory_order_relaxed) > slack_us;
}

// Fail fast with the distinct shed status: the promise resolves NOW, on the
// submitting thread — the request never occupies a queue slot.
std::future<AsyncResult> AsyncServer::resolve_shed(QueuedRequest request,
                                                   Shard& shard) {
  shard.shed.fetch_add(1, std::memory_order_relaxed);
  std::future<AsyncResult> future = request.promise.get_future();
  AsyncResult result;
  result.status = RequestStatus::kShed;
  result.model_id = std::move(request.model_id);
  request.promise.set_value(std::move(result));
  completed_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

std::future<AsyncResult> AsyncServer::submit(
    std::vector<std::int32_t> history) {
  return submit(default_model_, std::move(history));
}

std::future<AsyncResult> AsyncServer::submit(
    std::string model_id, std::vector<std::int32_t> history,
    double deadline_us) {
  check(registry_->has_model(model_id),
        "AsyncServer: submit to unknown model " + model_id);
  Shard& shard = *shards_[shard_for(model_id)];
  QueuedRequest request = make_request(std::move(model_id),
                                       std::move(history), deadline_us);
  if (should_shed(shard, request.enqueue_tp, request.deadline_tp)) {
    return resolve_shed(std::move(request), shard);
  }
  std::future<AsyncResult> future = request.promise.get_future();
  check(shard.queue.push(std::move(request)),
        "AsyncServer: submit after shutdown");
  return future;
}

std::future<AsyncResult> AsyncServer::submit_next_item(std::string model_id,
                                                       std::uint64_t session_id,
                                                       std::int32_t new_item,
                                                       Index k,
                                                       double deadline_us,
                                                       Index nprobe) {
  check(config_.session_capacity > 0,
        "AsyncServer: submit_next_item needs session_capacity > 0");
  check(k >= 0, "AsyncServer: negative top-k");
  check(registry_->has_model(model_id),
        "AsyncServer: submit to unknown model " + model_id);
  // SESSION-affine routing: the shard owning this session's history ring,
  // not the model's home shard. Admission FIFO + single former thread per
  // shard give the ordered-updates guarantee.
  Shard& shard = *shards_[shard_for_session(session_id)];
  QueuedRequest request = make_request(std::move(model_id), {}, deadline_us);
  request.is_session = true;
  request.session_id = session_id;
  request.new_item = new_item;
  request.top_k = k;
  request.nprobe = nprobe < 0 ? config_.nprobe : nprobe;
  if (should_shed(shard, request.enqueue_tp, request.deadline_tp)) {
    // Shed BEFORE the append: a rejected interaction must not mutate the
    // session (the caller is expected to retry it).
    return resolve_shed(std::move(request), shard);
  }
  std::future<AsyncResult> future = request.promise.get_future();
  check(shard.queue.push(std::move(request)),
        "AsyncServer: submit after shutdown");
  return future;
}

bool AsyncServer::try_submit(std::vector<std::int32_t> history,
                             std::future<AsyncResult>* out) {
  return try_submit(default_model_, std::move(history), out);
}

bool AsyncServer::try_submit(std::string model_id,
                             std::vector<std::int32_t> history,
                             std::future<AsyncResult>* out,
                             double deadline_us) {
  if (!registry_->has_model(model_id)) {
    return false;
  }
  Shard& shard = *shards_[shard_for(model_id)];
  QueuedRequest request = make_request(std::move(model_id),
                                       std::move(history), deadline_us);
  if (should_shed(shard, request.enqueue_tp, request.deadline_tp)) {
    shard.shed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::future<AsyncResult> future = request.promise.get_future();
  if (!shard.queue.try_push(std::move(request))) {
    return false;
  }
  if (out != nullptr) {
    *out = std::move(future);
  }
  return true;
}

// Per-shard batch former (the sharded replacement for the PR-3 single
// scheduler thread). Forms one open micro-batch per model id; the batch
// pins its model version at formation so a concurrent swap() never
// retargets in-flight work. A batch flushes when the FIRST of these fires:
//   * it reaches max_batch requests;
//   * it has been open for max_delay_us (the classic upper bound);
//   * SLO-driven: the oldest member's remaining deadline slack drops below
//     the shard's projected batch service time — waiting any longer would
//     convert an on-time request into a deadline miss for the sake of
//     batching.
void AsyncServer::former_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  const auto delay = std::chrono::microseconds(
      static_cast<std::int64_t>(config_.max_delay_us));
  struct Pending {
    std::vector<QueuedRequest> requests;
    Clock::time_point delay_deadline;    // formation time + max_delay_us
    Clock::time_point oldest_deadline;   // min request deadline (or ::max)
    std::shared_ptr<const CompiledModel> compiled;
    std::uint64_t version = 0;
  };
  std::unordered_map<std::string, Pending> pending;

  const auto flush = [&](const std::string& model_id, Pending& p) {
    BatchTask task;
    task.model_id = model_id;
    task.compiled = std::move(p.compiled);
    task.version = p.version;
    task.shard = shard_index;
    task.requests = std::move(p.requests);
    shard.dispatch.push(std::move(task));  // only fails after close
  };

  // The moment this batch must flush to still have a chance of meeting its
  // oldest member's deadline (given the current service-time projection),
  // capped by the max_delay_us budget.
  const auto flush_tp = [&](const Pending& p) {
    auto tp = p.delay_deadline;
    if (p.oldest_deadline != Clock::time_point::max()) {
      const auto projected = std::chrono::microseconds(
          shard.service_est_us.load(std::memory_order_relaxed));
      tp = std::min(tp, p.oldest_deadline - projected);
    }
    return tp;
  };

  bool open = true;
  while (open || !pending.empty()) {
    QueuedRequest next;
    bool got = false;
    if (pending.empty()) {
      got = shard.queue.pop(next);
      if (!got) {
        open = false;  // closed and drained
      }
    } else {
      auto wake = Clock::time_point::max();
      for (const auto& [id, p] : pending) {
        wake = std::min(wake, flush_tp(p));
      }
      bool timed_out = false;
      got = shard.queue.pop_wait_until(next, wake, &timed_out);
      if (!got && !timed_out) {
        open = false;  // closed and drained: flush whatever is pending
      }
    }
    if (got) {
      if (next.is_session) {
        // The append happens HERE, on the shard's single former thread:
        // session-affine routing delivered every update of this session to
        // this queue in submission order, so the store needs no lock and
        // the history snapshot each request rides with is well-defined.
        shard.sessions->append_and_snapshot(next.session_id, next.new_item,
                                            next.history);
      }
      Pending& p = pending[next.model_id];
      if (p.requests.empty()) {
        p.delay_deadline = Clock::now() + delay;
        p.oldest_deadline = next.deadline_tp;
        // Version pinned HERE: later requests joining this batch ride the
        // same plan even if a swap lands mid-formation. One atomic snapshot:
        // plan and version label must come from the same registry state.
        p.compiled = registry_->acquire(next.model_id, &p.version);
        p.requests.reserve(static_cast<std::size_t>(config_.max_batch));
      } else {
        p.oldest_deadline = std::min(p.oldest_deadline, next.deadline_tp);
      }
      const std::string model_id = next.model_id;
      p.requests.push_back(std::move(next));
      if (p.requests.size() >= static_cast<std::size_t>(config_.max_batch)) {
        flush(model_id, p);
        pending.erase(model_id);
      }
    }
    // Flush every batch whose budget is spent — delay or deadline slack —
    // and all of them on shutdown drain.
    const auto now = Clock::now();
    for (auto it = pending.begin(); it != pending.end();) {
      if (!open || now >= flush_tp(it->second)) {
        flush(it->first, it->second);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  }
  shard.dispatch.close();
}

void AsyncServer::worker_loop(std::size_t worker) {
  WorkerState state;
  const std::size_t nshards = shards_.size();
  const std::size_t primary = worker % nshards;
  BatchTask task;
  for (;;) {
    bool got = false;
    bool stolen = false;
    // Fast path: the primary shard's dispatch queue; otherwise scan the
    // other shards for a formed batch to steal (never parking on them).
    if (shards_[primary]->dispatch.try_pop(task)) {
      got = true;
    } else {
      for (std::size_t k = 1; k < nshards && !got; ++k) {
        const std::size_t s = (primary + k) % nshards;
        if (shards_[s]->dispatch.try_pop(task)) {
          got = true;
          stolen = true;
        }
      }
    }
    if (!got) {
      // Nothing anywhere: park briefly on an OPEN shard, preferring the
      // primary. The timeout bounds how stale a steal scan can get.
      std::size_t park = primary;
      if (shards_[park]->dispatch.closed()) {
        park = nshards;  // sentinel: primary closed, find any open shard
        for (std::size_t s = 0; s < nshards; ++s) {
          if (!shards_[s]->dispatch.closed()) {
            park = s;
            break;
          }
        }
      }
      if (park == nshards) {
        // Every dispatch queue is closed — no former will push again, so
        // one more scan observes every remaining batch. Drain it, then
        // exit.
        for (std::size_t s = 0; s < nshards && !got; ++s) {
          if (shards_[s]->dispatch.try_pop(task)) {
            got = true;
            stolen = s != primary;
          }
        }
        if (!got) {
          break;
        }
      } else {
        bool timed_out = false;
        got = shards_[park]->dispatch.pop_wait_until(
            task, Clock::now() + std::chrono::milliseconds(1), &timed_out);
        stolen = got && park != primary;
        if (!got) {
          continue;
        }
      }
    }
    if (stolen) {
      steals_.fetch_add(1, std::memory_order_relaxed);
    }
    execute_batch(worker, task, state);
    // Drop the plan reference (and the request buffers) NOW rather than at
    // the next pop: a hot-swapped old version must drain as soon as its
    // last batch completes, not when the worker happens to pick up new
    // work.
    task = BatchTask{};
  }
}

void AsyncServer::execute_batch(std::size_t worker, BatchTask& task,
                                WorkerState& state) {
  // One context per model id, owned by the CALLING thread (never shared):
  // the scratch arena, meter, and row cache are private, and bind()
  // re-targets a lane to a freshly swapped version (cache rebuilt cold).
  auto& contexts = state.contexts;
  auto& histories = state.histories;
  {
    if (task.compiled == nullptr) {
      // The model was retired between admission and batch formation; the
      // futures must still resolve — with the failure, not a hang.
      for (QueuedRequest& r : task.requests) {
        r.promise.set_exception(std::make_exception_ptr(std::runtime_error(
            "AsyncServer: model retired before execution: " +
            task.model_id)));
      }
      completed_.fetch_add(task.requests.size(),
                           std::memory_order_relaxed);
      return;
    }
    std::unique_ptr<ExecutionContext>& slot = contexts[task.model_id];
    if (slot == nullptr) {
      slot = std::make_unique<ExecutionContext>(task.compiled, profile_);
      if (config_.cache_budget_bytes > 0) {
        slot->enable_row_cache(config_.cache_budget_bytes);
      }
    } else {
      slot->bind(task.compiled);  // no-op unless the version changed
    }
    ExecutionContext& context = *slot;

    const auto service_start = Clock::now();
    histories.clear();
    histories.reserve(task.requests.size());
    Index top_k = 0;
    bool any_pruned = false;
    for (QueuedRequest& r : task.requests) {
      // The history is not read again after execution (only the promise
      // and timestamps are), so hand the buffer over instead of copying.
      histories.push_back(std::move(r.history));
      top_k = std::max(top_k, r.top_k);
      any_pruned = any_pruned || (r.nprobe > 0 && r.top_k > 0);
    }
    // A micro-batch may mix plain and session requests (same model id):
    // rank every row at the largest k and truncate per request below (safe
    // on the pruned path too — nprobe is per ROW, so ranking row b at a
    // larger k scans the same probed clusters and yields a superset).
    std::vector<std::vector<ScoredId>> ranked;
    std::vector<Index> nprobes;
    if (any_pruned) {
      nprobes.reserve(task.requests.size());
      for (const QueuedRequest& r : task.requests) {
        nprobes.push_back(r.top_k > 0 ? r.nprobe : 0);
      }
    }
    BatchResult batch =
        context.run_batch(histories, top_k, top_k > 0 ? &ranked : nullptr,
                          any_pruned ? &nprobes : nullptr);
    const auto service_end = Clock::now();
    // Derive service_ms from the SAME end timestamp the per-request totals
    // use: a second Clock::now() here could land after a preemption and
    // report service_ms > total_ms for every request in the batch.
    const double service_ms =
        std::chrono::duration<double, std::milli>(service_end - service_start)
            .count();

    // Feed the origin shard's online estimators. Both are racy-lossy
    // read-modify-writes on relaxed atomics by design: they steer flush
    // timing and admission, never correctness.
    {
      Shard& origin = *shards_[task.shard];
      const std::int64_t service_us =
          static_cast<std::int64_t>(service_ms * 1000.0);
      const std::int64_t old_service =
          origin.service_est_us.load(std::memory_order_relaxed);
      // EWMA (alpha 1/4): responsive to load shifts, stable across the
      // batch-size mix.
      origin.service_est_us.store(
          old_service == 0 ? service_us
                           : old_service + (service_us - old_service) / 4,
          std::memory_order_relaxed);
      std::int64_t wait_est =
          origin.wait_p99_est_us.load(std::memory_order_relaxed);
      for (const QueuedRequest& r : task.requests) {
        const std::int64_t wait_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                service_start - r.enqueue_tp)
                .count();
        // Peak-decay high-quantile estimate: jump to any new maximum,
        // decay 1/8 toward smaller samples.
        wait_est = wait_us >= wait_est ? wait_us
                                       : wait_est + (wait_us - wait_est) / 8;
      }
      origin.wait_p99_est_us.store(wait_est, std::memory_order_relaxed);
    }

    // Record the batch BEFORE resolving the promises: anyone who has
    // observed every future of a drain is guaranteed to see its batches.
    // O(1) per batch — per-request figures travel in the AsyncResults.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      WorkerStats& stats = worker_stats_[worker];
      stats.modeled_busy_ms += batch.total_ms;
      ++stats.batches;
      stats.catalog_rows += batch.catalog_rows;
      stats.scanned_rows += batch.scanned_rows;
      stats.scanned_bytes += batch.scanned_bytes;
      ModelLane& lane = stats.models[task.model_id];
      lane.version = task.version;
      ++lane.batches;
      lane.modeled_busy_ms += batch.total_ms;
      // Hits/misses accumulate per batch (a swap rebuilds the context, so
      // its lifetime counters restart); the slab figures are snapshots.
      const RowCacheStats cache = context.row_cache_stats();
      lane.cache.enabled = cache.enabled;
      lane.cache.hits += batch.cache_hits;
      lane.cache.misses += batch.cache_misses;
      lane.cache.resident_bytes = cache.resident_bytes;
      lane.cache.capacity_bytes = cache.capacity_bytes;
      lane.resident_mb = context.resident_megabytes();
      lane.plan_bytes = task.compiled->plan_resident_bytes();
    }

    const Index dim = context.compiled().output_dim();
    for (std::size_t i = 0; i < task.requests.size(); ++i) {
      QueuedRequest& r = task.requests[i];
      AsyncResult result;
      result.model_id = task.model_id;
      result.model_version = task.version;
      result.batch = batch.batch;
      result.service_ms = service_ms;
      result.queue_wait_ms = std::chrono::duration<double, std::milli>(
                                 service_start - r.enqueue_tp)
                                 .count();
      result.total_ms = std::chrono::duration<double, std::milli>(
                            service_end - r.enqueue_tp)
                            .count();
      result.deadline_missed = r.deadline_tp != Clock::time_point::max() &&
                               service_end > r.deadline_tp;
      const float* row = &batch.logits.at2(static_cast<Index>(i), 0);
      result.logits.assign(row, row + dim);
      if (r.top_k > 0) {
        // The batch was ranked at the largest requested k; this request
        // keeps its own prefix (the ordering is total, so a prefix of a
        // larger ranking IS the smaller ranking).
        const auto& ids = ranked[i];
        const std::size_t keep = std::min(static_cast<std::size_t>(r.top_k),
                                          ids.size());
        result.top_ids.reserve(keep);
        result.top_scores.reserve(keep);
        for (std::size_t j = 0; j < keep; ++j) {
          result.top_ids.push_back(ids[j].id);
          result.top_scores.push_back(ids[j].score);
        }
      }
      r.promise.set_value(std::move(result));
    }
    completed_.fetch_add(task.requests.size(), std::memory_order_relaxed);
    // Prune every lane whose bound plan the registry has moved past (swap
    // or retire) — including lanes of OTHER models that went idle. Without
    // this a lane that sees no further traffic would pin the old plan (and
    // its mmap) until the server is destroyed; with it a superseded version
    // drains as soon as this worker completes its next batch of any model.
    for (auto it = contexts.begin(); it != contexts.end();) {
      if (registry_->acquire(it->first) != it->second->compiled_ptr()) {
        it = contexts.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void AsyncServer::reset_stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (WorkerStats& stats : worker_stats_) {
    stats = WorkerStats{};
  }
}

ServingReport AsyncServer::serve(
    const std::vector<std::vector<std::int32_t>>& requests, int repeat,
    double arrival_qps, Tensor* logits_out) {
  std::vector<std::vector<float>> rows(logits_out != nullptr ? requests.size()
                                                             : 0);
  ServingReport report = drain(
      requests.size(), repeat, arrival_qps, false,
      [&](std::size_t r) { return submit(default_model_, requests[r]); },
      [&](std::size_t r, AsyncResult& result) {
        if (logits_out != nullptr) {
          rows[r] = std::move(result.logits);
        }
      });
  if (logits_out != nullptr) {
    // Row width comes from the rows actually SERVED, not from the current
    // registry state: a concurrent swap()/retire() of the default model
    // after the drain must not invalidate (or abort) 100% successful
    // results. A mid-drain width change still fails the per-row check.
    // Shed requests have no logits: their rows stay zero.
    Index dim = 0;
    for (const auto& row : rows) {
      if (!row.empty()) {
        dim = static_cast<Index>(row.size());
        break;
      }
    }
    *logits_out = Tensor({static_cast<Index>(requests.size()), dim});
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].empty()) {
        continue;  // shed
      }
      check_eq(dim, static_cast<long long>(rows[r].size()),
               "AsyncServer: logit row width");
      std::memcpy(&logits_out->at2(static_cast<Index>(r), 0), rows[r].data(),
                  static_cast<std::size_t>(dim) * sizeof(float));
    }
  }
  return report;
}

ServingReport AsyncServer::serve(const std::vector<RoutedRequest>& requests,
                                 int repeat, double arrival_qps,
                                 std::vector<std::vector<float>>* logits_out) {
  if (logits_out != nullptr) {
    logits_out->assign(requests.size(), {});
  }
  return drain(
      requests.size(), repeat, arrival_qps, false,
      [&](std::size_t r) {
        return submit(requests[r].model_id, requests[r].history);
      },
      [&](std::size_t r, AsyncResult& result) {
        if (logits_out != nullptr) {
          (*logits_out)[r] = std::move(result.logits);
        }
      });
}

ServingReport AsyncServer::serve_sessions(
    const std::vector<SessionEvent>& events, Index k,
    std::vector<std::vector<Index>>* topk_out) {
  check(config_.session_capacity > 0,
        "AsyncServer: serve_sessions needs session_capacity > 0");
  if (topk_out != nullptr) {
    topk_out->assign(events.size(), {});
  }
  return drain(
      events.size(), 1, 0.0, true,
      [&](std::size_t r) {
        return submit_next_item(default_model_, events[r].session_id,
                                events[r].item, k);
      },
      [&](std::size_t r, AsyncResult& result) {
        if (topk_out != nullptr) {
          (*topk_out)[r] = std::move(result.top_ids);
        }
      });
}

ServingReport AsyncServer::drain(
    std::size_t unique, int repeat, double arrival_qps, bool sessions,
    const std::function<std::future<AsyncResult>(std::size_t)>& submit_one,
    const std::function<void(std::size_t, AsyncResult&)>& keep) {
  check(repeat > 0, "AsyncServer: repeat must be positive");
  const std::uint64_t total =
      static_cast<std::uint64_t>(unique) * static_cast<std::uint64_t>(repeat);
  // Cold-start slice: the default model's CURRENT plan.
  ServingReport report = open_report(threads(), shards(), total,
                                     registry_->acquire(default_model_).get());
  if (total == 0) {
    report.active_sessions = active_sessions();
    report.session_evictions = evicted_sessions();
    return report;
  }
  reset_stats();

  // Open-loop arrivals: with a nonzero rate, request i is released at
  // i/arrival_qps seconds regardless of completions (only admission-queue
  // backpressure can stall the producer). rate 0 = as fast as admitted.
  //
  // The schedule is ABSOLUTE (wall_start + i * inter_arrival), never
  // per-gap: a slow submit must not silently stretch every later arrival
  // (coordinated omission — offered load would sag exactly when the server
  // struggles). An arrival more than one period behind its slot is counted
  // in late_arrivals so the report is honest about the load it delivered.
  // sleep_until alone caps the pacer at OS timer granularity (~ms), far
  // below the offered rates the sharded path must absorb — so sleep covers
  // the bulk of a long gap and a spin loop lands the final stretch.
  const auto inter_arrival =
      arrival_qps > 0.0
          ? std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(1.0 / arrival_qps))
          : Clock::duration::zero();
  constexpr std::chrono::microseconds kSpinWindow{200};

  const std::uint64_t steals_before = steals_.load(std::memory_order_relaxed);
  std::vector<std::future<AsyncResult>> futures;
  futures.reserve(static_cast<std::size_t>(total));
  const auto wall_start = Clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    if (inter_arrival.count() > 0) {
      const auto scheduled =
          wall_start + inter_arrival * static_cast<std::int64_t>(i);
      auto now = Clock::now();
      if (now < scheduled) {
        if (scheduled - now > kSpinWindow) {
          std::this_thread::sleep_until(scheduled - kSpinWindow);
        }
        while (Clock::now() < scheduled) {
          // spin the last stretch
        }
      } else if (now - scheduled > inter_arrival) {
        ++report.late_arrivals;  // a full period behind: offered load sagged
      }
    }
    futures.push_back(submit_one(static_cast<std::size_t>(i % unique)));
  }

  DrainOutcomes outcomes;
  outcomes.sessions = sessions;
  outcomes.latency_ms.reserve(futures.size());
  outcomes.queue_wait_ms.reserve(futures.size());
  outcomes.service_ms.reserve(futures.size());
  for (std::uint64_t i = 0; i < total; ++i) {
    AsyncResult result = futures[static_cast<std::size_t>(i)].get();
    outcomes.add(result);
    if (i < unique && result.status == RequestStatus::kOk) {
      keep(static_cast<std::size_t>(i), result);
    }
  }
  report.wall_ms = elapsed_ms(wall_start);
  report.steals = steals_.load(std::memory_order_relaxed) - steals_before;
  report.active_sessions = active_sessions();
  report.session_evictions = evicted_sessions();
  collect_stats(report);
  close_report(report, outcomes);
  fold_results(report, std::move(outcomes));
  return report;
}

void AsyncServer::collect_stats(ServingReport& report) {
  std::map<std::string, ModelReport> models;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (const WorkerStats& stats : worker_stats_) {
      report.catalog_rows += stats.catalog_rows;
      report.scanned_rows += stats.scanned_rows;
      report.scanned_bytes += stats.scanned_bytes;
      report.batches += stats.batches;
      report.modeled_busy_ms =
          std::max(report.modeled_busy_ms, stats.modeled_busy_ms);
      for (const auto& [model_id, lane] : stats.models) {
        ModelReport& model = models[model_id];
        model.model_id = model_id;
        model.version = std::max(model.version, lane.version);
        model.batches += lane.batches;
        model.modeled_busy_ms =
            std::max(model.modeled_busy_ms, lane.modeled_busy_ms);
        // Per-tenant footprint: peak per-worker context state plus the
        // plan, which is shared by every worker and counted once.
        model.resident_mb = std::max(
            model.resident_mb,
            lane.resident_mb + static_cast<double>(lane.plan_bytes) /
                                   (1024.0 * 1024.0));
        add_cache(model.cache, lane.cache);
      }
    }
  }
  report.pruned_fraction =
      report.catalog_rows > 0
          ? 1.0 - ratio(report.scanned_rows, report.catalog_rows)
          : 0.0;
  for (auto& [model_id, model] : models) {
    add_cache(report.cache, model.cache);
    report.per_model.push_back(std::move(model));
  }
}

std::size_t AsyncServer::queue_capacity() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue.capacity();
  }
  return total;
}

std::size_t AsyncServer::queue_high_water() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue.high_water();
  }
  return total;
}

std::uint64_t AsyncServer::rejected() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue.rejected();
  }
  return total;
}

Index AsyncServer::active_sessions() const {
  Index total = 0;
  for (const auto& shard : shards_) {
    if (shard->sessions != nullptr) {
      total += shard->sessions->active_sessions();
    }
  }
  return total;
}

std::uint64_t AsyncServer::evicted_sessions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->sessions != nullptr) {
      total += shard->sessions->evicted_sessions();
    }
  }
  return total;
}

std::uint64_t AsyncServer::shed_total() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->shed.load(std::memory_order_relaxed);
  }
  return total;
}

RowCacheStats AsyncServer::cache_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  RowCacheStats total;
  for (const WorkerStats& stats : worker_stats_) {
    for (const auto& [model_id, lane] : stats.models) {
      add_cache(total, lane.cache);
    }
  }
  return total;
}

double AsyncServer::max_resident_megabytes() const {
  double max_mb = 0.0;
  std::map<std::string, std::size_t> plan_bytes;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (const WorkerStats& stats : worker_stats_) {
      double worker_mb = 0.0;
      for (const auto& [model_id, lane] : stats.models) {
        // One context per model on this worker; their state coexists.
        worker_mb += lane.resident_mb;
        // Plan footprint of the models THIS server served — the registry
        // may host models other servers own, which are not our memory.
        auto& bytes = plan_bytes[model_id];
        bytes = std::max(bytes, lane.plan_bytes);
      }
      max_mb = std::max(max_mb, worker_mb);
    }
  }
  // Plans are compiled once per model version and shared by every worker.
  std::size_t shared_plan_bytes = 0;
  for (const auto& [model_id, bytes] : plan_bytes) {
    shared_plan_bytes += bytes;
  }
  return max_mb +
         static_cast<double>(shared_plan_bytes) / (1024.0 * 1024.0);
}

}  // namespace memcom
