// Serving drivers over shared CompiledModel plans.
//
// Both execution models share compiled plans instead of recompiling per
// worker: a CompiledModel is built ONCE per model file and every worker
// executes it through a private ExecutionContext (scratch arena, memory
// meter, optional hot-row cache). The plan's pre-dequantized buffers are
// therefore paid for once per model version, not once per thread — see
// plan_resident_bytes().
//
//   * ServingHarness — CLOSED-LOOP drain over ONE model: workers pull
//     requests off a lock-free atomic cursor as fast as they complete them.
//     Measures the peak batch-1 throughput of the fast path.
//
//   * AsyncServer — OPEN-LOOP multi-tenant pipeline, SHARDED: producers
//     enqueue requests (each optionally routed to a `model_id`) into one of
//     `shards` bounded RequestQueues (shard = hash(model_id), so a model's
//     traffic forms dense micro-batches on one shard), a per-shard batch
//     former turns them into PER-MODEL dynamic micro-batches, and worker
//     threads execute each micro-batch through the fused run_batch path.
//     A worker is pinned to a primary shard but STEALS formed batches from
//     other shards whenever its own dispatch queue is empty, so a skewed
//     model mix cannot strand capacity on an idle shard.
//
//     Deadline awareness runs end to end: every request carries a deadline
//     (default `deadline_us` after enqueue; 0 = none). A shard flushes a
//     micro-batch EARLY once the oldest member's remaining slack drops
//     below the shard's projected service time (SLO-driven flush — the
//     fixed `max_delay_us` stays as an upper bound), and completions past
//     their deadline are counted as misses. With `shed` enabled the front
//     door applies admission control: once a shard's queue-wait p99
//     estimate exceeds a request's deadline (and real backlog confirms
//     it), `try_submit` rejects and `submit` fails fast with a future that
//     resolves to RequestStatus::kShed — bounded-latency goodput instead
//     of unbounded queueing.
//
//     Models live in a ModelRegistry; a `swap()` there is
//     zero-downtime: micro-batches pin their model version at formation,
//     in-flight work finishes on the old version, new batches pick up the
//     new one, and the old plan (plus its mmap) is destroyed when its
//     refcount drains. Worker-side hot-row caches are rebuilt cold on the
//     first batch of a new version so stale rows can never serve.
//
// Both report real wall-clock QPS and a modeled-device QPS derived from the
// contexts' simulated per-forward latency (which includes the profile's
// dispatch overhead — this is where micro-batching visibly wins; real wall
// clock on a shared host measures mostly the simulator itself). The async
// report additionally breaks requests/latency/cache down per model id.
//
// Logits are bit-identical to sequential ExecutionContext::run_view() on
// every path — direct, registry-served, and post-swap — cache cold or warm;
// tests/test_serving.cpp and tests/test_differential.cpp enforce this.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/tensor.h"
#include "ondevice/clock.h"
#include "ondevice/execution_context.h"
#include "ondevice/registry.h"
#include "ondevice/request_queue.h"
#include "ondevice/session.h"

namespace memcom {

// Where an AsyncServer drain report's columns come from:
//   * From the drain's own results (the AsyncResults serve() /
//     serve_sessions() collect), so they count exactly the drain's
//     requests: latency, queue_wait, service, the shed and deadline
//     columns, session_requests, session_latency, and each ModelReport's
//     requests and latency.
//   * From the per-batch worker counters recorded since the drain began:
//     batches, steals, modeled_busy_ms, the catalog-scan columns, cache,
//     and each ModelReport's version, batches, modeled_busy_ms,
//     resident_mb and cache. A micro-batch can mix the drain's requests
//     with requests submitted outside it (same model), so these can
//     include that outside work.
// mean_batch and modeled_qps divide the first kind by the second.

// Per-model slice of a drain (async pipeline only).
struct ModelReport {
  std::string model_id;
  std::uint64_t version = 0;   // latest registry version that served traffic
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;   // micro-batches dispatched for THIS model
  double mean_batch = 0;       // executed requests / batches
  LatencyStats latency;        // end-to-end wall latency of this model's reqs
  double modeled_busy_ms = 0;  // max over workers of this model's busy time
  double modeled_qps = 0;
  // Peak per-worker context footprint of this model plus its shared plan —
  // what THIS tenant adds to the device, not the whole server's figure.
  double resident_mb = 0;
  RowCacheStats cache;
};

struct ServingReport {
  int threads = 0;
  std::uint64_t requests = 0;  // submitted, shed ones included
  double wall_ms = 0;          // wall clock of the whole drain
  double qps = 0;              // requests / wall seconds (real clock)
  LatencyStats latency;        // per-request end-to-end wall latency (ms)

  // Modeled-device throughput: each worker context is one simulated device;
  // its busy time is the sum of the simulated latencies (compute + per-op
  // dispatch) of the forwards it executed. The fleet finishes when the
  // busiest device does.
  double modeled_busy_ms = 0;  // max over workers of summed simulated ms
  double modeled_qps = 0;      // executed requests / modeled busy seconds

  // Async pipeline only (runs == 0 for the closed-loop harness):
  LatencyStats queue_wait;  // enqueue -> micro-batch picked up by a worker
  LatencyStats service;     // micro-batch execution wall time
  std::uint64_t batches = 0;   // micro-batches dispatched
  double mean_batch = 0;       // executed requests / batches
  int shards = 0;              // scheduler shards the drain ran with
  std::uint64_t steals = 0;    // batches executed by a non-primary worker

  // Deadline / admission-control accounting (async pipeline only).
  // `requests` counts everything submitted; shed requests never execute,
  // so executed = requests - shed and the latency stats cover executed
  // requests only.
  std::uint64_t shed = 0;             // rejected at the front door
  double shed_rate = 0;               // shed / requests
  std::uint64_t deadline_misses = 0;  // executed but completed past deadline
  double deadline_miss_rate = 0;      // misses / executed
  // Goodput under the SLO: completions that met their deadline per wall
  // second. With no deadline configured this equals `qps`.
  double goodput_qps = 0;
  // Open-loop pacer honesty: arrivals the driver released more than one
  // inter-arrival period behind their absolute schedule (a slow/blocked
  // submit lowers TRUE offered load; this counts by how many).
  std::uint64_t late_arrivals = 0;

  // Session workload slice (submit_next_item traffic; all zero when the
  // drain carried none). session_latency reuses the same nearest-rank
  // percentile math as `latency` — see latency_stats_from_samples.
  std::uint64_t session_requests = 0;
  LatencyStats session_latency;        // end-to-end wall latency (ms)
  Index active_sessions = 0;           // live sessions at report assembly
  std::uint64_t session_evictions = 0; // lifetime LRU evictions, all shards

  // Catalog-scan accounting over the drain's RANKED rows (top_k > 0; all
  // zero when the drain carried none). scanned_rows counts catalog items
  // actually scored; catalog_rows counts what an exact scan would have
  // scored (ranked rows x catalog size); scanned_bytes is the analytic
  // compressed payload read (probed rows + their bias entries + centroid
  // table on the pruned path, the full weight/bias blobs per row on the
  // exact path).
  // pruned_fraction = 1 - scanned_rows / catalog_rows (0 when every ranked
  // row scanned exact).
  std::uint64_t catalog_rows = 0;
  std::uint64_t scanned_rows = 0;
  std::uint64_t scanned_bytes = 0;
  double pruned_fraction = 0;

  // Hot-row cache totals across workers (enabled=false when no cache).
  RowCacheStats cache;

  // Cold-start accounting for the plan the drain served (the default model
  // in the async pipeline): whether load took the v3 plan-section fast
  // path, the wall time of that adopt-or-compile step, and — when adoption
  // was skipped — why (empty when adopted). Fleet story: this is the
  // per-device boot tax the serialized plan removes.
  bool plan_adopted = false;
  double plan_compile_ms = 0;
  std::string plan_fallback_reason;

  // Per-model breakdown, sorted by model id (async pipeline only; empty for
  // the single-model closed-loop harness).
  std::vector<ModelReport> per_model;
};

class ServingHarness {
 public:
  // Compiles the plan ONCE and shares it across `threads` worker contexts;
  // the model must outlive the harness. A nonzero `cache_budget_bytes`
  // attaches a per-worker HotRowCache (bypassed for one-hot techniques).
  ServingHarness(const MmapModel& model, const DeviceProfile& profile,
                 int threads, std::size_t cache_budget_bytes = 0);
  // Shares an EXISTING plan (e.g. one acquired from a ModelRegistry).
  ServingHarness(std::shared_ptr<const CompiledModel> compiled,
                 const DeviceProfile& profile, int threads,
                 std::size_t cache_budget_bytes = 0);

  // Drains `requests` (repeated `repeat` times) across the worker pool.
  // When `logits_out` is non-null it is resized to [requests, output_dim]
  // and filled with each request's logits (first repetition).
  ServingReport serve(const std::vector<std::vector<std::int32_t>>& requests,
                      int repeat = 1, Tensor* logits_out = nullptr);

  int threads() const { return static_cast<int>(contexts_.size()); }
  // Plan-derived (safe even on a degenerate pool — never dereferences a
  // worker context).
  Index output_dim() const { return compiled_->output_dim(); }
  const CompiledModel& compiled() const { return *compiled_; }
  const ExecutionContext& context(int i) const { return *contexts_[i]; }

  // Peak resident footprint across workers (each worker meters its own
  // touches; the weight pages are shared, so the fleet-wide footprint is
  // the max, not the sum) plus the shared plan, which is resident exactly
  // once no matter how many workers reference it.
  double max_resident_megabytes() const;

  // Bytes of the shared plan's pre-dequantized buffers. Compiled once:
  // this does NOT scale with threads() (the PR-3 layer paid it per worker).
  std::size_t plan_resident_bytes() const {
    return compiled_->plan_resident_bytes();
  }

 private:
  std::shared_ptr<const CompiledModel> compiled_;
  std::vector<std::unique_ptr<ExecutionContext>> contexts_;
};

// ---------------------------------------------------------------------------
// Asynchronous multi-tenant micro-batching pipeline:
//   queue -> per-model scheduler -> workers (one ExecutionContext per
//   (worker, model id), re-bound on version swap).

struct AsyncServerConfig {
  int threads = 2;
  // Scheduler shards: per-shard admission queue + batch former + dispatch
  // queue. Requests route by hash(model_id); workers steal formed batches
  // across shards. Must satisfy 1 <= shards <= threads (every shard needs
  // a primary worker or a loaded shard could starve between steal scans).
  int shards = 1;
  Index max_batch = 8;          // flush a micro-batch at this size...
  double max_delay_us = 200.0;  // ...or this long after its first request
  // Default per-request deadline, measured from enqueue. 0 disables
  // deadline handling (no SLO flush, no miss accounting, no shedding).
  double deadline_us = 0.0;
  // Admission control: shed at submit()/try_submit() once the target
  // shard's queue-wait p99 estimate exceeds the request's deadline AND the
  // shard has a real backlog (>= max_batch queued). Requires deadline_us
  // (or a per-request deadline) to have any effect.
  bool shed = false;
  std::size_t queue_capacity = 1024;  // admission bound, TOTAL across shards
  std::size_t cache_budget_bytes = 0;  // per-context hot-row cache; 0 = off
  // Session workload (submit_next_item). `session_capacity` is the TOTAL
  // number of live sessions, split across shards like queue_capacity
  // (remainder to the first shards); beyond it the least-recently-used
  // session on the arriving shard is evicted. Each session keeps its last
  // `session_history` item ids. Both knobs only size the per-shard
  // SessionStores — plain submit() traffic never touches them.
  Index session_capacity = 1024;
  Index session_history = 32;
  // Default clusters-to-probe for session ranking (submit_next_item): 0 =
  // exact full-catalog scan; > 0 = pruned scan through the model's adopted
  // catalog index (see ondevice/catalog_index.h). A model without a valid
  // index serves exact regardless — the pruned path is an optimization,
  // never an availability risk. Per-request override on submit_next_item.
  Index nprobe = 0;
};

// How a submitted request left the server.
enum class RequestStatus {
  kOk = 0,    // executed; logits valid
  kShed = 1,  // rejected by admission control; logits empty, never executed
};

// What a request's future resolves to.
struct AsyncResult {
  RequestStatus status = RequestStatus::kOk;
  std::vector<float> logits;  // [output_dim of the serving model]
  std::string model_id;       // which registry entry served the request
  std::uint64_t model_version = 0;  // which version of it (swap audit trail)
  double queue_wait_ms = 0;   // enqueue -> worker picked the batch up
  double service_ms = 0;      // fused micro-batch execution (wall)
  double total_ms = 0;        // enqueue -> completion
  Index batch = 0;            // size of the micro-batch this request rode in
  // True when the request carried a deadline and completed after it (only
  // meaningful for kOk — shed requests never execute).
  bool deadline_missed = false;
  // Top-k ranking over the logits row, filled only for submit_next_item
  // requests with k > 0: item ids best-first with the deterministic
  // tie-break of ondevice/topk.h (equal scores -> lower id), plus their
  // scores. Bit-identical across kernel families and shard counts
  // (tests/test_differential.cpp enforces it).
  std::vector<Index> top_ids;
  std::vector<float> top_scores;
};

// A request explicitly routed to a registry model (the serve() overload
// that drives mixed multi-model traffic).
struct RoutedRequest {
  std::string model_id;
  std::vector<std::int32_t> history;
};

// One session interaction for the serve_sessions() driver: "session
// `session_id` just touched item `item`".
struct SessionEvent {
  std::uint64_t session_id = 0;
  std::int32_t item = 0;
};

class AsyncServer {
 public:
  // Model id used by the single-model convenience constructor and by the
  // submit()/serve() overloads that do not name a model.
  static constexpr const char* kDefaultModelId = "default";

  // Single-model convenience: wraps `model` in a private registry under
  // kDefaultModelId. The model must outlive the server.
  AsyncServer(const MmapModel& model, const DeviceProfile& profile,
              AsyncServerConfig config);

  // Multi-tenant: serves every model in `registry`, which must outlive the
  // server. `default_model_id` (which must be registered) answers the
  // un-routed submit()/serve() calls and output_dim().
  AsyncServer(ModelRegistry& registry, std::string default_model_id,
              const DeviceProfile& profile, AsyncServerConfig config);

  // Closes the queue, drains every accepted request, joins all threads.
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  // Enqueues a request; BLOCKS while its shard's queue is at capacity
  // (backpressure). The future resolves once a worker completed the
  // request's micro-batch. The routed overload fails (check) for a model id
  // the registry does not currently hold.
  //
  // `deadline_us` overrides the config default for THIS request (< 0 = use
  // the config; 0 = explicitly no deadline). When shedding is enabled and
  // the target shard's queue-wait p99 estimate exceeds the deadline,
  // submit() does NOT block: it fails fast with a future already resolved
  // to RequestStatus::kShed.
  std::future<AsyncResult> submit(std::vector<std::int32_t> history);
  std::future<AsyncResult> submit(std::string model_id,
                                  std::vector<std::int32_t> history,
                                  double deadline_us = -1.0);

  // Non-blocking admission: false (and no future) when the shard queue is
  // full, the request was shed (counted separately — see shed_total()),
  // the server is shutting down, or the model id is unknown.
  bool try_submit(std::vector<std::int32_t> history,
                  std::future<AsyncResult>* out);
  bool try_submit(std::string model_id, std::vector<std::int32_t> history,
                  std::future<AsyncResult>* out, double deadline_us = -1.0);

  // Session-based next-item serving: appends `new_item` to the session's
  // bounded history ring (evicting the LRU session if the store is full),
  // runs `model_id` on the post-append history, and resolves the future
  // with the request's logits PLUS the top-`k` item ids/scores over them —
  // the full-catalog scan, executed against the model's compressed output
  // table by the normal dense path.
  //
  // Routing is SESSION-affine, not model-affine: hash(session_id) picks
  // the shard, so one session's updates all land on one former thread in
  // submission order — the history append needs no lock and two updates of
  // a session can never reorder. Deadlines and admission control behave
  // exactly like submit() (a shed request does NOT append its item).
  // `nprobe` < 0 uses the config default; 0 forces the exact full scan;
  // > 0 probes that many clusters through the model's catalog index (exact
  // scan when the model carries no valid index).
  std::future<AsyncResult> submit_next_item(std::string model_id,
                                            std::uint64_t session_id,
                                            std::int32_t new_item, Index k,
                                            double deadline_us = -1.0,
                                            Index nprobe = -1);

  // Convenience driver: submits `requests` (repeated `repeat` times) from
  // this thread — paced at `arrival_qps` when nonzero (open-loop arrivals),
  // as fast as backpressure admits otherwise — waits for every completion,
  // and aggregates the report. When `logits_out` is non-null it is filled
  // with the first repetition's logits, row r = requests[r]. All requests
  // go to the default model.
  ServingReport serve(const std::vector<std::vector<std::int32_t>>& requests,
                      int repeat = 1, double arrival_qps = 0.0,
                      Tensor* logits_out = nullptr);

  // Mixed-traffic driver: like serve(), but each request names its model.
  // Output dims may differ per model, so first-repetition logits (when
  // requested) come back as one vector per request instead of a Tensor.
  ServingReport serve(const std::vector<RoutedRequest>& requests,
                      int repeat = 1, double arrival_qps = 0.0,
                      std::vector<std::vector<float>>* logits_out = nullptr);

  // Session-traffic driver: submits `events` in order through
  // submit_next_item (default model, top-`k` per request), waits for every
  // completion, and aggregates the report — including its session slice
  // (session_requests, session_latency, active_sessions,
  // session_evictions). When `topk_out` is non-null it is filled with each
  // event's ranked item ids (empty for shed events).
  ServingReport serve_sessions(
      const std::vector<SessionEvent>& events, Index k,
      std::vector<std::vector<Index>>* topk_out = nullptr);

  const AsyncServerConfig& config() const { return config_; }
  int threads() const { return config_.threads; }
  const ModelRegistry& registry() const { return *registry_; }
  const std::string& default_model_id() const { return default_model_; }
  // Default model's output width (plan-derived; never touches a worker).
  Index output_dim() const;

  // Lifetime count of requests whose futures have been resolved (including
  // failed ones). Lets external observers — e.g. a deploy driver deciding
  // when to swap() — watch progress without joining the drain.
  std::uint64_t completed_requests() const {
    return completed_.load(std::memory_order_relaxed);
  }

  // Backpressure / admission observability (lifetime totals, summed over
  // shards). high_water sums per-shard peaks — they need not have been
  // simultaneous, but each shard's peak is bounded by its slice of
  // queue_capacity, so the sum never exceeds queue_capacity().
  std::size_t queue_capacity() const;
  std::size_t queue_high_water() const;
  std::uint64_t rejected() const;
  // Requests rejected by admission control (distinct from full-queue
  // rejections above): the estimated queue wait exceeded their deadline.
  std::uint64_t shed_total() const;
  // Formed batches executed by a worker whose primary shard is not the
  // batch's origin shard (lifetime).
  std::uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }
  int shards() const { return static_cast<int>(shards_.size()); }

  // Session-store observability, summed over shards (atomic counters — safe
  // to read while the pipeline runs).
  Index active_sessions() const;
  std::uint64_t evicted_sessions() const;

  // Hot-row cache counters summed across worker contexts, from the
  // per-batch worker counters: since the last serve()/serve_sessions()
  // began, or lifetime totals when no drain has run (submit()-only
  // traffic). Takes the stats mutex, so it is safe to call at any time; a
  // batch is counted before any of its futures resolves.
  RowCacheStats cache_stats() const;
  // Peak per-worker context footprint (all models a worker serves) plus
  // each served model's shared plan, over the same window as cache_stats().
  double max_resident_megabytes() const;

 private:
  struct QueuedRequest {
    std::string model_id;
    std::vector<std::int32_t> history;
    std::promise<AsyncResult> promise;
    SteadyClock::time_point enqueue_tp;
    // time_point::max() when the request carries no deadline.
    SteadyClock::time_point deadline_tp;
    // Session workload (submit_next_item): `history` starts empty and is
    // filled by the owning shard's former from its SessionStore.
    bool is_session = false;
    std::uint64_t session_id = 0;
    std::int32_t new_item = 0;
    Index top_k = 0;  // rank the logits when > 0
    Index nprobe = 0;  // pruned scan when > 0 and the model has an index
  };
  struct BatchTask {
    std::string model_id;
    // Pinned at micro-batch formation: a concurrent swap() cannot retarget
    // an in-flight batch.
    std::shared_ptr<const CompiledModel> compiled;
    std::uint64_t version = 0;
    std::size_t shard = 0;  // origin shard (estimator feedback + stealing)
    std::vector<QueuedRequest> requests;
  };
  // One scheduler shard: its own admission queue, batch-former thread, and
  // dispatch queue of formed micro-batches, plus the two online estimators
  // the deadline machinery feeds on. The estimators are plain atomics
  // updated by workers with racy read-modify-write — a lost update skews an
  // ESTIMATE, never correctness.
  struct Shard {
    Shard(std::size_t queue_cap, std::size_t dispatch_cap)
        : queue(queue_cap), dispatch(dispatch_cap) {}
    RequestQueue<QueuedRequest> queue;
    RequestQueue<BatchTask> dispatch;
    // Peak-decay queue-wait p99 estimate (µs): jumps to any new maximum,
    // decays 1/8 toward each smaller sample. Admission control compares
    // this against a request's deadline.
    std::atomic<std::int64_t> wait_p99_est_us{0};
    // EWMA of micro-batch service wall time (µs): the projected cost of
    // flushing a batch now — the SLO-driven flush triggers once a batch's
    // oldest deadline is closer than this.
    std::atomic<std::int64_t> service_est_us{0};
    std::atomic<std::uint64_t> shed{0};  // admission-control rejections
    // Per-shard session state, owned and written ONLY by this shard's
    // former thread (session-affine routing makes that single-writer by
    // construction); its counters are atomics for cross-thread observers.
    std::unique_ptr<SessionStore> sessions;
    std::thread former;
  };
  // Per-(worker, model) slice of the per-batch counters below.
  struct ModelLane {
    std::uint64_t version = 0;
    std::uint64_t batches = 0;
    double modeled_busy_ms = 0;
    // Hits/misses summed over batches; enabled and the slab bytes are the
    // post-batch snapshot.
    RowCacheStats cache;
    double resident_mb = 0;                // post-batch snapshot
    std::size_t plan_bytes = 0;            // served plan (shared, not per worker)
  };
  // Per-batch counters a worker adds under stats_mutex_: O(1) per batch.
  // Per-request figures are not kept here — a drain builds them from the
  // AsyncResults it already holds.
  struct WorkerStats {
    double modeled_busy_ms = 0;
    std::uint64_t batches = 0;
    // Catalog-scan slice (ranked rows only; see ServingReport).
    std::uint64_t catalog_rows = 0;
    std::uint64_t scanned_rows = 0;
    std::uint64_t scanned_bytes = 0;
    std::map<std::string, ModelLane> models;
  };

  QueuedRequest make_request(std::string model_id,
                             std::vector<std::int32_t> history,
                             double deadline_us) const;
  // Validates config + default model and spawns the pipeline threads; the
  // shared tail of both constructors.
  void start();
  // Model-affine shard routing: one model's requests land on one shard so
  // its micro-batches stay dense; stealing rebalances execution.
  std::size_t shard_for(const std::string& model_id) const;
  // Session-affine routing for submit_next_item: a session's updates must
  // all reach the shard that owns its history ring, in order.
  std::size_t shard_for_session(std::uint64_t session_id) const;
  // True when admission control should reject a request with this deadline
  // on this shard right now.
  bool should_shed(const Shard& shard,
                   SteadyClock::time_point enqueue_tp,
                   SteadyClock::time_point deadline_tp) const;
  std::future<AsyncResult> resolve_shed(QueuedRequest request, Shard& shard);
  void former_loop(std::size_t shard_index);
  void worker_loop(std::size_t worker);
  // Thread-local state a worker threads through execute_batch: one
  // ExecutionContext per model id (re-bound on version swap) plus a reused
  // history scratch buffer.
  struct WorkerState {
    std::unordered_map<std::string, std::unique_ptr<ExecutionContext>>
        contexts;
    std::vector<std::vector<std::int32_t>> histories;
  };
  void execute_batch(std::size_t worker, BatchTask& task, WorkerState& state);
  void reset_stats();
  // The one submit/collect loop of serve() and serve_sessions(): submits
  // `repeat` passes over a corpus of `unique` requests through
  // submit_one(r) on an absolute open-loop schedule (arrival_qps 0 = as
  // fast as admitted), get()s every future in order, builds the report's
  // per-request columns from the results, and hands each executed result
  // of the first pass to keep(r, result). `sessions` marks a drain of
  // submit_next_item traffic (it fills the session slice).
  ServingReport drain(
      std::size_t unique, int repeat, double arrival_qps, bool sessions,
      const std::function<std::future<AsyncResult>(std::size_t)>& submit_one,
      const std::function<void(std::size_t, AsyncResult&)>& keep);
  // Folds the per-batch worker counters recorded since the last
  // reset_stats() into `report`: batches, modeled busy time, catalog-scan
  // bytes, cache, and the per-model version/batches/resident/cache columns.
  void collect_stats(ServingReport& report);

  AsyncServerConfig config_;
  DeviceProfile profile_;
  // Single-model mode owns its registry; multi-tenant mode points at the
  // caller's.
  std::unique_ptr<ModelRegistry> owned_registry_;
  ModelRegistry* registry_ = nullptr;
  std::string default_model_;
  // One entry per scheduler shard (producers -> former -> workers).
  // unique_ptr: Shard holds queues with const members and a thread, so the
  // vector needs stable, non-movable storage.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<WorkerStats> worker_stats_;
  mutable std::mutex stats_mutex_;
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::vector<std::thread> workers_;
};

}  // namespace memcom
