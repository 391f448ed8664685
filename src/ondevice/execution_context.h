// Per-thread mutable execution state over a shared CompiledModel.
//
// Everything a forward pass mutates lives here: the scratch arena, the
// page-granular MemoryMeter, the optional HotRowCache, and the per-op
// dispatch accounting. A context executes against exactly one CompiledModel
// at a time but can be re-bound (`bind()`) to a different plan — the
// mechanism behind zero-downtime hot swap: a serving worker keeps one
// context per model id and re-binds it whenever the ModelRegistry publishes
// a new version. Re-binding resizes the scratch arena (amortized: steady
// state on one plan never reallocates), resets the meter (the old version's
// page set is meaningless for the new mapping), and rebuilds the row cache
// cold (cached rows of the old version's weights must never serve the new
// version's traffic).
//
// The forward pass is the zero-allocation fast path: no string lookups, no
// heap allocations (tests/test_fastpath.cpp enforces both), and page-touch
// metering and logits identical on every serving path
// (tests/test_differential.cpp). A context is the one execution API: build
// it over a private plan with
// ExecutionContext(std::make_shared<const CompiledModel>(mapped), profile)
// or over a plan shared with other contexts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tensor.h"
#include "ondevice/clock.h"
#include "ondevice/compiled_model.h"
#include "ondevice/device_profile.h"
#include "ondevice/hot_row_cache.h"
#include "ondevice/memory_meter.h"
#include "ondevice/topk.h"

namespace memcom {

// Allocation-free view over the context-owned logits scratch. Valid until
// the next run on the same context.
struct InferenceView {
  const float* logits = nullptr;
  Index dim = 0;
  double embedding_ms = 0;
  double total_ms = 0;
  Index op_count = 0;
  // Hot-row cache traffic of THIS forward (both zero when no cache is
  // attached or the technique bypasses it).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

// Batched forward: one fused-graph dispatch for the whole batch, so the
// per-op overhead is charged once instead of once per request.
struct BatchResult {
  Tensor logits;            // [batch, output_dim]
  double embedding_ms = 0;  // summed compute + one amortized dispatch
  double total_ms = 0;
  Index op_count = 0;       // fused graph ops dispatched for the batch
  Index batch = 0;
  // Hot-row cache traffic of THIS batch (zero without an attached cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Catalog-scan accounting, populated only for RANKED rows (top_k > 0).
  // An exact scan scores every catalog item; a pruned scan (nprobe > 0
  // with an adopted index) scores only the probed clusters' items, and
  // scanned_bytes is the ANALYTIC compressed payload of those rows and
  // their bias entries plus the centroid table. pruned fraction =
  // 1 - scanned_rows/catalog_rows.
  std::uint64_t ranked_rows = 0;    // rows that went through top-k ranking
  std::uint64_t catalog_rows = 0;   // ranked_rows * catalog items
  std::uint64_t scanned_rows = 0;   // catalog items actually scored
  std::uint64_t scanned_bytes = 0;  // analytic compressed bytes read
};

class ExecutionContext {
 public:
  ExecutionContext(std::shared_ptr<const CompiledModel> compiled,
                   DeviceProfile profile);

  const CompiledModel& compiled() const { return *compiled_; }
  const std::shared_ptr<const CompiledModel>& compiled_ptr() const {
    return compiled_;
  }
  const DeviceProfile& profile() const { return profile_; }

  // Re-binds the context to a different plan (e.g. a hot-swapped model
  // version). No-op when `compiled` is the plan already bound. Otherwise:
  // scratch is resized for the new dims, the meter is reset, and an
  // attached row cache is rebuilt cold with the new plan's partitions.
  void bind(std::shared_ptr<const CompiledModel> compiled);

  InferenceView run_view(const std::int32_t* ids, Index length);
  InferenceView run_view(const std::vector<std::int32_t>& history) {
    return run_view(history.data(), static_cast<Index>(history.size()));
  }
  BatchResult run_batch(const std::vector<std::vector<std::int32_t>>& histories);
  // Batched forward + per-row top-k over the logits — the session
  // workload's full-catalog ranking (the output dense layer IS the
  // compressed catalog scan; see ondevice/topk.h for the deterministic
  // ordering contract). When `top_k` > 0, `topk_out` is resized to [batch]
  // and row b receives the best min(top_k, output_dim) ids of request b,
  // selected straight off the logits scratch before the next row
  // overwrites it. Ranking lives here so every ranking caller — AsyncServer
  // micro-batches, the benches — breaks ties identically.
  //
  // `nprobes` (optional, per row, parallel to `histories`) turns a row's
  // ranking into the CLUSTERED PRUNED scan when its value is > 0 AND the
  // bound plan carries an adopted catalog index: the trunk vector probes
  // the nprobe best centroids and only those clusters' catalog rows are
  // scored — through the same CatalogScorer::score the exact logits use,
  // so every score it produces is bit-identical to the exact row's logit
  // and nprobe == clusters reproduces the exact ranking exactly. 0 (or a
  // missing/defective index) is the exact full scan. A pruned row's
  // result.logits row stays zero: consumers of pruned rankings read
  // topk_out, not dense logits.
  BatchResult run_batch(const std::vector<std::vector<std::int32_t>>& histories,
                        Index top_k,
                        std::vector<std::vector<ScoredId>>* topk_out,
                        const std::vector<Index>* nprobes = nullptr);

  // Latency distribution over `runs` batch-1 forwards of the same input
  // (the paper reports the average of 1000 runs; percentiles are kept too).
  LatencyStats benchmark(const std::vector<std::int32_t>& history, int runs);

  const MemoryMeter& meter() const { return meter_; }
  void reset_meter() { meter_.reset(); }
  double resident_megabytes() const;

  // Attaches a fixed-budget HotRowCache over the plan's lookup-path
  // embedding tensors. Returns false — and attaches nothing — for the
  // one-hot Weinberger path. The budget is remembered across bind().
  bool enable_row_cache(std::size_t budget_bytes);
  void clear_row_cache();
  bool row_cache_enabled() const { return row_cache_ != nullptr; }
  RowCacheStats row_cache_stats() const;

 private:
  // Raw (overhead-free) timings of one forward into the scratch arena.
  struct RawForward {
    double embed_compute_ms = 0;
    double compute_ms = 0;
    double onehot_extra_ms = 0;
    Index embed_ops = 0;
    Index op_count = 0;
  };

  void resize_scratch();
  bool attach_row_cache();

  // Meters the byte range covering `count` elements at element `offset`.
  void touch(const TensorRef& ref, Index offset, Index count);
  // Meters + returns a pointer to `count` floats at element `offset`:
  // zero-copy for fp32 tensors, dequantized into `scratch` otherwise.
  const float* fetch(const TensorRef& ref, Index offset, Index count,
                     float* scratch);
  // Row-gather hook: like fetch() for row `row` of `elems` floats, but
  // consults the hot-row cache first when one is attached. `table` selects
  // the cache partition (kCacheTableA/B/C).
  const float* fetch_row(const TensorRef& ref, std::size_t table, Index row,
                         Index elems, float* scratch);
  // fetch() minus the metering, for reads the caller already touched (the
  // zero-slot cache-partition bypass).
  const float* fetch_uncached(const TensorRef& ref, Index offset, Index count,
                              float* scratch);

  // Shared trunk (embedding → pooling → ReLU → bn1 [→ dense1 → ReLU →
  // bn2]); fills `raw`'s embed timings and compute-so-far, returns the
  // trunk activation both output stages score against.
  const float* forward_trunk(const std::int32_t* ids, Index length,
                             RawForward& raw);
  // Computes logits into logits_; returns raw timings. The code path
  // behind run_view() and exact run_batch() rows.
  RawForward forward_scratch(const std::int32_t* ids, Index length);
  // Pruned ranked forward: trunk → centroid probe → the plan's output
  // scorer over only the probed clusters' catalog rows, metering exactly
  // those rows. Ranked result into `ranked`; analytic scan counters
  // accumulate into the two totals.
  RawForward forward_pruned(const std::int32_t* ids, Index length,
                            Index nprobe, Index top_k,
                            std::vector<ScoredId>* ranked,
                            std::uint64_t* scanned_rows,
                            std::uint64_t* scanned_bytes);
  // Pooled embedding into pooled_ (lookup path). Returns #real tokens.
  Index embed_pooled(const std::int32_t* ids, Index length);
  // Pooled embedding via the one-hot path (whole-table stream).
  void embed_onehot_pooled(const std::int32_t* ids, Index length);

  void apply_batchnorm(const BatchNormPlan& bn, float* x);
  // y[out] = x[in] * W[in,out] + b[out] (the hidden layer; the output
  // layer is scored through CompiledModel::output_scorer()).
  void apply_dense(const DensePlan& dense, const float* x, float* y);

  // Cache partition tags for the plan's embedding tensors.
  static constexpr std::size_t kCacheTableA = 0;
  static constexpr std::size_t kCacheTableB = 1;
  static constexpr std::size_t kCacheTableC = 2;

  std::shared_ptr<const CompiledModel> compiled_;
  DeviceProfile profile_;
  MemoryMeter meter_;
  std::unique_ptr<HotRowCache> row_cache_;  // null = disabled
  std::size_t cache_budget_bytes_ = 0;      // sticky across bind()
  Index op_count_ = 0;
  Index activation_bytes_ = 0;

  // --- Scratch arena (sized per bound plan; reused by every run) ---
  std::vector<float> pooled_;
  std::vector<float> row_;      // embedding-row scratch (quantized gathers)
  std::vector<float> row2_;     // second gather / dense-row scratch
  std::vector<float> hidden_;
  std::vector<float> logits_;
  std::vector<float> onehot_;   // weinberger bag-of-words, size m
  std::vector<float> query_;    // pruned probe query [trunk; 1.0], in+1
};

}  // namespace memcom
