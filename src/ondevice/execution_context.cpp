#include "ondevice/execution_context.h"

#include <algorithm>
#include <cstring>

#include "core/check.h"
#include "embedding/hashing.h"
#include "embedding/id_batch.h"
#include "ondevice/clock.h"

namespace memcom {

namespace {
using Clock = SteadyClock;
}  // namespace

ExecutionContext::ExecutionContext(
    std::shared_ptr<const CompiledModel> compiled, DeviceProfile profile)
    : compiled_(std::move(compiled)),
      profile_(std::move(profile)),
      meter_(profile_.page_size, profile_.readahead_pages) {
  check(compiled_ != nullptr, "ExecutionContext: null compiled model");
  resize_scratch();
}

void ExecutionContext::bind(std::shared_ptr<const CompiledModel> compiled) {
  check(compiled != nullptr, "ExecutionContext: bind to null model");
  if (compiled.get() == compiled_.get()) {
    return;
  }
  compiled_ = std::move(compiled);
  resize_scratch();
  // The old version's page set is meaningless against the new mapping.
  meter_.reset();
  // Cached rows hold the OLD version's weights: rebuild the cache cold so a
  // swap can never serve stale floats (and partition widths follow the new
  // plan's technique).
  if (cache_budget_bytes_ > 0) {
    attach_row_cache();
  } else {
    row_cache_.reset();
  }
}

void ExecutionContext::resize_scratch() {
  const CompiledModel& plan = *compiled_;
  const Index e = plan.embed_dim();
  // Exact sizes per plan: the arena loops iterate whole vectors, so a
  // larger-than-needed buffer would change the simulated compute time.
  // resize() keeps capacity, so steady state on one plan never reallocates
  // and alternating plans settle to the high-water capacity.
  pooled_.resize(static_cast<std::size_t>(e));
  std::fill(pooled_.begin(), pooled_.end(), 0.0f);
  row_.resize(static_cast<std::size_t>(std::max(e, plan.factor_dim())), 0.0f);
  row2_.resize(static_cast<std::size_t>(
                   std::max({e, plan.hidden_dim(), plan.output_dim()})),
               0.0f);
  hidden_.resize(static_cast<std::size_t>(plan.hidden_dim()), 0.0f);
  logits_.resize(static_cast<std::size_t>(plan.output_dim()), 0.0f);
  onehot_.resize(plan.uses_onehot_path()
                     ? static_cast<std::size_t>(plan.hash_size())
                     : 0,
                 0.0f);
  query_.resize(plan.has_catalog_index()
                    ? static_cast<std::size_t>(plan.out().in) + 1
                    : 0,
                0.0f);
}

LatencyStats ExecutionContext::benchmark(
    const std::vector<std::int32_t>& history, int runs) {
  check(runs > 0, "ExecutionContext: runs must be positive");
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    samples.push_back(run_view(history).total_ms);
  }
  return latency_stats_from_samples(std::move(samples));
}

bool ExecutionContext::attach_row_cache() {
  std::vector<Index> widths = compiled_->cache_row_widths();
  if (widths.empty()) {
    row_cache_.reset();
    return false;
  }
  row_cache_ =
      std::make_unique<HotRowCache>(cache_budget_bytes_, std::move(widths));
  return true;
}

bool ExecutionContext::enable_row_cache(std::size_t budget_bytes) {
  cache_budget_bytes_ = budget_bytes;
  return attach_row_cache();
}

void ExecutionContext::clear_row_cache() {
  if (row_cache_ != nullptr) {
    row_cache_->clear();
  }
}

RowCacheStats ExecutionContext::row_cache_stats() const {
  return row_cache_ != nullptr ? row_cache_->stats() : RowCacheStats{};
}

void ExecutionContext::touch(const TensorRef& ref, Index offset,
                             Index count) {
  if (ref.dtype == DType::kI4G) {
    // Grouped blobs are two regions; a span read touches both. Scales: the
    // f32 entries of every group the span overlaps. Nibbles: the sub-byte
    // span itself, shifted past the scales header.
    const Index g = ref.entry->group_size;
    const Index first_group = offset / g;
    const Index last_group = (offset + count + g - 1) / g;
    meter_.touch(ref.file_offset + first_group * 4,
                 (last_group - first_group) * 4);
    const Index scales_bytes =
        static_cast<Index>(ref.src.packed - ref.src.payload);
    const ByteSpan span = packed_byte_span(offset, count, 4);
    meter_.touch(ref.file_offset + scales_bytes + span.offset, span.length);
    return;
  }
  // Sub-byte aware: the naive ceil(count*bits/8) undercounts a 4-bit span
  // starting mid-byte (the satellite bug this PR fixes); packed_byte_span
  // rounds the bit interval OUT to whole bytes.
  const ByteSpan span =
      packed_byte_span(offset, count, static_cast<int>(ref.element_bits));
  meter_.touch(ref.file_offset + span.offset, span.length);
}

const float* ExecutionContext::fetch(const TensorRef& ref, Index offset,
                                     Index count, float* scratch) {
  touch(ref, offset, count);
  if (ref.f32 != nullptr) {
    return ref.f32 + offset;
  }
  compiled_->kernels().dequant_span(ref.src, offset, count, scratch);
  return scratch;
}

const float* ExecutionContext::fetch_row(const TensorRef& ref,
                                         std::size_t table, Index row,
                                         Index elems, float* scratch) {
  if (row_cache_ == nullptr) {
    return fetch(ref, row * elems, elems, scratch);
  }
  if (const float* hit = row_cache_->lookup(table, row)) {
    // Served from the cache slab: no page touch, no dequantize. The slab
    // holds exactly the floats the mmap read would have produced, so the
    // logits stay bit-identical either way.
    return hit;
  }
  touch(ref, row * elems, elems);
  float* slot = row_cache_->fill(table, row);
  if (slot == nullptr) {
    // Partition has zero slots (its rows are wider than the per-table
    // budget share): serve straight from the mapping, never the slab.
    return fetch_uncached(ref, row * elems, elems, scratch);
  }
  if (ref.f32 != nullptr) {
    std::memcpy(slot, ref.f32 + row * elems,
                static_cast<std::size_t>(elems) * sizeof(float));
  } else {
    compiled_->kernels().dequant_span(ref.src, row * elems, elems, slot);
  }
  return slot;
}

const float* ExecutionContext::fetch_uncached(const TensorRef& ref,
                                              Index offset, Index count,
                                              float* scratch) {
  // Like fetch() minus the touch (the caller already metered the read).
  if (ref.f32 != nullptr) {
    return ref.f32 + offset;
  }
  compiled_->kernels().dequant_span(ref.src, offset, count, scratch);
  return scratch;
}

Index ExecutionContext::embed_pooled(const std::int32_t* ids, Index length) {
  const CompiledModel& plan = *compiled_;
  const KernelSet& ker = plan.kernels();
  const Technique kind = plan.technique_kind();
  const Index e = plan.embed_dim();
  const Index hash_size = plan.hash_size();
  std::fill(pooled_.begin(), pooled_.end(), 0.0f);
  float* pooled = pooled_.data();
  Index real = 0;
  for (Index t = 0; t < length; ++t) {
    const std::int32_t id = ids[t];
    if (id == kPadId) {
      continue;
    }
    ++real;
    switch (kind) {
      case Technique::kUncompressed:
      case Technique::kReduceDim: {
        const float* row =
            fetch_row(plan.emb_a(), kCacheTableA, id, e, row_.data());
        ker.acc_add(pooled, row, e);
        break;
      }
      case Technique::kTruncateRare: {
        const Index keep = hash_size;
        const Index r = static_cast<Index>(id) <= keep ? id : keep + 1;
        const float* row =
            fetch_row(plan.emb_a(), kCacheTableA, r, e, row_.data());
        ker.acc_add(pooled, row, e);
        break;
      }
      case Technique::kNaiveHash: {
        const float* row = fetch_row(plan.emb_a(), kCacheTableA,
                                     mod_hash(id, hash_size), e, row_.data());
        ker.acc_add(pooled, row, e);
        break;
      }
      case Technique::kMemcom:
      case Technique::kMemcomBias: {
        const float* row = fetch_row(plan.emb_a(), kCacheTableA,
                                     mod_hash(id, hash_size), e, row_.data());
        float mult = 0.0f;
        const float* mult_ptr =
            fetch_row(plan.emb_b(), kCacheTableB, id, 1, &mult);
        const float m = *mult_ptr;
        if (kind == Technique::kMemcomBias) {
          float bias = 0.0f;
          const float* bias_ptr =
              fetch_row(plan.emb_c(), kCacheTableC, id, 1, &bias);
          const float b = *bias_ptr;
          // Distinct kernel from the plain scale-add: `row*m + b` rounds
          // differently than `row*m` followed by `+ b` would, and the
          // bit-exactness contract pins the original expression.
          ker.acc_scale_bias_add(pooled, row, m, b, e);
        } else {
          ker.acc_scale_add(pooled, row, m, e);
        }
        break;
      }
      case Technique::kQrMult: {
        const float* rem = fetch_row(plan.emb_a(), kCacheTableA,
                                     mod_hash(id, hash_size), e, row_.data());
        const float* quo =
            fetch_row(plan.emb_b(), kCacheTableB,
                      static_cast<Index>(id) / hash_size, e, row2_.data());
        ker.acc_mult_add(pooled, rem, quo, e);
        break;
      }
      case Technique::kQrConcat: {
        const Index half = e / 2;
        const float* rem =
            fetch_row(plan.emb_a(), kCacheTableA, mod_hash(id, hash_size),
                      half, row_.data());
        const float* quo =
            fetch_row(plan.emb_b(), kCacheTableB,
                      static_cast<Index>(id) / hash_size, half, row2_.data());
        ker.acc_add(pooled, rem, half);
        ker.acc_add(pooled + half, quo, half);
        break;
      }
      case Technique::kDoubleHash: {
        const Index half = e / 2;
        const float* a =
            fetch_row(plan.emb_a(), kCacheTableA, mod_hash(id, hash_size),
                      half, row_.data());
        const float* b =
            fetch_row(plan.emb_b(), kCacheTableB, mixed_hash(id, hash_size),
                      half, row2_.data());
        ker.acc_add(pooled, a, half);
        ker.acc_add(pooled + half, b, half);
        break;
      }
      case Technique::kFactorized: {
        const Index h = plan.factor_dim();
        const float* factors =
            fetch_row(plan.emb_a(), kCacheTableA, id, h, row_.data());
        // Project: row2 = factors · P using the pre-dequantized projection;
        // the mmap range is still metered exactly like the streaming read.
        touch(plan.emb_b(), 0, h * e);
        float* acc = row2_.data();
        std::fill(acc, acc + e, 0.0f);
        const float* proj = plan.projection().data();
        for (Index k = 0; k < h; ++k) {
          ker.axpy(acc, factors[k], proj + k * e, e);
        }
        ker.acc_add(pooled, acc, e);
        break;
      }
      case Technique::kWeinberger:
        // forward_scratch routes weinberger through embed_onehot_pooled;
        // keeping a shadow lookup formulation here would silently diverge.
        check(false, "engine: weinberger uses the one-hot path");
        break;
    }
  }
  return real;
}

void ExecutionContext::embed_onehot_pooled(const std::int32_t* ids,
                                           Index length) {
  const CompiledModel& plan = *compiled_;
  const Index e = plan.embed_dim();
  const Index m = plan.hash_size();
  // Stage 1: hashed one-hot bag z in R^m (normalized so the result matches
  // the lookup path's masked average exactly).
  Index real = 0;
  for (Index t = 0; t < length; ++t) {
    if (ids[t] != kPadId) {
      ++real;
    }
  }
  std::fill(onehot_.begin(), onehot_.end(), 0.0f);
  const float inv = real > 0 ? 1.0f / static_cast<float>(real) : 0.0f;
  for (Index t = 0; t < length; ++t) {
    const std::int32_t id = ids[t];
    if (id == kPadId) {
      continue;
    }
    onehot_[static_cast<std::size_t>(mod_hash(id, m))] += sign_hash(id) * inv;
  }
  // Stage 2: z^T W — streams the ENTIRE table (this is the point of §5.3):
  // every row is read/dequantized regardless of z, so the simulated wall
  // time stays O(m·e) like the real un-fused one_hot->matmul, not O(nnz·e).
  // One full-range touch covers the same page set as the row-by-row reads.
  touch(plan.emb_a(), 0, m * e);
  std::fill(pooled_.begin(), pooled_.end(), 0.0f);
  const KernelSet& ker = plan.kernels();
  float* pooled = pooled_.data();
  float* row = row_.data();
  const TensorRef& table = plan.emb_a();
  for (Index j = 0; j < m; ++j) {
    ker.dequant_span(table.src, j * e, e, row);
    const float z = onehot_[static_cast<std::size_t>(j)];
    if (z != 0.0f) {
      ker.axpy(pooled, z, row, e);
    }
  }
}

void ExecutionContext::apply_batchnorm(const BatchNormPlan& bn, float* x) {
  const Index n = bn.width;
  touch(bn.gamma, 0, n);
  touch(bn.beta, 0, n);
  touch(bn.mean, 0, n);
  touch(bn.var, 0, n);
  const float* scale = bn.scale.data();
  const float* shift = bn.shift.data();
  for (Index i = 0; i < n; ++i) {
    x[i] = x[i] * scale[static_cast<std::size_t>(i)] +
           shift[static_cast<std::size_t>(i)];
  }
  ++op_count_;
}

void ExecutionContext::apply_dense(const DensePlan& dense, const float* x,
                                   float* y) {
  const Index in = dense.in;
  const Index out = dense.out;
  // One full-range touch covers the same pages as streaming every row.
  touch(dense.weight, 0, in * out);
  std::fill(y, y + out, 0.0f);
  const KernelSet& ker = compiled_->kernels();
  if (dense.weight.f32 != nullptr) {
    // Unconditional MAC over every row: a real dense matmul kernel pays the
    // full in·out cost, so the modeled latency must not scale with post-ReLU
    // sparsity of x (zero rows contribute ±0 and leave y unchanged).
    const float* weight = dense.weight.f32;
    for (Index k = 0; k < in; ++k) {
      ker.axpy(y, x[k], weight + k * out, out);
    }
  } else {
    // Every weight row is dequantized regardless of activation sparsity, so
    // the modeled int8/f16 dense latency stays that of a real streaming
    // matmul kernel rather than scaling with post-ReLU zeros.
    for (Index k = 0; k < in; ++k) {
      ker.dequant_span(dense.weight.src, k * out, out, row2_.data());
      const float xv = x[k];
      if (xv != 0.0f) {
        ker.axpy(y, xv, row2_.data(), out);
      }
    }
  }
  touch(dense.bias_ref, 0, out);
  ker.acc_add(y, dense.bias.data(), out);
  ++op_count_;
}

const float* ExecutionContext::forward_trunk(const std::int32_t* ids,
                                             Index length, RawForward& raw) {
  const CompiledModel& plan = *compiled_;
  op_count_ = 0;
  activation_bytes_ = 0;
  const Index e = plan.embed_dim();

  const auto start = Clock::now();

  // --- Embedding stage + masked average pooling ---
  if (plan.uses_onehot_path()) {
    const auto onehot_start = Clock::now();
    embed_onehot_pooled(ids, length);
    // The profile's slowdown models the un-fused interpreter path.
    raw.onehot_extra_ms =
        elapsed_ms(onehot_start) * (profile_.onehot_slowdown - 1.0);
    activation_bytes_ += plan.hash_size() * 4;  // the dense one-hot vector
  } else {
    const Index real = embed_pooled(ids, length);
    if (real > 0) {
      const float inv = 1.0f / static_cast<float>(real);
      for (float& v : pooled_) {
        v *= inv;
      }
    }
    activation_bytes_ += length * e * 4;  // the [L, E] lookup output
  }
  op_count_ += plan.embedding_stage_ops();
  ++op_count_;  // pooling op
  raw.embed_ops = op_count_;
  raw.embed_compute_ms = elapsed_ms(start);

  // --- Trunk: ReLU -> BN [-> Dense(e/2)+ReLU -> BN] -> Dense(out) ---
  for (float& v : pooled_) {
    v = std::max(v, 0.0f);
  }
  ++op_count_;
  apply_batchnorm(plan.bn1(), pooled_.data());
  const float* trunk = pooled_.data();
  if (plan.has_hidden()) {
    apply_dense(plan.dense1(), trunk, hidden_.data());
    for (float& v : hidden_) {
      v = std::max(v, 0.0f);
    }
    ++op_count_;
    apply_batchnorm(plan.bn2(), hidden_.data());
    trunk = hidden_.data();
    activation_bytes_ += plan.hidden_dim() * 4;
  }
  raw.compute_ms = elapsed_ms(start);
  return trunk;
}

ExecutionContext::RawForward ExecutionContext::forward_scratch(
    const std::int32_t* ids, Index length) {
  const CompiledModel& plan = *compiled_;
  const DensePlan& out = plan.out();
  RawForward raw;
  const float* trunk = forward_trunk(ids, length, raw);
  const auto out_start = Clock::now();
  // One full-range touch per blob covers the pages every row read touches.
  touch(out.weight, 0, out.out * out.in);
  touch(out.bias_ref, 0, out.out);
  plan.output_scorer().score_all(trunk, logits_.data());
  ++op_count_;
  raw.compute_ms += elapsed_ms(out_start);
  activation_bytes_ += plan.output_dim() * 4 + plan.embed_dim() * 4;
  meter_.note_activation_bytes(activation_bytes_);
  raw.op_count = op_count_;
  return raw;
}

ExecutionContext::RawForward ExecutionContext::forward_pruned(
    const std::int32_t* ids, Index length, Index nprobe, Index top_k,
    std::vector<ScoredId>* ranked, std::uint64_t* scanned_rows,
    std::uint64_t* scanned_bytes) {
  const CompiledModel& plan = *compiled_;
  const CatalogIndex& index = plan.catalog_index();
  const DensePlan& out = plan.out();
  const Index in = out.in;

  RawForward raw;
  const float* trunk = forward_trunk(ids, length, raw);
  const auto out_start = Clock::now();

  // Probe query [trunk; 1.0] against centroids built over [W[j, :]; b_j],
  // then score the probed rows with the exact scan's own expression.
  std::copy(trunk, trunk + in, query_.begin());
  query_[static_cast<std::size_t>(in)] = 1.0f;
  const PrunedCatalogScorer pruned(plan.output_scorer(), index);
  const std::vector<ScoredId> probed = pruned.probe(query_.data(), nprobe);
  ScanStats stats;
  *ranked = pruned.score_probed(query_.data(), top_k, probed, &stats);

  // Meter only what the scan read: each probed row and its bias entry.
  for (const ScoredId& cluster : probed) {
    const std::size_t end =
        index.offsets[static_cast<std::size_t>(cluster.id) + 1];
    for (std::size_t pos = index.offsets[static_cast<std::size_t>(cluster.id)];
         pos < end; ++pos) {
      const Index j = static_cast<Index>(index.perm[pos]);
      touch(out.weight, j * in, in);
      touch(out.bias_ref, j, 1);
    }
  }
  const auto rows = static_cast<std::uint64_t>(stats.scanned_rows);
  *scanned_rows += rows;
  *scanned_bytes += stats.scanned_bytes +
                    rows * span_scan_bytes(out.bias_ref.src, 0, 1);

  op_count_ += 2;  // centroid probe + pruned gather-scan
  activation_bytes_ += plan.output_dim() * 4 + plan.embed_dim() * 4;
  meter_.note_activation_bytes(activation_bytes_);
  raw.compute_ms += elapsed_ms(out_start);
  raw.op_count = op_count_;
  return raw;
}

InferenceView ExecutionContext::run_view(const std::int32_t* ids,
                                         Index length) {
  const RowCacheStats before = row_cache_stats();
  const RawForward raw = forward_scratch(ids, length);
  InferenceView view;
  view.logits = logits_.data();
  view.dim = compiled_->output_dim();
  view.op_count = raw.op_count;
  if (before.enabled) {
    const RowCacheStats after = row_cache_stats();
    view.cache_hits = after.hits - before.hits;
    view.cache_misses = after.misses - before.misses;
  }
  view.embedding_ms = raw.embed_compute_ms + raw.onehot_extra_ms +
                      static_cast<double>(raw.embed_ops) *
                          profile_.per_op_dispatch_us / 1000.0;
  view.total_ms = raw.compute_ms + raw.onehot_extra_ms +
                  static_cast<double>(raw.op_count) *
                      profile_.per_op_dispatch_us / 1000.0;
  return view;
}

BatchResult ExecutionContext::run_batch(
    const std::vector<std::vector<std::int32_t>>& histories) {
  return run_batch(histories, 0, nullptr);
}

BatchResult ExecutionContext::run_batch(
    const std::vector<std::vector<std::int32_t>>& histories, Index top_k,
    std::vector<std::vector<ScoredId>>* topk_out,
    const std::vector<Index>* nprobes) {
  const RowCacheStats before = row_cache_stats();
  BatchResult result;
  result.batch = static_cast<Index>(histories.size());
  const Index dim = compiled_->output_dim();
  result.logits = Tensor({result.batch, dim});
  double compute = 0.0;
  double embed_compute = 0.0;
  double onehot_extra = 0.0;
  Index embed_ops = 0;
  Index ops = 0;
  if (top_k > 0) {
    check(topk_out != nullptr, "run_batch: top_k > 0 needs topk_out");
    topk_out->resize(static_cast<std::size_t>(result.batch));
  }
  check(nprobes == nullptr ||
            static_cast<Index>(nprobes->size()) == result.batch,
        "run_batch: nprobes size mismatch");
  for (Index b = 0; b < result.batch; ++b) {
    const auto& history = histories[static_cast<std::size_t>(b)];
    const Index nprobe =
        nprobes != nullptr ? (*nprobes)[static_cast<std::size_t>(b)] : 0;
    const bool pruned =
        top_k > 0 && nprobe > 0 && compiled_->has_catalog_index();
    RawForward raw;
    if (pruned) {
      raw = forward_pruned(history.data(), static_cast<Index>(history.size()),
                           nprobe, top_k,
                           &(*topk_out)[static_cast<std::size_t>(b)],
                           &result.scanned_rows, &result.scanned_bytes);
    } else {
      raw =
          forward_scratch(history.data(), static_cast<Index>(history.size()));
      if (top_k > 0) {
        (*topk_out)[static_cast<std::size_t>(b)] =
            topk_select(logits_.data(), dim, top_k);
        result.scanned_rows += static_cast<std::uint64_t>(dim);
        // The whole stored catalog: weight + bias blobs.
        result.scanned_bytes += compiled_->output_scorer().resident_bytes();
      }
    }
    if (top_k > 0) {
      ++result.ranked_rows;
      result.catalog_rows += static_cast<std::uint64_t>(dim);
    }
    if (!pruned) {
      std::memcpy(&result.logits.at2(b, 0), logits_.data(),
                  static_cast<std::size_t>(dim) * sizeof(float));
    }
    compute += raw.compute_ms;
    embed_compute += raw.embed_compute_ms;
    onehot_extra += raw.onehot_extra_ms;
    embed_ops = raw.embed_ops;
    ops = raw.op_count;
  }
  // The frameworks dispatch ONE fused graph for the whole batch, so the
  // per-op overhead is charged once — this is the batching win.
  result.op_count = ops;
  result.embedding_ms = embed_compute + onehot_extra +
                        static_cast<double>(embed_ops) *
                            profile_.per_op_dispatch_us / 1000.0;
  result.total_ms = compute + onehot_extra +
                    static_cast<double>(ops) * profile_.per_op_dispatch_us /
                        1000.0;
  if (before.enabled) {
    const RowCacheStats after = row_cache_stats();
    result.cache_hits = after.hits - before.hits;
    result.cache_misses = after.misses - before.misses;
  }
  return result;
}

double ExecutionContext::resident_megabytes() const {
  // The cache slab is extra runtime memory the device pays for; its filled
  // bytes join the weight pages and activation peak in the footprint.
  const std::size_t cache_bytes =
      row_cache_ != nullptr ? row_cache_->stats().resident_bytes : 0;
  return static_cast<double>(meter_.total_resident_bytes() +
                             profile_.runtime_overhead_bytes +
                             static_cast<Index>(cache_bytes)) /
         (1024.0 * 1024.0);
}

}  // namespace memcom
