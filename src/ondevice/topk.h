// Deterministic top-k selection + full-catalog scoring over a COMPRESSED
// item table.
//
// The session workload's expensive step is ranking the session vector
// against the entire item catalog (ROADMAP item 3, after *Efficient
// On-Device Session-Based Recommendation*). That scan is itself a
// compression target: CatalogScorer walks an item-major [items, dim] table
// in its stored form (f32/f16/i8/i4/i4g) through the KernelSet dot_span
// kernel, so the catalog is never materialized as f32 beyond a small fixed
// stack buffer inside the kernel.
//
// Ordering contract (shared with gumbel_top_k in core/sampling.cpp and
// enforced against a full-sort reference by tests/test_topk.cpp +
// tests/test_differential.cpp): higher score first, and on EXACTLY equal
// scores the LOWER id wins. Float == treats -0.0 and 0.0 as equal, so ±0
// ties also resolve by id. Scores must be NaN-free (quantized logits are).
// Because the ordering is total, topk_select is bit-identical to sorting
// the whole catalog and truncating — across kernel families and shard
// counts.
#pragma once

#include <algorithm>
#include <vector>

#include "core/tensor.h"
#include "ondevice/kernels.h"
#include "ondevice/quantize.h"

namespace memcom {

struct ScoredId {
  float score = 0.0f;
  Index id = 0;
};

// The one comparator both top-k paths and gumbel_top_k agree on: true when
// `a` ranks strictly ahead of `b`.
inline bool topk_better(const ScoredId& a, const ScoredId& b) {
  return a.score > b.score || (a.score == b.score && a.id < b.id);
}

// One candidate into a bounded heap whose top is the WORST kept entry
// (std::push_heap builds a max-heap under its comparator, and under
// topk_better the "maximum" is the element that beats nobody). Because
// topk_better is a strict TOTAL order, the final heap contents — and hence
// the sorted result — are independent of offer order: this is what makes
// the pruned catalog scan's nprobe == num_clusters leg provably identical
// to the exact full scan (see ondevice/catalog_index.h).
inline void topk_offer(std::vector<ScoredId>& heap, Index k, ScoredId cand) {
  if (static_cast<Index>(heap.size()) < k) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end(), topk_better);
  } else if (topk_better(cand, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), topk_better);
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end(), topk_better);
  }
}

// Bounded-heap selection: O(n log k), no allocation beyond the k-element
// result. Returns min(k, n) entries sorted best-first.
std::vector<ScoredId> topk_select(const float* scores, Index n, Index k);

// Full-sort reference (O(n log n)); topk_select must match it exactly.
std::vector<ScoredId> topk_full_sort(const float* scores, Index n, Index k);

// Codec view of a heap-owned QuantizedTensor (the same i4g scales/nibbles
// split make_span_src does for mmap'd tensors). The tensor must outlive
// the returned view.
SpanSrc make_span_src(const QuantizedTensor& q);

// Scores a float query vector against every row of an item-major
// [items, dim] catalog kept in compressed form. Rows are streamed through
// the selected family's dot_rows/dot_span — bit-identical scalar vs AVX2 —
// so the catalog is never materialized as f32; top_k() selects from the
// scores exactly as the serving exact scan does.
// A CompiledModel's output layer is one of these (with its bias), so exact
// logits, exact top-k and the pruned scan all go through score().
class CatalogScorer {
 public:
  CatalogScorer() = default;
  // Borrows `catalog`; it must outlive the scorer.
  CatalogScorer(const QuantizedTensor& catalog, const KernelSet& kernels);
  // Zero-copy view form (e.g. a CompiledModel output table). A non-null
  // `bias` ([items], borrowed) is added to every row's dot.
  CatalogScorer(const SpanSrc& src, Index items, Index dim,
                std::size_t resident_bytes, const KernelSet& kernels,
                const float* bias = nullptr);

  Index items() const { return items_; }
  Index dim() const { return dim_; }
  // Query lanes an index over this catalog expects: a biased catalog's
  // index folds the bias in as a trailing 1.0 lane the scorer never reads.
  Index query_dim() const { return bias_ != nullptr ? dim_ + 1 : dim_; }
  // Compressed bytes the scan touches — the catalog's entire stored
  // payload (every row is read once per query). This is the "catalog
  // residency" column of the session bench.
  std::size_t resident_bytes() const { return resident_bytes_; }
  // Codec view + kernel family, shared with PrunedCatalogScorer so the
  // pruned scan scores rows through the exact same dot_span path.
  const SpanSrc& src() const { return src_; }
  const KernelSet& kernels() const { return *kernels_; }

  // <row i, query> (+ bias[i]).
  float score(Index i, const float* query) const {
    const float dot = kernels_->dot_span(src_, i * dim_, dim_, query);
    return bias_ != nullptr ? dot + bias_[i] : dot;
  }
  // out[i] = score(i, query) for all items.
  void score_all(const float* query, float* out) const;
  // Best k ids: score_all + topk_select.
  std::vector<ScoredId> top_k(const float* query, Index k) const;

 private:
  SpanSrc src_;
  Index items_ = 0;
  Index dim_ = 0;
  std::size_t resident_bytes_ = 0;
  const KernelSet* kernels_ = nullptr;
  const float* bias_ = nullptr;
};

}  // namespace memcom
