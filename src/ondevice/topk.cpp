#include "ondevice/topk.h"

#include <algorithm>

#include "core/check.h"
#include "ondevice/plan.h"

namespace memcom {

std::vector<ScoredId> topk_select(const float* scores, Index n, Index k) {
  check(k >= 0, "topk_select: negative k");
  const Index kept = std::min(k, n);
  std::vector<ScoredId> heap;
  heap.reserve(static_cast<std::size_t>(kept));
  if (kept == 0) {
    return heap;
  }
  for (Index i = 0; i < n; ++i) {
    topk_offer(heap, kept, ScoredId{scores[i], i});
  }
  std::sort(heap.begin(), heap.end(), topk_better);
  return heap;
}

std::vector<ScoredId> topk_full_sort(const float* scores, Index n, Index k) {
  check(k >= 0, "topk_full_sort: negative k");
  std::vector<ScoredId> all(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    all[static_cast<std::size_t>(i)] = ScoredId{scores[i], i};
  }
  std::sort(all.begin(), all.end(), topk_better);
  all.resize(static_cast<std::size_t>(std::min(k, n)));
  return all;
}

SpanSrc make_span_src(const QuantizedTensor& q) {
  TensorEntry entry;
  entry.dtype = q.dtype;
  entry.scale = q.scale;
  entry.shape = q.shape;
  entry.group_size = q.group_size;
  return make_span_src(entry, q.payload.data());
}

CatalogScorer::CatalogScorer(const QuantizedTensor& catalog,
                             const KernelSet& kernels)
    : CatalogScorer(make_span_src(catalog),
                    catalog.shape.size() == 2 ? catalog.shape[0] : 0,
                    catalog.shape.size() == 2 ? catalog.shape[1] : 0,
                    catalog.payload.size(), kernels) {}

CatalogScorer::CatalogScorer(const SpanSrc& src, Index items, Index dim,
                             std::size_t resident_bytes,
                             const KernelSet& kernels, const float* bias)
    : src_(src),
      items_(items),
      dim_(dim),
      resident_bytes_(resident_bytes),
      kernels_(&kernels),
      bias_(bias) {
  check(items_ > 0 && dim_ > 0, "CatalogScorer: empty catalog");
}

void CatalogScorer::score_all(const float* query, float* out) const {
  kernels_->dot_rows(src_, 0, items_, dim_, query, out);
  if (bias_ != nullptr) {
    for (Index i = 0; i < items_; ++i) {
      out[i] += bias_[i];  // score(i): the dot, then the bias
    }
  }
}

std::vector<ScoredId> CatalogScorer::top_k(const float* query, Index k) const {
  std::vector<float> scores(static_cast<std::size_t>(items_));
  score_all(query, scores.data());
  return topk_select(scores.data(), items_, k);
}

}  // namespace memcom
