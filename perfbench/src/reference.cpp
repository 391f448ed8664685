#include "reference.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Reference::Reference(const memcom::ModelConfig& config, const std::string& path)
    : model_(config) {
  model_.load_mcm(path);
}

memcom::Tensor Reference::logits(const std::vector<const History*>& histories) {
  std::size_t length = 1;
  for (const History* h : histories) {
    length = std::max(length, h->size());
  }
  memcom::IdBatch batch(static_cast<Index>(histories.size()),
                        static_cast<Index>(length));
  for (std::size_t b = 0; b < histories.size(); ++b) {
    std::copy(histories[b]->begin(), histories[b]->end(),
              batch.ids.begin() + static_cast<std::ptrdiff_t>(b * length));
  }
  return model_.forward(batch, /*training=*/false);
}

float row_tolerance(const float* reference, Index n) {
  float scale = 1.0f;
  for (Index j = 0; j < n; ++j) {
    scale = std::max(scale, std::fabs(reference[j]));
  }
  return kTolerance * scale;
}

std::vector<Index> reference_top_k(const float* row, Index n, Index k) {
  k = std::min(k, n);
  const auto better = [row](Index a, Index b) {
    return row[a] > row[b] || (row[a] == row[b] && a < b);
  };
  std::vector<Index> best;
  best.reserve(static_cast<std::size_t>(k) + 1);
  for (Index j = 0; j < n; ++j) {
    if (static_cast<Index>(best.size()) == k && !better(j, best.back())) {
      continue;
    }
    best.insert(std::upper_bound(best.begin(), best.end(), j, better), j);
    if (static_cast<Index>(best.size()) > k) {
      best.pop_back();
    }
  }
  return best;
}

bool logits_match(const float* got, const float* reference, Index n) {
  const float tol = row_tolerance(reference, n);
  for (Index j = 0; j < n; ++j) {
    if (!(std::fabs(got[j] - reference[j]) <= tol)) {
      return false;
    }
  }
  return true;
}

RankVerdict check_ranking(const Index* ids, const float* scores, Index k,
                          const float* reference, Index n) {
  RankVerdict v;
  if (k <= 0 || k > n) {
    return v;
  }
  const float tol = row_tolerance(reference, n);
  std::vector<Index> sorted(ids, ids + k);
  std::sort(sorted.begin(), sorted.end());
  v.scores_ok = std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() &&
                sorted.front() >= 0 && sorted.back() < n;
  for (Index i = 0; v.scores_ok && i < k; ++i) {
    v.scores_ok = std::fabs(scores[i] - reference[ids[i]]) <= tol &&
                  (i == 0 || scores[i] <= scores[i - 1]);
  }
  if (!v.scores_ok) {
    return v;
  }
  const std::vector<Index> best = reference_top_k(reference, n, k);
  const float kth = reference[best.back()];
  v.members_ok = true;
  for (Index i = 0; i < k; ++i) {
    v.members_ok = v.members_ok && reference[ids[i]] >= kth - 2.0f * tol;
  }
  for (Index j = 0; v.members_ok && j < n; ++j) {
    if (reference[j] > kth + 2.0f * tol) {
      v.members_ok = std::binary_search(sorted.begin(), sorted.end(), j);
    }
  }
  Index hits = 0;
  for (const Index j : best) {
    hits += std::binary_search(sorted.begin(), sorted.end(), j) ? 1 : 0;
  }
  v.recall = static_cast<double>(hits) / static_cast<double>(k);
  return v;
}

const History& SessionReplay::apply(std::uint64_t session, std::int32_t item) {
  auto it = sessions_.find(session);
  if (it != sessions_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  } else {
    if (static_cast<Index>(sessions_.size()) == capacity_) {
      sessions_.erase(lru_.back());
      lru_.pop_back();
      ++evictions_;
    }
    lru_.push_front(session);
    it = sessions_.emplace(session, Entry{lru_.begin(), {}}).first;
  }
  History& items = it->second.items;
  if (static_cast<Index>(items.size()) == history_) {
    items.erase(items.begin());
  }
  items.push_back(item);
  return items;
}

}  // namespace perfbench
