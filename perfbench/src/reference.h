// The benchmark's correctness side, kept apart from the on-device engine:
//
//   * Reference — the training-side RecModel (nn modules, eval mode) run on
//     the weights load_mcm() reads back from the served file. It shares no
//     code with ondevice/ beyond the file reader and the dequantizer that
//     defines what the stored bytes mean.
//   * SessionReplay — the benchmark's own copy of the session store's
//     contract (bounded history ring per session, LRU eviction at a fixed
//     capacity), replayed in submission order.
//   * The checks — engine answers against reference rows with a stated
//     float tolerance.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tensor.h"
#include "repro/model.h"

namespace perfbench {

using memcom::Index;
using History = std::vector<std::int32_t>;

class Reference {
 public:
  Reference(const memcom::ModelConfig& config, const std::string& path);

  Index outputs() const { return model_.output_vocab(); }

  // Logits [histories.size(), outputs()] for histories padded with id 0 to
  // the longest of them.
  memcom::Tensor logits(const std::vector<const History*>& histories);

 private:
  memcom::RecModel model_;
};

// Two logits agree when they differ by at most kTolerance times the row's
// scale, max(1, max |reference logit|). The engine and the reference sum in
// different orders (folded versus unfolded batchnorm, pooled sums, dense
// accumulation), which moves logits by a few float ulps of the row scale;
// the tolerance leaves two orders of magnitude above the largest
// difference measured on every workload.
inline constexpr float kTolerance = 1e-5f;
float row_tolerance(const float* reference, Index n);

// Best k ids of a reference row: higher score first, equal scores to the
// lower id.
std::vector<Index> reference_top_k(const float* row, Index n, Index k);

// Engine logits against a reference row.
bool logits_match(const float* got, const float* reference, Index n);

// An engine top-k answer against a reference row:
//   * scores_ok — k distinct in-range ids, each returned score within
//     tolerance of its id's reference logit, in non-increasing order;
//   * members_ok — every returned id lies within the tie band (2 x
//     tolerance) of the reference k-th best score, and every id whose
//     reference logit clears that band from above is returned;
//   * recall — |returned ∩ reference top-k| / k.
struct RankVerdict {
  bool scores_ok = false;
  bool members_ok = false;
  double recall = 0.0;
};
RankVerdict check_ranking(const Index* ids, const float* scores, Index k,
                          const float* reference, Index n);

// The session store's contract, replayed: each session keeps its last
// `history` items oldest-first; a new session arriving at a full store
// evicts the least recently used one, which restarts empty if it returns.
class SessionReplay {
 public:
  SessionReplay(Index capacity, Index history)
      : capacity_(capacity), history_(history) {}

  // Applies one event and returns the post-append history.
  const History& apply(std::uint64_t session, std::int32_t item);
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::list<std::uint64_t>::iterator lru;
    History items;
  };
  Index capacity_;
  Index history_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, Entry> sessions_;
  std::uint64_t evictions_ = 0;
};

}  // namespace perfbench
