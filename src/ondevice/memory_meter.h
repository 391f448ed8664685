// Page-granular resident-memory accounting for the on-device simulator.
//
// CoreML and TF-Lite mmap the weight file and rely on the OS to page in
// whatever the model actually dereferences (paper §3). The meter records
// which weight-file pages a forward pass touches; resident weight memory is
// (touched pages + readahead) * page size. This is the mechanism behind
// Table 3's contrast: lookup-based MEmCom touches O(history length) rows
// while Weinberger's one-hot matmul streams the entire table.
#pragma once

#include <cstdint>
#include <vector>

#include "core/tensor.h"

namespace memcom {

class MemoryMeter {
 public:
  explicit MemoryMeter(Index page_size_bytes, Index readahead_pages = 0);

  // Records that [offset, offset+length) bytes of the weight file were read.
  void touch(Index offset_bytes, Index length_bytes);

  // Tracks peak transient allocation (activation arena).
  void note_activation_bytes(Index bytes);

  Index touched_pages() const { return page_count_; }
  Index weight_resident_bytes() const;
  Index activation_peak_bytes() const { return activation_peak_; }
  Index total_resident_bytes() const {
    return weight_resident_bytes() + activation_peak_;
  }

  void reset();

  Index page_size() const { return page_size_; }

 private:
  Index page_size_;
  Index readahead_pages_;
  // One bit per weight-file page, grown on demand; page_count_ = set bits.
  std::vector<std::uint64_t> bits_;
  Index page_count_ = 0;
  Index activation_peak_ = 0;
};

}  // namespace memcom
