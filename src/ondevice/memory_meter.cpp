#include "ondevice/memory_meter.h"

#include <algorithm>

#include "core/check.h"

namespace memcom {

MemoryMeter::MemoryMeter(Index page_size_bytes, Index readahead_pages)
    : page_size_(page_size_bytes), readahead_pages_(readahead_pages) {
  check(page_size_bytes > 0, "memory meter: page size must be positive");
  check(readahead_pages >= 0, "memory meter: negative readahead");
}

void MemoryMeter::touch(Index offset_bytes, Index length_bytes) {
  if (length_bytes <= 0) {
    return;
  }
  const Index first = offset_bytes / page_size_;
  // Model OS readahead: a fault on the range's last page pulls a few more.
  const Index last =
      (offset_bytes + length_bytes - 1) / page_size_ + readahead_pages_;
  const auto words = static_cast<std::size_t>(last / 64 + 1);
  if (words > bits_.size()) {
    bits_.resize(std::max(words, bits_.size() * 2), 0);
  }
  for (Index p = first; p <= last; ++p) {
    std::uint64_t& word = bits_[static_cast<std::size_t>(p / 64)];
    const std::uint64_t bit = std::uint64_t{1} << (p % 64);
    page_count_ += (word & bit) == 0 ? 1 : 0;
    word |= bit;
  }
}

void MemoryMeter::note_activation_bytes(Index bytes) {
  activation_peak_ = std::max(activation_peak_, bytes);
}

Index MemoryMeter::weight_resident_bytes() const {
  return page_count_ * page_size_;
}

void MemoryMeter::reset() {
  std::fill(bits_.begin(), bits_.end(), 0);
  page_count_ = 0;
  activation_peak_ = 0;
}

}  // namespace memcom
