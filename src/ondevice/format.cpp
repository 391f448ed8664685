#include "ondevice/format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/check.h"
#include "core/serialize.h"
#include "ondevice/catalog_index.h"
#include "ondevice/plan.h"

namespace memcom {

namespace {
constexpr std::uint32_t kMagic = 0x314D434DU;  // "MCM1" little-endian
constexpr std::uint64_t kBlobAlignment = 64;
}  // namespace

ModelWriter::ModelWriter(std::string path) : path_(std::move(path)) {}

void ModelWriter::set_metadata(const std::string& key,
                               const std::string& value) {
  metadata_[key] = value;
}

void ModelWriter::set_metadata_int(const std::string& key,
                                   std::int64_t value) {
  metadata_[key] = std::to_string(value);
}

void ModelWriter::set_model_identity(const std::string& name,
                                     std::uint64_t version) {
  check(!name.empty(), "ModelWriter: model name must be non-empty");
  check(version >= 1, "ModelWriter: model version must be >= 1");
  metadata_["model_name"] = name;
  metadata_["model_version"] = std::to_string(version);
}

void ModelWriter::add_tensor(const std::string& name, const Tensor& tensor,
                             DType dtype, Index group_size) {
  check(!finished_, "ModelWriter: add_tensor after finish");
  for (const auto& [existing, unused] : tensors_) {
    check(existing != name, "ModelWriter: duplicate tensor name " + name);
  }
  tensors_.emplace_back(name, quantize(tensor, dtype, group_size));
}

std::uint64_t ModelWriter::finish() {
  check(!finished_, "ModelWriter: finish called twice");
  finished_ = true;

  // Grouped tensors need a per-entry group_size field; that is format
  // version 2. Files without any stay at version 1 so pre-v2 readers keep
  // opening them. The version only ever bumps to 3 when a plan section is
  // actually emitted below.
  bool any_grouped = false;
  for (const auto& [unused, qt] : tensors_) {
    any_grouped = any_grouped || dtype_is_grouped(qt.dtype);
  }
  std::uint64_t total = write_file(any_grouped ? 2 : 1, {}, {});
  if (emit_plan_ || emit_index_) {
    // Two-pass emit: stage the section-less file, build the sections from
    // it with the very functions the load-time fallbacks run (so a cold
    // compile / in-process index build of this file reproduces the
    // serialized buffers bit-for-bit), then rewrite with the sections
    // appended. The version is the lowest the contents need: an index
    // forces v4, a plan alone v3.
    std::vector<std::uint8_t> plan_bytes;
    std::vector<std::uint8_t> index_bytes;
    {
      const MmapModel staged(path_);
      if (emit_plan_) {
        plan_bytes = serialize_plan(build_plan(staged));
      }
      if (emit_index_) {
        CatalogIndexConfig config;
        config.clusters = index_clusters_;
        index_bytes =
            serialize_catalog_index(build_catalog_index_for_model(staged,
                                                                  config));
      }
    }
    total = write_file(emit_index_ ? 4 : 3, plan_bytes, index_bytes);
  }
  return total;
}

std::uint64_t ModelWriter::write_file(
    std::uint32_t version, const std::vector<std::uint8_t>& plan_bytes,
    const std::vector<std::uint8_t>& index_bytes) {
  // First pass: serialize header + directory to a buffer to learn its size,
  // with blob offsets filled in afterwards. We do this by computing the
  // directory size analytically: serialize once with zero offsets, then
  // rewrite with real offsets (the directory size does not depend on offset
  // values because offsets and the v3 plan locator are fixed-width u64).
  auto serialize_front = [&](const std::vector<std::uint64_t>& offsets,
                             std::uint64_t plan_offset,
                             std::uint64_t index_offset, std::ostream& os) {
    write_u32(os, kMagic);
    write_u32(os, version);
    if (version >= 3) {
      write_u64(os, plan_offset);
      write_u64(os, plan_bytes.size());
    }
    if (version >= 4) {
      write_u64(os, index_offset);
      write_u64(os, index_bytes.size());
    }
    write_u64(os, metadata_.size());
    for (const auto& [key, value] : metadata_) {
      write_string(os, key);
      write_string(os, value);
    }
    write_u64(os, tensors_.size());
    for (std::size_t i = 0; i < tensors_.size(); ++i) {
      const auto& [name, qt] = tensors_[i];
      write_string(os, name);
      write_u32(os, static_cast<std::uint32_t>(qt.dtype));
      write_u64(os, qt.shape.size());
      for (const Index d : qt.shape) {
        write_i64(os, d);
      }
      write_f32(os, qt.scale);
      if (version >= 2) {
        write_u64(os, static_cast<std::uint64_t>(qt.group_size));
      }
      write_u64(os, offsets[i]);
      write_u64(os, qt.payload.size());
    }
  };

  std::ostringstream probe;
  serialize_front(std::vector<std::uint64_t>(tensors_.size(), 0), 0, 0, probe);
  const std::uint64_t front_size = static_cast<std::uint64_t>(probe.str().size());

  std::vector<std::uint64_t> offsets(tensors_.size());
  std::uint64_t cursor = align_up(front_size, kBlobAlignment);
  for (std::size_t i = 0; i < tensors_.size(); ++i) {
    offsets[i] = cursor;
    cursor = align_up(cursor + tensors_[i].second.payload.size(),
                      kBlobAlignment);
  }
  // The plan section (when present) trails the last blob, 64-byte aligned
  // like every blob so its float regions stay aligned in the mapping; the
  // catalog-index section trails the plan with the same alignment.
  const std::uint64_t plan_offset = cursor;
  const std::uint64_t index_offset =
      align_up(plan_offset + plan_bytes.size(), kBlobAlignment);

  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  check(out.good(), "ModelWriter: cannot open " + path_);
  serialize_front(offsets, plan_offset, index_offset, out);
  for (std::size_t i = 0; i < tensors_.size(); ++i) {
    const std::uint64_t pos = static_cast<std::uint64_t>(out.tellp());
    check(pos <= offsets[i], "ModelWriter: offset bookkeeping error");
    for (std::uint64_t p = pos; p < offsets[i]; ++p) {
      out.put('\0');
    }
    const auto& payload = tensors_[i].second.payload;
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  }
  if (version >= 3) {
    for (std::uint64_t p = static_cast<std::uint64_t>(out.tellp());
         p < plan_offset; ++p) {
      out.put('\0');
    }
    out.write(reinterpret_cast<const char*>(plan_bytes.data()),
              static_cast<std::streamsize>(plan_bytes.size()));
  }
  if (version >= 4) {
    for (std::uint64_t p = static_cast<std::uint64_t>(out.tellp());
         p < index_offset; ++p) {
      out.put('\0');
    }
    out.write(reinterpret_cast<const char*>(index_bytes.data()),
              static_cast<std::streamsize>(index_bytes.size()));
  }
  const std::uint64_t total = static_cast<std::uint64_t>(out.tellp());
  out.close();
  check(out.good(), "ModelWriter: write failed for " + path_);
  return total;
}

MmapModel::MmapModel(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  check(fd >= 0, "MmapModel: cannot open " + path);
  struct stat st = {};
  check(::fstat(fd, &st) == 0, "MmapModel: fstat failed for " + path);
  file_size_ = static_cast<std::uint64_t>(st.st_size);
  check(file_size_ > 0, "MmapModel: empty file " + path);
  void* map = ::mmap(nullptr, file_size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  check(map != MAP_FAILED, "MmapModel: mmap failed for " + path);
  mapping_ = static_cast<const std::uint8_t*>(map);

  // Parse the front matter through an istream view of the mapping.
  std::istringstream is(std::string(
      reinterpret_cast<const char*>(mapping_),
      static_cast<std::size_t>(std::min<std::uint64_t>(file_size_, 1 << 20))));
  check_eq(static_cast<long long>(kMagic),
           static_cast<long long>(read_u32(is)), "MmapModel magic");
  // Version 1: original directory. Version 2: adds a u64 group_size per
  // entry (grouped sub-byte dtypes). Version 3: adds a trailing compiled
  // plan section located by two header u64s. Version 4: adds a trailing
  // catalog-index section and two more locator u64s. All stay readable
  // forever.
  const std::uint32_t version = read_u32(is);
  check(version >= 1 && version <= 4, "MmapModel: unsupported version " +
                                          std::to_string(version));
  format_version_ = version;
  if (version >= 3) {
    plan_offset_ = read_u64(is);
    plan_size_ = read_u64(is);
    plan_declared_ = plan_size_ > 0;
    // Lenient bounds: a corrupt locator makes the plan unreachable (the
    // loader falls back to a full compile), it does not fail the open —
    // the tensor payloads this header describes are still intact.
    if (plan_declared_) {
      if (plan_size_ > file_size_ ||
          plan_offset_ > file_size_ - plan_size_) {
        plan_bounds_error_ = "plan section out of file bounds";
      } else if (plan_offset_ % kBlobAlignment != 0) {
        plan_bounds_error_ = "plan section misaligned";
      }
    }
  }
  if (version >= 4) {
    index_offset_ = read_u64(is);
    index_size_ = read_u64(is);
    index_declared_ = index_size_ > 0;
    // Same lenient contract as the plan: an unreachable index only costs
    // the pruned scan, never the open.
    if (index_declared_) {
      if (index_size_ > file_size_ ||
          index_offset_ > file_size_ - index_size_) {
        index_bounds_error_ = "catalog index section out of file bounds";
      } else if (index_offset_ % kBlobAlignment != 0) {
        index_bounds_error_ = "catalog index section misaligned";
      }
    }
  }
  const std::uint64_t metadata_count = read_u64(is);
  for (std::uint64_t i = 0; i < metadata_count; ++i) {
    std::string key = read_string(is);
    std::string value = read_string(is);
    metadata_.emplace(std::move(key), std::move(value));
  }
  const std::uint64_t tensor_count = read_u64(is);
  for (std::uint64_t i = 0; i < tensor_count; ++i) {
    TensorEntry entry;
    entry.name = read_string(is);
    const std::uint32_t raw_dtype = read_u32(is);
    check(raw_dtype <= static_cast<std::uint32_t>(DType::kI4G),
          "MmapModel: unknown dtype for " + entry.name);
    entry.dtype = static_cast<DType>(raw_dtype);
    const std::uint64_t ndim = read_u64(is);
    check(ndim <= 8, "MmapModel: implausible tensor rank");
    entry.shape.resize(ndim);
    // Overflow-checked element count: a hostile directory can pick dims
    // whose product wraps std::int64_t (UB in shape_numel) or whose packed
    // byte size wraps std::uint64_t back to a plausible value.
    std::int64_t numel = 1;
    for (std::uint64_t d = 0; d < ndim; ++d) {
      entry.shape[d] = read_i64(is);
      check(entry.shape[d] >= 0,
            "MmapModel: negative dimension for " + entry.name);
      check(entry.shape[d] == 0 ||
                numel <= std::numeric_limits<std::int64_t>::max() /
                             entry.shape[d],
            "MmapModel: tensor element count overflows for " + entry.name);
      numel *= entry.shape[d];
    }
    // Densest dtype packs 2 elements per byte, so anything beyond
    // 2*file_size elements cannot be backed by this file — and bounding
    // numel here keeps packed_byte_size below from wrapping.
    check(static_cast<std::uint64_t>(numel) <= file_size_ * 2,
          "MmapModel: tensor larger than file for " + entry.name);
    entry.scale = read_f32(is);
    if (version >= 2) {
      const std::uint64_t raw_group = read_u64(is);
      check(raw_group <=
                static_cast<std::uint64_t>(std::numeric_limits<Index>::max()),
            "MmapModel: implausible group_size for " + entry.name);
      entry.group_size = static_cast<Index>(raw_group);
    }
    // Grouped dtypes require a valid group size; everything else must not
    // carry one (a v1 file can never declare a grouped dtype — the field
    // defaulting to 0 would fail here).
    if (dtype_is_grouped(entry.dtype)) {
      check(entry.group_size > 0 && entry.group_size % 8 == 0,
            "MmapModel: invalid group_size for " + entry.name);
    } else {
      check(entry.group_size == 0,
            "MmapModel: group_size on ungrouped tensor " + entry.name);
    }
    entry.offset = read_u64(is);
    entry.byte_size = read_u64(is);
    // The payload must carry exactly the elements the shape promises...
    check(entry.byte_size ==
              packed_byte_size(entry.dtype, static_cast<std::size_t>(numel),
                               entry.group_size),
          "MmapModel: blob size does not match shape for " + entry.name);
    // ...and live inside the file (subtraction form: offset + byte_size
    // could wrap around std::uint64_t on a hostile directory).
    check(entry.byte_size <= file_size_ &&
              entry.offset <= file_size_ - entry.byte_size,
          "MmapModel: blob out of bounds for " + entry.name);
    const std::string name = entry.name;
    const auto [it, inserted] = entries_.emplace(name, std::move(entry));
    check(inserted, "MmapModel: duplicate tensor name " + name);
    // Positional view in FILE order (map nodes are pointer-stable): plan
    // handles index into this.
    ordered_.push_back(&it->second);
  }
}

MmapModel::~MmapModel() {
  if (mapping_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(mapping_), file_size_);
  }
}

void check_output_layout(const MmapModel& model) {
  check(model.has_metadata(kOutputLayoutKey) &&
            model.metadata_value(kOutputLayoutKey) == kOutputLayoutItemMajor,
        "model file predates the item-major output catalog (no "
        "output_layout = item_major metadata); re-export it");
}

std::string MmapModel::metadata_value(const std::string& key) const {
  const auto it = metadata_.find(key);
  check(it != metadata_.end(), "MmapModel: missing metadata key " + key);
  return it->second;
}

std::int64_t MmapModel::metadata_int(const std::string& key) const {
  // stoll alone would leak std::invalid_argument (and accept trailing
  // garbage like "12abc"); a corrupt metadata value must fail like every
  // other malformed-file problem: with one clean runtime_error.
  const std::string value = metadata_value(key);
  try {
    std::size_t consumed = 0;
    const long long parsed = std::stoll(value, &consumed);
    check(consumed == value.size(),
          "MmapModel: non-numeric metadata " + key + "=" + value);
    return parsed;
  } catch (const std::invalid_argument&) {
    check(false, "MmapModel: non-numeric metadata " + key + "=" + value);
  } catch (const std::out_of_range&) {
    check(false, "MmapModel: metadata out of range " + key + "=" + value);
  }
  return 0;  // unreachable
}

std::string MmapModel::model_name() const {
  const auto it = metadata_.find("model_name");
  return it != metadata_.end() ? it->second : std::string();
}

std::uint64_t MmapModel::model_version() const {
  // Legacy files carry no identity; report the version-0 sentinel instead
  // of failing like a missing mandatory key would.
  if (!has_metadata("model_version")) {
    return 0;
  }
  const std::int64_t version = metadata_int("model_version");
  check(version >= 0, "MmapModel: negative model_version");
  return static_cast<std::uint64_t>(version);
}

bool MmapModel::has_tensor(const std::string& name) const {
  return entries_.count(name) > 0;
}

const TensorEntry& MmapModel::entry(const std::string& name) const {
  entry_lookups_.fetch_add(1, std::memory_order_relaxed);
  const auto it = entries_.find(name);
  check(it != entries_.end(), "MmapModel: missing tensor " + name);
  return it->second;
}

const TensorEntry& MmapModel::entry_at(std::size_t index) const {
  check(index < ordered_.size(),
        "MmapModel: directory index out of range " + std::to_string(index));
  return *ordered_[index];
}

std::size_t MmapModel::entry_index(const std::string& name) const {
  for (std::size_t i = 0; i < ordered_.size(); ++i) {
    if (ordered_[i]->name == name) {
      return i;
    }
  }
  check(false, "MmapModel: missing tensor " + name);
  return 0;  // unreachable
}

const std::uint8_t* MmapModel::plan_data() const {
  if (!plan_declared_ || !plan_bounds_error_.empty()) {
    return nullptr;
  }
  return mapping_ + plan_offset_;
}

const std::uint8_t* MmapModel::index_data() const {
  if (!index_declared_ || !index_bounds_error_.empty()) {
    return nullptr;
  }
  return mapping_ + index_offset_;
}

std::vector<std::string> MmapModel::tensor_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, unused] : entries_) {
    names.push_back(name);
  }
  return names;
}

const std::uint8_t* MmapModel::payload(const TensorEntry& e) const {
  return mapping_ + e.offset;
}

Tensor MmapModel::load_tensor(const std::string& name) const {
  const TensorEntry& e = entry(name);
  Tensor out(e.shape);
  const std::uint8_t* blob = payload(e);
  if (e.dtype == DType::kI4G) {
    const auto* scales = reinterpret_cast<const float*>(blob);
    const std::uint8_t* packed =
        blob + i4g_scales_bytes(static_cast<std::size_t>(out.numel()),
                                e.group_size);
    dequantize_span_i4g(scales, packed, e.group_size, 0, out.numel(),
                        out.data());
  } else {
    dequantize_span(e.dtype, e.scale, blob, 0, out.numel(), out.data());
  }
  return out;
}

}  // namespace memcom
