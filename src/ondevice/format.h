// The .mcm on-device model format: a flat, mmap-friendly container.
//
// Layout:
//   [header]   magic "MCM1", version, (v3+: plan offset+size),
//              (v4: catalog-index offset+size), counts
//   [metadata] key/value string pairs (architecture, technique, dims, ...)
//   [directory] per tensor: name, dtype, shape, scale, blob offset+size
//   [blobs]    raw tensor payloads, each aligned to 64 bytes
//   [plan]     v3+ only: serialized compiled plan (see ondevice/plan.h)
//   [index]    v4 only: serialized catalog index (ondevice/catalog_index.h)
//
// The reader maps the file with mmap(2) (read-only, MAP_PRIVATE) and hands
// out zero-copy views, exactly like CoreML / TF-Lite weight files (§3 of
// the paper). Blob offsets are relative to the file start so the memory
// meter can attribute page touches.
//
// The output catalog `out.weight` is stored ITEM-MAJOR, [items, in]: one
// item is one contiguous row (`out.bias` stays a separate [items] tensor).
// RecModel::export_mcm transposes the training [in, items] parameter and
// stamps output_layout = item_major; loaders refuse an unstamped file.
//
// Versioning discipline: v2 added per-entry group_size for grouped dtypes;
// v3 adds an OPTIONAL trailing plan section and two u64 header fields
// locating it; v4 adds an OPTIONAL clustered catalog-index section and two
// more locator u64s. A file is only ever written at the lowest version its
// contents need, so plan-less/index-less exports stay byte-identical to
// what pre-v3/pre-v4 writers produced and remain readable by old readers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "ondevice/quantize.h"

namespace memcom {

struct TensorEntry {
  std::string name;
  DType dtype = DType::kF32;
  Shape shape;
  float scale = 1.0f;
  Index group_size = 0;  // i4g: elements per scale group, 0 otherwise
  std::uint64_t offset = 0;  // byte offset of the blob within the file
  std::uint64_t byte_size = 0;

  Index numel() const { return shape_numel(shape); }
};

inline constexpr const char* kOutputLayoutKey = "output_layout";
inline constexpr const char* kOutputLayoutItemMajor = "item_major";

class ModelWriter {
 public:
  explicit ModelWriter(std::string path);

  void set_metadata(const std::string& key, const std::string& value);
  void set_metadata_int(const std::string& key, std::int64_t value);

  // Stamps the model's deployment identity ("model_name"/"model_version"
  // metadata): a stable name shared across refreshes of the same logical
  // model and a monotonically increasing version the ModelRegistry's
  // hot-swap path enforces. `version` must be >= 1 (0 is the legacy "no
  // identity" sentinel readers report for old files).
  void set_model_identity(const std::string& name, std::uint64_t version);

  // Quantizes `tensor` to `dtype` and schedules it for writing.
  // `group_size` is only meaningful for kI4G (0 picks kI4GroupDefault);
  // grouped tensors bump the container to format version 2, which appends
  // a per-entry group_size field to the directory. Files without grouped
  // tensors keep writing version 1, so old readers stay compatible.
  void add_tensor(const std::string& name, const Tensor& tensor,
                  DType dtype = DType::kF32, Index group_size = 0);

  // Appends an ahead-of-time compiled plan section, bumping the container
  // to v3. finish() stages the plan-less file, builds the plan from it
  // with the SAME build_plan() the load-time fallback uses (bit-identity
  // by construction), and rewrites the file with the section appended.
  // Requires full engine metadata (arch/technique/dims) — finish() throws
  // on a file build_plan() cannot compile.
  void set_emit_plan(bool emit = true) { emit_plan_ = emit; }

  // Appends a clustered catalog-index section (ondevice/catalog_index.h),
  // bumping the container to v4. Like the plan, finish() stages the
  // section-less file first and builds the index from it with the SAME
  // build_catalog_index_for_model() an in-process builder would use.
  // `clusters` == 0 picks the ~sqrt(items) default. Requires an output
  // catalog (out.weight/out.bias) — finish() throws without one.
  void set_emit_catalog_index(bool emit = true, Index clusters = 0) {
    emit_index_ = emit;
    index_clusters_ = clusters;
  }

  // Writes the file; returns total bytes written. The writer is single-use.
  std::uint64_t finish();

 private:
  std::uint64_t write_file(std::uint32_t version,
                           const std::vector<std::uint8_t>& plan_bytes,
                           const std::vector<std::uint8_t>& index_bytes);

  std::string path_;
  std::map<std::string, std::string> metadata_;
  std::vector<std::pair<std::string, QuantizedTensor>> tensors_;
  bool emit_plan_ = false;
  bool emit_index_ = false;
  Index index_clusters_ = 0;
  bool finished_ = false;
};

class MmapModel {
 public:
  explicit MmapModel(const std::string& path);
  ~MmapModel();

  MmapModel(const MmapModel&) = delete;
  MmapModel& operator=(const MmapModel&) = delete;

  const std::map<std::string, std::string>& metadata() const {
    return metadata_;
  }
  std::string metadata_value(const std::string& key) const;
  std::int64_t metadata_int(const std::string& key) const;
  bool has_metadata(const std::string& key) const {
    return metadata_.count(key) > 0;
  }

  // Deployment identity, tolerant of legacy files written before
  // set_model_identity existed: an empty name / version 0 means the file
  // carries no identity metadata.
  bool has_model_identity() const { return has_metadata("model_name"); }
  std::string model_name() const;
  std::uint64_t model_version() const;

  bool has_tensor(const std::string& name) const;
  const TensorEntry& entry(const std::string& name) const;
  std::vector<std::string> tensor_names() const;

  // Positional directory access, in FILE ORDER. Plan sections record tensor
  // handles as these stable indices; adopting a plan re-resolves them here
  // and verifies the recorded name still lives at the recorded slot.
  std::size_t entry_count() const { return ordered_.size(); }
  const TensorEntry& entry_at(std::size_t index) const;
  // Directory index of `name` (throws when missing). Compile-time only.
  std::size_t entry_index(const std::string& name) const;

  // Number of string-keyed directory lookups served since the model was
  // opened. The inference fast path resolves all handles at engine
  // construction, so this must stay flat across steady-state run() calls —
  // tests/test_fastpath.cpp enforces it.
  std::uint64_t entry_lookup_count() const {
    return entry_lookups_.load(std::memory_order_relaxed);
  }

  // Zero-copy pointer to the blob payload inside the mapping.
  const std::uint8_t* payload(const TensorEntry& entry) const;

  // Dequantizing full-tensor load (copies).
  Tensor load_tensor(const std::string& name) const;

  std::uint64_t file_size() const { return file_size_; }
  std::uint32_t format_version() const { return format_version_; }

  // v3 plan section. Bounds are validated LENIENTLY: a header that declares
  // a section falling outside the file (or misaligned) marks the plan
  // unreachable (plan_data() == nullptr, reason in plan_bounds_error())
  // instead of failing the open — the tensors themselves are intact and
  // the loader must be able to fall back to a full compile.
  bool has_plan_section() const { return plan_declared_; }
  const std::uint8_t* plan_data() const;  // nullptr when absent/unreachable
  std::uint64_t plan_offset() const { return plan_offset_; }
  std::uint64_t plan_size() const { return plan_size_; }
  const std::string& plan_bounds_error() const { return plan_bounds_error_; }

  // v4 catalog-index section, with the same lenient bounds contract as the
  // plan: a hostile locator makes the index unreachable (the scan falls
  // back to exact), it never fails the open.
  bool has_index_section() const { return index_declared_; }
  const std::uint8_t* index_data() const;  // nullptr when absent/unreachable
  std::uint64_t index_offset() const { return index_offset_; }
  std::uint64_t index_size() const { return index_size_; }
  const std::string& index_bounds_error() const { return index_bounds_error_; }

 private:
  std::map<std::string, std::string> metadata_;
  std::map<std::string, TensorEntry> entries_;
  std::vector<const TensorEntry*> ordered_;  // directory in file order
  const std::uint8_t* mapping_ = nullptr;
  std::uint64_t file_size_ = 0;
  std::uint32_t format_version_ = 1;
  bool plan_declared_ = false;
  std::uint64_t plan_offset_ = 0;
  std::uint64_t plan_size_ = 0;
  std::string plan_bounds_error_;
  bool index_declared_ = false;
  std::uint64_t index_offset_ = 0;
  std::uint64_t index_size_ = 0;
  std::string index_bounds_error_;
  // Mutable: counting lookups does not change the logical model. Atomic so
  // concurrent serving engines sharing one model stay race-free.
  mutable std::atomic<std::uint64_t> entry_lookups_{0};
};

// Throws, asking for a re-export, unless `model` is stamped item-major.
void check_output_layout(const MmapModel& model);

}  // namespace memcom
