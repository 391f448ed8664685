// Ahead-of-time compiled plans: the build / serialize / adopt split behind
// CompiledModel and the .mcm v3 plan section.
//
// Compiling a model is three separable phases:
//
//   * build_plan()     — pure plan construction from an open MmapModel:
//     technique resolution, tensor handles as STABLE DIRECTORY INDICES,
//     folded batchnorm scale/shift, pre-dequantized trunk buffers. No
//     pointers — the plan is position-independent data.
//   * serialize_plan() — the plan as a self-validating byte section
//     (identity + compatibility header, handle table, 64-byte-aligned f32
//     buffer regions, trailing checksum) that ModelWriter appends to make a
//     v3 file.
//   * decode_plan()    — the read side: validates a file's plan section
//     (magic/version/endianness, checksum, structural bounds, identity and
//     dimension agreement with the file's own metadata and directory) and
//     returns zero-copy buffer views into the mapping. Any mismatch yields
//     a STALE verdict with a reason — never an exception — so the loader
//     can fall back to build_plan() on the same file; the fallback is
//     bit-identical by construction because the writer produced the section
//     with that very function.
//
// Kernel-independence guarantee: plan buffers are always produced by the
// SCALAR reference dequantizer (PR-6 contract), so one serialized plan
// serves every kernel dispatch family — the adopting process picks its own
// family at load and still computes bit-identical logits.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "ondevice/format.h"
#include "ondevice/kernels.h"

namespace memcom {

// Compiled form of the "technique" metadata string; resolved once at plan
// build so the forward pass never compares strings.
enum class Technique : std::uint8_t {
  kUncompressed,
  kReduceDim,
  kTruncateRare,
  kNaiveHash,
  kWeinberger,
  kMemcom,
  kMemcomBias,
  kQrMult,
  kQrConcat,
  kDoubleHash,
  kFactorized,
};

// Maps the "technique" metadata string to the engine's enum (the
// lookup/one-hot subset of the full registry); throws on unsupported names.
Technique technique_from_metadata(const std::string& name);

// Fused-op count of the batch-1 embedding stage for `kind` (dispatch
// overhead the simulated device model charges per forward).
Index embedding_stage_ops(Technique kind);

// A section array that either OWNS its storage (built in-process) or VIEWS
// a serialized section inside the file mapping (adopted, zero-copy).
// Consumers only ever use data()/size(), so the two origins are
// interchangeable; move-only because a view of a moved-from owner would
// dangle.
template <typename T>
class SectionBuffer {
 public:
  SectionBuffer() = default;
  SectionBuffer(SectionBuffer&&) = default;
  SectionBuffer& operator=(SectionBuffer&&) = default;
  SectionBuffer(const SectionBuffer&) = delete;
  SectionBuffer& operator=(const SectionBuffer&) = delete;

  static SectionBuffer owned(std::vector<T> values) {
    SectionBuffer buffer;
    buffer.storage_ = std::move(values);
    buffer.data_ = buffer.storage_.data();
    buffer.size_ = buffer.storage_.size();
    return buffer;
  }
  // `data` must stay mapped for the buffer's lifetime (the CompiledModel
  // keeps the MmapModel alive exactly as long as the plan).
  static SectionBuffer view(const T* data, std::size_t count) {
    SectionBuffer buffer;
    buffer.data_ = data;
    buffer.size_ = count;
    return buffer;
  }

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t byte_size() const { return size_ * sizeof(T); }
  T operator[](std::size_t i) const { return data_[i]; }
  // True when the buffer views the mmap'd section instead of owning a heap
  // copy — the cold-start win adoption is about.
  bool zero_copy() const { return data_ != nullptr && storage_.empty(); }

 private:
  std::vector<T> storage_;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

// Pre-dequantized plan floats.
using PlanBuffer = SectionBuffer<float>;

// A tensor handle as a stable position in the file's directory: readers
// re-resolve `index` through MmapModel::entry_at() and verify the recorded
// name still lives there, turning handle resolution into pointer fixup.
struct PlanHandle {
  std::string name;
  std::uint64_t index = 0;
};

// The position-independent product of build_plan() / decode_plan().
struct CompiledPlan {
  // Identity + compatibility header.
  std::string model_name;            // empty for legacy-identity files
  std::uint64_t model_version = 0;   // 0 for legacy-identity files
  std::string arch;                  // "classification" | "ranking"
  std::string technique;
  Technique kind = Technique::kUncompressed;
  bool has_hidden = false;           // derived: arch == "classification"

  Index vocab = 0;
  Index embed_dim = 0;
  Index hash_size = 0;               // technique knob (m / h / keep / buckets)
  Index hidden_dim = 0;
  Index output_dim = 0;
  Index factor_dim = 0;              // factorized h (0 otherwise)

  // One handle per tensor the plan touches, in plan_tensor_roles() order.
  std::vector<PlanHandle> handles;

  // Pre-computed buffers (empty where the architecture has no such stage).
  PlanBuffer bn1_scale, bn1_shift;
  PlanBuffer bn2_scale, bn2_shift;
  PlanBuffer dense1_bias, out_bias;
  PlanBuffer projection;             // factorized: [h, e]

  // True when the buffers view a mmap'd plan section (adopted plan).
  bool zero_copy = false;
};

// The tensor names `kind` requires, in the fixed order handles are recorded
// and adopted in: embedding tensors, bn1, [dense1, bn2], out.
std::vector<std::string> plan_tensor_roles(Technique kind, bool has_hidden);

// Builds the plan from the file's metadata + directory, dequantizing with
// the scalar reference kernels. Throws (like CompiledModel always did) on a
// structurally broken model.
CompiledPlan build_plan(const MmapModel& model);

// Serializes `plan` into the byte section ModelWriter appends for v3 files.
std::vector<std::uint8_t> serialize_plan(const CompiledPlan& plan);

enum class PlanStatus : std::uint8_t {
  kAbsent,  // the file carries no plan section (v1/v2, or empty section)
  kValid,   // decoded, verified, ready to adopt
  kStale,   // present but unusable — `reason` says why; caller recompiles
};

struct PlanDecodeResult {
  PlanStatus status = PlanStatus::kAbsent;
  std::string reason;  // non-empty exactly when status == kStale
  CompiledPlan plan;   // populated exactly when status == kValid
};

// Validates and decodes `model`'s plan section. NEVER throws for a bad
// section: every defect (truncation, checksum mismatch, identity/dims skew,
// out-of-bounds buffer) comes back as kStale with a reason so the caller
// can fall back to build_plan().
PlanDecodeResult decode_plan(const MmapModel& model);

// The envelope both optional sections share (v3 plan, v4 catalog index):
// a 16-byte prefix (magic, format version, endianness check, flags),
// 64-byte-aligned regions, and a trailing plan_checksum of all before it.
struct SectionEnvelope {
  const char* what;  // "plan" / "catalog index", the stale reasons' subject
  std::uint32_t magic;
  std::uint32_t format_version;
  std::uint32_t required_flags;
  const char* missing_flags_reason;
};
inline constexpr std::uint64_t kSectionAlignment = 64;
std::uint64_t align_up(std::uint64_t offset, std::uint64_t alignment);
void write_section_prefix(std::ostream& os, const SectionEnvelope& envelope);
// Zero-fills `os` up to the region offset `offset`.
void pad_section_to(std::ostream& os, std::uint64_t offset);
// The finished section: `body` followed by its checksum.
std::vector<std::uint8_t> seal_section(const std::string& body);
// "" when [data, data+size) has `envelope`'s prefix and checksum, else the
// stale reason.
std::string check_section_envelope(const std::uint8_t* data,
                                   std::uint64_t size,
                                   const SectionEnvelope& envelope);

// Checksum over a plan section's bytes (FNV-1a over 8-byte words, length
// bound). Exposed so hardening tests can re-seal deliberately hostile
// sections and prove the structural checks fire, not just the checksum.
std::uint64_t plan_checksum(const std::uint8_t* data, std::size_t size);

// Resolves a directory entry + mapped payload into the kernel layer's codec
// view (i4g scales/nibble split done once). Shared by CompiledModel's
// handle resolution and build_plan's dequantization.
SpanSrc make_span_src(const TensorEntry& entry, const std::uint8_t* payload);

}  // namespace memcom
