// Immutable, shareable execution plan compiled from an mmap'd .mcm model.
//
// Compilation happens ONCE per model file: the technique metadata string is
// resolved to an enum, every tensor name to a `TensorRef` handle (with a
// direct `const float*` payload view for fp32 blobs), the batchnorm
// parameters are folded into scale/shift pairs, and the small trunk tensors
// (biases, the factorized projection) are pre-dequantized. The result is a
// read-only plan that any number of worker threads can execute against
// concurrently — per-thread mutable state (scratch arena, memory meter,
// hot-row cache) lives in ExecutionContext, NOT here.
//
// Since the v3 plan section landed, "compile" is adopt-or-build: when the
// file carries a valid serialized plan (ondevice/plan.h), construction is
// mmap + validate + pointer fixup and the pre-dequantized buffers are
// ZERO-COPY views into the mapping; on any defect (stale identity,
// truncation, bad checksum) it falls back to build_plan() — bit-identical,
// because the writer emitted the section with that same function.
//
// This split is what makes multi-tenant serving cheap: N workers serving
// one model share one CompiledModel by reference (the plan's pre-dequantized
// buffers are paid for once, see plan_resident_bytes()), and the
// ModelRegistry publishes new versions as fresh CompiledModel instances
// whose lifetime is refcount-managed — in-flight batches keep the old
// version (and, when the plan owns its mapping, the mmap itself) alive
// until they drain.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "ondevice/catalog_index.h"
#include "ondevice/format.h"
#include "ondevice/kernels.h"
#include "ondevice/plan.h"

namespace memcom {

// A pre-resolved tensor handle: directory entry + raw payload pointer; for
// fp32 blobs also a direct float view that bypasses dequantize_span.
struct TensorRef {
  const TensorEntry* entry = nullptr;
  const std::uint8_t* payload = nullptr;
  const float* f32 = nullptr;
  DType dtype = DType::kF32;
  float scale = 1.0f;
  std::size_t element_bits = 32;
  Index file_offset = 0;  // byte offset of the blob within the file
  // Codec view for the kernel layer's dequant_span: for i4g the scales
  // header / nibble region split is resolved here, once, at compile time.
  SpanSrc src;
};

// Inference-folded batchnorm: y = x * scale + shift with
// scale = gamma / sqrt(var + eps), shift = beta - mean * scale. The raw
// handles are kept so the per-run metering matches the unfused reads.
struct BatchNormPlan {
  TensorRef gamma, beta, mean, var;
  PlanBuffer scale, shift;
  Index width = 0;
};

struct DensePlan {
  // dense1: [in, out] row-major. out: ITEM-MAJOR [out, in] (row j = item
  // j, see ondevice/format.h), scored only through output_scorer().
  TensorRef weight;
  TensorRef bias_ref;  // metered per run; values pre-dequantized below
  PlanBuffer bias;
  Index in = 0;
  Index out = 0;
};

// Whether construction may take the v3 plan-section fast path. kNeverAdopt
// forces a full build_plan() compile even on a plan-bearing file — the
// cold-start benchmark's baseline leg and the differential harness's
// fallback leg.
enum class PlanPolicy : std::uint8_t { kAdoptIfPresent, kNeverAdopt };

class CompiledModel {
 public:
  // Compiles against a caller-owned mapping; `model` must outlive the plan.
  explicit CompiledModel(const MmapModel& model,
                         PlanPolicy policy = PlanPolicy::kAdoptIfPresent);
  // Compiles against a shared mapping and keeps it alive: the mmap is
  // released only when the last plan reference drains (the ModelRegistry's
  // hot-swap retirement path).
  explicit CompiledModel(std::shared_ptr<const MmapModel> model,
                         PlanPolicy policy = PlanPolicy::kAdoptIfPresent);

  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  const MmapModel& model() const { return model_; }

  // Identity metadata (empty name / version 0 for legacy files that
  // predate set_model_identity).
  const std::string& model_name() const { return model_name_; }
  std::uint64_t model_version() const { return model_version_; }

  const std::string& technique() const { return technique_; }
  Technique technique_kind() const { return kind_; }
  const std::string& architecture() const { return arch_; }
  bool uses_onehot_path() const { return kind_ == Technique::kWeinberger; }

  Index vocab() const { return vocab_; }
  Index embed_dim() const { return embed_dim_; }
  Index hash_size() const { return hash_size_; }
  Index hidden_dim() const { return hidden_dim_; }
  Index output_dim() const { return output_dim_; }
  Index factor_dim() const { return factor_dim_; }
  Index embedding_stage_ops() const { return embed_ops_; }
  bool has_hidden() const { return has_hidden_; }

  const TensorRef& emb_a() const { return emb_a_; }
  const TensorRef& emb_b() const { return emb_b_; }
  const TensorRef& emb_c() const { return emb_c_; }
  const BatchNormPlan& bn1() const { return bn1_; }
  const BatchNormPlan& bn2() const { return bn2_; }
  const DensePlan& dense1() const { return dense1_; }
  const DensePlan& out() const { return out_; }
  // The only code that computes an output logit, exact or pruned: the
  // item-major out.weight rows with the pre-dequantized bias attached.
  const CatalogScorer& output_scorer() const { return output_scorer_; }
  const PlanBuffer& projection() const { return projection_; }

  // Cold-start accounting: whether this plan was ADOPTED from the file's
  // serialized plan section (fast path) or built by a full compile; why
  // adoption was skipped (empty when adopted); and the wall time of the
  // adopt-or-build step. ServingReport and the cold-start bench surface
  // these fleet-wide.
  bool plan_adopted() const { return plan_adopted_; }
  const std::string& plan_fallback_reason() const {
    return plan_fallback_reason_;
  }
  double compile_ms() const { return compile_ms_; }

  // v4 clustered catalog index, adopted ZERO-COPY when the file carries a
  // valid section (independent of PlanPolicy — there is no in-process
  // rebuild fallback at load time, pruning is simply unavailable without
  // it). On ANY section defect has_catalog_index() is false, the reason is
  // recorded here, and every nprobe request falls back to the exact full
  // scan — pruning is an optimization, never a correctness dependency.
  bool has_catalog_index() const { return index_adopted_; }
  const CatalogIndex& catalog_index() const { return catalog_index_; }
  const std::string& index_fallback_reason() const {
    return index_fallback_reason_;
  }
  // Attaches (or replaces) an in-process-built index — the tooling path
  // for pruned-scan benchmarks over files without a v4 section. Must be
  // called before the plan is shared across threads; serving adoption
  // normally happens inside compile().
  void attach_catalog_index(CatalogIndex index) {
    index_adopted_ = true;
    index_fallback_reason_.clear();
    catalog_index_ = std::move(index);
  }

  // The kernel family this plan dispatches to, chosen ONCE at compile time
  // (select_kernels() honors MEMCOM_DISABLE_SIMD / MEMCOM_ENABLE_FMA at the
  // moment of compilation). Every ExecutionContext running this plan uses
  // the same family, so a plan's logits are deterministic across threads.
  const KernelSet& kernels() const { return *kernels_; }
  const char* kernel_name() const { return kernels_->name; }

  // Row widths (floats) of the lookup-path embedding tensors, one per
  // hot-row-cache partition; EMPTY for the one-hot Weinberger path, which
  // streams the whole table and cannot benefit from row caching.
  std::vector<Index> cache_row_widths() const;

  // Bytes of the plan's pre-dequantized buffers (folded batchnorm, dense
  // biases, the factorized projection). This is the per-plan memory the
  // PR-3 serving layer duplicated once per worker and that sharing one
  // CompiledModel now pays exactly once per model version.
  std::size_t plan_resident_bytes() const;

 private:
  void compile(PlanPolicy policy);
  // Pointer fixup: binds a position-independent CompiledPlan (built OR
  // decoded from the file's plan section) to this mapping.
  void adopt(CompiledPlan plan);

  TensorRef resolve_handle(const PlanHandle& handle) const;

  // Keepalive for registry-owned mappings (null when the caller owns it).
  std::shared_ptr<const MmapModel> owned_;
  const MmapModel& model_;

  std::string model_name_;
  std::uint64_t model_version_ = 0;
  std::string arch_;  // "classification" | "ranking"
  std::string technique_;
  Technique kind_ = Technique::kUncompressed;
  Index vocab_ = 0;
  Index embed_dim_ = 0;  // output width of the embedding stage
  Index hash_size_ = 0;  // technique knob (m / h / keep / buckets)
  Index hidden_dim_ = 0; // classification trunk width (e/2)
  Index output_dim_ = 0;
  Index embed_ops_ = 0;  // precomputed embedding-stage fused-op count
  Index factor_dim_ = 0; // factorized h
  bool has_hidden_ = false;

  bool plan_adopted_ = false;
  std::string plan_fallback_reason_;
  double compile_ms_ = 0;

  bool index_adopted_ = false;
  CatalogIndex catalog_index_;
  std::string index_fallback_reason_;

  const KernelSet* kernels_ = nullptr;
  TensorRef emb_a_;  // table / shared / remainder / table_a / factors
  TensorRef emb_b_;  // multiplier / quotient / table_b / projection
  TensorRef emb_c_;  // memcom_bias bias
  PlanBuffer projection_;  // factorized: pre-dequantized [h, e]
  BatchNormPlan bn1_, bn2_;
  DensePlan dense1_, out_;
  CatalogScorer output_scorer_;
};

}  // namespace memcom
