#include "ondevice/compiled_model.h"

#include <utility>

#include "core/check.h"
#include "ondevice/clock.h"

namespace memcom {

CompiledModel::CompiledModel(const MmapModel& model, PlanPolicy policy)
    : model_(model) {
  compile(policy);
}

CompiledModel::CompiledModel(std::shared_ptr<const MmapModel> model,
                             PlanPolicy policy)
    : owned_(std::move(model)), model_(*owned_) {
  compile(policy);
}

void CompiledModel::compile(PlanPolicy policy) {
  const SteadyClock::time_point start = SteadyClock::now();
  check_output_layout(model_);
  kernels_ = &select_kernels();
  if (policy == PlanPolicy::kAdoptIfPresent) {
    PlanDecodeResult decoded = decode_plan(model_);
    if (decoded.status == PlanStatus::kValid) {
      plan_adopted_ = true;
      adopt(std::move(decoded.plan));
    } else {
      // Absent or stale: fall back to the full compile. build_plan() is
      // the function the writer serialized the section with, so the
      // fallback's buffers are bit-identical to a healthy plan's.
      plan_fallback_reason_ = decoded.status == PlanStatus::kStale
                                  ? decoded.reason
                                  : "no plan section";
      adopt(build_plan(model_));
    }
  } else {
    plan_fallback_reason_ = "plan adoption disabled";
    adopt(build_plan(model_));
  }
  CatalogIndexDecodeResult index = decode_catalog_index(model_);
  if (index.status == PlanStatus::kValid) {
    index_adopted_ = true;
    catalog_index_ = std::move(index.index);
  } else {
    index_fallback_reason_ = index.status == PlanStatus::kStale
                                 ? index.reason
                                 : "no catalog index section";
  }
  compile_ms_ = elapsed_ms(start);
}

TensorRef CompiledModel::resolve_handle(const PlanHandle& handle) const {
  const TensorEntry& entry =
      model_.entry_at(static_cast<std::size_t>(handle.index));
  check(entry.name == handle.name,
        "plan: handle name mismatch for " + handle.name);
  TensorRef ref;
  ref.entry = &entry;
  ref.payload = model_.payload(entry);
  ref.dtype = entry.dtype;
  ref.scale = entry.scale;
  ref.element_bits = static_cast<std::size_t>(dtype_bits(entry.dtype));
  ref.file_offset = static_cast<Index>(entry.offset);
  if (entry.dtype == DType::kF32) {
    ref.f32 = reinterpret_cast<const float*>(ref.payload);
  }
  ref.src = make_span_src(entry, ref.payload);
  return ref;
}

void CompiledModel::adopt(CompiledPlan plan) {
  model_name_ = std::move(plan.model_name);
  model_version_ = plan.model_version;
  arch_ = std::move(plan.arch);
  technique_ = std::move(plan.technique);
  kind_ = plan.kind;
  has_hidden_ = plan.has_hidden;
  vocab_ = plan.vocab;
  embed_dim_ = plan.embed_dim;
  hash_size_ = plan.hash_size;
  hidden_dim_ = plan.hidden_dim;
  output_dim_ = plan.output_dim;
  factor_dim_ = plan.factor_dim;
  // Qualified: the accessor of the same name shadows the free function.
  embed_ops_ = ::memcom::embedding_stage_ops(kind_);

  // The handle table rides in plan_tensor_roles() order (embedding
  // tensors, bn1, [dense1, bn2], out); fixing it up is a cursor walk —
  // no string lookups on the adopt path.
  std::size_t next = 0;
  auto take = [&]() {
    check(next < plan.handles.size(), "plan: handle table underrun");
    return resolve_handle(plan.handles[next++]);
  };
  switch (kind_) {
    case Technique::kUncompressed:
    case Technique::kReduceDim:
    case Technique::kTruncateRare:
    case Technique::kNaiveHash:
    case Technique::kWeinberger:
      emb_a_ = take();
      break;
    case Technique::kMemcom:
    case Technique::kMemcomBias:
      emb_a_ = take();  // emb.shared
      emb_b_ = take();  // emb.multiplier
      if (kind_ == Technique::kMemcomBias) {
        emb_c_ = take();  // emb.bias
      }
      break;
    case Technique::kQrMult:
    case Technique::kQrConcat:
      emb_a_ = take();  // emb.remainder
      emb_b_ = take();  // emb.quotient
      break;
    case Technique::kDoubleHash:
      emb_a_ = take();  // emb.table_a
      emb_b_ = take();  // emb.table_b
      break;
    case Technique::kFactorized:
      emb_a_ = take();  // emb.factors
      emb_b_ = take();  // emb.projection
      check_eq(factor_dim_, emb_a_.entry->shape[1], "factorized h");
      break;
  }

  auto adopt_batchnorm = [&](BatchNormPlan& bn, Index width,
                             PlanBuffer scale, PlanBuffer shift) {
    bn.gamma = take();
    bn.beta = take();
    bn.mean = take();
    bn.var = take();
    bn.width = width;
    check_eq(width, static_cast<Index>(scale.size()), "batchnorm width");
    bn.scale = std::move(scale);
    bn.shift = std::move(shift);
  };
  auto adopt_dense = [&](DensePlan& dense, Index expect_in, Index expect_out,
                         PlanBuffer bias, bool item_major) {
    dense.weight = take();
    dense.bias_ref = take();
    const Shape& shape = dense.weight.entry->shape;
    check_eq(Index{2}, static_cast<Index>(shape.size()), "dense weight rank");
    dense.in = shape[item_major ? 1 : 0];
    dense.out = shape[item_major ? 0 : 1];
    // The scratch buffers the forward pass reads/writes are sized from
    // metadata, so an inconsistent file must fail here, not overflow the
    // arena at run time.
    check_eq(expect_in, dense.in, "dense input width");
    check_eq(expect_out, dense.out, "dense output width");
    check_eq(expect_out, static_cast<Index>(bias.size()), "dense bias width");
    dense.bias = std::move(bias);
  };

  adopt_batchnorm(bn1_, embed_dim_, std::move(plan.bn1_scale),
                  std::move(plan.bn1_shift));
  if (has_hidden_) {
    adopt_dense(dense1_, embed_dim_, hidden_dim_,
                std::move(plan.dense1_bias), /*item_major=*/false);
    adopt_batchnorm(bn2_, hidden_dim_, std::move(plan.bn2_scale),
                    std::move(plan.bn2_shift));
  }
  adopt_dense(out_, has_hidden_ ? hidden_dim_ : embed_dim_, output_dim_,
              std::move(plan.out_bias), /*item_major=*/true);
  output_scorer_ = CatalogScorer(
      out_.weight.src, out_.out, out_.in,
      out_.weight.entry->byte_size + out_.bias_ref.entry->byte_size,
      *kernels_, out_.bias.data());
  projection_ = std::move(plan.projection);
  check(next == plan.handles.size(), "plan: unused handle table entries");
}

std::vector<Index> CompiledModel::cache_row_widths() const {
  // One partition per embedding tensor of the plan, each with that tensor's
  // row width.
  const Index e = embed_dim_;
  switch (kind_) {
    case Technique::kUncompressed:
    case Technique::kReduceDim:
    case Technique::kTruncateRare:
    case Technique::kNaiveHash:
      return {e};
    case Technique::kMemcom:
      return {e, 1};  // shared rows + per-entity multiplier
    case Technique::kMemcomBias:
      return {e, 1, 1};  // + per-entity bias
    case Technique::kQrMult:
      return {e, e};
    case Technique::kQrConcat:
    case Technique::kDoubleHash:
      return {e / 2, e / 2};
    case Technique::kFactorized:
      return {factor_dim_};  // the projection is pre-dequantized already
    case Technique::kWeinberger:
      // The one-hot path streams the entire table every forward; caching
      // individual rows cannot skip any work.
      return {};
  }
  return {};
}

std::size_t CompiledModel::plan_resident_bytes() const {
  // Zero-copy adopted buffers still count: the plan section's pages are
  // resident while the plan is referenced, same as a heap copy would be.
  std::size_t bytes = projection_.byte_size();
  bytes += bn1_.scale.byte_size() + bn1_.shift.byte_size();
  bytes += bn2_.scale.byte_size() + bn2_.shift.byte_size();
  bytes += dense1_.bias.byte_size() + out_.bias.byte_size();
  return bytes;
}

}  // namespace memcom
