#include "ondevice/plan.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "core/check.h"
#include "core/serialize.h"
#include "embedding/factory.h"

namespace memcom {

namespace {
// Plan buffers were produced by the scalar reference dequantizer, so the
// plan is valid for every kernel dispatch family (flag bit 0). A future
// writer that drops the guarantee must clear the bit, and this reader will
// refuse.
constexpr SectionEnvelope kPlanEnvelope = {
    "plan", 0x4E414C50U /* "PLAN" little-endian */, 1, 1U << 0,
    "plan buffers not scalar-predequantized"};
constexpr std::uint32_t kSectionEndianCheck = 0x01020304U;
// Fixed-size prefix (magic, format, endian, flags) + trailing checksum: the
// least a section can hold before structural parsing is even attempted.
constexpr std::uint64_t kSectionMinBytes = 4 * sizeof(std::uint32_t) + 8;
constexpr std::size_t kPlanBufferCount = 7;

// The seven buffer slots, in serialization order. Unused slots (e.g. bn2 on
// a ranking trunk) serialize as count 0 so the layout never branches.
std::vector<const PlanBuffer*> buffer_slots(const CompiledPlan& plan) {
  return {&plan.bn1_scale,   &plan.bn1_shift, &plan.bn2_scale,
          &plan.bn2_shift,   &plan.dense1_bias, &plan.out_bias,
          &plan.projection};
}

std::vector<PlanBuffer*> buffer_slots(CompiledPlan& plan) {
  return {&plan.bn1_scale,   &plan.bn1_shift, &plan.bn2_scale,
          &plan.bn2_shift,   &plan.dense1_bias, &plan.out_bias,
          &plan.projection};
}

PlanDecodeResult stale(std::string reason) {
  PlanDecodeResult result;
  result.status = PlanStatus::kStale;
  result.reason = std::move(reason);
  return result;
}
}  // namespace

Technique technique_from_metadata(const std::string& name) {
  // The engine supports the lookup/one-hot subset of the technique
  // registry; going through embedding/factory's TechniqueKind keeps the
  // metadata-string mapping in one place, and this exhaustive switch forces
  // an explicit supported/unsupported decision whenever the registry grows.
  switch (technique_from_string(name)) {
    case TechniqueKind::kFull: return Technique::kUncompressed;
    case TechniqueKind::kReduceDim: return Technique::kReduceDim;
    case TechniqueKind::kTruncateRare: return Technique::kTruncateRare;
    case TechniqueKind::kNaiveHash: return Technique::kNaiveHash;
    case TechniqueKind::kWeinberger: return Technique::kWeinberger;
    case TechniqueKind::kMemcom: return Technique::kMemcom;
    case TechniqueKind::kMemcomBias: return Technique::kMemcomBias;
    case TechniqueKind::kQrMult: return Technique::kQrMult;
    case TechniqueKind::kQrConcat: return Technique::kQrConcat;
    case TechniqueKind::kDoubleHash: return Technique::kDoubleHash;
    case TechniqueKind::kFactorized: return Technique::kFactorized;
    case TechniqueKind::kHashedNets:
    case TechniqueKind::kMixedDim:
    case TechniqueKind::kTtRec:
      break;
  }
  check(false, "engine: unsupported technique " + name);
  return Technique::kUncompressed;
}

Index embedding_stage_ops(Technique kind) {
  // The frameworks execute the WHOLE batch-1 embedding stage as a handful
  // of fused graph ops (gather per table + the composition op), not one op
  // per token — dispatch overhead must be charged accordingly.
  switch (kind) {
    case Technique::kUncompressed:
    case Technique::kReduceDim:
    case Technique::kNaiveHash:
    case Technique::kTruncateRare:
      return 1;  // gather
    case Technique::kMemcom:
      return 3;  // gather U, gather V, broadcast multiply
    case Technique::kMemcomBias:
      return 5;  // + gather W, broadcast add
    case Technique::kQrMult:
    case Technique::kQrConcat:
    case Technique::kDoubleHash:
      return 3;  // two gathers + compose
    case Technique::kFactorized:
      return 2;  // gather + projection matmul
    case Technique::kWeinberger:
      return 3;  // one_hot + matmul + reduce_sum (the un-fused §5.3 path)
  }
  return 1;
}

SpanSrc make_span_src(const TensorEntry& entry, const std::uint8_t* payload) {
  SpanSrc src;
  src.dtype = entry.dtype;
  src.scale = entry.scale;
  src.payload = payload;
  if (entry.dtype == DType::kI4G) {
    // Split the blob once: [f32 scales header][packed nibbles].
    src.group_scales = reinterpret_cast<const float*>(payload);
    src.packed =
        payload + i4g_scales_bytes(static_cast<std::size_t>(entry.numel()),
                                   entry.group_size);
    src.group_size = entry.group_size;
  }
  return src;
}

std::vector<std::string> plan_tensor_roles(Technique kind, bool has_hidden) {
  std::vector<std::string> names;
  switch (kind) {
    case Technique::kUncompressed:
    case Technique::kReduceDim:
    case Technique::kTruncateRare:
    case Technique::kNaiveHash:
    case Technique::kWeinberger:
      names = {"emb.table"};
      break;
    case Technique::kMemcom:
      names = {"emb.shared", "emb.multiplier"};
      break;
    case Technique::kMemcomBias:
      names = {"emb.shared", "emb.multiplier", "emb.bias"};
      break;
    case Technique::kQrMult:
    case Technique::kQrConcat:
      names = {"emb.remainder", "emb.quotient"};
      break;
    case Technique::kDoubleHash:
      names = {"emb.table_a", "emb.table_b"};
      break;
    case Technique::kFactorized:
      names = {"emb.factors", "emb.projection"};
      break;
  }
  for (const char* suffix : {".gamma", ".beta", ".mean", ".var"}) {
    names.push_back(std::string("bn1") + suffix);
  }
  if (has_hidden) {
    names.push_back("dense1.weight");
    names.push_back("dense1.bias");
    for (const char* suffix : {".gamma", ".beta", ".mean", ".var"}) {
      names.push_back(std::string("bn2") + suffix);
    }
  }
  names.push_back("out.weight");
  names.push_back("out.bias");
  return names;
}

CompiledPlan build_plan(const MmapModel& model) {
  check_output_layout(model);
  CompiledPlan plan;
  plan.model_name = model.model_name();
  plan.model_version = model.model_version();
  plan.arch = model.metadata_value("arch");
  plan.technique = model.metadata_value("technique");
  check(plan.arch == "classification" || plan.arch == "ranking",
        "engine: unknown architecture " + plan.arch);
  plan.kind = technique_from_metadata(plan.technique);
  plan.has_hidden = plan.arch == "classification";
  plan.vocab = model.metadata_int("vocab");
  plan.embed_dim = model.metadata_int("embed_dim");
  plan.hash_size = model.metadata_int("knob");
  plan.output_dim = model.metadata_int("output_dim");
  plan.hidden_dim =
      model.has_metadata("hidden_dim") ? model.metadata_int("hidden_dim") : 0;

  for (const std::string& name : plan_tensor_roles(plan.kind, plan.has_hidden)) {
    plan.handles.push_back(
        PlanHandle{name, static_cast<std::uint64_t>(model.entry_index(name))});
  }

  // Always the scalar reference: pre-dequantized buffers feed every kernel
  // family, so their contents must not depend on the dispatch decision.
  auto dequantize = [&model](const std::string& name) {
    const TensorEntry& entry = model.entry(name);
    std::vector<float> out(static_cast<std::size_t>(entry.numel()));
    scalar_kernels().dequant_span(make_span_src(entry, model.payload(entry)),
                                  0, entry.numel(), out.data());
    return out;
  };
  auto fold_batchnorm = [&](const std::string& prefix, Index width,
                            PlanBuffer& scale_out, PlanBuffer& shift_out) {
    const std::vector<float> gamma = dequantize(prefix + ".gamma");
    const std::vector<float> beta = dequantize(prefix + ".beta");
    const std::vector<float> mean = dequantize(prefix + ".mean");
    const std::vector<float> var = dequantize(prefix + ".var");
    std::vector<float> scale(static_cast<std::size_t>(width));
    std::vector<float> shift(static_cast<std::size_t>(width));
    for (Index i = 0; i < width; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      scale[s] = gamma[s] / std::sqrt(var[s] + 1e-5f);
      shift[s] = beta[s] - mean[s] * scale[s];
    }
    scale_out = PlanBuffer::owned(std::move(scale));
    shift_out = PlanBuffer::owned(std::move(shift));
  };

  if (plan.kind == Technique::kFactorized) {
    plan.factor_dim = model.entry("emb.factors").shape[1];
    plan.projection = PlanBuffer::owned(dequantize("emb.projection"));
  }
  fold_batchnorm("bn1", plan.embed_dim, plan.bn1_scale, plan.bn1_shift);
  if (plan.has_hidden) {
    plan.dense1_bias = PlanBuffer::owned(dequantize("dense1.bias"));
    fold_batchnorm("bn2", plan.hidden_dim, plan.bn2_scale, plan.bn2_shift);
  }
  plan.out_bias = PlanBuffer::owned(dequantize("out.bias"));
  return plan;
}

std::uint64_t plan_checksum(const std::uint8_t* data, std::size_t size) {
  // FNV-1a over 8-byte little-endian words (tail zero-padded), length
  // bound: one multiply per word instead of per byte keeps validating a
  // plan cheap next to the dequantization work adoption replaces.
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash = 14695981039346656037ULL;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    hash = (hash ^ word) * kPrime;
  }
  if (i < size) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, size - i);
    hash = (hash ^ word) * kPrime;
  }
  return (hash ^ static_cast<std::uint64_t>(size)) * kPrime;
}

std::uint64_t align_up(std::uint64_t offset, std::uint64_t alignment) {
  return (offset + alignment - 1) / alignment * alignment;
}

void write_section_prefix(std::ostream& os, const SectionEnvelope& envelope) {
  write_u32(os, envelope.magic);
  write_u32(os, envelope.format_version);
  write_u32(os, kSectionEndianCheck);
  write_u32(os, envelope.required_flags);
}

void pad_section_to(std::ostream& os, std::uint64_t offset) {
  const auto at = static_cast<std::uint64_t>(os.tellp());
  check(at <= offset, "section layout overflow");
  for (std::uint64_t p = at; p < offset; ++p) {
    os.put('\0');
  }
}

std::vector<std::uint8_t> seal_section(const std::string& body) {
  std::vector<std::uint8_t> bytes(body.begin(), body.end());
  const std::uint64_t checksum = plan_checksum(bytes.data(), bytes.size());
  const auto* tail = reinterpret_cast<const std::uint8_t*>(&checksum);
  bytes.insert(bytes.end(), tail, tail + sizeof(checksum));
  return bytes;
}

std::string check_section_envelope(const std::uint8_t* data,
                                   std::uint64_t size,
                                   const SectionEnvelope& envelope) {
  const std::string what = envelope.what;
  if (size < kSectionMinBytes) {
    return what + " section truncated (" + std::to_string(size) + " bytes)";
  }
  // Fixed-prefix compatibility gate first, checksum second; callers then
  // parse structure and semantics, each layer reading only what the
  // previous one vouched for.
  std::uint32_t prefix[4];
  std::memcpy(prefix, data, sizeof(prefix));
  if (prefix[0] != envelope.magic) {
    return "bad " + what + " magic";
  }
  if (prefix[1] != envelope.format_version) {
    return "unsupported " + what + " format version " +
           std::to_string(prefix[1]);
  }
  if (prefix[2] != kSectionEndianCheck) {
    return what + " endianness mismatch";
  }
  if ((prefix[3] & envelope.required_flags) != envelope.required_flags) {
    return envelope.missing_flags_reason;
  }
  std::uint64_t stored = 0;
  std::memcpy(&stored, data + size - 8, sizeof(stored));
  if (plan_checksum(data, static_cast<std::size_t>(size - 8)) != stored) {
    return what + " checksum mismatch";
  }
  return "";
}

std::vector<std::uint8_t> serialize_plan(const CompiledPlan& plan) {
  const std::vector<const PlanBuffer*> slots = buffer_slots(plan);
  // Offsets are fixed-width u64s, so the header size does not depend on
  // their values: serialize once with zeros to measure, lay the buffer
  // regions out 64-byte-aligned behind it, then serialize for real.
  auto emit_header = [&](std::ostream& os,
                         const std::vector<std::uint64_t>& offsets) {
    write_section_prefix(os, kPlanEnvelope);
    write_string(os, plan.model_name);
    write_u64(os, plan.model_version);
    write_string(os, plan.arch);
    write_string(os, plan.technique);
    write_i64(os, plan.vocab);
    write_i64(os, plan.embed_dim);
    write_i64(os, plan.hash_size);
    write_i64(os, plan.hidden_dim);
    write_i64(os, plan.output_dim);
    write_i64(os, plan.factor_dim);
    write_u64(os, plan.handles.size());
    for (const PlanHandle& handle : plan.handles) {
      write_string(os, handle.name);
      write_u64(os, handle.index);
    }
    write_u64(os, slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      write_u64(os, slots[i]->size());
      write_u64(os, offsets[i]);
    }
  };

  std::ostringstream probe;
  emit_header(probe, std::vector<std::uint64_t>(slots.size(), 0));
  const std::uint64_t header_size =
      static_cast<std::uint64_t>(probe.str().size());

  std::vector<std::uint64_t> offsets(slots.size(), 0);
  std::uint64_t cursor = header_size;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i]->empty()) {
      continue;
    }
    cursor = align_up(cursor, kSectionAlignment);
    offsets[i] = cursor;
    cursor += slots[i]->byte_size();
  }

  std::ostringstream os;
  emit_header(os, offsets);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i]->empty()) {
      continue;
    }
    pad_section_to(os, offsets[i]);
    write_f32_array(os, slots[i]->data(), slots[i]->size());
  }
  return seal_section(os.str());
}

PlanDecodeResult decode_plan(const MmapModel& model) {
  if (!model.has_plan_section()) {
    return PlanDecodeResult{};  // kAbsent
  }
  // A declared-but-unreachable section (out of file bounds, misaligned) was
  // flagged at open; stale, not fatal — the tensors themselves are intact.
  if (model.plan_data() == nullptr) {
    return stale(model.plan_bounds_error());
  }
  const std::uint8_t* base = model.plan_data();
  const std::uint64_t size = model.plan_size();
  if (std::string reason = check_section_envelope(base, size, kPlanEnvelope);
      !reason.empty()) {
    return stale(std::move(reason));
  }
  const std::uint64_t payload_limit = size - 8;  // bytes before the checksum

  try {
    // Structural parse of the header region. The buffer data regions are
    // never copied — only the strings/ints front, which is tiny; cap the
    // copy so a pathological header cannot balloon it (reads past the cap
    // fail the stream and land in the catch below).
    const std::size_t header_cap = static_cast<std::size_t>(
        std::min<std::uint64_t>(size, 1ULL << 16));
    std::istringstream is(
        std::string(reinterpret_cast<const char*>(base), header_cap));
    is.ignore(16);  // fixed prefix, validated above

    CompiledPlan plan;
    plan.model_name = read_string(is);
    plan.model_version = read_u64(is);
    plan.arch = read_string(is);
    plan.technique = read_string(is);
    plan.vocab = read_i64(is);
    plan.embed_dim = read_i64(is);
    plan.hash_size = read_i64(is);
    plan.hidden_dim = read_i64(is);
    plan.output_dim = read_i64(is);
    plan.factor_dim = read_i64(is);
    const std::uint64_t handle_count = read_u64(is);
    if (handle_count > model.entry_count()) {
      return stale("plan declares more handles than the directory has");
    }
    for (std::uint64_t i = 0; i < handle_count; ++i) {
      PlanHandle handle;
      handle.name = read_string(is);
      handle.index = read_u64(is);
      plan.handles.push_back(std::move(handle));
    }
    const std::uint64_t buffer_count = read_u64(is);
    if (buffer_count != kPlanBufferCount) {
      return stale("unexpected plan buffer count " +
                   std::to_string(buffer_count));
    }
    std::vector<PlanBuffer*> slots = buffer_slots(plan);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::uint64_t count = read_u64(is);
      const std::uint64_t offset = read_u64(is);
      if (count == 0) {
        continue;
      }
      // Overflow-safe bounds: a hostile header can declare sizes whose
      // byte count wraps back into range.
      if (count > payload_limit / sizeof(float) ||
          offset > payload_limit - count * sizeof(float)) {
        return stale("plan buffer out of section bounds");
      }
      if (offset % kSectionAlignment != 0) {
        return stale("plan buffer misaligned");
      }
      *slots[i] = PlanBuffer::view(
          reinterpret_cast<const float*>(base + offset),
          static_cast<std::size_t>(count));
    }

    // Semantic agreement with the file the plan rides in: identity,
    // metadata dims, directory handles, buffer widths. Any skew means the
    // section belongs to a different refresh of the model — recompile.
    if (plan.model_name != model.model_name()) {
      return stale("plan model_name skew (plan '" + plan.model_name +
                   "' vs file '" + model.model_name() + "')");
    }
    if (plan.model_version != model.model_version()) {
      return stale("plan model_version skew (plan " +
                   std::to_string(plan.model_version) + " vs file " +
                   std::to_string(model.model_version()) + ")");
    }
    if (plan.arch != model.metadata_value("arch") ||
        plan.technique != model.metadata_value("technique")) {
      return stale("plan arch/technique skew");
    }
    plan.kind = technique_from_metadata(plan.technique);
    plan.has_hidden = plan.arch == "classification";
    const Index file_hidden = model.has_metadata("hidden_dim")
                                  ? model.metadata_int("hidden_dim")
                                  : 0;
    if (plan.vocab != model.metadata_int("vocab") ||
        plan.embed_dim != model.metadata_int("embed_dim") ||
        plan.hash_size != model.metadata_int("knob") ||
        plan.output_dim != model.metadata_int("output_dim") ||
        plan.hidden_dim != file_hidden) {
      return stale("plan dimension skew");
    }
    const std::vector<std::string> roles =
        plan_tensor_roles(plan.kind, plan.has_hidden);
    if (plan.handles.size() != roles.size()) {
      return stale("plan handle count skew");
    }
    for (std::size_t i = 0; i < roles.size(); ++i) {
      const PlanHandle& handle = plan.handles[i];
      if (handle.name != roles[i] || handle.index >= model.entry_count() ||
          model.entry_at(static_cast<std::size_t>(handle.index)).name !=
              handle.name) {
        return stale("plan handle skew for " + roles[i]);
      }
    }
    if (plan.kind == Technique::kFactorized &&
        plan.factor_dim != model.entry("emb.factors").shape[1]) {
      return stale("plan factor_dim skew");
    }
    const Index projection_count =
        plan.kind == Technique::kFactorized ? plan.factor_dim * plan.embed_dim
                                            : 0;
    const struct { const PlanBuffer* buffer; Index expect; } widths[] = {
        {&plan.bn1_scale, plan.embed_dim},
        {&plan.bn1_shift, plan.embed_dim},
        {&plan.bn2_scale, plan.has_hidden ? plan.hidden_dim : 0},
        {&plan.bn2_shift, plan.has_hidden ? plan.hidden_dim : 0},
        {&plan.dense1_bias, plan.has_hidden ? plan.hidden_dim : 0},
        {&plan.out_bias, plan.output_dim},
        {&plan.projection, projection_count},
    };
    for (const auto& [buffer, expect] : widths) {
      if (buffer->size() != static_cast<std::size_t>(expect)) {
        return stale("plan buffer width skew");
      }
    }

    plan.zero_copy = true;
    PlanDecodeResult result;
    result.status = PlanStatus::kValid;
    result.plan = std::move(plan);
    return result;
  } catch (const std::exception& e) {
    // Truncated/garbled header: the stream readers throw; report, fall
    // back. A bad plan section must never take down a loadable model.
    return stale(std::string("plan section unreadable: ") + e.what());
  }
}

}  // namespace memcom
