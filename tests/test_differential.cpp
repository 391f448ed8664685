// Cross-technique differential test harness.
//
// Every inference entry point — ExecutionContext::run_view() and
// run_batch(), ServingHarness::serve(), and the AsyncServer pipeline —
// must produce BIT-IDENTICAL logits for every Technique enum value over a
// seeded corpus of edge-case histories, with the hot-row cache detached,
// cold, and warm. This is the contract that lets future fast-path /
// scheduling / caching changes land without re-litigating numerical parity:
// if a change perturbs a single logit bit anywhere, this suite names the
// technique, the path, the request, and the logit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/sampling.h"
#include "ondevice/plan.h"
#include "ondevice/registry.h"
#include "ondevice/serving.h"
#include "ondevice/topk.h"
#include "repro/model.h"
#include "test_util.h"

namespace memcom {
namespace {

constexpr Index kVocab = 150;
constexpr Index kEmbedDim = 16;
constexpr Index kMaxLen = 32;
constexpr std::size_t kCacheBudget = 32 * 1024;

// Every value of the plan's Technique enum, via the registry kinds that
// compile to it. If the enum grows, this list (and the exhaustive switch in
// execution_context.cpp) must grow with it.
const TechniqueKind kAllEngineTechniques[] = {
    TechniqueKind::kFull,        TechniqueKind::kReduceDim,
    TechniqueKind::kTruncateRare, TechniqueKind::kNaiveHash,
    TechniqueKind::kWeinberger,  TechniqueKind::kMemcom,
    TechniqueKind::kMemcomBias,  TechniqueKind::kQrMult,
    TechniqueKind::kQrConcat,    TechniqueKind::kDoubleHash,
    TechniqueKind::kFactorized,
};

// Seeded corpus of edge-case histories: empty, length-1, all-duplicate ids,
// all-padding, maximum length, and Zipf-skewed draws (the distribution the
// hot-row cache is designed for — duplicates across requests are the point).
std::vector<std::vector<std::int32_t>> edge_case_corpus() {
  std::vector<std::vector<std::int32_t>> corpus;
  corpus.push_back({});                            // empty
  corpus.push_back({1});                           // length-1, first real id
  corpus.push_back({static_cast<std::int32_t>(kVocab - 1)});  // last id
  corpus.push_back(std::vector<std::int32_t>(8, 7));          // all-duplicate
  corpus.push_back(std::vector<std::int32_t>(6, 0));          // all padding
  {
    std::vector<std::int32_t> dense(static_cast<std::size_t>(kMaxLen));
    for (Index t = 0; t < kMaxLen; ++t) {  // max length, full id sweep
      dense[static_cast<std::size_t>(t)] =
          static_cast<std::int32_t>(1 + (t * 37) % (kVocab - 1));
    }
    corpus.push_back(std::move(dense));
  }
  corpus.push_back({5, 0, 17, 0, 42, 0});  // interleaved padding
  Rng rng(2024);
  const AliasSampler zipf(zipf_weights(kVocab - 1, 1.1));
  for (int i = 0; i < 8; ++i) {  // skewed Zipf traffic
    std::vector<std::int32_t> history(
        static_cast<std::size_t>(4 + rng.uniform_index(kMaxLen - 4)), 0);
    for (auto& id : history) {
      id = static_cast<std::int32_t>(1 + zipf.sample(rng));
    }
    corpus.push_back(std::move(history));
  }
  return corpus;
}

class DifferentialTest : public ::testing::TestWithParam<TechniqueKind> {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }

  std::string export_model(TechniqueKind kind, DType dtype,
                           std::uint64_t version = 1, bool emit_plan = false,
                           bool emit_index = false, Index index_clusters = 0) {
    ModelConfig config;
    config.embedding.kind = kind;
    config.embedding.vocab = kVocab;
    config.embedding.embed_dim = kEmbedDim;
    switch (kind) {
      case TechniqueKind::kFactorized:
      case TechniqueKind::kReduceDim:
        config.embedding.knob = 8;
        break;
      case TechniqueKind::kFull:
        config.embedding.knob = 0;
        break;
      default:
        config.embedding.knob = 24;
    }
    config.arch = ModelArch::kClassification;
    config.output_vocab = 24;
    config.seed = 99177;
    RecModel model(config);
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_diff_" + std::string(technique_name(kind)) + "_" +
              dtype_name(dtype) + "_v" + std::to_string(version) +
              (emit_plan ? "_plan" : "") + (emit_index ? "_idx" : "") + ".mcm");
    paths_.push_back(p);
    // Same seed each version: the weights are bit-identical, so the
    // post-swap path below can demand bit-identical logits; the version
    // stamp is what changes.
    model.export_mcm(p.string(), dtype, "diff", version, /*group_size=*/0,
                     emit_plan, emit_index, index_clusters);
    return p.string();
  }

  std::vector<std::filesystem::path> paths_;
};

// Reference logits: sequential run_view() on a dedicated context.
std::vector<Tensor> reference_logits(
    const MmapModel& model,
    const std::vector<std::vector<std::int32_t>>& corpus) {
  ExecutionContext context(std::make_shared<const CompiledModel>(model),
                           tflite_profile());
  std::vector<Tensor> out;
  out.reserve(corpus.size());
  for (const auto& history : corpus) {
    out.push_back(test::copy_logits(context.run_view(history)));
  }
  return out;
}

void expect_bit_identical(const float* actual, const Tensor& expected,
                          const std::string& path, std::size_t request) {
  for (Index c = 0; c < expected.numel(); ++c) {
    // EXPECT_EQ on floats: bit-identical is the contract, not "close".
    EXPECT_EQ(actual[static_cast<std::size_t>(c)], expected[c])
        << path << " request " << request << " logit " << c;
  }
}

void check_all_paths(const MmapModel& model,
                     const std::vector<std::vector<std::int32_t>>& corpus,
                     const std::vector<Tensor>& expected,
                     const std::string& tag, const std::string& path,
                     const std::string& swap_path) {
  // --- run_view -----------------------------------------------------------
  {
    ExecutionContext context(std::make_shared<const CompiledModel>(model),
                             tflite_profile());
    for (std::size_t r = 0; r < corpus.size(); ++r) {
      const InferenceView view = context.run_view(corpus[r]);
      expect_bit_identical(view.logits, expected[r], tag + "/run_view", r);
    }
  }
  // --- run_batch ----------------------------------------------------------
  {
    ExecutionContext context(std::make_shared<const CompiledModel>(model),
                             tflite_profile());
    BatchResult batch = context.run_batch(corpus);
    for (std::size_t r = 0; r < corpus.size(); ++r) {
      expect_bit_identical(&batch.logits.at2(static_cast<Index>(r), 0),
                           expected[r], tag + "/run_batch", r);
    }
  }
  // --- ServingHarness (closed loop, threaded) -----------------------------
  {
    ServingHarness harness(model, tflite_profile(), 3);
    Tensor served;
    harness.serve(corpus, 1, &served);
    for (std::size_t r = 0; r < corpus.size(); ++r) {
      expect_bit_identical(&served.at2(static_cast<Index>(r), 0), expected[r],
                           tag + "/harness", r);
    }
  }
  // --- AsyncServer (micro-batching pipeline), cache off -------------------
  {
    AsyncServerConfig config;
    config.threads = 2;
    config.max_batch = 4;
    config.max_delay_us = 100.0;
    config.queue_capacity = 8;
    AsyncServer server(model, tflite_profile(), config);
    Tensor served;
    server.serve(corpus, 1, 0.0, &served);
    for (std::size_t r = 0; r < corpus.size(); ++r) {
      expect_bit_identical(&served.at2(static_cast<Index>(r), 0), expected[r],
                           tag + "/async", r);
    }
  }
  // --- AsyncServer, SHARDED scheduler (work-stealing path) ----------------
  // Same corpus through shards=threads with deadlines + SLO flush armed:
  // batch composition and execution placement differ completely from the
  // single-queue drain above, yet every logit must stay bit-identical.
  {
    AsyncServerConfig config;
    config.threads = 3;
    config.shards = 3;
    config.max_batch = 4;
    config.max_delay_us = 100.0;
    config.deadline_us = 1e6;  // generous: exercises the deadline plumbing
    config.queue_capacity = 9;
    AsyncServer server(model, tflite_profile(), config);
    Tensor served;
    server.serve(corpus, 1, 0.0, &served);
    for (std::size_t r = 0; r < corpus.size(); ++r) {
      expect_bit_identical(&served.at2(static_cast<Index>(r), 0), expected[r],
                           tag + "/async_sharded", r);
    }
  }
  // --- Hot-row cache: cold pass then warm pass ----------------------------
  {
    ExecutionContext context(std::make_shared<const CompiledModel>(model),
                             tflite_profile());
    const bool attached = context.enable_row_cache(kCacheBudget);
    EXPECT_EQ(attached, !context.compiled().uses_onehot_path()) << tag;
    for (std::size_t r = 0; r < corpus.size(); ++r) {  // cold
      const InferenceView view = context.run_view(corpus[r]);
      expect_bit_identical(view.logits, expected[r], tag + "/cache_cold", r);
    }
    const RowCacheStats after_cold = context.row_cache_stats();
    for (std::size_t r = 0; r < corpus.size(); ++r) {  // warm
      const InferenceView view = context.run_view(corpus[r]);
      expect_bit_identical(view.logits, expected[r], tag + "/cache_warm", r);
    }
    if (attached) {
      const RowCacheStats after_warm = context.row_cache_stats();
      // The corpus is Zipf-skewed and fits the budget: the warm pass must
      // actually hit (otherwise this test isn't exercising the cache).
      EXPECT_GT(after_warm.hits, after_cold.hits) << tag;
      EXPECT_GT(after_warm.resident_bytes, 0u) << tag;
      EXPECT_LE(after_warm.resident_bytes, after_warm.capacity_bytes) << tag;
    }
  }
  // --- AsyncServer with the cache enabled, two drains (cold + warm) -------
  {
    AsyncServerConfig config;
    config.threads = 2;
    config.max_batch = 8;
    config.max_delay_us = 50.0;
    config.queue_capacity = 16;
    config.cache_budget_bytes = kCacheBudget;
    AsyncServer server(model, tflite_profile(), config);
    for (int pass = 0; pass < 2; ++pass) {
      Tensor served;
      server.serve(corpus, 1, 0.0, &served);
      for (std::size_t r = 0; r < corpus.size(); ++r) {
        expect_bit_identical(
            &served.at2(static_cast<Index>(r), 0), expected[r],
            tag + "/async_cached_pass" + std::to_string(pass), r);
      }
    }
  }
  // --- ModelRegistry-served, then again after a hot swap ------------------
  // swap_path carries the SAME weights under a higher declared version, so
  // the post-swap drain must reproduce every logit bit — the swap machinery
  // (version pinning, context re-bind, cold cache rebuild) may not perturb
  // a single bit anywhere.
  {
    ModelRegistry registry;
    registry.load("diff", path);
    AsyncServerConfig config;
    config.threads = 2;
    config.max_batch = 4;
    config.max_delay_us = 50.0;
    config.queue_capacity = 16;
    config.cache_budget_bytes = kCacheBudget;
    AsyncServer server(registry, "diff", tflite_profile(), config);
    {
      Tensor served;
      server.serve(corpus, 1, 0.0, &served);
      for (std::size_t r = 0; r < corpus.size(); ++r) {
        expect_bit_identical(&served.at2(static_cast<Index>(r), 0),
                             expected[r], tag + "/registry", r);
      }
    }
    registry.swap("diff", swap_path);
    {
      Tensor served;
      server.serve(corpus, 1, 0.0, &served);
      for (std::size_t r = 0; r < corpus.size(); ++r) {
        expect_bit_identical(&served.at2(static_cast<Index>(r), 0),
                             expected[r], tag + "/post_swap", r);
      }
    }
  }
}

TEST_P(DifferentialTest, AllPathsBitIdenticalF32) {
  const TechniqueKind kind = GetParam();
  const std::string path = export_model(kind, DType::kF32);
  const std::string swap_path = export_model(kind, DType::kF32, 2);
  const MmapModel model(path);
  const auto corpus = edge_case_corpus();
  const auto expected = reference_logits(model, corpus);
  check_all_paths(model, corpus, expected,
                  std::string(technique_name(kind)) + "/f32", path,
                  swap_path);
}

TEST_P(DifferentialTest, AllPathsBitIdenticalQuantizedI8) {
  const TechniqueKind kind = GetParam();
  const std::string path = export_model(kind, DType::kI8);
  const std::string swap_path = export_model(kind, DType::kI8, 2);
  const MmapModel model(path);
  const auto corpus = edge_case_corpus();
  const auto expected = reference_logits(model, corpus);
  check_all_paths(model, corpus, expected,
                  std::string(technique_name(kind)) + "/i8", path,
                  swap_path);
}

// 4-bit groupwise rows through every serving path: the sub-byte codec this
// PR adds must satisfy the same bit-identity contract as i8.
TEST_P(DifferentialTest, AllPathsBitIdenticalQuantizedI4G) {
  const TechniqueKind kind = GetParam();
  const std::string path = export_model(kind, DType::kI4G);
  const std::string swap_path = export_model(kind, DType::kI4G, 2);
  const MmapModel model(path);
  const auto corpus = edge_case_corpus();
  const auto expected = reference_logits(model, corpus);
  check_all_paths(model, corpus, expected,
                  std::string(technique_name(kind)) + "/i4g", path,
                  swap_path);
}

// Kernel-family differential: the SAME model compiled with the scalar
// reference (MEMCOM_DISABLE_SIMD=1 at compile time) and with the dispatched
// SIMD family must produce bit-identical logits on every technique × dtype.
// This is the tentpole's bit-exactness contract at the whole-engine level;
// the per-kernel version lives in tests/test_kernels.cpp.
TEST_P(DifferentialTest, ScalarAndDispatchedKernelsBitIdentical) {
  const TechniqueKind kind = GetParam();
  const auto corpus = edge_case_corpus();
  for (const DType dtype : {DType::kF32, DType::kF16, DType::kI8,
                            DType::kI4G}) {
    const std::string path = export_model(kind, dtype);
    const MmapModel model(path);
    ::setenv("MEMCOM_DISABLE_SIMD", "1", 1);
    std::vector<Tensor> scalar_logits;
    {
      ExecutionContext context(std::make_shared<const CompiledModel>(model),
                               tflite_profile());
      EXPECT_STREQ(context.compiled().kernel_name(), "scalar");
      for (const auto& history : corpus) {
        scalar_logits.push_back(test::copy_logits(context.run_view(history)));
      }
    }
    ::unsetenv("MEMCOM_DISABLE_SIMD");
    ExecutionContext dispatched(std::make_shared<const CompiledModel>(model),
                                tflite_profile());
    for (std::size_t r = 0; r < corpus.size(); ++r) {
      const InferenceView view = dispatched.run_view(corpus[r]);
      expect_bit_identical(view.logits, scalar_logits[r],
                           std::string(technique_name(kind)) + "/" +
                               dtype_name(dtype) + "/scalar_vs_" +
                               dispatched.compiled().kernel_name(),
                           r);
    }
  }
}

// Plan-adoption differential: a v3 plan-bearing export served through
// {adopted plan, forced full compile, fallback after mid-section corruption}
// must produce BIT-IDENTICAL logits for every technique and dtype. This is
// the tentpole contract of the ahead-of-time plan work: adoption is a pure
// cold-start optimization, invisible in every logit bit, and a damaged plan
// degrades to the compile path rather than to wrong answers.
TEST_P(DifferentialTest, PlanAdoptedAndFallbackBitIdentical) {
  const TechniqueKind kind = GetParam();
  const auto corpus = edge_case_corpus();
  for (const DType dtype : {DType::kF32, DType::kI8, DType::kI4G}) {
    const std::string path =
        export_model(kind, dtype, /*version=*/1, /*emit_plan=*/true);
    const std::string tag =
        std::string(technique_name(kind)) + "/" + dtype_name(dtype);
    auto mapped = std::make_shared<const MmapModel>(path);
    ASSERT_TRUE(mapped->has_plan_section()) << tag;

    // Reference: forced full compile of the same mapping.
    auto forced = std::make_shared<const CompiledModel>(
        mapped, PlanPolicy::kNeverAdopt);
    EXPECT_FALSE(forced->plan_adopted()) << tag;
    std::vector<Tensor> expected;
    {
      ExecutionContext context(forced, tflite_profile());
      for (const auto& history : corpus) {
        expected.push_back(test::copy_logits(context.run_view(history)));
      }
    }

    // Leg 1: the plan actually adopts, and serves identically.
    {
      auto adopted = std::make_shared<const CompiledModel>(mapped);
      EXPECT_TRUE(adopted->plan_adopted()) << tag << ": "
          << adopted->plan_fallback_reason();
      ExecutionContext context(adopted, tflite_profile());
      for (std::size_t r = 0; r < corpus.size(); ++r) {
        const InferenceView view = context.run_view(corpus[r]);
        expect_bit_identical(view.logits, expected[r], tag + "/plan_adopt",
                             r);
      }
    }

    // Leg 2: flip one byte mid-plan — adoption must refuse (checksum) and
    // the fallback compile must serve the same bits as the reference.
    {
      const std::string corrupt = path + ".corrupt";
      paths_.push_back(corrupt);
      std::filesystem::copy_file(
          path, corrupt, std::filesystem::copy_options::overwrite_existing);
      const std::uint64_t flip_at =
          mapped->plan_offset() + mapped->plan_size() / 2;
      std::fstream f(corrupt,
                     std::ios::binary | std::ios::in | std::ios::out);
      f.seekg(static_cast<std::streamoff>(flip_at));
      char byte = 0;
      f.get(byte);
      f.seekp(static_cast<std::streamoff>(flip_at));
      f.put(static_cast<char>(byte ^ 0x01));
      f.close();
      auto fallback = std::make_shared<const CompiledModel>(
          std::make_shared<const MmapModel>(corrupt));
      EXPECT_FALSE(fallback->plan_adopted()) << tag;
      EXPECT_NE(fallback->plan_fallback_reason().find("checksum"),
                std::string::npos)
          << tag << ": " << fallback->plan_fallback_reason();
      ExecutionContext context(fallback, tflite_profile());
      for (std::size_t r = 0; r < corpus.size(); ++r) {
        const InferenceView view = context.run_view(corpus[r]);
        expect_bit_identical(view.logits, expected[r],
                             tag + "/plan_fallback", r);
      }
    }
  }
}

// Kernel-independence of the serialized plan: EMIT the file while the
// scalar family is forced, then ADOPT it with dispatch enabled. The plan's
// pre-dequantized buffers came from the scalar reference, so the dispatched
// adopter must reproduce the scalar-compiled logits bit-for-bit — one fleet
// artifact serves every device's kernel family. (The CI sanitizer matrix
// runs this whole suite under both MEMCOM_DISABLE_SIMD settings, covering
// the emit-under-one-leg / adopt-under-the-other pairing both ways.)
TEST_P(DifferentialTest, PlanEmittedUnderScalarAdoptsUnderDispatch) {
  const TechniqueKind kind = GetParam();
  const auto corpus = edge_case_corpus();
  // Save/restore rather than blind unsetenv: the sanitizer CI legs run the
  // suite with MEMCOM_DISABLE_SIMD pre-set, and must stay that way after.
  const char* saved = std::getenv("MEMCOM_DISABLE_SIMD");
  ::setenv("MEMCOM_DISABLE_SIMD", "1", 1);
  const std::string path =
      export_model(kind, DType::kI8, /*version=*/1, /*emit_plan=*/true);
  std::vector<Tensor> scalar_logits;
  {
    const MmapModel model(path);
    ExecutionContext context(std::make_shared<const CompiledModel>(model),
                             tflite_profile());
    EXPECT_STREQ(context.compiled().kernel_name(), "scalar");
    EXPECT_TRUE(context.compiled().plan_adopted());
    for (const auto& history : corpus) {
      scalar_logits.push_back(test::copy_logits(context.run_view(history)));
    }
  }
  if (saved == nullptr) {
    ::unsetenv("MEMCOM_DISABLE_SIMD");
  } else {
    ::setenv("MEMCOM_DISABLE_SIMD", saved, 1);
  }
  auto adopted = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(path));
  EXPECT_TRUE(adopted->plan_adopted())
      << adopted->plan_fallback_reason();
  ExecutionContext dispatched(adopted, tflite_profile());
  for (std::size_t r = 0; r < corpus.size(); ++r) {
    const InferenceView view = dispatched.run_view(corpus[r]);
    expect_bit_identical(view.logits, scalar_logits[r],
                         std::string(technique_name(kind)) +
                             "/plan_scalar_emit_vs_" +
                             dispatched.compiled().kernel_name(),
                         r);
  }
}

// Session/top-k differential: the SAME interleaved session trace served
// with the scalar reference kernels and with the dispatched family, through
// a 1-shard and a 3-shard scheduler, must produce IDENTICAL top-k id lists
// for every event. The session capacity is ample, so no eviction occurs and
// shard placement (which differs completely between the configs) cannot be
// visible in the results — any divergence means either a kernel broke the
// dot bit-identity contract or session affinity let two updates reorder.
TEST_P(DifferentialTest, SessionTopKInvariantAcrossKernelsAndShards) {
  const TechniqueKind kind = GetParam();
  std::vector<SessionEvent> events;
  Rng rng(31337);
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t s = 0; s < 6; ++s) {
      events.push_back(
          {s, static_cast<std::int32_t>(1 + rng.uniform_index(kVocab - 1))});
    }
  }
  const Index k = 6;
  struct ServerShape {
    const char* tag;
    bool scalar;
    int threads;
    int shards;
  };
  for (const DType dtype : {DType::kF32, DType::kI8, DType::kI4G}) {
    const std::string path = export_model(kind, dtype);
    const MmapModel model(path);
    std::vector<std::vector<Index>> reference;
    for (const ServerShape shape :
         {ServerShape{"scalar/1shard", true, 1, 1},
          ServerShape{"dispatched/1shard", false, 1, 1},
          ServerShape{"scalar/3shard", true, 3, 3},
          ServerShape{"dispatched/3shard", false, 3, 3}}) {
      if (shape.scalar) {
        ::setenv("MEMCOM_DISABLE_SIMD", "1", 1);
      }
      std::vector<std::vector<Index>> topk;
      {
        AsyncServerConfig config;
        config.threads = shape.threads;
        config.shards = shape.shards;
        config.max_batch = 4;
        config.max_delay_us = 100.0;
        config.session_capacity = 64;  // ample: zero evictions
        config.session_history = 16;
        AsyncServer server(model, tflite_profile(), config);
        const ServingReport report = server.serve_sessions(events, k, &topk);
        EXPECT_EQ(report.shed, 0u) << shape.tag;
        EXPECT_EQ(report.session_evictions, 0u) << shape.tag;
      }
      if (shape.scalar) {
        ::unsetenv("MEMCOM_DISABLE_SIMD");
      }
      if (reference.empty()) {
        reference = std::move(topk);
        for (const auto& ids : reference) {
          EXPECT_EQ(ids.size(), static_cast<std::size_t>(k));
        }
        continue;
      }
      ASSERT_EQ(topk.size(), reference.size()) << shape.tag;
      for (std::size_t i = 0; i < topk.size(); ++i) {
        EXPECT_EQ(topk[i], reference[i])
            << technique_name(kind) << "/" << dtype_name(dtype) << "/"
            << shape.tag << " event " << i;
      }
    }
  }
}

// Pruned-scan anchor: with every cluster probed, the clustered pruned scan
// must reproduce the exact full-catalog top-k BIT-IDENTICALLY — per
// technique, per dtype, per kernel family, per shard count. The exact leg
// (nprobe=0) of each shape is the reference; the full-probe leg (nprobe ==
// num_clusters) rides the same serving path through PrunedCatalogScorer and
// must not perturb a single id. Any divergence means the index permutation
// dropped/duplicated an item or the pruned per-column replay broke the
// dot-product bit-identity contract.
TEST_P(DifferentialTest, PrunedFullProbeMatchesExactScanEverywhere) {
  const TechniqueKind kind = GetParam();
  constexpr Index kClusters = 5;
  std::vector<SessionEvent> events;
  Rng rng(90210);
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t s = 0; s < 6; ++s) {
      events.push_back(
          {s, static_cast<std::int32_t>(1 + rng.uniform_index(kVocab - 1))});
    }
  }
  const Index k = 6;
  struct ServerShape {
    const char* tag;
    bool scalar;
    int threads;
    int shards;
  };
  // Save/restore MEMCOM_DISABLE_SIMD: the sanitizer CI legs pre-set it.
  const char* saved = std::getenv("MEMCOM_DISABLE_SIMD");
  for (const DType dtype : {DType::kF32, DType::kI8, DType::kI4G}) {
    const std::string path =
        export_model(kind, dtype, /*version=*/1, /*emit_plan=*/false,
                     /*emit_index=*/true, kClusters);
    const MmapModel model(path);
    {
      // The v4 section must actually adopt for every technique x dtype —
      // otherwise the pruned legs below silently fall back to the exact
      // scan and this test proves nothing.
      const CompiledModel compiled(model);
      ASSERT_TRUE(compiled.has_catalog_index())
          << technique_name(kind) << "/" << dtype_name(dtype) << ": "
          << compiled.index_fallback_reason();
      ASSERT_EQ(compiled.catalog_index().clusters, kClusters);
    }
    std::vector<std::vector<Index>> reference;
    for (const ServerShape shape :
         {ServerShape{"scalar/1shard", true, 1, 1},
          ServerShape{"dispatched/1shard", false, 1, 1},
          ServerShape{"scalar/3shard", true, 3, 3},
          ServerShape{"dispatched/3shard", false, 3, 3}}) {
      for (const Index nprobe : {Index{0}, kClusters}) {
        if (shape.scalar) {
          ::setenv("MEMCOM_DISABLE_SIMD", "1", 1);
        }
        std::vector<std::vector<Index>> topk;
        ServingReport report;
        {
          AsyncServerConfig config;
          config.threads = shape.threads;
          config.shards = shape.shards;
          config.max_batch = 4;
          config.max_delay_us = 100.0;
          config.session_capacity = 64;  // ample: zero evictions
          config.session_history = 16;
          config.nprobe = nprobe;
          AsyncServer server(model, tflite_profile(), config);
          report = server.serve_sessions(events, k, &topk);
          EXPECT_EQ(report.shed, 0u) << shape.tag;
        }
        if (shape.scalar) {
          if (saved == nullptr) {
            ::unsetenv("MEMCOM_DISABLE_SIMD");
          } else {
            ::setenv("MEMCOM_DISABLE_SIMD", saved, 1);
          }
        }
        const std::string tag = std::string(technique_name(kind)) + "/" +
                                dtype_name(dtype) + "/" + shape.tag +
                                "/nprobe" + std::to_string(nprobe);
        if (nprobe > 0) {
          // Full probe still walks the clustered path: every catalog row
          // is scanned, so the pruned fraction must be exactly zero.
          EXPECT_EQ(report.scanned_rows, report.catalog_rows) << tag;
          EXPECT_EQ(report.pruned_fraction, 0.0) << tag;
        }
        if (reference.empty()) {
          reference = std::move(topk);
          for (const auto& ids : reference) {
            EXPECT_EQ(ids.size(), static_cast<std::size_t>(k));
          }
          continue;
        }
        ASSERT_EQ(topk.size(), reference.size()) << tag;
        for (std::size_t i = 0; i < topk.size(); ++i) {
          EXPECT_EQ(topk[i], reference[i]) << tag << " event " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniques, DifferentialTest,
    ::testing::ValuesIn(kAllEngineTechniques),
    [](const ::testing::TestParamInfo<TechniqueKind>& info) {
      return std::string(technique_name(info.param));
    });

// Eviction churn isolation at the serving layer: one "pinned" session is
// touched every round (never the LRU victim) while a stream of throwaway
// sessions churns a tiny store. After the storm, the pinned session's next
// top-k must equal a sequential run_view() over its exact in-order history
// — on both the 1-shard and the 3-shard scheduler.
TEST(DifferentialSession, EvictionChurnNeverCorruptsASurvivor) {
  ModelConfig mc;
  mc.embedding.kind = TechniqueKind::kMemcom;
  mc.embedding.vocab = kVocab;
  mc.embedding.embed_dim = kEmbedDim;
  mc.embedding.knob = 24;
  mc.arch = ModelArch::kClassification;
  mc.output_vocab = 24;
  mc.seed = 7744;
  RecModel rec(mc);
  const auto p = std::filesystem::temp_directory_path() /
                 "memcom_diff_session_churn.mcm";
  rec.export_mcm(p.string(), DType::kI4G, "churn");
  {
    const MmapModel model(p.string());
    ExecutionContext reference(std::make_shared<const CompiledModel>(model),
                               tflite_profile());
    for (const int shards : {1, 3}) {
      AsyncServerConfig config;
      config.threads = shards;
      config.shards = shards;
      // 6 slots per shard; 4 one-shot noise sessions per round keep the
      // pinned session (re-touched every round) at worst 5th of 6 in its
      // shard's LRU order — churned constantly, never the victim.
      config.session_capacity = static_cast<Index>(6 * shards);
      config.session_history = 8;
      AsyncServer server(model, tflite_profile(), config);
      const std::uint64_t pinned = 1000;
      std::vector<std::int32_t> pinned_history;
      std::future<AsyncResult> last;
      for (int round = 0; round < 10; ++round) {
        const std::int32_t item = static_cast<std::int32_t>(1 + round * 11);
        pinned_history.push_back(item);
        last = server.submit_next_item(AsyncServer::kDefaultModelId, pinned,
                                       item, /*k=*/5);
        // Flood with one-shot sessions to force evictions around the
        // pinned one.
        std::vector<std::future<AsyncResult>> noise;
        for (std::uint64_t j = 0; j < 4; ++j) {
          noise.push_back(server.submit_next_item(
              AsyncServer::kDefaultModelId,
              static_cast<std::uint64_t>(round) * 100 + j,
              static_cast<std::int32_t>(1 + j), /*k=*/2));
        }
        for (auto& f : noise) {
          ASSERT_EQ(f.get().status, RequestStatus::kOk);
        }
      }
      const AsyncResult result = last.get();
      ASSERT_EQ(result.status, RequestStatus::kOk);
      EXPECT_GT(server.evicted_sessions(), 0u) << shards << " shard(s)";
      if (pinned_history.size() > 8) {
        pinned_history.erase(
            pinned_history.begin(),
            pinned_history.end() - 8);  // ring keeps the newest 8
      }
      const InferenceView view = reference.run_view(pinned_history);
      const std::vector<ScoredId> expect =
          topk_select(view.logits, view.dim, 5);
      ASSERT_EQ(result.top_ids.size(), expect.size()) << shards << " shard(s)";
      for (std::size_t j = 0; j < expect.size(); ++j) {
        EXPECT_EQ(result.top_ids[j], expect[j].id)
            << shards << " shard(s) pos " << j;
      }
    }
  }
  std::filesystem::remove(p);
}

// The memory metering of the UNCACHED path must be unaffected by the cache
// machinery existing at all: byte-identical to a context that never had the
// hook (this pins the PR-2 accounting).
TEST(DifferentialMetering, UncachedMeteringUnchangedByCacheHook) {
  for (const TechniqueKind kind : kAllEngineTechniques) {
    ModelConfig config;
    config.embedding.kind = kind;
    config.embedding.vocab = kVocab;
    config.embedding.embed_dim = kEmbedDim;
    config.embedding.knob =
        (kind == TechniqueKind::kFactorized ||
         kind == TechniqueKind::kReduceDim)
            ? 8
            : (kind == TechniqueKind::kFull ? 0 : 24);
    config.arch = ModelArch::kRanking;
    config.output_vocab = 12;
    config.seed = 5150;
    RecModel model(config);
    const auto p = std::filesystem::temp_directory_path() /
                   ("memcom_diff_meter_" +
                    std::string(technique_name(kind)) + ".mcm");
    model.export_mcm(p.string());
    {
      const MmapModel mapped(p.string());
      const auto corpus = edge_case_corpus();
      ExecutionContext uncached(std::make_shared<const CompiledModel>(mapped),
                                tflite_profile());
      ExecutionContext cached(std::make_shared<const CompiledModel>(mapped),
                              tflite_profile());
      cached.enable_row_cache(kCacheBudget);
      for (const auto& history : corpus) {
        uncached.run_view(history);
        cached.run_view(history);
        cached.run_view(history);  // warm re-run must add no pages either
      }
      EXPECT_EQ(uncached.meter().touched_pages(),
                cached.meter().touched_pages())
          << technique_name(kind);
      EXPECT_EQ(uncached.meter().weight_resident_bytes(),
                cached.meter().weight_resident_bytes())
          << technique_name(kind);
      EXPECT_EQ(uncached.meter().activation_peak_bytes(),
                cached.meter().activation_peak_bytes())
          << technique_name(kind);
    }
    std::filesystem::remove(p);
  }
}

}  // namespace
}  // namespace memcom
