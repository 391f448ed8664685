// ModelRegistry tests: named refcounted CompiledModel versions with
// zero-downtime swap semantics.
//
//   * load/swap/retire lifecycle and monotonic registry versions;
//   * self-declared identity enforcement (model_name stable, model_version
//     strictly increasing across swaps);
//   * epoch/RCU draining: an acquired old version keeps serving
//     bit-identical logits after a swap and is destroyed — mmap included —
//     exactly when the last holder lets go;
//   * compile-once sharing: engines built from one acquired plan add no
//     per-worker plan bytes.
#include "ondevice/registry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <vector>

#include "ondevice/execution_context.h"
#include "repro/model.h"
#include "test_util.h"

namespace memcom {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }

  // Exports a small model; `seed` controls the weights, so two exports with
  // different seeds are genuinely different versions of the same shape.
  std::string export_model(const std::string& tag, std::uint64_t seed,
                           const std::string& model_name = "",
                           std::uint64_t model_version = 1,
                           TechniqueKind kind = TechniqueKind::kMemcom,
                           bool emit_plan = false) {
    ModelConfig config;
    config.embedding.kind = kind;
    config.embedding.vocab = 120;
    config.embedding.embed_dim = 16;
    config.embedding.knob = kind == TechniqueKind::kFactorized ? 8 : 24;
    config.arch = ModelArch::kClassification;
    config.output_vocab = 10;
    config.seed = seed;
    RecModel model(config);
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_registry_" + tag + ".mcm");
    paths_.push_back(p);
    model.export_mcm(p.string(), DType::kF32, model_name, model_version,
                     /*group_size=*/0, emit_plan);
    return p.string();
  }

  std::vector<std::filesystem::path> paths_;
};

TEST_F(RegistryTest, LoadPublishesFirstVersion) {
  ModelRegistry registry;
  const std::string path = export_model("load", 11);
  EXPECT_EQ(registry.load("ranker", path), 1u);
  EXPECT_TRUE(registry.has_model("ranker"));
  EXPECT_EQ(registry.version("ranker"), 1u);
  EXPECT_EQ(registry.size(), 1u);

  const auto compiled = registry.acquire("ranker");
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->technique(), "memcom");
  EXPECT_EQ(compiled->output_dim(), 10);
  EXPECT_GT(registry.plan_resident_bytes(), 0u);
}

TEST_F(RegistryTest, LoadDuplicateIdRejected) {
  ModelRegistry registry;
  const std::string path = export_model("dup", 12);
  registry.load("m", path);
  EXPECT_THROW(registry.load("m", path), std::runtime_error);
}

TEST_F(RegistryTest, SwapRequiresExistingId) {
  ModelRegistry registry;
  const std::string path = export_model("noswap", 13);
  EXPECT_THROW(registry.swap("missing", path), std::runtime_error);
}

TEST_F(RegistryTest, AcquireUnknownReturnsNull) {
  ModelRegistry registry;
  EXPECT_EQ(registry.acquire("nope"), nullptr);
  EXPECT_EQ(registry.version("nope"), 0u);
}

TEST_F(RegistryTest, SwapBumpsVersionAndPublishesAtomically) {
  ModelRegistry registry;
  const std::string v1 = export_model("swap_v1", 21);
  const std::string v2 = export_model("swap_v2", 22);
  registry.load("m", v1);
  const auto before = registry.acquire("m");
  EXPECT_EQ(registry.swap("m", v2), 2u);
  EXPECT_EQ(registry.version("m"), 2u);
  const auto after = registry.acquire("m");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before.get(), after.get());
  // Swapping again keeps counting.
  EXPECT_EQ(registry.swap("m", v1), 3u);
}

TEST_F(RegistryTest, DeclaredIdentityEnforcedAcrossSwaps) {
  ModelRegistry registry;
  const std::string v1 = export_model("id_v1", 31, "sessionrec", 5);
  const std::string v2 = export_model("id_v2", 32, "sessionrec", 6);
  const std::string stale = export_model("id_stale", 33, "sessionrec", 5);
  const std::string other = export_model("id_other", 34, "otherrec", 9);

  registry.load("m", v1);
  // Pushing yesterday's artifact (same declared version) must fail loudly.
  EXPECT_THROW(registry.swap("m", stale), std::runtime_error);
  // So must an artifact of a different logical model.
  EXPECT_THROW(registry.swap("m", other), std::runtime_error);
  EXPECT_EQ(registry.version("m"), 1u);  // failed swaps publish nothing
  // A strictly newer declared version goes through.
  EXPECT_EQ(registry.swap("m", v2), 2u);
  EXPECT_EQ(registry.acquire("m")->model_version(), 6u);
}

TEST_F(RegistryTest, LegacyFilesWithoutIdentitySwapFreely) {
  ModelRegistry registry;
  const std::string v1 = export_model("legacy_v1", 41);
  const std::string v2 = export_model("legacy_v2", 42);
  registry.load("m", v1);
  EXPECT_EQ(registry.acquire("m")->model_version(), 0u);  // no identity
  EXPECT_EQ(registry.swap("m", v2), 2u);  // nothing declared, nothing enforced
}

TEST_F(RegistryTest, RetireRemovesEntryButHoldersDrain) {
  ModelRegistry registry;
  const std::string path = export_model("retire", 51);
  registry.load("m", path);
  const auto held = registry.acquire("m");
  ASSERT_NE(held, nullptr);
  EXPECT_TRUE(registry.retire("m"));
  EXPECT_FALSE(registry.retire("m"));  // already gone
  EXPECT_FALSE(registry.has_model("m"));
  EXPECT_EQ(registry.acquire("m"), nullptr);
  // The held version is untouched by retirement: it still answers queries.
  EXPECT_EQ(held->output_dim(), 10);
  EXPECT_EQ(held.use_count(), 1);  // the registry dropped its reference
}

TEST_F(RegistryTest, OldVersionServesBitIdenticalUntilDrained) {
  ModelRegistry registry;
  const std::string v1 = export_model("drain_v1", 61);
  const std::string v2 = export_model("drain_v2", 62);
  registry.load("m", v1);

  const std::vector<std::int32_t> history = {3, 17, 42, 0, 0};
  // Reference logits of v1 through a dedicated engine over its own mapping.
  Tensor expected_v1;
  {
    const MmapModel mapped(v1);
    ExecutionContext reference(std::make_shared<const CompiledModel>(mapped),
                               tflite_profile());
    expected_v1 = test::copy_logits(reference.run_view(history));
  }

  auto old_plan = registry.acquire("m");
  registry.swap("m", v2);

  Tensor old_logits;
  {
    // In-flight work on the old version: still bit-identical to v1 (the
    // registry owns the v1 mapping through the plan, so the mmap is alive).
    ExecutionContext old_engine(old_plan, tflite_profile());
    old_logits = test::copy_logits(old_engine.run_view(history));
    EXPECT_TENSOR_NEAR(old_logits, expected_v1, 0.0f);
    EXPECT_GT(old_plan.use_count(), 1);  // the engine pins the old version
  }

  // New acquisitions serve v2 — different weights, different logits.
  ExecutionContext new_engine(registry.acquire("m"), tflite_profile());
  const Tensor new_logits = test::copy_logits(new_engine.run_view(history));
  bool any_diff = false;
  for (Index c = 0; c < new_logits.numel(); ++c) {
    any_diff = any_diff || new_logits[c] != old_logits[c];
  }
  EXPECT_TRUE(any_diff);

  // Drain: the in-flight engine is gone, so this handle is the LAST
  // reference to v1 — dropping it destroys the plan and munmaps the file.
  EXPECT_EQ(old_plan.use_count(), 1);
}

TEST_F(RegistryTest, EnginesShareOnePlanWithoutDuplication) {
  ModelRegistry registry;
  const std::string path =
      export_model("share", 71, "", 1, TechniqueKind::kFactorized);
  registry.load("m", path);
  const auto plan = registry.acquire("m");
  const std::size_t plan_bytes = plan->plan_resident_bytes();
  EXPECT_GT(plan_bytes, 0u);

  // N contexts over the acquired plan: the registry-wide plan footprint does
  // not grow — only per-thread context state does.
  std::vector<std::unique_ptr<ExecutionContext>> contexts;
  for (int i = 0; i < 4; ++i) {
    contexts.push_back(
        std::make_unique<ExecutionContext>(plan, tflite_profile()));
  }
  EXPECT_EQ(registry.plan_resident_bytes(), plan_bytes);
  for (const auto& context : contexts) {
    EXPECT_EQ(&context->compiled(), plan.get());
    EXPECT_EQ(context->compiled().plan_resident_bytes(), plan_bytes);
  }
}

TEST_F(RegistryTest, LoadTakesPlanFastPathAndServesIdentically) {
  // The same weights exported with and without a v3 plan section: load()
  // must adopt the plan when present (registry-visible via plan_adopted)
  // and both registrations must serve bit-identical logits.
  ModelRegistry registry;
  const std::string with_plan =
      export_model("aot_plan", 81, "aot", 2, TechniqueKind::kMemcom,
                   /*emit_plan=*/true);
  const std::string without_plan =
      export_model("aot_noplan", 81, "aot", 2, TechniqueKind::kMemcom,
                   /*emit_plan=*/false);
  registry.load("fast", with_plan);
  registry.load("slow", without_plan);
  EXPECT_TRUE(registry.plan_adopted("fast"));
  EXPECT_FALSE(registry.plan_adopted("slow"));
  EXPECT_FALSE(registry.plan_adopted("unknown"));

  ExecutionContext fast(registry.acquire("fast"), tflite_profile());
  ExecutionContext slow(registry.acquire("slow"), tflite_profile());
  for (const std::vector<std::int32_t>& history :
       {std::vector<std::int32_t>{}, {1}, {3, 17, 42, 0, 0}, {9, 9, 9}}) {
    const Tensor a = test::copy_logits(fast.run_view(history));
    const Tensor b = test::copy_logits(slow.run_view(history));
    EXPECT_TENSOR_NEAR(a, b, 0.0f);
  }
}

TEST_F(RegistryTest, SwapFromPlanlessToPlanBearingAdopts) {
  // A fleet rollout in miniature: v1 ships plan-less, v2 ships with a plan;
  // the hot swap lands on the fast path without the callers changing.
  ModelRegistry registry;
  const std::string v1 = export_model("roll_v1", 91, "roll", 1);
  const std::string v2 = export_model("roll_v2", 92, "roll", 2,
                                      TechniqueKind::kMemcom,
                                      /*emit_plan=*/true);
  registry.load("m", v1);
  EXPECT_FALSE(registry.plan_adopted("m"));
  registry.swap("m", v2);
  EXPECT_TRUE(registry.plan_adopted("m"));
}

}  // namespace
}  // namespace memcom
