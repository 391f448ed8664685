// Enforcement tests for ExecutionContext's zero-allocation fast path:
//   * steady-state forwards perform NO string-keyed tensor lookups (the
//     execution plan resolves every handle at construction);
//   * steady-state run_view() performs NO heap allocations (scratch arena);
//   * run_batch() is bit-identical to sequential run_view() for every
//     technique;
//   * the memory meter's resident-byte accounting is unchanged by the fast
//     path (batched and sequential runs meter the same pages).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <vector>

#include "ondevice/execution_context.h"
#include "repro/model.h"
#include "test_util.h"

// --- Global allocation hook -------------------------------------------------
// Counts operator-new calls while g_count_allocs is set. Replacing the
// global operator new is binary-wide, so the counter is only armed around
// the measured region.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace memcom {
namespace {

class FastPathTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tag) {
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_fastpath_" + tag + ".mcm");
    paths_.push_back(p);
    return p.string();
  }
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }
  std::vector<std::filesystem::path> paths_;
};

ModelConfig small_config(TechniqueKind kind, ModelArch arch) {
  ModelConfig config;
  config.embedding.kind = kind;
  config.embedding.vocab = 120;
  config.embedding.embed_dim = 16;
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
  config.arch = arch;
  config.output_vocab = 40;
  config.seed = 1234;
  return config;
}

std::vector<std::vector<std::int32_t>> sample_histories() {
  return {
      {5, 17, 42, 100, 7, 0, 0, 0},
      {1, 2, 3, 4},
      {99, 98, 97, 96, 95, 94, 93, 92},
      {11, 0, 0, 0, 0, 0, 0, 0},
      {0, 0, 0, 0},  // fully padded
      {64, 32, 16, 8, 4, 2},
  };
}

constexpr TechniqueKind kLookupTechniques[] = {
    TechniqueKind::kFull,        TechniqueKind::kMemcom,
    TechniqueKind::kMemcomBias,  TechniqueKind::kQrMult,
    TechniqueKind::kQrConcat,    TechniqueKind::kNaiveHash,
    TechniqueKind::kDoubleHash,  TechniqueKind::kFactorized,
    TechniqueKind::kReduceDim,   TechniqueKind::kTruncateRare,
    TechniqueKind::kWeinberger,
};

TEST_F(FastPathTest, SteadyStateRunPerformsNoEntryLookups) {
  for (const TechniqueKind kind :
       {TechniqueKind::kMemcom, TechniqueKind::kWeinberger,
        TechniqueKind::kFactorized}) {
    ModelConfig config = small_config(kind, ModelArch::kClassification);
    RecModel model(config);
    const std::string path =
        temp_path("lookups_" + std::string(technique_name(kind)));
    model.export_mcm(path);

    const MmapModel mapped(path);
    ExecutionContext context(std::make_shared<const CompiledModel>(mapped),
                             coreml_profile("cpuOnly"));
    // Plan compilation is allowed (and expected) to resolve names...
    EXPECT_GT(mapped.entry_lookup_count(), 0u) << technique_name(kind);
    const std::uint64_t after_compile = mapped.entry_lookup_count();
    // ...but steady-state forwards must not touch the string directory.
    const auto histories = sample_histories();
    for (const auto& history : histories) {
      context.run_view(history);
    }
    context.run_batch(histories);
    context.benchmark(histories.front(), 5);
    EXPECT_EQ(mapped.entry_lookup_count(), after_compile)
        << technique_name(kind);
  }
}

TEST_F(FastPathTest, SteadyStateRunViewIsAllocationFree) {
  for (const TechniqueKind kind :
       {TechniqueKind::kMemcom, TechniqueKind::kWeinberger}) {
    ModelConfig config = small_config(kind, ModelArch::kClassification);
    RecModel model(config);
    const std::string path =
        temp_path("allocs_" + std::string(technique_name(kind)));
    model.export_mcm(path);

    const MmapModel mapped(path);
    ExecutionContext context(std::make_shared<const CompiledModel>(mapped),
                             tflite_profile());
    const auto histories = sample_histories();
    // Warm up: the first runs fault weight pages into the meter's page set
    // (node allocations) — steady state begins once the set is populated.
    for (int i = 0; i < 2; ++i) {
      for (const auto& history : histories) {
        context.run_view(history);
      }
    }
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) {
      for (const auto& history : histories) {
        context.run_view(history);
      }
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
        << technique_name(kind);
  }
}

TEST_F(FastPathTest, RunBatchLogitsBitIdenticalToSequentialRuns) {
  for (const TechniqueKind kind : kLookupTechniques) {
    for (const ModelArch arch :
         {ModelArch::kClassification, ModelArch::kRanking}) {
      ModelConfig config = small_config(kind, arch);
      RecModel model(config);
      const std::string path = temp_path(
          "batch_" + std::string(technique_name(kind)) +
          (arch == ModelArch::kClassification ? "_cls" : "_rank"));
      model.export_mcm(path);

      const MmapModel mapped(path);
      ExecutionContext sequential(std::make_shared<const CompiledModel>(mapped),
                                  coreml_profile("all"));
      ExecutionContext batched(std::make_shared<const CompiledModel>(mapped),
                               coreml_profile("all"));
      const auto histories = sample_histories();
      const BatchResult batch = batched.run_batch(histories);
      ASSERT_EQ(batch.batch, static_cast<Index>(histories.size()));
      for (std::size_t b = 0; b < histories.size(); ++b) {
        const InferenceView expected = sequential.run_view(histories[b]);
        for (Index c = 0; c < expected.dim; ++c) {
          EXPECT_EQ(batch.logits.at2(static_cast<Index>(b), c),
                    expected.logits[c])
              << technique_name(kind) << " request " << b << " logit " << c;
        }
      }
    }
  }
}

TEST_F(FastPathTest, BatchAmortizesDispatchOverhead) {
  ModelConfig config =
      small_config(TechniqueKind::kMemcom, ModelArch::kClassification);
  RecModel model(config);
  const std::string path = temp_path("amortize");
  model.export_mcm(path);
  const MmapModel mapped(path);
  // tflite profile has a nonzero per-op dispatch overhead.
  ExecutionContext context(std::make_shared<const CompiledModel>(mapped),
                           tflite_profile());
  const auto histories = sample_histories();
  double sequential_ms = 0.0;
  Index per_run_ops = 0;
  for (const auto& history : histories) {
    const InferenceView r = context.run_view(history);
    sequential_ms += r.total_ms;
    per_run_ops = r.op_count;
  }
  const BatchResult batch = context.run_batch(histories);
  // One fused dispatch for the batch: same per-graph op count, and the
  // simulated batch latency drops below the sequential sum because (B-1)
  // dispatch charges disappear.
  EXPECT_EQ(batch.op_count, per_run_ops);
  EXPECT_LT(batch.total_ms, sequential_ms);
}

TEST_F(FastPathTest, MeterAccountingUnchangedByBatchedFastPath) {
  for (const TechniqueKind kind : kLookupTechniques) {
    ModelConfig config = small_config(kind, ModelArch::kRanking);
    RecModel model(config);
    const std::string path =
        temp_path("meter_" + std::string(technique_name(kind)));
    model.export_mcm(path);

    const MmapModel mapped(path);
    ExecutionContext sequential(std::make_shared<const CompiledModel>(mapped),
                                tflite_profile());
    ExecutionContext batched(std::make_shared<const CompiledModel>(mapped),
                             tflite_profile());
    const auto histories = sample_histories();
    for (const auto& history : histories) {
      sequential.run_view(history);
    }
    batched.run_batch(histories);
    EXPECT_EQ(sequential.meter().touched_pages(),
              batched.meter().touched_pages())
        << technique_name(kind);
    EXPECT_EQ(sequential.meter().weight_resident_bytes(),
              batched.meter().weight_resident_bytes())
        << technique_name(kind);
    EXPECT_EQ(sequential.meter().activation_peak_bytes(),
              batched.meter().activation_peak_bytes())
        << technique_name(kind);
  }
}

TEST_F(FastPathTest, BenchmarkReportsOrderedPercentiles) {
  ModelConfig config =
      small_config(TechniqueKind::kMemcom, ModelArch::kRanking);
  RecModel model(config);
  const std::string path = temp_path("percentiles");
  model.export_mcm(path);
  const MmapModel mapped(path);
  ExecutionContext context(std::make_shared<const CompiledModel>(mapped),
                           tflite_profile());
  const LatencyStats stats = context.benchmark(sample_histories().front(), 50);
  EXPECT_EQ(stats.runs, 50);
  EXPECT_GT(stats.min_ms, 0.0);
  EXPECT_LE(stats.min_ms, stats.p50_ms);
  EXPECT_LE(stats.p50_ms, stats.p95_ms);
  EXPECT_LE(stats.p95_ms, stats.p99_ms);
  EXPECT_LE(stats.p99_ms, stats.max_ms);
  EXPECT_LE(stats.min_ms, stats.mean_ms);
  EXPECT_GE(stats.max_ms, stats.mean_ms);

  // Degenerate single-run distribution: every statistic collapses to the
  // one sample (this also covers the old 1e30 sentinel-min bug).
  const LatencyStats one = context.benchmark(sample_histories().front(), 1);
  EXPECT_EQ(one.runs, 1);
  EXPECT_DOUBLE_EQ(one.min_ms, one.max_ms);
  EXPECT_DOUBLE_EQ(one.min_ms, one.mean_ms);
  EXPECT_DOUBLE_EQ(one.min_ms, one.p50_ms);
  EXPECT_DOUBLE_EQ(one.min_ms, one.p99_ms);
}

TEST_F(FastPathTest, QuantizedModelsUseTheSamePlanMachinery) {
  // Quantized blobs cannot take the direct-float shortcut; the dequantizing
  // fallback must still be batch-consistent and meter-identical.
  ModelConfig config =
      small_config(TechniqueKind::kMemcom, ModelArch::kClassification);
  RecModel model(config);
  const std::string path = temp_path("quant");
  model.export_mcm(path, DType::kI8);
  const MmapModel mapped(path);
  ExecutionContext sequential(std::make_shared<const CompiledModel>(mapped),
                              coreml_profile("all"));
  ExecutionContext batched(std::make_shared<const CompiledModel>(mapped),
                           coreml_profile("all"));
  const auto histories = sample_histories();
  const BatchResult batch = batched.run_batch(histories);
  for (std::size_t b = 0; b < histories.size(); ++b) {
    const InferenceView expected = sequential.run_view(histories[b]);
    for (Index c = 0; c < expected.dim; ++c) {
      EXPECT_EQ(batch.logits.at2(static_cast<Index>(b), c),
                expected.logits[c]);
    }
  }
  EXPECT_EQ(sequential.meter().weight_resident_bytes(),
            batched.meter().weight_resident_bytes());
}

}  // namespace
}  // namespace memcom
