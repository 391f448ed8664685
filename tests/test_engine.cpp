// On-device forward tests (ExecutionContext over a CompiledModel): parity
// with the training stack's inference, lookup vs one-hot memory behaviour,
// device profiles, quantized execution, and the LatencyStats summary that
// benchmark() returns (ondevice/clock.h).
#include "ondevice/execution_context.h"

#include <gtest/gtest.h>

#include "test_util.h"

#include <filesystem>

#include "data/synthetic.h"
#include "ondevice/clock.h"
#include "repro/model.h"

namespace memcom {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tag) {
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_engine_" + tag + ".mcm");
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

std::vector<std::int32_t> sample_history() {
  return {5, 17, 42, 100, 7, 0, 0, 0};  // padded tail
}

// The engine must produce the same logits as the training-stack forward in
// inference mode, for every lookup technique and both architectures.
struct ParityCase {
  TechniqueKind kind;
  ModelArch arch;
};

class EngineParity : public EngineTest,
                     public ::testing::WithParamInterface<ParityCase> {};

TEST_P(EngineParity, LogitsMatchTrainingStack) {
  const ParityCase param = GetParam();
  ModelConfig config = small_config(param.kind, param.arch);
  RecModel model(config);

  // Run one training batch so batchnorm has non-trivial running stats.
  Rng rng(7);
  IdBatch warm(8, 8);
  for (Index i = 0; i < warm.size(); ++i) {
    warm.ids[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(rng.uniform_index(120));
  }
  model.forward(warm, /*training=*/true);

  const std::string path =
      temp_path(technique_name(param.kind) +
                (param.arch == ModelArch::kClassification ? "_cls" : "_rank"));
  model.export_mcm(path);

  const std::vector<std::int32_t> history = sample_history();
  IdBatch input(1, static_cast<Index>(history.size()));
  input.ids = history;
  const Tensor expected = model.forward(input, /*training=*/false);

  const MmapModel mapped(path);
  ExecutionContext engine(std::make_shared<const CompiledModel>(mapped),
                          coreml_profile("cpuOnly"));
  const InferenceView result = engine.run_view(history);
  ASSERT_EQ(result.dim, 40);
  for (Index c = 0; c < 40; ++c) {
    EXPECT_NEAR(result.logits[c], expected.at2(0, c), 5e-4f)
        << technique_name(param.kind) << " logit " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TechniquesAndArchs, EngineParity,
    ::testing::Values(
        ParityCase{TechniqueKind::kFull, ModelArch::kClassification},
        ParityCase{TechniqueKind::kFull, ModelArch::kRanking},
        ParityCase{TechniqueKind::kMemcom, ModelArch::kClassification},
        ParityCase{TechniqueKind::kMemcom, ModelArch::kRanking},
        ParityCase{TechniqueKind::kMemcomBias, ModelArch::kRanking},
        ParityCase{TechniqueKind::kQrMult, ModelArch::kRanking},
        ParityCase{TechniqueKind::kQrConcat, ModelArch::kRanking},
        ParityCase{TechniqueKind::kNaiveHash, ModelArch::kClassification},
        ParityCase{TechniqueKind::kDoubleHash, ModelArch::kRanking},
        ParityCase{TechniqueKind::kFactorized, ModelArch::kRanking},
        ParityCase{TechniqueKind::kReduceDim, ModelArch::kClassification},
        ParityCase{TechniqueKind::kTruncateRare, ModelArch::kRanking}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return technique_name(info.param.kind) +
             std::string(info.param.arch == ModelArch::kClassification
                             ? "_cls"
                             : "_rank");
    });

TEST_F(EngineTest, WeinbergerOneHotMatchesLookupMath) {
  // The one-hot compute path must produce the same pooled embedding (and
  // logits) as the sign-lookup formulation.
  ModelConfig config = small_config(TechniqueKind::kWeinberger,
                                    ModelArch::kRanking);
  RecModel model(config);
  const std::string path = temp_path("weinberger");
  model.export_mcm(path);

  const std::vector<std::int32_t> history = sample_history();
  IdBatch input(1, static_cast<Index>(history.size()));
  input.ids = history;
  const Tensor expected = model.forward(input, /*training=*/false);

  const MmapModel mapped(path);
  ExecutionContext engine(std::make_shared<const CompiledModel>(mapped),
                          coreml_profile("all"));
  EXPECT_TRUE(engine.compiled().uses_onehot_path());
  const InferenceView result = engine.run_view(history);
  for (Index c = 0; c < 40; ++c) {
    EXPECT_NEAR(result.logits[c], expected.at2(0, c), 5e-4f);
  }
}

TEST_F(EngineTest, MemcomTouchesFarFewerPagesThanWeinberger) {
  // The Table 3 memory mechanism, end to end.
  const auto build = [&](TechniqueKind kind, const std::string& tag) {
    ModelConfig config = small_config(kind, ModelArch::kRanking);
    config.embedding.vocab = 4000;
    config.embedding.embed_dim = 64;
    config.embedding.knob = 1000;
    RecModel model(config);
    const std::string path = temp_path(tag);
    model.export_mcm(path);
    return path;
  };
  const std::string memcom_path = build(TechniqueKind::kMemcom, "m_pages");
  const std::string wein_path = build(TechniqueKind::kWeinberger, "w_pages");

  const std::vector<std::int32_t> history = sample_history();
  const MmapModel memcom_model(memcom_path);
  ExecutionContext memcom_engine(
      std::make_shared<const CompiledModel>(memcom_model), tflite_profile());
  memcom_engine.run_view(history);

  const MmapModel wein_model(wein_path);
  ExecutionContext wein_engine(
      std::make_shared<const CompiledModel>(wein_model), tflite_profile());
  wein_engine.run_view(history);

  // Weinberger streams the whole 1000 x 64 x 4B table; memcom touches only
  // the history's rows (plus trunk weights, identical for both).
  EXPECT_LT(memcom_engine.meter().weight_resident_bytes(),
            wein_engine.meter().weight_resident_bytes());
  EXPECT_GT(static_cast<double>(wein_engine.meter().weight_resident_bytes()) /
                memcom_engine.meter().weight_resident_bytes(),
            1.15);
}

TEST_F(EngineTest, RepeatRunsDoNotGrowResidency) {
  ModelConfig config = small_config(TechniqueKind::kMemcom,
                                    ModelArch::kRanking);
  RecModel model(config);
  const std::string path = temp_path("repeat");
  model.export_mcm(path);
  const MmapModel mapped(path);
  ExecutionContext engine(std::make_shared<const CompiledModel>(mapped),
                          coreml_profile("all"));
  const std::vector<std::int32_t> history = sample_history();
  engine.run_view(history);
  const Index after_one = engine.meter().weight_resident_bytes();
  engine.run_view(history);
  engine.run_view(history);
  EXPECT_EQ(engine.meter().weight_resident_bytes(), after_one);
}

TEST_F(EngineTest, QuantizedModelsStayAccurate) {
  ModelConfig config = small_config(TechniqueKind::kMemcom,
                                    ModelArch::kRanking);
  RecModel model(config);
  const std::vector<std::int32_t> history = sample_history();
  IdBatch input(1, static_cast<Index>(history.size()));
  input.ids = history;
  const Tensor expected = model.forward(input, false);

  const std::string p16 = temp_path("q16");
  model.export_mcm(p16, DType::kF16);
  const MmapModel m16(p16);
  ExecutionContext e16(std::make_shared<const CompiledModel>(m16),
                       coreml_profile("all"));
  const Tensor l16 = test::copy_logits(e16.run_view(history));
  for (Index c = 0; c < 40; ++c) {
    EXPECT_NEAR(l16[c], expected.at2(0, c), 0.02f);
  }

  const std::string p8 = temp_path("q8");
  model.export_mcm(p8, DType::kI8);
  const MmapModel m8(p8);
  ExecutionContext e8(std::make_shared<const CompiledModel>(m8),
                      coreml_profile("all"));
  const Tensor l8 = test::copy_logits(e8.run_view(history));
  // int8 logits drift but the argmax ordering of the top item should
  // usually survive; assert bounded absolute drift.
  for (Index c = 0; c < 40; ++c) {
    EXPECT_NEAR(l8[c], expected.at2(0, c), 0.6f);
  }
}

TEST_F(EngineTest, QuantizationShrinksFile) {
  ModelConfig config = small_config(TechniqueKind::kFull, ModelArch::kRanking);
  RecModel model(config);
  const std::string p32 = temp_path("s32");
  const std::string p8 = temp_path("s8");
  model.export_mcm(p32, DType::kF32);
  model.export_mcm(p8, DType::kI8);
  const MmapModel m32(p32);
  const MmapModel m8(p8);
  EXPECT_GT(m32.file_size(), 3 * m8.file_size() / 2);
}

TEST_F(EngineTest, BenchmarkStatsAreConsistent) {
  ModelConfig config = small_config(TechniqueKind::kMemcom,
                                    ModelArch::kRanking);
  RecModel model(config);
  const std::string path = temp_path("bench");
  model.export_mcm(path);
  const MmapModel mapped(path);
  ExecutionContext engine(std::make_shared<const CompiledModel>(mapped),
                          tflite_profile());
  const LatencyStats stats = engine.benchmark(sample_history(), 10);
  EXPECT_EQ(stats.runs, 10);
  EXPECT_GT(stats.mean_ms, 0.0);
  EXPECT_LE(stats.min_ms, stats.mean_ms);
  EXPECT_GE(stats.max_ms, stats.mean_ms);
}

TEST(LatencyStats, NearestRankPercentileIsExact) {
  // 20 samples 1..20: p95 must be the 19th sample. The old float rank math
  // computed ceil(0.95 * 20) over 19.000000000000004 -> 20 and silently
  // returned the max. (p99 of 100 samples was coincidentally fine.)
  std::vector<double> samples;
  for (int i = 1; i <= 20; ++i) {
    samples.push_back(static_cast<double>(i));
  }
  const LatencyStats stats = latency_stats_from_samples(std::move(samples));
  EXPECT_EQ(stats.runs, 20);
  EXPECT_DOUBLE_EQ(stats.p50_ms, 10.0);
  EXPECT_DOUBLE_EQ(stats.p95_ms, 19.0);
  EXPECT_DOUBLE_EQ(stats.p99_ms, 20.0);
  EXPECT_DOUBLE_EQ(stats.max_ms, 20.0);
}

TEST(LatencyStats, TinyAndEmptySampleSets) {
  // Empty: all-zero, runs 0 (the session report path hits this whenever a
  // drain carried no session traffic).
  const LatencyStats empty = latency_stats_from_samples({});
  EXPECT_EQ(empty.runs, 0);
  EXPECT_DOUBLE_EQ(empty.p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(empty.p95_ms, 0.0);
  EXPECT_DOUBLE_EQ(empty.p99_ms, 0.0);

  // n = 1: every percentile is the single sample.
  const LatencyStats one = latency_stats_from_samples({7.5});
  EXPECT_DOUBLE_EQ(one.p50_ms, 7.5);
  EXPECT_DOUBLE_EQ(one.p95_ms, 7.5);
  EXPECT_DOUBLE_EQ(one.p99_ms, 7.5);

  // n = 2 (n < 1/(1-p) for p95/p99): nearest-rank gives the max, p50 the
  // first sample — never an out-of-range index.
  const LatencyStats two = latency_stats_from_samples({3.0, 9.0});
  EXPECT_DOUBLE_EQ(two.p50_ms, 3.0);
  EXPECT_DOUBLE_EQ(two.p95_ms, 9.0);
  EXPECT_DOUBLE_EQ(two.p99_ms, 9.0);

  // Exact-boundary n for p50: 10 samples -> rank 5 (the 5th), not the 6th.
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) {
    ten.push_back(static_cast<double>(i));
  }
  const LatencyStats stats10 = latency_stats_from_samples(std::move(ten));
  EXPECT_DOUBLE_EQ(stats10.p50_ms, 5.0);
  EXPECT_DOUBLE_EQ(stats10.p95_ms, 10.0);
}

TEST_F(EngineTest, DeviceProfilesExposeTable3Columns) {
  const auto profiles = table3_profiles();
  ASSERT_EQ(profiles.size(), 4u);
  EXPECT_EQ(profiles[0].label(), "coreml/all");
  EXPECT_EQ(profiles[1].label(), "coreml/cpuOnly");
  EXPECT_EQ(profiles[2].label(), "coreml/cpuAndGPU");
  EXPECT_EQ(profiles[3].label(), "tflite/CPU");
  EXPECT_GT(tflite_profile().onehot_slowdown, 1.0);
  EXPECT_THROW(coreml_profile("gpuOnly"), std::runtime_error);
}

TEST_F(EngineTest, PaddedHistoryIgnoredInPooling) {
  ModelConfig config = small_config(TechniqueKind::kMemcom,
                                    ModelArch::kRanking);
  RecModel model(config);
  const std::string path = temp_path("pad");
  model.export_mcm(path);
  const MmapModel mapped(path);
  ExecutionContext engine(std::make_shared<const CompiledModel>(mapped),
                          coreml_profile("all"));
  // Same real ids, different padding amounts -> identical logits.
  const Tensor a = test::copy_logits(engine.run_view({5, 9, 0, 0}));
  const Tensor b = test::copy_logits(engine.run_view({5, 9, 0, 0, 0, 0, 0, 0}));
  EXPECT_TENSOR_NEAR(a, b, 1e-5f);
}

}  // namespace
}  // namespace memcom
