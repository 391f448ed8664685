// Cross-module integration tests: the full train -> export -> mmap ->
// on-device-inference pipeline, and checkpoint round trips across every
// compression technique.
#include <gtest/gtest.h>

#include <filesystem>

#include "data/synthetic.h"
#include "ondevice/execution_context.h"
#include "repro/sweep.h"
#include "repro/trainer.h"

namespace memcom {
namespace {

DatasetSpec pipeline_spec() {
  DatasetSpec s;
  s.name = "pipeline";
  s.items = 180;
  s.output_vocab = 30;
  s.train_samples = 700;
  s.eval_samples = 120;
  s.seq_len = 12;
  s.affinity = 6.0;
  s.latent_dim = 8;
  return s;
}

std::string temp_file(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("memcom_integration_" + tag + ".mcm"))
      .string();
}

TEST(Integration, TrainExportInferAgreesWithTrainer) {
  const SyntheticDataset data(pipeline_spec(), 51);
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, data.input_vocab(), 16,
                      data.input_vocab() / 8};
  config.arch = ModelArch::kRanking;
  config.output_vocab = data.output_vocab();
  RecModel model(config);
  TrainConfig train;
  train.epochs = 2;
  const EvalResult trained = train_and_evaluate(model, data, train);
  EXPECT_GT(trained.ndcg, 0.1);

  const std::string path = temp_file("pipeline");
  model.export_mcm(path, DType::kF32);
  const MmapModel mapped(path);
  ExecutionContext engine(std::make_shared<const CompiledModel>(mapped),
                          coreml_profile("cpuOnly"));

  // Engine argmax must equal trainer argmax on every eval sample.
  Index agree = 0;
  const Index n = 50;
  for (Index i = 0; i < n; ++i) {
    const Batch single = make_batch(data.eval(), i, 1);
    const Tensor trainer_logits = model.forward(single.inputs, false);
    const InferenceView engine_logits = engine.run_view(single.inputs.ids);
    Index trainer_best = 0;
    Index engine_best = 0;
    for (Index c = 1; c < data.output_vocab(); ++c) {
      if (trainer_logits.at2(0, c) > trainer_logits.at2(0, trainer_best)) {
        trainer_best = c;
      }
      if (engine_logits.logits[c] > engine_logits.logits[engine_best]) {
        engine_best = c;
      }
    }
    agree += trainer_best == engine_best ? 1 : 0;
  }
  EXPECT_EQ(agree, n);
  std::filesystem::remove(path);
}

TEST(Integration, QuantizedPipelinePreservesRankingQuality) {
  const SyntheticDataset data(pipeline_spec(), 52);
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, data.input_vocab(), 16,
                      data.input_vocab() / 8};
  config.arch = ModelArch::kRanking;
  config.output_vocab = data.output_vocab();
  RecModel model(config);
  TrainConfig train;
  train.epochs = 2;
  const EvalResult fp32 = train_and_evaluate(model, data, train);

  const std::string path = temp_file("quantized");
  model.export_mcm(path, DType::kI8);
  RecModel quantized(config);
  quantized.load_mcm(path);
  const EvalResult int8 = evaluate_model(quantized, data, train.ndcg_k);
  // int8 quantization must not destroy ranking quality (A.2's ~0.13%
  // claim; give a loose 15% relative budget at this tiny scale).
  EXPECT_GT(int8.ndcg, fp32.ndcg * 0.85);
  std::filesystem::remove(path);
}

// Checkpoint round trip across EVERY technique (exercises all export
// naming paths, including the positional mixed_dim/hashed_nets scheme).
class CheckpointRoundTrip : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(CheckpointRoundTrip, ExactInferenceAfterReload) {
  const TechniqueKind kind = GetParam();
  ModelConfig config;
  config.embedding.kind = kind;
  config.embedding.vocab = 80;
  config.embedding.embed_dim = 16;
  switch (kind) {
    case TechniqueKind::kFull:
      config.embedding.knob = 0;
      break;
    case TechniqueKind::kFactorized:
    case TechniqueKind::kReduceDim:
      config.embedding.knob = 8;
      break;
    case TechniqueKind::kHashedNets:
      config.embedding.knob = 100;
      break;
    case TechniqueKind::kTtRec:
      config.embedding.knob = 3;
      break;
    default:
      config.embedding.knob = 20;
  }
  config.arch = ModelArch::kRanking;
  config.output_vocab = 12;
  config.dropout = 0.0;
  RecModel model(config);

  IdBatch input(2, 6);
  input.ids = {1, 5, 9, 20, 50, 79, 3, 7, 0, 0, 0, 0};
  model.forward(input, true);  // prime batchnorm stats
  const Tensor expected = model.forward(input, false);

  const std::string path = temp_file(technique_name(kind));
  model.export_mcm(path);
  RecModel restored(config);
  restored.load_mcm(path);
  EXPECT_TRUE(restored.forward(input, false).equals(expected))
      << technique_name(kind);
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniques, CheckpointRoundTrip,
    ::testing::ValuesIn(all_techniques()),
    [](const ::testing::TestParamInfo<TechniqueKind>& info) {
      return technique_name(info.param);
    });

TEST(Integration, SweepThenDeployBestModel) {
  // The README workflow: sweep, pick the best compressed point, deploy it.
  const SyntheticDataset data(pipeline_spec(), 53);
  TrainConfig train;
  train.epochs = 1;
  const SweepResult sweep = run_compression_sweep(
      data, ModelArch::kRanking,
      {TechniqueKind::kMemcom, TechniqueKind::kNaiveHash}, train, 16, 2);
  ASSERT_FALSE(sweep.series.empty());

  // Rebuild the best point's model and export it.
  const TechniqueSeries& best_series = sweep.series[0];
  ASSERT_FALSE(best_series.points.empty());
  ModelConfig config;
  config.embedding = {best_series.kind, data.input_vocab(), 16,
                      best_series.points[0].knob};
  config.arch = ModelArch::kRanking;
  config.output_vocab = data.output_vocab();
  RecModel model(config);
  train_and_evaluate(model, data, train);
  const std::string path = temp_file("deploy");
  model.export_mcm(path, DType::kF16);
  const MmapModel mapped(path);
  ExecutionContext engine(std::make_shared<const CompiledModel>(mapped),
                          tflite_profile());
  const Batch sample = make_batch(data.eval(), 0, 1);
  const InferenceView result = engine.run_view(sample.inputs.ids);
  EXPECT_EQ(result.dim, data.output_vocab());
  EXPECT_GT(engine.resident_megabytes(), 0.0);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace memcom
