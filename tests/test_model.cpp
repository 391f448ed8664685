#include "repro/model.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "nn/grad_check.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "ondevice/format.h"

namespace memcom {
namespace {

ModelConfig base_config(ModelArch arch) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 60, 16, 12};
  config.arch = arch;
  config.output_vocab = 10;
  config.dropout = 0.0;  // deterministic for gradient checks
  config.seed = 5;
  return config;
}

IdBatch toy_batch() {
  IdBatch input(3, 5);
  input.ids = {1, 2, 3, 0, 0, 7, 8, 9, 10, 11, 30, 40, 50, 59, 0};
  return input;
}

TEST(RecModel, ClassificationForwardShape) {
  RecModel model(base_config(ModelArch::kClassification));
  const Tensor logits = model.forward(toy_batch(), false);
  EXPECT_EQ(logits.shape(), (Shape{3, 10}));
}

TEST(RecModel, RankingForwardShape) {
  RecModel model(base_config(ModelArch::kRanking));
  const Tensor logits = model.forward(toy_batch(), false);
  EXPECT_EQ(logits.shape(), (Shape{3, 10}));
}

TEST(RecModel, RankingHasFewerParamsThanClassificationWithSmallHead) {
  // Ranking drops the hidden dense block; with a small output vocab the
  // dense(e/2) block dominates, so ranking < classification.
  ModelConfig cls = base_config(ModelArch::kClassification);
  cls.output_vocab = 4;
  ModelConfig rank = base_config(ModelArch::kRanking);
  rank.output_vocab = 4;
  RecModel cls_model(cls);
  RecModel rank_model(rank);
  EXPECT_NE(cls_model.param_count(), rank_model.param_count());
}

TEST(RecModel, ParamCountDecomposition) {
  ModelConfig config = base_config(ModelArch::kRanking);
  RecModel model(config);
  // embedding (12*16 + 60) + bn1 (2*16) + out (16*10 + 10)
  EXPECT_EQ(model.param_count(), (12 * 16 + 60) + 32 + 170);
}

TEST(RecModel, EndToEndGradientsMatchFiniteDifference) {
  ModelConfig config = base_config(ModelArch::kClassification);
  RecModel model(config);
  const IdBatch input = toy_batch();
  const std::vector<Index> labels = {1, 5, 9};
  SoftmaxCrossEntropy loss;

  // BatchNorm in training mode uses batch statistics that shift under FD
  // perturbation; evaluate FD in inference mode after priming stats, and
  // take analytic grads in the same mode for consistency.
  model.forward(input, true);  // prime running stats
  const Tensor logits = model.forward(input, false);
  loss.forward(logits, labels);
  model.backward(loss.backward());

  auto loss_fn = [&]() {
    SoftmaxCrossEntropy fresh;
    return fresh.forward(model.forward(input, false), labels);
  };
  for (Param* p : model.params()) {
    if (p->numel() == 0) {
      continue;
    }
    // Small epsilon keeps central differences away from ReLU kink
    // crossings (the init-time activations are ~1e-2); the fraction
    // criterion tolerates the rare remaining crossing.
    const GradCheckResult result =
        check_param_gradient(*p, loss_fn, 3e-4f, 32);
    EXPECT_GE(result.fraction_within(5e-2f), 0.8f)
        << p->name << " max rel err " << result.max_rel_error;
  }
}

TEST(RecModel, TrainingReducesLoss) {
  ModelConfig config = base_config(ModelArch::kClassification);
  config.dropout = 0.0;
  RecModel model(config);
  SoftmaxCrossEntropy loss;
  const IdBatch input = toy_batch();
  const std::vector<Index> labels = {1, 5, 9};
  auto optimizer = make_optimizer("adam", 5e-3);
  const ParamRefs params = model.params();
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int step = 0; step < 40; ++step) {
    const Tensor logits = model.forward(input, true);
    const float value = loss.forward(logits, labels);
    if (step == 0) {
      first_loss = value;
    }
    last_loss = value;
    model.backward(loss.backward());
    optimizer->step(params);
    Optimizer::zero_grad(params);
  }
  EXPECT_LT(last_loss, first_loss * 0.5f);
}

TEST(RecModel, DropoutOnlyAffectsTraining) {
  ModelConfig config = base_config(ModelArch::kRanking);
  config.dropout = 0.5;
  RecModel model(config);
  const IdBatch input = toy_batch();
  const Tensor a = model.forward(input, false);
  const Tensor b = model.forward(input, false);
  EXPECT_TRUE(a.equals(b));  // inference is deterministic
}

TEST(RecModel, SeedReproducibility) {
  RecModel a(base_config(ModelArch::kClassification));
  RecModel b(base_config(ModelArch::kClassification));
  const IdBatch input = toy_batch();
  EXPECT_TRUE(a.forward(input, false).equals(b.forward(input, false)));
}

TEST(PairwiseModel, ScoreShapesAndDeterminism) {
  EmbeddingConfig emb = {TechniqueKind::kMemcom, 60, 16, 12};
  PairwiseRankModel model(emb, /*item_count=*/25, /*dropout=*/0.0, 3);
  IdBatch histories(2, 4);
  histories.ids = {1, 2, 3, 0, 9, 8, 7, 6};
  const Tensor scores = model.score(histories, {3, 17}, false);
  EXPECT_EQ(scores.shape(), (Shape{2}));
  const Tensor again = model.score(histories, {3, 17}, false);
  EXPECT_TRUE(scores.equals(again));
}

TEST(PairwiseModel, ScoreAllRanksWholeCatalog) {
  EmbeddingConfig emb = {TechniqueKind::kFull, 60, 16, 0};
  PairwiseRankModel model(emb, 25, 0.0, 4);
  IdBatch history(1, 4);
  history.ids = {5, 6, 7, 8};
  const Tensor all = model.score_all(history);
  EXPECT_EQ(all.shape(), (Shape{1, 25}));
  // score_all must agree with score() per item.
  const Tensor individual = model.score(history, {11}, false);
  EXPECT_NEAR(all.at2(0, 11), individual[0], 1e-5f);
}

TEST(PairwiseModel, TrainingImprovesPairwiseAccuracy) {
  EmbeddingConfig emb = {TechniqueKind::kMemcom, 60, 16, 12};
  PairwiseRankModel model(emb, 25, 0.0, 5);
  auto optimizer = make_optimizer("adam", 5e-3);
  const ParamRefs params = model.params();

  IdBatch histories(8, 4);
  Rng rng(6);
  for (Index i = 0; i < histories.size(); ++i) {
    histories.ids[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(1 + rng.uniform_index(59));
  }
  std::vector<Index> preferred(8);
  std::vector<Index> other(8);
  for (Index i = 0; i < 8; ++i) {
    preferred[static_cast<std::size_t>(i)] = i;          // fixed preference
    other[static_cast<std::size_t>(i)] = 24 - i;
  }
  float first_acc = 0.0f;
  float acc = 0.0f;
  for (int step = 0; step < 60; ++step) {
    model.train_pair_batch(histories, preferred, other, &acc);
    if (step == 0) {
      first_acc = acc;
    }
    optimizer->step(params);
    Optimizer::zero_grad(params);
  }
  EXPECT_GT(acc, 0.9f);
  EXPECT_GE(acc, first_acc);
}

TEST(PairwiseModel, ParamCountIncludesItemTower) {
  EmbeddingConfig emb = {TechniqueKind::kFull, 60, 16, 0};
  PairwiseRankModel model(emb, 25, 0.0, 7);
  // embedding 60*16 + bn 32 + proj (16*16+16) + items (25*16 + 25)
  EXPECT_EQ(model.param_count(), 960 + 32 + 272 + 425);
}

TEST(PairwiseModel, InvalidItemRejected) {
  EmbeddingConfig emb = {TechniqueKind::kFull, 60, 16, 0};
  PairwiseRankModel model(emb, 25, 0.0, 8);
  IdBatch history(1, 2);
  history.ids = {1, 2};
  EXPECT_THROW(model.score(history, {25}, false), std::runtime_error);
}


TEST(RecModel, McmRoundTripRestoresExactInference) {
  ModelConfig config = base_config(ModelArch::kClassification);
  RecModel model(config);
  // Perturb away from init so the round trip is non-trivial, and prime the
  // batchnorm running stats.
  model.forward(toy_batch(), true);
  for (Param* p : model.params()) {
    if (p->numel() > 0) {
      p->value.scale_(1.25f);
    }
  }
  const Tensor expected = model.forward(toy_batch(), false);

  const std::string path = "/tmp/memcom_roundtrip_test.mcm";
  model.export_mcm(path);
  RecModel fresh(config);
  fresh.load_mcm(path);
  const Tensor restored = fresh.forward(toy_batch(), false);
  EXPECT_TRUE(restored.equals(expected));
  std::remove(path.c_str());
}

// The file stores the output head item-major ([items, in]) and says so;
// load_mcm transposes it back to the training [in, items] parameter with
// every f32 bit intact.
TEST(RecModel, McmOutputWeightIsItemMajorAndRestoresExactly) {
  ModelConfig config = base_config(ModelArch::kClassification);
  RecModel model(config);
  auto out_weight = [](RecModel& m) -> Tensor& {
    for (Param* p : m.params()) {
      if (p->name == "out.weight") {
        return p->value;
      }
    }
    throw std::runtime_error("no out.weight parameter");
  };
  Tensor& w = out_weight(model);
  for (Index i = 0; i < w.numel(); ++i) {
    w.data()[i] = 0.001f * static_cast<float>(i) - 1.0f / 3.0f;
  }
  const std::string path = "/tmp/memcom_layout_test.mcm";
  model.export_mcm(path);
  {
    const MmapModel mapped(path);
    EXPECT_EQ(mapped.metadata_value(kOutputLayoutKey), kOutputLayoutItemMajor);
    const Shape stored = mapped.entry("out.weight").shape;
    ASSERT_EQ(stored.size(), 2u);
    EXPECT_EQ(stored[0], w.dim(1));  // items
    EXPECT_EQ(stored[1], w.dim(0));  // in
  }
  RecModel fresh(config);
  fresh.load_mcm(path);
  const Tensor& restored = out_weight(fresh);
  ASSERT_EQ(restored.shape(), w.shape());
  for (Index i = 0; i < w.numel(); ++i) {
    ASSERT_EQ(std::memcmp(&restored.data()[i], &w.data()[i], sizeof(float)), 0)
        << "element " << i;
  }
  std::remove(path.c_str());
}

TEST(RecModel, McmLoadRejectsMismatchedConfig) {
  ModelConfig config = base_config(ModelArch::kRanking);
  RecModel model(config);
  const std::string path = "/tmp/memcom_mismatch_test.mcm";
  model.export_mcm(path);
  ModelConfig other = config;
  other.embedding.kind = TechniqueKind::kNaiveHash;
  RecModel wrong(other);
  EXPECT_THROW(wrong.load_mcm(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace memcom
