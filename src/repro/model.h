// The paper's evaluation networks with a pluggable embedding stage.
//
// RecModel reproduces the Keras snippet of §5 ("Code 1"):
//
//   classification: Embedding -> AveragePooling1D -> Flatten -> ReLU ->
//     Dropout -> BatchNorm -> Dense(e/2, relu) -> Dropout -> BatchNorm ->
//     Dense(num_labels, softmax)
//   (pointwise) ranking: same minus "the Dense layer following the Average
//     Pooling" (§5.2), i.e. ReLU -> Dropout -> BatchNorm -> Dense(labels).
//
// PairwiseRankModel is the RankNet siamese setup of §5.2 (Figure 3): a
// shared user tower scores two item ids; training maximizes the score
// difference via RankNetLoss.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "embedding/factory.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/pooling.h"
#include "ondevice/quantize.h"

namespace memcom {

enum class ModelArch { kClassification, kRanking };

struct ModelConfig {
  EmbeddingConfig embedding;
  ModelArch arch = ModelArch::kClassification;
  Index output_vocab = 0;
  double dropout = 0.1;
  std::uint64_t seed = 17;
};

class RecModel {
 public:
  explicit RecModel(const ModelConfig& config);

  // input: [B, L] ids; returns logits [B, output_vocab].
  Tensor forward(const IdBatch& input, bool training);
  // grad_logits: [B, output_vocab]; propagates through trunk, pooling, and
  // embedding.
  void backward(const Tensor& grad_logits);

  ParamRefs params();
  Index param_count();

  EmbeddingLayer& embedding() { return *embedding_; }
  const ModelConfig& config() const { return config_; }
  Index output_vocab() const { return config_.output_vocab; }

  // Serializes to the on-device .mcm format, quantizing every tensor to
  // `dtype`. The tensor names match what ondevice::InferenceEngine expects.
  // The output head `out.weight` is written item-major, [items, in] — the
  // transpose of the training parameter — and the file is stamped
  // output_layout = item_major (see ondevice/format.h).
  // A non-empty `model_name` stamps deployment identity metadata
  // (ModelWriter::set_model_identity) with `model_version`, which the
  // serving-side ModelRegistry enforces to be monotonically increasing
  // across hot swaps; the defaults write a legacy file with no identity.
  // `group_size` only matters when `dtype` is kI4G (0 = kI4GroupDefault).
  // `emit_plan` appends the ahead-of-time compiled plan section (container
  // v3, see ondevice/plan.h) so fleet cold start is adopt instead of
  // compile; plan-less exports stay container v1/v2. `emit_index`
  // appends the clustered catalog-index section (container v4, see
  // ondevice/catalog_index.h) enabling the pruned top-k scan;
  // `index_clusters` == 0 picks the ~sqrt(items) default.
  void export_mcm(const std::string& path, DType dtype = DType::kF32,
                  const std::string& model_name = "",
                  std::uint64_t model_version = 1, Index group_size = 0,
                  bool emit_plan = false, bool emit_index = false,
                  Index index_clusters = 0);

  // Loads (dequantized) weights back from an exported .mcm file, undoing
  // the item-major `out.weight` transpose; a file without the
  // output_layout stamp is refused. The model must have been constructed
  // with the same ModelConfig. Used by the A.2
  // quantization study to evaluate a quantized model through the normal
  // evaluation path, and usable as a checkpoint mechanism.
  void load_mcm(const std::string& path);

 private:
  // (name, value-tensor) pairs in the .mcm naming scheme; shared by export
  // and load.
  std::vector<std::pair<std::string, Tensor*>> named_tensors();

  ModelConfig config_;
  EmbeddingPtr embedding_;
  MaskedAveragePool pool_;
  Relu relu1_;
  std::unique_ptr<Dropout> dropout1_;
  std::unique_ptr<BatchNorm1d> bn1_;
  // Classification-only hidden block.
  std::unique_ptr<Dense> dense1_;
  Relu relu2_;
  std::unique_ptr<Dropout> dropout2_;
  std::unique_ptr<BatchNorm1d> bn2_;
  std::unique_ptr<Dense> out_;

  IdBatch cached_input_;
};

class PairwiseRankModel {
 public:
  // The user tower reuses RecModel's ranking trunk shape (embed -> pool ->
  // relu -> bn -> dense(e)); items live in their own [items, e] output
  // table with a per-item bias; score(u, i) = <tower(u), item_i> + b_i.
  PairwiseRankModel(const EmbeddingConfig& embedding_config, Index item_count,
                    double dropout, std::uint64_t seed);

  // Scores every (history, item) pair: histories [B, L], items [B].
  Tensor score(const IdBatch& histories, const std::vector<Index>& items,
               bool training);
  // Scores one history against ALL items (evaluation path): returns
  // [item_count].
  Tensor score_all(const IdBatch& single_history);

  // Pairwise backward: grads for the preferred / other arms of the last
  // score() call must be combined by the caller into per-arm score grads.
  // `items` and `grad_scores` must match the last score() invocation.
  void backward(const std::vector<Index>& items, const Tensor& grad_scores);

  // Combined convenience used by the trainer: runs both arms through one
  // stacked batch so layer caches stay coherent.
  float train_pair_batch(const IdBatch& histories,
                         const std::vector<Index>& preferred,
                         const std::vector<Index>& other, float* accuracy_out);

  ParamRefs params();
  Index param_count();
  EmbeddingLayer& embedding() { return *embedding_; }

 private:
  Tensor user_tower_forward(const IdBatch& histories, bool training);
  void user_tower_backward(const Tensor& grad_user);

  EmbeddingPtr embedding_;
  MaskedAveragePool pool_;
  Relu relu1_;
  std::unique_ptr<Dropout> dropout1_;
  std::unique_ptr<BatchNorm1d> bn1_;
  std::unique_ptr<Dense> proj_;
  Param item_table_;  // [items, e]
  Param item_bias_;   // [items]
  Tensor cached_user_;         // [B, e] tower output of the last score()
  std::vector<Index> cached_items_;
};

}  // namespace memcom
