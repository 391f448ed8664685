#include "repro/model.h"

#include "core/ops.h"
#include "embedding/memcom.h"
#include "nn/loss.h"
#include "ondevice/format.h"

namespace memcom {

RecModel::RecModel(const ModelConfig& config) : config_(config) {
  check(config.output_vocab > 1, "RecModel: output vocab must exceed 1");
  Rng rng(config.seed);
  Rng emb_rng = rng.split(1);
  embedding_ = make_embedding(config.embedding, emb_rng);
  const Index e = embedding_->output_dim();
  dropout1_ = std::make_unique<Dropout>(config.dropout, rng);
  bn1_ = std::make_unique<BatchNorm1d>(e);
  if (config.arch == ModelArch::kClassification) {
    const Index hidden = std::max<Index>(2, e / 2);
    dense1_ = std::make_unique<Dense>(e, hidden, rng, "dense1");
    dropout2_ = std::make_unique<Dropout>(config.dropout, rng);
    bn2_ = std::make_unique<BatchNorm1d>(hidden);
    out_ = std::make_unique<Dense>(hidden, config.output_vocab, rng, "out");
  } else {
    out_ = std::make_unique<Dense>(e, config.output_vocab, rng, "out");
  }
}

Tensor RecModel::forward(const IdBatch& input, bool training) {
  cached_input_ = input;
  const Tensor embedded = embedding_->forward(input, training);
  const Tensor mask =
      mask_from_ids(input.ids, input.batch, input.length, kPadId);
  Tensor x = pool_.forward(embedded, mask);
  x = relu1_.forward(x, training);
  x = dropout1_->forward(x, training);
  x = bn1_->forward(x, training);
  if (config_.arch == ModelArch::kClassification) {
    x = dense1_->forward(x, training);
    x = relu2_.forward(x, training);
    x = dropout2_->forward(x, training);
    x = bn2_->forward(x, training);
  }
  return out_->forward(x, training);
}

void RecModel::backward(const Tensor& grad_logits) {
  Tensor g = out_->backward(grad_logits);
  if (config_.arch == ModelArch::kClassification) {
    g = bn2_->backward(g);
    g = dropout2_->backward(g);
    g = relu2_.backward(g);
    g = dense1_->backward(g);
  }
  g = bn1_->backward(g);
  g = dropout1_->backward(g);
  g = relu1_.backward(g);
  const Tensor grad_embedded = pool_.backward(g);
  embedding_->backward(grad_embedded);
}

ParamRefs RecModel::params() {
  ParamRefs refs = embedding_->params();
  for (Param* p : bn1_->params()) {
    refs.push_back(p);
  }
  if (config_.arch == ModelArch::kClassification) {
    for (Param* p : dense1_->params()) {
      refs.push_back(p);
    }
    for (Param* p : bn2_->params()) {
      refs.push_back(p);
    }
  }
  for (Param* p : out_->params()) {
    refs.push_back(p);
  }
  return refs;
}

Index RecModel::param_count() { return total_param_count(params()); }

std::vector<std::pair<std::string, Tensor*>> RecModel::named_tensors() {
  std::vector<std::pair<std::string, Tensor*>> named;
  // Embedding tensors, named per technique (see ondevice/engine.cpp).
  const std::string technique = technique_name(config_.embedding.kind);
  const ParamRefs emb_params = embedding_->params();
  if (technique == "memcom" || technique == "memcom_bias") {
    named.emplace_back("emb.shared", &emb_params[0]->value);
    named.emplace_back("emb.multiplier", &emb_params[1]->value);
    if (technique == "memcom_bias") {
      named.emplace_back("emb.bias", &emb_params[2]->value);
    }
  } else if (technique == "qr_mult" || technique == "qr_concat") {
    named.emplace_back("emb.remainder", &emb_params[0]->value);
    named.emplace_back("emb.quotient", &emb_params[1]->value);
  } else if (technique == "double_hash") {
    named.emplace_back("emb.table_a", &emb_params[0]->value);
    named.emplace_back("emb.table_b", &emb_params[1]->value);
  } else if (technique == "factorized") {
    named.emplace_back("emb.factors", &emb_params[0]->value);
    named.emplace_back("emb.projection", &emb_params[1]->value);
  } else if (technique == "tt_rec") {
    named.emplace_back("emb.core1", &emb_params[0]->value);
    named.emplace_back("emb.core2", &emb_params[1]->value);
  } else if (technique == "mixed_dim" || technique == "hashed_nets") {
    // Variable-count parameter sets: enumerate positionally. (The on-device
    // engine's lookup dispatch does not cover these; export/load round
    // trips do.)
    for (std::size_t i = 0; i < emb_params.size(); ++i) {
      named.emplace_back("emb.p" + std::to_string(i), &emb_params[i]->value);
    }
  } else {
    // uncompressed / reduce_dim / naive_hash / truncate_rare / weinberger:
    // single table.
    named.emplace_back("emb.table", &emb_params[0]->value);
  }

  auto add_bn = [&](const char* prefix, BatchNorm1d& bn) {
    const std::string p(prefix);
    named.emplace_back(p + ".gamma", &bn.params()[0]->value);
    named.emplace_back(p + ".beta", &bn.params()[1]->value);
    named.emplace_back(p + ".mean", &bn.running_mean());
    named.emplace_back(p + ".var", &bn.running_var());
  };
  auto add_dense = [&](const char* prefix, Dense& dense) {
    const std::string p(prefix);
    named.emplace_back(p + ".weight", &dense.weight().value);
    named.emplace_back(p + ".bias", &dense.bias().value);
  };
  add_bn("bn1", *bn1_);
  if (config_.arch == ModelArch::kClassification) {
    add_dense("dense1", *dense1_);
    add_bn("bn2", *bn2_);
  }
  add_dense("out", *out_);
  return named;
}

void RecModel::export_mcm(const std::string& path, DType dtype,
                          const std::string& model_name,
                          std::uint64_t model_version, Index group_size,
                          bool emit_plan, bool emit_index,
                          Index index_clusters) {
  ModelWriter writer(path);
  writer.set_emit_plan(emit_plan);
  writer.set_emit_catalog_index(emit_index, index_clusters);
  if (!model_name.empty()) {
    writer.set_model_identity(model_name, model_version);
  }
  writer.set_metadata("arch", config_.arch == ModelArch::kClassification
                                  ? "classification"
                                  : "ranking");
  writer.set_metadata("technique", technique_name(config_.embedding.kind));
  writer.set_metadata_int("vocab", config_.embedding.vocab);
  writer.set_metadata_int("embed_dim", embedding_->output_dim());
  writer.set_metadata_int("knob", config_.embedding.knob);
  writer.set_metadata_int("output_dim", config_.output_vocab);
  if (dense1_ != nullptr) {
    writer.set_metadata_int("hidden_dim", dense1_->out_features());
  }
  writer.set_metadata(kOutputLayoutKey, kOutputLayoutItemMajor);
  for (const auto& [name, tensor] : named_tensors()) {
    writer.add_tensor(name, name == "out.weight" ? transpose(*tensor) : *tensor,
                      dtype, group_size);
  }
  writer.finish();
}

void RecModel::load_mcm(const std::string& path) {
  const MmapModel mapped(path);
  check(mapped.metadata_value("technique") ==
            technique_name(config_.embedding.kind),
        "load_mcm: technique mismatch");
  check_eq(config_.output_vocab, mapped.metadata_int("output_dim"),
           "load_mcm output vocab");
  check_output_layout(mapped);
  for (const auto& [name, tensor] : named_tensors()) {
    Tensor loaded = name == "out.weight"
                        ? transpose(mapped.load_tensor(name))
                        : mapped.load_tensor(name);
    check(loaded.shape() == tensor->shape(),
          "load_mcm: shape mismatch for " + name);
    *tensor = std::move(loaded);
  }
}

PairwiseRankModel::PairwiseRankModel(const EmbeddingConfig& embedding_config,
                                     Index item_count, double dropout,
                                     std::uint64_t seed) {
  check(item_count > 1, "PairwiseRankModel: need at least 2 items");
  Rng rng(seed);
  Rng emb_rng = rng.split(1);
  embedding_ = make_embedding(embedding_config, emb_rng);
  const Index e = embedding_->output_dim();
  dropout1_ = std::make_unique<Dropout>(dropout, rng);
  bn1_ = std::make_unique<BatchNorm1d>(e);
  proj_ = std::make_unique<Dense>(e, e, rng, "proj");
  Rng item_rng = rng.split(2);
  item_table_ = Param("item.table", embedding_init(item_count, e, item_rng));
  item_table_.sparse = true;
  item_bias_ = Param("item.bias", Tensor({item_count}));
  item_bias_.sparse = false;
}

Tensor PairwiseRankModel::user_tower_forward(const IdBatch& histories,
                                             bool training) {
  const Tensor embedded = embedding_->forward(histories, training);
  const Tensor mask =
      mask_from_ids(histories.ids, histories.batch, histories.length, kPadId);
  Tensor x = pool_.forward(embedded, mask);
  x = relu1_.forward(x, training);
  x = dropout1_->forward(x, training);
  x = bn1_->forward(x, training);
  return proj_->forward(x, training);
}

void PairwiseRankModel::user_tower_backward(const Tensor& grad_user) {
  Tensor g = proj_->backward(grad_user);
  g = bn1_->backward(g);
  g = dropout1_->backward(g);
  g = relu1_.backward(g);
  const Tensor grad_embedded = pool_.backward(g);
  embedding_->backward(grad_embedded);
}

Tensor PairwiseRankModel::score(const IdBatch& histories,
                                const std::vector<Index>& items,
                                bool training) {
  check_eq(histories.batch, static_cast<long long>(items.size()),
           "pairwise: batch vs items");
  cached_user_ = user_tower_forward(histories, training);
  cached_items_ = items;
  const Index b = histories.batch;
  const Index e = cached_user_.dim(1);
  Tensor scores({b});
  for (Index r = 0; r < b; ++r) {
    const Index item = items[static_cast<std::size_t>(r)];
    check(item >= 0 && item < item_table_.value.dim(0),
          "pairwise: item out of range");
    const float* u = cached_user_.data() + r * e;
    const float* it = item_table_.value.data() + item * e;
    double acc = item_bias_.value[item];
    for (Index c = 0; c < e; ++c) {
      acc += static_cast<double>(u[c]) * it[c];
    }
    scores[r] = static_cast<float>(acc);
  }
  return scores;
}

Tensor PairwiseRankModel::score_all(const IdBatch& single_history) {
  const Tensor user = user_tower_forward(single_history, /*training=*/false);
  check_eq(1, user.dim(0), "score_all expects a single history");
  const Index items = item_table_.value.dim(0);
  const Index e = user.dim(1);
  Tensor scores({1, items});
  const float* u = user.data();
  for (Index i = 0; i < items; ++i) {
    const float* it = item_table_.value.data() + i * e;
    double acc = item_bias_.value[i];
    for (Index c = 0; c < e; ++c) {
      acc += static_cast<double>(u[c]) * it[c];
    }
    scores.at2(0, i) = static_cast<float>(acc);
  }
  return scores;
}

void PairwiseRankModel::backward(const std::vector<Index>& items,
                                 const Tensor& grad_scores) {
  check(!cached_user_.empty(), "pairwise: backward before score");
  check_eq(static_cast<long long>(cached_items_.size()),
           static_cast<long long>(items.size()), "pairwise: item mismatch");
  const Index b = cached_user_.dim(0);
  const Index e = cached_user_.dim(1);
  check(grad_scores.ndim() == 1 && grad_scores.dim(0) == b,
        "pairwise: bad grad shape");
  Tensor grad_user({b, e});
  for (Index r = 0; r < b; ++r) {
    const Index item = items[static_cast<std::size_t>(r)];
    const float g = grad_scores[r];
    const float* u = cached_user_.data() + r * e;
    const float* it = item_table_.value.data() + item * e;
    float* gu = grad_user.data() + r * e;
    float* git = item_table_.grad.data() + item * e;
    for (Index c = 0; c < e; ++c) {
      gu[c] = g * it[c];
      git[c] += g * u[c];
    }
    item_table_.mark_touched(item);
    item_bias_.grad[item] += g;
  }
  user_tower_backward(grad_user);
}

float PairwiseRankModel::train_pair_batch(const IdBatch& histories,
                                          const std::vector<Index>& preferred,
                                          const std::vector<Index>& other,
                                          float* accuracy_out) {
  const Index b = histories.batch;
  check_eq(b, static_cast<long long>(preferred.size()), "pairwise batch");
  check_eq(b, static_cast<long long>(other.size()), "pairwise batch");
  // Stack the two arms into one 2B batch so every layer runs exactly one
  // forward (layer caches stay valid for the single backward).
  IdBatch stacked(2 * b, histories.length);
  for (Index r = 0; r < b; ++r) {
    for (Index l = 0; l < histories.length; ++l) {
      stacked.id(r, l) = histories.id(r, l);
      stacked.id(b + r, l) = histories.id(r, l);
    }
  }
  std::vector<Index> stacked_items(static_cast<std::size_t>(2 * b));
  for (Index r = 0; r < b; ++r) {
    stacked_items[static_cast<std::size_t>(r)] =
        preferred[static_cast<std::size_t>(r)];
    stacked_items[static_cast<std::size_t>(b + r)] =
        other[static_cast<std::size_t>(r)];
  }
  const Tensor scores = score(stacked, stacked_items, /*training=*/true);
  Tensor score_pref({b});
  Tensor score_other({b});
  for (Index r = 0; r < b; ++r) {
    score_pref[r] = scores[r];
    score_other[r] = scores[b + r];
  }
  RankNetLoss loss;
  const float value = loss.forward(score_pref, score_other);
  if (accuracy_out != nullptr) {
    *accuracy_out = loss.pairwise_accuracy();
  }
  const Tensor g_pref = loss.backward_preferred();
  const Tensor g_other = loss.backward_other();
  Tensor grad_scores({2 * b});
  for (Index r = 0; r < b; ++r) {
    grad_scores[r] = g_pref[r];
    grad_scores[b + r] = g_other[r];
  }
  backward(stacked_items, grad_scores);
  return value;
}

ParamRefs PairwiseRankModel::params() {
  ParamRefs refs = embedding_->params();
  for (Param* p : bn1_->params()) {
    refs.push_back(p);
  }
  for (Param* p : proj_->params()) {
    refs.push_back(p);
  }
  refs.push_back(&item_table_);
  refs.push_back(&item_bias_);
  return refs;
}

Index PairwiseRankModel::param_count() { return total_param_count(params()); }

}  // namespace memcom
