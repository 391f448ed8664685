// Clustered pruned top-k catalog scan (ondevice/catalog_index.h): the
// deterministic k-means build, the IVF exactness anchor (nprobe ==
// num_clusters bit-identical to the exact full scan), pruned-subset score
// fidelity, scan accounting, the .mcm v4 section round trip, and the
// hardening contract — every corruption of the index section (truncation,
// checksum flip, hostile declared cluster count, permutation corruption)
// must decode as kStale with a diagnosable reason, and serving must fall
// back to the exact scan with BIT-IDENTICAL rankings. A bad index may
// never take down a loadable model, and may never perturb a score.
#include "ondevice/catalog_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/rng.h"
#include "ondevice/compiled_model.h"
#include "ondevice/execution_context.h"
#include "ondevice/plan.h"
#include "ondevice/quantize.h"
#include "ondevice/serving.h"
#include "repro/model.h"
#include "test_util.h"

namespace memcom {
namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// Recomputes the trailing checksum of the index section at [offset,
// offset+size) so structural corruptions survive the checksum gate and
// prove the CHECKS BEHIND IT fire, not just the checksum.
void reseal_index(std::vector<std::uint8_t>& file, std::uint64_t offset,
                  std::uint64_t size) {
  const std::uint64_t sum =
      plan_checksum(file.data() + offset, static_cast<std::size_t>(size - 8));
  std::memcpy(file.data() + offset + size - 8, &sum, 8);
}

// A reproducible synthetic catalog with clusterable structure: `items`
// rows of width `dim`, drawn around a few well-separated anchors so
// k-means has real cells to find, plus noise so rows stay distinct.
Tensor synthetic_catalog(Index items, Index dim, std::uint64_t seed) {
  Tensor rows({items, dim});
  Rng rng(seed);
  const Index anchors = 7;
  std::vector<float> anchor(static_cast<std::size_t>(anchors * dim));
  for (auto& v : anchor) {
    v = rng.uniform(-2.0f, 2.0f);
  }
  for (Index i = 0; i < items; ++i) {
    const Index a = i % anchors;
    for (Index d = 0; d < dim; ++d) {
      rows.at2(i, d) =
          anchor[static_cast<std::size_t>(a * dim + d)] +
          rng.uniform(-0.25f, 0.25f);
    }
  }
  return rows;
}

std::vector<float> random_query(Index dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> q(static_cast<std::size_t>(dim));
  for (auto& v : q) {
    v = rng.uniform(-1.0f, 1.0f);
  }
  return q;
}

// Compiles `path` with the scalar reference family (MEMCOM_DISABLE_SIMD=1
// at compile time) or the dispatched one, restoring the caller's setting.
std::shared_ptr<const CompiledModel> compile_with_family(
    const std::string& path, bool scalar) {
  const char* prior = std::getenv("MEMCOM_DISABLE_SIMD");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("MEMCOM_DISABLE_SIMD", scalar ? "1" : "0", 1);
  auto compiled = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(path));
  if (prior != nullptr) {
    ::setenv("MEMCOM_DISABLE_SIMD", saved.c_str(), 1);
  } else {
    ::unsetenv("MEMCOM_DISABLE_SIMD");
  }
  return compiled;
}

class CatalogIndexFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }

  std::string export_model(const std::string& tag, bool emit_index,
                           Index clusters = 0, DType dtype = DType::kI8,
                           bool emit_plan = false,
                           TechniqueKind kind = TechniqueKind::kMemcom,
                           Index items = 48, Index embed_dim = 16) {
    ModelConfig config;
    config.embedding.kind = kind;
    config.embedding.vocab = 150;
    config.embedding.embed_dim = embed_dim;
    config.embedding.knob = 24;
    config.arch = ModelArch::kClassification;
    config.output_vocab = items;
    config.seed = 4711;
    RecModel model(config);
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_cidx_" + tag + ".mcm");
    paths_.push_back(p);
    model.export_mcm(p.string(), dtype, "cidx", 5, /*group_size=*/0,
                     emit_plan, emit_index, clusters);
    return p.string();
  }

  // Asserts the corrupted file decodes as kStale with `reason_substr`, the
  // loader records the fallback, and session serving on it is BIT-IDENTICAL
  // to an index-less export of the same model — the exact scan contract.
  void expect_stale_exact_fallback(const std::string& path,
                                   const std::string& reason_substr) {
    auto mapped = std::make_shared<const MmapModel>(path);
    const CatalogIndexDecodeResult decoded = decode_catalog_index(*mapped);
    ASSERT_EQ(decoded.status, PlanStatus::kStale) << reason_substr;
    EXPECT_NE(decoded.reason.find(reason_substr), std::string::npos)
        << "actual reason: " << decoded.reason;
    auto compiled = std::make_shared<const CompiledModel>(mapped);
    EXPECT_FALSE(compiled->has_catalog_index());
    EXPECT_NE(compiled->index_fallback_reason().find(reason_substr),
              std::string::npos)
        << compiled->index_fallback_reason();

    // Serving still ranks, exactly: a pruned request on the defective file
    // silently takes the exact path and matches the index-less reference.
    const std::string clean = export_model("fallback_ref", false);
    const MmapModel clean_model(clean);
    std::vector<SessionEvent> events;
    for (std::uint64_t s = 1; s <= 4; ++s) {
      for (std::int32_t item = 1; item <= 5; ++item) {
        events.push_back({s, item * static_cast<std::int32_t>(s)});
      }
    }
    AsyncServerConfig config;
    config.threads = 1;
    config.max_batch = 4;
    config.session_capacity = 16;
    config.nprobe = 3;  // requested pruning, unavailable on both files
    std::vector<std::vector<Index>> corrupt_topk, clean_topk;
    {
      ModelRegistry registry;
      registry.publish("m", compiled);
      AsyncServer server(registry, "m", tflite_profile(), config);
      const ServingReport report =
          server.serve_sessions(events, 5, &corrupt_topk);
      // Exact fallback: nothing was pruned.
      EXPECT_EQ(report.pruned_fraction, 0.0) << reason_substr;
      EXPECT_EQ(report.scanned_rows, report.catalog_rows) << reason_substr;
    }
    {
      AsyncServer server(clean_model, tflite_profile(), config);
      server.serve_sessions(events, 5, &clean_topk);
    }
    ASSERT_EQ(corrupt_topk.size(), clean_topk.size());
    for (std::size_t i = 0; i < corrupt_topk.size(); ++i) {
      EXPECT_EQ(corrupt_topk[i], clean_topk[i])
          << reason_substr << " event " << i;
    }
  }

  std::vector<std::filesystem::path> paths_;
};

// --- IdBuffer semantics -----------------------------------------------------

TEST(IdBufferUnit, OwnedAndViewSemantics) {
  IdBuffer owned = IdBuffer::owned({3u, 1u, 2u});
  EXPECT_EQ(owned.size(), 3u);
  EXPECT_EQ(owned[0], 3u);
  EXPECT_FALSE(owned.zero_copy());

  const std::uint32_t backing[4] = {9u, 8u, 7u, 6u};
  IdBuffer view = IdBuffer::view(backing, 4);
  EXPECT_EQ(view.size(), 4u);
  EXPECT_EQ(view.data(), backing);
  EXPECT_TRUE(view.zero_copy());

  IdBuffer moved = std::move(owned);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved[2], 2u);
}

// --- Deterministic k-means build --------------------------------------------

TEST(CatalogIndexBuild, DefaultClustersTracksSqrt) {
  EXPECT_THROW(default_catalog_clusters(0), std::exception);
  EXPECT_EQ(default_catalog_clusters(1), 1);
  EXPECT_EQ(default_catalog_clusters(100), 10);
  EXPECT_EQ(default_catalog_clusters(50000), 224);  // lround(sqrt)
  // Never more cells than items.
  EXPECT_LE(default_catalog_clusters(3), 3);
}

TEST(CatalogIndexBuild, TwoBuildsAreByteIdentical) {
  const Tensor rows = synthetic_catalog(96, 12, 11);
  CatalogIndexConfig config;
  config.clusters = 9;
  const CatalogIndex a = build_catalog_index(rows.data(), 96, 12, config);
  const CatalogIndex b = build_catalog_index(rows.data(), 96, 12, config);
  const std::vector<std::uint8_t> bytes_a = serialize_catalog_index(a);
  const std::vector<std::uint8_t> bytes_b = serialize_catalog_index(b);
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(CatalogIndexBuild, PermutationCoversEveryItemExactlyOnce) {
  const Tensor rows = synthetic_catalog(77, 10, 23);
  CatalogIndexConfig config;
  config.clusters = 8;
  const CatalogIndex index = build_catalog_index(rows.data(), 77, 10, config);
  ASSERT_EQ(index.items, 77);
  ASSERT_EQ(index.clusters, 8);
  ASSERT_EQ(index.perm.size(), 77u);
  ASSERT_EQ(index.offsets.size(), 9u);
  EXPECT_EQ(index.offsets[0], 0u);
  EXPECT_EQ(index.offsets[8], 77u);
  std::set<std::uint32_t> seen;
  Index total = 0;
  for (Index c = 0; c < index.clusters; ++c) {
    EXPECT_LE(index.offsets[static_cast<std::size_t>(c)],
              index.offsets[static_cast<std::size_t>(c) + 1]);
    total += index.cluster_size(c);
    // Ascending ids within a cluster (the deterministic layout).
    for (std::uint32_t i = index.offsets[static_cast<std::size_t>(c)] + 1;
         i < index.offsets[static_cast<std::size_t>(c) + 1]; ++i) {
      EXPECT_LT(index.perm[i - 1], index.perm[i]) << "cluster " << c;
    }
  }
  EXPECT_EQ(total, 77);
  for (std::size_t i = 0; i < index.perm.size(); ++i) {
    EXPECT_LT(index.perm[i], 77u);
    EXPECT_TRUE(seen.insert(index.perm[i]).second)
        << "duplicate id " << index.perm[i];
  }
}

TEST(CatalogIndexBuild, ClusterCountClampedToItems) {
  const Tensor rows = synthetic_catalog(5, 6, 3);
  CatalogIndexConfig config;
  config.clusters = 50;  // more cells than items
  const CatalogIndex index = build_catalog_index(rows.data(), 5, 6, config);
  EXPECT_EQ(index.clusters, 5);
  EXPECT_EQ(index.perm.size(), 5u);
}

// --- The exactness anchor ---------------------------------------------------

class PrunedScanExactness : public ::testing::TestWithParam<DType> {};

// A compressed catalog in either shape CatalogScorer serves: a bare
// item-major table, or a model output layer with a bias attached — whose
// index folds the bias in as the last lane, so queries carry a trailing
// 1.0 (exactly how ExecutionContext probes the plan's output scorer).
struct TestCatalog {
  QuantizedTensor table;
  std::vector<float> bias;  // empty for the bare table
  CatalogIndex index;

  TestCatalog(const Tensor& rows, DType dtype, bool with_bias,
              Index clusters) : table(quantize(rows, dtype)) {
    CatalogIndexConfig config;
    config.clusters = clusters;
    const Index items = rows.dim(0), dim = rows.dim(1);
    if (!with_bias) {
      index = build_catalog_index(table, config);
      return;
    }
    Rng rng(static_cast<std::uint64_t>(items * 31 + dim));
    std::vector<float> folded = dequantize_catalog_rows(
        make_span_src(table), items, dim);
    std::vector<float> lanes(static_cast<std::size_t>(items * (dim + 1)));
    for (Index j = 0; j < items; ++j) {
      bias.push_back(rng.uniform(-0.5f, 0.5f));
      std::copy(folded.begin() + j * dim, folded.begin() + (j + 1) * dim,
                lanes.begin() + j * (dim + 1));
      lanes[static_cast<std::size_t>(j * (dim + 1) + dim)] = bias.back();
    }
    index = build_catalog_index(lanes.data(), items, dim + 1, config);
  }

  CatalogScorer scorer(const KernelSet& kernels) const {
    return CatalogScorer(make_span_src(table), table.shape[0], table.shape[1],
                         table.payload.size(), kernels,
                         bias.empty() ? nullptr : bias.data());
  }
  std::vector<float> query(std::uint64_t seed) const {
    std::vector<float> q = random_query(table.shape[1], seed);
    if (!bias.empty()) {
      q.push_back(1.0f);
    }
    return q;
  }
};

// nprobe == num_clusters offers every item to the same bounded heap with
// the identical CatalogScorer::score — the result must be BIT-IDENTICAL to
// the exact scorer, for every dtype, both kernel families, and with or
// without the output layer's bias; the two families agree bit for bit too.
TEST_P(PrunedScanExactness, FullProbeBitIdenticalToExactScan) {
  const DType dtype = GetParam();
  const Index items = 120, dim = 16, k = 10;
  const Tensor rows = synthetic_catalog(items, dim, 77);
  for (const bool with_bias : {false, true}) {
    const TestCatalog catalog(rows, dtype, with_bias, 11);
    std::vector<std::vector<ScoredId>> scalar_rankings;
    for (const bool scalar : {true, false}) {
      const KernelSet& kernels = scalar ? scalar_kernels() : select_kernels();
      const std::string tag = std::string(kernels.name) +
                              (with_bias ? " biased" : " bare");
      const CatalogScorer exact = catalog.scorer(kernels);
      PrunedCatalogScorer pruned(exact, catalog.index);
      for (std::uint64_t q = 0; q < 6; ++q) {
        const std::vector<float> query = catalog.query(100 + q);
        const std::vector<ScoredId> want = exact.top_k(query.data(), k);
        const std::vector<ScoredId> got =
            pruned.top_k(query.data(), k, catalog.index.clusters);
        ASSERT_EQ(got.size(), want.size()) << tag << " q" << q;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << tag << " q" << q << " pos " << i;
          EXPECT_EQ(got[i].score, want[i].score)
              << tag << " q" << q << " pos " << i;
        }
        if (scalar) {
          scalar_rankings.push_back(want);
          continue;
        }
        const std::vector<ScoredId>& ref =
            scalar_rankings[static_cast<std::size_t>(q)];
        ASSERT_EQ(ref.size(), want.size()) << tag << " q" << q;
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_EQ(ref[i].id, want[i].id) << tag << " scalar q" << q;
          EXPECT_EQ(ref[i].score, want[i].score) << tag << " scalar q" << q;
        }
      }
    }
  }
}

// Partial probes return a SUBSET whose scores are bit-identical to the
// exact scan's scores for those ids, in a consistent best-first order —
// pruning may miss items, it may never alter a score.
TEST_P(PrunedScanExactness, PartialProbeScoresAreExactScores) {
  const DType dtype = GetParam();
  const Index items = 120, dim = 16, k = 10;
  const Tensor rows = synthetic_catalog(items, dim, 78);
  std::vector<float> all_scores(static_cast<std::size_t>(items));
  for (const bool with_bias : {false, true}) {
    const TestCatalog catalog(rows, dtype, with_bias, 11);
    for (const bool scalar : {true, false}) {
      const KernelSet& kernels = scalar ? scalar_kernels() : select_kernels();
      const std::string tag = std::string(kernels.name) +
                              (with_bias ? " biased" : " bare");
      const CatalogScorer exact = catalog.scorer(kernels);
      PrunedCatalogScorer pruned(exact, catalog.index);
      for (std::uint64_t q = 0; q < 4; ++q) {
        const std::vector<float> query = catalog.query(500 + q);
        exact.score_all(query.data(), all_scores.data());
        for (const Index nprobe : {1, 3, 6}) {
          const std::vector<ScoredId> got =
              pruned.top_k(query.data(), k, nprobe);
          EXPECT_LE(got.size(), static_cast<std::size_t>(k));
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].score,
                      all_scores[static_cast<std::size_t>(got[i].id)])
                << tag << " nprobe " << nprobe << " pos " << i;
            if (i > 0) {
              EXPECT_TRUE(topk_better(got[i - 1], got[i]))
                  << tag << " nprobe " << nprobe << " pos " << i;
            }
          }
        }
      }
    }
  }
}

TEST_P(PrunedScanExactness, ScanStatsAccountProbedClusters) {
  const DType dtype = GetParam();
  const Index items = 120, dim = 16;
  const Tensor rows = synthetic_catalog(items, dim, 79);
  const QuantizedTensor catalog = quantize(rows, dtype);
  CatalogIndexConfig config;
  config.clusters = 11;
  const CatalogIndex index = build_catalog_index(catalog, config);
  const KernelSet& kernels = select_kernels();
  CatalogScorer exact(catalog, kernels);
  PrunedCatalogScorer pruned(exact, index);
  const std::vector<float> query = random_query(dim, 321);
  std::uint64_t last_bytes = 0;
  Index last_rows = 0;
  for (const Index nprobe : {1, 4, 11}) {
    ScanStats stats;
    pruned.top_k(query.data(), 10, nprobe, &stats);
    EXPECT_EQ(stats.probed_clusters, nprobe);
    EXPECT_GT(stats.scanned_rows, last_rows);
    EXPECT_GT(stats.scanned_bytes, last_bytes);
    EXPECT_GE(stats.scanned_bytes, index.centroid_bytes());
    last_rows = stats.scanned_rows;
    last_bytes = stats.scanned_bytes;
  }
  // Full probe scans everything.
  EXPECT_EQ(last_rows, items);
  // Clamped: an oversized nprobe behaves as a full probe.
  ScanStats clamped;
  pruned.top_k(query.data(), 10, 999, &clamped);
  EXPECT_EQ(clamped.probed_clusters, index.clusters);
  EXPECT_EQ(clamped.scanned_rows, items);
}

// scanned_bytes is derived from row counts wherever every row spans the
// same stored bytes; the derivation must equal the per-row sum it replaces
// for every dtype, including the layouts where rows differ (odd-width i4,
// i4g rows that straddle scale groups) and the per-row path is kept.
TEST(PrunedScanAccounting, DerivedScanBytesEqualPerRowSum) {
  const Index items = 90;
  for (const DType dtype :
       {DType::kF32, DType::kF16, DType::kI8, DType::kI4, DType::kI4G}) {
    for (const Index dim : {15, 16, 48, 64}) {
      const std::string tag =
          std::string(dtype_name(dtype)) + " dim " + std::to_string(dim);
      const Tensor rows = synthetic_catalog(items, dim, 80 + dim);
      const QuantizedTensor catalog = quantize(rows, dtype);
      CatalogIndexConfig config;
      config.clusters = 7;
      const CatalogIndex index = build_catalog_index(catalog, config);
      const CatalogScorer exact(catalog, select_kernels());
      const PrunedCatalogScorer pruned(exact, index);
      std::uint64_t per_row = 0;
      for (Index j = 0; j < items; ++j) {
        per_row += span_scan_bytes(exact.src(), j * dim, dim);
      }
      const std::vector<float> query = random_query(dim, 7);
      ScanStats full;
      pruned.top_k(query.data(), 5, index.clusters, &full);
      EXPECT_EQ(full.scanned_bytes, index.centroid_bytes() + per_row) << tag;
      // A partial probe: the same equality over the probed rows only.
      const std::vector<ScoredId> probed = pruned.probe(query.data(), 2);
      std::uint64_t probed_rows = 0;
      for (const ScoredId& c : probed) {
        for (std::uint32_t pos = index.offsets[static_cast<std::size_t>(c.id)];
             pos < index.offsets[static_cast<std::size_t>(c.id) + 1]; ++pos) {
          probed_rows += span_scan_bytes(
              exact.src(), static_cast<Index>(index.perm[pos]) * dim, dim);
        }
      }
      ScanStats part;
      pruned.score_probed(query.data(), 5, probed, &part);
      EXPECT_EQ(part.scanned_bytes, index.centroid_bytes() + probed_rows)
          << tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDtypes, PrunedScanExactness,
                         ::testing::Values(DType::kF32, DType::kI8,
                                           DType::kI4G),
                         [](const ::testing::TestParamInfo<DType>& info) {
                           return std::string(dtype_name(info.param));
                         });

// --- .mcm v4 section round trip ---------------------------------------------

TEST_F(CatalogIndexFileTest, V4RoundTripAdoptsZeroCopy) {
  const std::string path = export_model("roundtrip", true, 6);
  const MmapModel model(path);
  EXPECT_EQ(model.format_version(), 4u);
  ASSERT_TRUE(model.has_index_section());
  EXPECT_GT(model.index_size(), 0u);

  const CatalogIndexDecodeResult decoded = decode_catalog_index(model);
  ASSERT_EQ(decoded.status, PlanStatus::kValid) << decoded.reason;
  const CatalogIndex& index = decoded.index;
  EXPECT_TRUE(index.zero_copy);
  EXPECT_TRUE(index.perm.zero_copy());
  EXPECT_TRUE(index.offsets.zero_copy());
  EXPECT_EQ(index.model_name, "cidx");
  EXPECT_EQ(index.model_version, 5u);
  EXPECT_EQ(index.items, 48);
  // Classification head: out.weight is [hidden, items] with hidden = e/2,
  // and the index folds the bias in as one extra lane.
  EXPECT_EQ(index.dim, 16 / 2 + 1);
  EXPECT_EQ(index.clusters, 6);

  // The adopted view must match an in-process rebuild byte-for-byte.
  const CatalogIndex rebuilt = build_catalog_index_for_model(
      model, CatalogIndexConfig{6, index.iterations, index.seed});
  EXPECT_EQ(serialize_catalog_index(rebuilt),
            std::vector<std::uint8_t>(
                model.index_data(), model.index_data() + model.index_size()));
}

TEST_F(CatalogIndexFileTest, IndexlessExportStaysPreV4) {
  const std::string path = export_model("no_index", false);
  const MmapModel model(path);
  EXPECT_LT(model.format_version(), 4u);
  EXPECT_FALSE(model.has_index_section());
  EXPECT_EQ(decode_catalog_index(model).status, PlanStatus::kAbsent);
  auto compiled = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(path));
  EXPECT_FALSE(compiled->has_catalog_index());
  EXPECT_EQ(compiled->index_fallback_reason(), "no catalog index section");
}

TEST_F(CatalogIndexFileTest, PlanAndIndexSectionsCoexist) {
  const std::string path = export_model("both", true, 6, DType::kI8, true);
  const MmapModel model(path);
  EXPECT_EQ(model.format_version(), 4u);
  EXPECT_TRUE(model.has_plan_section());
  EXPECT_TRUE(model.has_index_section());
  EXPECT_EQ(decode_plan(model).status, PlanStatus::kValid);
  EXPECT_EQ(decode_catalog_index(model).status, PlanStatus::kValid);

  // Index adoption is INDEPENDENT of plan policy: a kNeverAdopt compile
  // still serves the pruned scan.
  auto compiled = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(path), PlanPolicy::kNeverAdopt);
  EXPECT_FALSE(compiled->plan_adopted());
  EXPECT_TRUE(compiled->has_catalog_index());
}

// Serving-level anchor, through the plan's one output scorer: run_batch
// with every cluster probed is bit-identical to the exact ranked batch —
// ids AND scores — and a partial probe's scores are the exact logits of
// the ids it returns, for all three dtypes and both kernel families; the
// scalar and dispatched compiles rank identically.
TEST_F(CatalogIndexFileTest, ServingFullProbeBitIdenticalToExact) {
  const std::vector<std::vector<std::int32_t>> histories = {
      {1, 2, 3}, {}, {7, 7, 7, 7}, {42}};
  for (const DType dtype : {DType::kF32, DType::kI8, DType::kI4G}) {
    const std::string path = export_model(
        std::string("serve_") + dtype_name(dtype), true, 6, dtype);
    std::vector<std::vector<ScoredId>> scalar_topk;
    for (const bool scalar : {true, false}) {
      auto compiled = compile_with_family(path, scalar);
      ASSERT_TRUE(compiled->has_catalog_index())
          << compiled->index_fallback_reason();
      const std::string tag =
          std::string(dtype_name(dtype)) + "/" + compiled->kernel_name();
      ExecutionContext context(compiled, tflite_profile());
      std::vector<std::vector<ScoredId>> exact_topk, pruned_topk;
      const BatchResult exact = context.run_batch(histories, 8, &exact_topk);
      const std::vector<Index> nprobes(histories.size(),
                                       compiled->catalog_index().clusters);
      const BatchResult pruned =
          context.run_batch(histories, 8, &pruned_topk, &nprobes);
      ASSERT_EQ(exact_topk.size(), pruned_topk.size());
      for (std::size_t b = 0; b < exact_topk.size(); ++b) {
        ASSERT_EQ(exact_topk[b].size(), pruned_topk[b].size()) << b;
        for (std::size_t i = 0; i < exact_topk[b].size(); ++i) {
          EXPECT_EQ(exact_topk[b][i].id, pruned_topk[b][i].id)
              << tag << " row " << b << " pos " << i;
          EXPECT_EQ(exact_topk[b][i].score, pruned_topk[b][i].score)
              << tag << " row " << b << " pos " << i;
        }
      }
      // Full probe scans every row; the analytic byte accounting differs
      // from the exact blob accounting only by the centroid-table overhead.
      EXPECT_EQ(pruned.scanned_rows, pruned.catalog_rows);
      EXPECT_EQ(pruned.ranked_rows, static_cast<std::uint64_t>(4));
      EXPECT_GT(pruned.scanned_bytes, 0u);
      EXPECT_EQ(exact.scanned_rows, exact.catalog_rows);

      // Partial probes: every returned score is that id's exact logit.
      for (const Index nprobe : {1, 2}) {
        const std::vector<Index> partial(histories.size(), nprobe);
        std::vector<std::vector<ScoredId>> partial_topk;
        context.run_batch(histories, 8, &partial_topk, &partial);
        for (std::size_t b = 0; b < partial_topk.size(); ++b) {
          for (const ScoredId& hit : partial_topk[b]) {
            EXPECT_EQ(hit.score,
                      exact.logits.at2(static_cast<Index>(b), hit.id))
                << tag << " nprobe " << nprobe << " row " << b;
          }
        }
      }

      if (scalar) {
        scalar_topk = exact_topk;
        continue;
      }
      for (std::size_t b = 0; b < exact_topk.size(); ++b) {
        ASSERT_EQ(scalar_topk[b].size(), exact_topk[b].size()) << tag;
        for (std::size_t i = 0; i < exact_topk[b].size(); ++i) {
          EXPECT_EQ(scalar_topk[b][i].id, exact_topk[b][i].id) << tag;
          EXPECT_EQ(scalar_topk[b][i].score, exact_topk[b][i].score) << tag;
        }
      }
    }
  }
}

// The pruned scan meters only the out.weight rows and out.bias entries it
// reads: on a fresh context one request probing a single cell touches
// fewer weight pages than one exact request, and probing every cell
// touches exactly the exact scan's pages.
TEST_F(CatalogIndexFileTest, PrunedScanMetersOnlyTheRowsItReads) {
  // 1200 items of 32 f32 lanes (128 B rows, 32 per 4 KiB page) in 120
  // cells: one cell is ~10 rows, a few pages of a ~38-page catalog.
  const std::string path = export_model("meter", true, 120, DType::kF32,
                                        false, TechniqueKind::kMemcom,
                                        /*items=*/1200, /*embed_dim=*/64);
  auto compiled = std::make_shared<const CompiledModel>(
      std::make_shared<const MmapModel>(path));
  ASSERT_TRUE(compiled->has_catalog_index());
  const Index clusters = compiled->catalog_index().clusters;
  ASSERT_EQ(clusters, 120);
  const std::vector<std::vector<std::int32_t>> request = {{3, 17, 42}};
  auto pages_for = [&](Index nprobe) {
    ExecutionContext context(compiled, tflite_profile());
    std::vector<std::vector<ScoredId>> topk;
    const std::vector<Index> nprobes = {nprobe};
    context.run_batch(request, 10, &topk, nprobe > 0 ? &nprobes : nullptr);
    return context.meter().touched_pages();
  };
  const Index exact = pages_for(0);
  EXPECT_LT(pages_for(1), exact);
  EXPECT_EQ(pages_for(clusters), exact);
}

// A genuinely pruned serving drain: fewer rows scanned, counters consistent.
TEST_F(CatalogIndexFileTest, PrunedDrainReportsPrunedFraction) {
  const std::string path = export_model("pruned_drain", true, 8);
  const MmapModel model(path);
  std::vector<SessionEvent> events;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    for (std::int32_t i = 1; i <= 4; ++i) {
      events.push_back({s, static_cast<std::int32_t>(s * 7 + i)});
    }
  }
  AsyncServerConfig config;
  config.threads = 2;
  config.shards = 2;
  config.max_batch = 4;
  config.session_capacity = 16;
  config.nprobe = 2;  // 2 of 8 cells
  AsyncServer server(model, tflite_profile(), config);
  std::vector<std::vector<Index>> topk;
  const ServingReport report = server.serve_sessions(events, 5, &topk);
  EXPECT_EQ(report.session_requests, events.size());
  EXPECT_GT(report.catalog_rows, 0u);
  EXPECT_LT(report.scanned_rows, report.catalog_rows);
  EXPECT_GT(report.scanned_bytes, 0u);
  EXPECT_GT(report.pruned_fraction, 0.0);
  EXPECT_LT(report.pruned_fraction, 1.0);
  for (const auto& ids : topk) {
    EXPECT_EQ(ids.size(), 5u);
  }
  // A per-request nprobe override beats the config default: full probe
  // through the same server must match an exact-scan request exactly.
  auto full = server
                  .submit_next_item(AsyncServer::kDefaultModelId, 99, 3, 5,
                                    -1.0, /*nprobe=*/8)
                  .get();
  auto exact = server
                   .submit_next_item(AsyncServer::kDefaultModelId, 98, 3, 5,
                                     -1.0, /*nprobe=*/0)
                   .get();
  ASSERT_EQ(full.top_ids.size(), exact.top_ids.size());
  EXPECT_EQ(full.top_ids, exact.top_ids);
  EXPECT_EQ(full.top_scores, exact.top_scores);
}

// --- Hardening: every defect decodes kStale and serves exact ----------------

TEST_F(CatalogIndexFileTest, TruncatedSectionFallsBack) {
  const std::string path = export_model("trunc", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  // Shrink the DECLARED section size (header locator at byte 32: magic u32,
  // version u32, plan offset/size u64s, index offset u64) below the minimum
  // a section prefix needs — an in-bounds but truncated section.
  const std::uint64_t tiny = 16;
  std::memcpy(bytes.data() + 32, &tiny, 8);
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "truncated");
}

TEST_F(CatalogIndexFileTest, ChoppedFileFallsBack) {
  const std::string path = export_model("chop", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.resize(bytes.size() - 16);  // the section now runs past EOF
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "out of file bounds");
}

TEST_F(CatalogIndexFileTest, ChecksumFlipFallsBack) {
  const std::string path = export_model("checksum", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  {
    const MmapModel model(path);
    ASSERT_TRUE(model.has_index_section());
    // Flip one centroid byte mid-section; do NOT reseal.
    bytes[static_cast<std::size_t>(model.index_offset() +
                                   model.index_size() / 2)] ^= 0x5A;
  }
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "checksum mismatch");
}

TEST_F(CatalogIndexFileTest, HostileClusterCountFallsBack) {
  const std::string path = export_model("hostile", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    ASSERT_TRUE(model.has_index_section());
    offset = model.index_offset();
    size = model.index_size();
  }
  // The clusters i64 lives after the 16-byte prefix, the model_name string
  // (u64 length + "cidx"), the version u64, and items/dim i64s.
  const std::uint64_t clusters_at = offset + 16 + 8 + 4 + 8 + 8 + 8;
  const std::int64_t hostile = 1'000'000'000;  // far beyond items
  std::memcpy(bytes.data() + clusters_at, &hostile, 8);
  reseal_index(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "cluster count out of range");
}

TEST_F(CatalogIndexFileTest, CorruptedPermutationFallsBack) {
  const std::string path = export_model("perm", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    ASSERT_TRUE(model.has_index_section());
    offset = model.index_offset();
    size = model.index_size();
    const CatalogIndexDecodeResult decoded = decode_catalog_index(model);
    ASSERT_EQ(decoded.status, PlanStatus::kValid);
    // Duplicate the first permutation entry over the second — still
    // in-bounds ids, no longer a permutation.
    const std::uint8_t* perm_bytes =
        reinterpret_cast<const std::uint8_t*>(decoded.index.perm.data());
    const std::uint64_t perm_at =
        offset + static_cast<std::uint64_t>(perm_bytes - model.index_data());
    std::memcpy(bytes.data() + perm_at + 4, bytes.data() + perm_at, 4);
  }
  reseal_index(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "not a permutation");
}

TEST_F(CatalogIndexFileTest, IdentitySkewFallsBack) {
  const std::string path = export_model("skew", true, 6);
  std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t offset = 0, size = 0;
  {
    const MmapModel model(path);
    ASSERT_TRUE(model.has_index_section());
    offset = model.index_offset();
    size = model.index_size();
  }
  // model_version u64 sits after the prefix and the name string.
  const std::uint64_t version_at = offset + 16 + 8 + 4;
  const std::uint64_t wrong = 999;
  std::memcpy(bytes.data() + version_at, &wrong, 8);
  reseal_index(bytes, offset, size);
  write_file(path, bytes);
  expect_stale_exact_fallback(path, "model_version skew");
}

}  // namespace
}  // namespace memcom
