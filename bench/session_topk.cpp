// Session top-k catalog-scan benchmark: the full-catalog scoring step of
// session-based next-item serving, isolated from the serving pipeline.
//
// An item-major [items, dim] catalog is exported at each precision rung
// (f32 / f16 / i8 / i4 / i4g) and scanned IN COMPRESSED FORM by
// CatalogScorer through the dispatched dot_span kernel. Per rung the bench
// records, against the f32 full-sort reference:
//   * recall@k        — fraction of the reference top-k ids the compressed
//                       scan recovers (ranking loss from quantization; the
//                       scan itself is deterministic);
//   * scan latency    — per-query wall time of score-all + bounded-heap
//                       top-k (p50/p95/mean over the query set);
//   * catalog bytes   — the compressed payload the scan touches per query
//                       (the "catalog residency" compression target).
//
// A second phase sweeps the clustered PRUNED scan per rung: a deterministic
// k-means index over the rung's compressed catalog, probed at increasing
// nprobe, recording recall@k against the SAME rung's exact scan plus the
// compressed bytes actually touched — the recall-vs-bytes-scanned frontier
// that picks an operating point (nprobe == clusters reproduces the exact
// scan bit-for-bit, so the frontier always ends at recall 1.0).
//
//   ./bench_session_topk                 # default scale
//   ./bench_session_topk --smoke         # tiny catalog, few queries
//   ./bench_session_topk --items 100000 --dim 64 --queries 256 --topk 20
//   ./bench_session_topk --clusters 256  # pruned-phase cell count
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "core/flags.h"
#include "core/rng.h"
#include "core/table.h"
#include "ondevice/catalog_index.h"
#include "ondevice/clock.h"
#include "ondevice/kernels.h"
#include "ondevice/quantize.h"
#include "ondevice/topk.h"

using namespace memcom;

namespace {

struct RungResult {
  std::string dtype;
  double recall_at_k = 0;
  LatencyStats scan;
  std::size_t resident_bytes = 0;
  double bytes_ratio_vs_f32 = 0;
};

// One point on the pruned frontier: a (dtype, nprobe) operating point with
// its recall against the same rung's exact scan and the fraction of the
// compressed catalog it actually read.
struct PrunedResult {
  std::string dtype;
  Index clusters = 0;
  Index nprobe = 0;
  double recall_at_k = 0;
  LatencyStats scan;
  double mean_scanned_bytes = 0;
  double bytes_fraction = 0;
};

double intersection_recall(const std::vector<ScoredId>& got,
                           const std::vector<ScoredId>& want) {
  if (want.empty()) {
    return 1.0;
  }
  std::size_t hits = 0;
  for (const ScoredId& w : want) {
    for (const ScoredId& g : got) {
      if (g.id == w.id) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(want.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  const Index items = flags.get_int("items", smoke ? 2000 : 50000);
  const Index dim = flags.get_int("dim", smoke ? 16 : 64);
  const int queries = static_cast<int>(flags.get_int("queries", smoke ? 32 : 128));
  const Index k = flags.get_int("topk", 10);
  const Index clusters = flags.get_int("clusters", smoke ? 32 : 256);
  const std::string json_path =
      flags.get_string("out", "BENCH_session_topk.json");

  std::cout << "session top-k catalog scan: items=" << items << " dim=" << dim
            << " queries=" << queries << " k=" << k << " clusters=" << clusters
            << " kernels=" << select_kernels().name << "\n\n";

  // Anchored mixture rather than pure isotropic noise: real item-embedding
  // catalogs are clustered (genre/brand/popularity structure), and that
  // locality is exactly what the pruned phase's k-means exploits. --anchors 0
  // falls back to the isotropic catalog.
  const Index anchors = flags.get_int("anchors", 64);
  Rng rng(4242);
  Tensor catalog_f32 = Tensor::randn({items, dim}, rng, 0.3f);
  if (anchors > 0) {
    const Tensor anchor_table = Tensor::randn({anchors, dim}, rng, 1.0f);
    for (Index i = 0; i < items; ++i) {
      const float* a = anchor_table.data() +
                       static_cast<std::size_t>(i % anchors) * dim;
      float* row = catalog_f32.data() + static_cast<std::size_t>(i) * dim;
      for (Index d = 0; d < dim; ++d) {
        row[d] += a[d];
      }
    }
  }
  std::vector<std::vector<float>> query_vecs;
  query_vecs.reserve(static_cast<std::size_t>(queries));
  for (int q = 0; q < queries; ++q) {
    std::vector<float> v(static_cast<std::size_t>(dim));
    for (float& x : v) {
      x = rng.uniform(-1.0f, 1.0f);
    }
    query_vecs.push_back(std::move(v));
  }

  // f32 reference rankings (scalar kernels: the contract family).
  const QuantizedTensor ref_catalog = quantize(catalog_f32, DType::kF32);
  const CatalogScorer reference(ref_catalog, scalar_kernels());
  std::vector<std::vector<ScoredId>> ref_topk;
  ref_topk.reserve(query_vecs.size());
  for (const auto& q : query_vecs) {
    ref_topk.push_back(reference.top_k(q.data(), k));
  }

  struct Rung {
    const char* label;
    DType dtype;
    Index group_size;
  };
  const std::vector<Rung> rungs = {
      {"f32", DType::kF32, 0},  {"f16", DType::kF16, 0},
      {"i8", DType::kI8, 0},    {"i4", DType::kI4, 0},
      {"i4g", DType::kI4G, kI4GroupDefault},
  };

  TextTable table({"dtype", "recall@k", "scan p50 ms", "scan p95 ms",
                   "mean ms", "catalog MB", "vs f32"});
  std::vector<RungResult> results;
  std::vector<PrunedResult> pruned_results;
  std::size_t f32_bytes = 0;
  for (const Rung& rung : rungs) {
    const QuantizedTensor q = quantize(catalog_f32, rung.dtype,
                                       rung.group_size);
    const CatalogScorer scorer(q, select_kernels());
    RungResult result;
    result.dtype = rung.label;
    result.resident_bytes = scorer.resident_bytes();
    if (rung.dtype == DType::kF32) {
      f32_bytes = result.resident_bytes;
    }
    result.bytes_ratio_vs_f32 =
        f32_bytes > 0 ? static_cast<double>(result.resident_bytes) /
                            static_cast<double>(f32_bytes)
                      : 1.0;

    // Warm pass (page the catalog in), then the measured per-query scans.
    // The rung's exact top-k lists double as the pruned phase's reference.
    (void)scorer.top_k(query_vecs.front().data(), k);
    std::vector<double> samples;
    samples.reserve(query_vecs.size());
    double recall_sum = 0;
    std::vector<std::vector<ScoredId>> rung_topk;
    rung_topk.reserve(query_vecs.size());
    for (std::size_t i = 0; i < query_vecs.size(); ++i) {
      const auto start = std::chrono::steady_clock::now();
      std::vector<ScoredId> top = scorer.top_k(query_vecs[i].data(), k);
      samples.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count());
      recall_sum += intersection_recall(top, ref_topk[i]);
      rung_topk.push_back(std::move(top));
    }
    result.scan = latency_stats_from_samples(std::move(samples));
    result.recall_at_k = recall_sum / static_cast<double>(query_vecs.size());
    results.push_back(result);

    table.add_row({result.dtype, format_float(result.recall_at_k, 4),
                   format_float(result.scan.p50_ms, 4),
                   format_float(result.scan.p95_ms, 4),
                   format_float(result.scan.mean_ms, 4),
                   format_float(static_cast<double>(result.resident_bytes) /
                                    (1024.0 * 1024.0),
                                3),
                   format_float(result.bytes_ratio_vs_f32, 3)});

    // Pruned frontier for this rung: one deterministic index over the
    // rung's own compressed rows, probed at a geometric nprobe sweep.
    CatalogIndexConfig index_config;
    index_config.clusters = std::min(clusters, items);
    const CatalogIndex index = build_catalog_index(q, index_config);
    const PrunedCatalogScorer pruned_scorer(scorer, index);
    std::vector<Index> sweep;
    for (const Index np :
         {Index{1}, index.clusters / 64, index.clusters / 32,
          index.clusters / 16, index.clusters / 8, index.clusters * 3 / 16,
          index.clusters / 4, index.clusters / 2, index.clusters}) {
      if (np >= 1 && (sweep.empty() || np > sweep.back())) {
        sweep.push_back(np);
      }
    }
    for (const Index np : sweep) {
      (void)pruned_scorer.top_k(query_vecs.front().data(), k, np);
      PrunedResult point;
      point.dtype = rung.label;
      point.clusters = index.clusters;
      point.nprobe = np;
      std::vector<double> pruned_samples;
      pruned_samples.reserve(query_vecs.size());
      double pruned_recall_sum = 0;
      std::uint64_t bytes_sum = 0;
      for (std::size_t i = 0; i < query_vecs.size(); ++i) {
        ScanStats stats;
        const auto start = std::chrono::steady_clock::now();
        const std::vector<ScoredId> top =
            pruned_scorer.top_k(query_vecs[i].data(), k, np, &stats);
        pruned_samples.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count());
        pruned_recall_sum += intersection_recall(top, rung_topk[i]);
        bytes_sum += stats.scanned_bytes;
      }
      point.scan = latency_stats_from_samples(std::move(pruned_samples));
      point.recall_at_k =
          pruned_recall_sum / static_cast<double>(query_vecs.size());
      point.mean_scanned_bytes = static_cast<double>(bytes_sum) /
                                 static_cast<double>(query_vecs.size());
      point.bytes_fraction =
          point.mean_scanned_bytes /
          static_cast<double>(result.resident_bytes);
      pruned_results.push_back(point);
    }
  }

  std::cout << table.to_string();

  TextTable pruned_table({"dtype", "nprobe", "recall@k", "scan p50 ms",
                          "mean ms", "scan KB/query", "% of catalog"});
  for (const PrunedResult& p : pruned_results) {
    pruned_table.add_row(
        {p.dtype, std::to_string(p.nprobe), format_float(p.recall_at_k, 4),
         format_float(p.scan.p50_ms, 4), format_float(p.scan.mean_ms, 4),
         format_float(p.mean_scanned_bytes / 1024.0, 1),
         format_float(p.bytes_fraction * 100.0, 1)});
  }
  std::cout << "\nclustered pruned scan (" << clusters
            << " clusters, recall vs same-rung exact scan):\n"
            << pruned_table.to_string();

  std::ofstream out(json_path, std::ios::trunc);
  out << "{\n  \"items\": " << items << ",\n  \"dim\": " << dim
      << ",\n  \"queries\": " << queries << ",\n  \"k\": " << k
      << ",\n  \"clusters\": " << clusters << ",\n  \"kernels\": \""
      << select_kernels().name << "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RungResult& r = results[i];
    out << "    {\"dtype\": \"" << r.dtype << "\", "
        << "\"recall_at_k\": " << r.recall_at_k << ", "
        << "\"scan_p50_ms\": " << r.scan.p50_ms << ", "
        << "\"scan_p95_ms\": " << r.scan.p95_ms << ", "
        << "\"scan_mean_ms\": " << r.scan.mean_ms << ", "
        << "\"catalog_bytes\": " << r.resident_bytes << ", "
        << "\"bytes_ratio_vs_f32\": " << r.bytes_ratio_vs_f32 << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"pruned\": [\n";
  for (std::size_t i = 0; i < pruned_results.size(); ++i) {
    const PrunedResult& p = pruned_results[i];
    out << "    {\"dtype\": \"" << p.dtype << "\", "
        << "\"clusters\": " << p.clusters << ", "
        << "\"nprobe\": " << p.nprobe << ", "
        << "\"recall_at_k\": " << p.recall_at_k << ", "
        << "\"scan_p50_ms\": " << p.scan.p50_ms << ", "
        << "\"scan_mean_ms\": " << p.scan.mean_ms << ", "
        << "\"mean_scanned_bytes\": " << p.mean_scanned_bytes << ", "
        << "\"bytes_fraction\": " << p.bytes_fraction << "}"
        << (i + 1 < pruned_results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
