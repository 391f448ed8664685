// Serving throughput benchmark: closed-loop batch-1 drain (ServingHarness)
// vs the open-loop async micro-batching pipeline (AsyncServer), per
// compression technique, with a micro-batch-size sweep and hot-row cache
// hit rates.
//
// Two QPS figures per row:
//   * qps          — real wall clock of the drain (bounded by host cores
//                    and, for paced runs, by the offered arrival rate);
//   * modeled_qps  — simulated-device throughput from the contexts' modeled
//                    per-forward latency (compute + per-op dispatch). This
//                    is where micro-batching wins: a micro-batch of B pays
//                    the dispatch overhead once instead of B times.
//
// Unlike micro_lookup/micro_ops this does not need Google Benchmark — it is
// a plain binary driven by core/flags.h, so it builds everywhere the runtime
// does. Besides the human-readable tables it writes a machine-readable
// BENCH_serving.json for CI trend tracking.
//
//   ./bench_serving_throughput                  # default scale
//   ./bench_serving_throughput --smoke          # tiny model, few iterations
//   ./bench_serving_throughput --threads 8 --requests 512 --repeat 16
//       --arrival-qps 20000 --cache-kb 128 --max-delay-us 200  (one line)
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "core/flags.h"
#include "core/rng.h"
#include "core/sampling.h"
#include "core/table.h"
#include "ondevice/catalog_index.h"
#include "ondevice/clock.h"
#include "ondevice/execution_context.h"
#include "ondevice/plan.h"
#include "ondevice/quantize.h"
#include "ondevice/registry.h"
#include "ondevice/serving.h"
#include "repro/model.h"

using namespace memcom;

namespace {

struct ResultRow {
  std::string technique;
  std::string mode;  // "closed" | "async" | "multi" | "residency" | "sched"
  std::string dtype = "f32";
  int threads = 0;
  int shards = 0;            // scheduler shards (0 for closed-loop rows)
  Index max_batch = 1;       // micro-batch bound (1 for closed-loop)
  double offered_qps = 0;    // open-loop arrival rate (0 = unthrottled)
  double qps = 0;            // real wall-clock throughput
  double modeled_qps = 0;    // simulated-device throughput
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, mean_ms = 0;
  double queue_wait_p50_ms = 0, queue_wait_p95_ms = 0;
  double service_p50_ms = 0, service_p95_ms = 0;
  double mean_batch = 0;
  double cache_hit_rate = 0;
  double resident_mb = 0;
  // Deadline / admission-control accounting (0 outside the async pipeline).
  double shed_rate = 0;
  double deadline_miss_rate = 0;
  double goodput_qps = 0;  // deadline-met completions per wall second
  std::uint64_t late_arrivals = 0;
  // Session serving slice (0 outside "session" rows).
  Index top_k = 0;
  Index active_sessions = 0;
  std::uint64_t session_evictions = 0;
  // Clustered pruned-scan slice (0 when ranking scans the full catalog).
  Index nprobe = 0;
  double pruned_fraction = 0;
  std::uint64_t scanned_bytes = 0;
  // Cold-start slice (0 outside "cold" rows): load -> first-inference
  // phases, p50/p95 over repeated boots.
  bool plan_adopted = false;
  double mmap_p50_ms = 0;
  double validate_p50_ms = 0;
  double adopt_or_compile_p50_ms = 0;
  double adopt_or_compile_p95_ms = 0;
  double first_infer_p50_ms = 0;
  double total_p50_ms = 0;
  double total_p95_ms = 0;
};

ResultRow make_row(const std::string& technique, const std::string& mode,
                   Index max_batch, double offered_qps,
                   const ServingReport& report, double resident_mb) {
  ResultRow row;
  row.technique = technique;
  row.mode = mode;
  row.threads = report.threads;
  row.shards = report.shards;
  row.max_batch = max_batch;
  row.offered_qps = offered_qps;
  row.qps = report.qps;
  row.modeled_qps = report.modeled_qps;
  row.shed_rate = report.shed_rate;
  row.deadline_miss_rate = report.deadline_miss_rate;
  row.goodput_qps = report.goodput_qps;
  row.late_arrivals = report.late_arrivals;
  row.p50_ms = report.latency.p50_ms;
  row.p95_ms = report.latency.p95_ms;
  row.p99_ms = report.latency.p99_ms;
  row.mean_ms = report.latency.mean_ms;
  row.queue_wait_p50_ms = report.queue_wait.p50_ms;
  row.queue_wait_p95_ms = report.queue_wait.p95_ms;
  row.service_p50_ms = report.service.p50_ms;
  row.service_p95_ms = report.service.p95_ms;
  row.mean_batch = report.mean_batch;
  row.cache_hit_rate = report.cache.hit_rate();
  row.resident_mb = resident_mb;
  return row;
}

void write_json(const std::string& path, unsigned hardware_threads,
                const std::vector<ResultRow>& rows) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"hardware_threads\": " << hardware_threads
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ResultRow& r = rows[i];
    out << "    {\"technique\": \"" << r.technique << "\", "
        << "\"mode\": \"" << r.mode << "\", "
        << "\"dtype\": \"" << r.dtype << "\", "
        << "\"threads\": " << r.threads << ", "
        << "\"shards\": " << r.shards << ", "
        << "\"max_batch\": " << r.max_batch << ", "
        << "\"offered_qps\": " << r.offered_qps << ", "
        << "\"qps\": " << r.qps << ", "
        << "\"modeled_qps\": " << r.modeled_qps << ", "
        << "\"p50_ms\": " << r.p50_ms << ", "
        << "\"p95_ms\": " << r.p95_ms << ", "
        << "\"p99_ms\": " << r.p99_ms << ", "
        << "\"mean_ms\": " << r.mean_ms << ", "
        << "\"queue_wait_p50_ms\": " << r.queue_wait_p50_ms << ", "
        << "\"queue_wait_p95_ms\": " << r.queue_wait_p95_ms << ", "
        << "\"service_p50_ms\": " << r.service_p50_ms << ", "
        << "\"service_p95_ms\": " << r.service_p95_ms << ", "
        << "\"mean_batch\": " << r.mean_batch << ", "
        << "\"cache_hit_rate\": " << r.cache_hit_rate << ", "
        << "\"shed_rate\": " << r.shed_rate << ", "
        << "\"deadline_miss_rate\": " << r.deadline_miss_rate << ", "
        << "\"goodput_qps\": " << r.goodput_qps << ", "
        << "\"late_arrivals\": " << r.late_arrivals << ", "
        << "\"top_k\": " << r.top_k << ", "
        << "\"active_sessions\": " << r.active_sessions << ", "
        << "\"session_evictions\": " << r.session_evictions << ", "
        << "\"nprobe\": " << r.nprobe << ", "
        << "\"pruned_fraction\": " << r.pruned_fraction << ", "
        << "\"scanned_bytes\": " << r.scanned_bytes << ", "
        << "\"plan_adopted\": " << (r.plan_adopted ? "true" : "false") << ", "
        << "\"mmap_p50_ms\": " << r.mmap_p50_ms << ", "
        << "\"validate_p50_ms\": " << r.validate_p50_ms << ", "
        << "\"adopt_or_compile_p50_ms\": " << r.adopt_or_compile_p50_ms
        << ", "
        << "\"adopt_or_compile_p95_ms\": " << r.adopt_or_compile_p95_ms
        << ", "
        << "\"first_infer_p50_ms\": " << r.first_infer_p50_ms << ", "
        << "\"total_p50_ms\": " << r.total_p50_ms << ", "
        << "\"total_p95_ms\": " << r.total_p95_ms << ", "
        << "\"resident_mb\": " << r.resident_mb << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  const Index vocab = flags.get_int("vocab", smoke ? 2000 : 50000);
  const Index embed_dim = flags.get_int("embed-dim", smoke ? 32 : 128);
  const Index seq_len = flags.get_int("seq-len", smoke ? 16 : 64);
  const Index hash = flags.get_int("hash", std::max<Index>(8, vocab / 16));
  const int max_threads =
      static_cast<int>(flags.get_int("threads", smoke ? 2 : 4));
  const int request_count =
      static_cast<int>(flags.get_int("requests", smoke ? 64 : 256));
  const int repeat = static_cast<int>(flags.get_int("repeat", smoke ? 4 : 8));
  const double arrival_qps = flags.get_double("arrival-qps", 0.0);
  const double max_delay_us = flags.get_double("max-delay-us", 200.0);
  // SLO for the scheduler shoot-out section (enqueue -> completion budget).
  const double deadline_us = flags.get_double("deadline-us", 2000.0);
  const Index cache_kb = flags.get_int("cache-kb", smoke ? 64 : 256);
  const std::string json_path =
      flags.get_string("out", "BENCH_serving.json");

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::cout << "serving throughput: vocab=" << vocab << " e=" << embed_dim
            << " hash=" << hash << " L=" << seq_len
            << " requests=" << request_count << " repeat=" << repeat
            << " threads=1.." << max_threads << " cache=" << cache_kb
            << "KiB arrival=" << (arrival_qps > 0 ? arrival_qps : 0)
            << "qps (hardware threads: " << hw_threads << ")\n";
  if (hw_threads < static_cast<unsigned>(max_threads)) {
    std::cout << "NOTE: only " << hw_threads << " hardware thread(s) visible;"
              << " real wall-clock QPS cannot scale with threads here —"
              << " compare modeled_qps for the simulated-device story.\n";
  }
  std::cout << "\n";

  // A realistic request mix: random histories with a padded tail.
  Rng rng(7);
  std::vector<std::vector<std::int32_t>> requests;
  requests.reserve(static_cast<std::size_t>(request_count));
  for (int i = 0; i < request_count; ++i) {
    std::vector<std::int32_t> history(static_cast<std::size_t>(seq_len), 0);
    const Index real = seq_len - static_cast<Index>(rng.uniform_index(
                                     static_cast<Index>(seq_len / 4 + 1)));
    for (Index t = 0; t < real; ++t) {
      history[static_cast<std::size_t>(t)] =
          static_cast<std::int32_t>(1 + rng.uniform_index(vocab - 1));
    }
    requests.push_back(std::move(history));
  }

  TextTable closed_table({"technique", "threads", "qps", "modeled qps",
                          "p50 ms", "p95 ms", "p99 ms", "resident MB"});
  TextTable async_table({"technique", "batch<=", "offered", "qps",
                         "modeled qps", "p50 ms", "wait p95", "svc p95",
                         "mean batch", "hit%", "resident MB"});
  std::vector<ResultRow> rows;

  for (const TechniqueKind kind :
       {TechniqueKind::kMemcom, TechniqueKind::kQrMult,
        TechniqueKind::kNaiveHash}) {
    ModelConfig config;
    config.embedding = {kind, vocab, embed_dim, hash};
    config.arch = ModelArch::kClassification;
    config.output_vocab = smoke ? 32 : 256;
    config.seed = 99;
    RecModel model(config);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("serving_" + std::string(technique_name(kind)) + ".mcm"))
            .string();
    model.export_mcm(path, DType::kF32);
    const MmapModel mapped(path);

    // --- Closed-loop baseline (batch-1 atomic-cursor drain) --------------
    double closed_modeled_qps = 0.0;
    std::vector<int> thread_counts = {1};
    if (max_threads > 1) {
      thread_counts.push_back(max_threads);
    }
    for (const int threads : thread_counts) {
      ServingHarness harness(mapped, tflite_profile(), threads);
      // Warm the page cache / branch predictors before measuring.
      harness.serve(requests, 1);
      const ServingReport report = harness.serve(requests, repeat);
      if (threads == max_threads) {
        closed_modeled_qps = report.modeled_qps;
      }
      const ResultRow row =
          make_row(technique_name(kind), "closed", 1, 0.0, report,
                   harness.max_resident_megabytes());
      rows.push_back(row);
      closed_table.add_row(
          {row.technique, std::to_string(threads), format_float(row.qps, 0),
           format_float(row.modeled_qps, 0), format_float(row.p50_ms, 4),
           format_float(row.p95_ms, 4), format_float(row.p99_ms, 4),
           format_float(row.resident_mb, 2)});
    }

    // --- Async micro-batching sweep --------------------------------------
    for (const Index max_batch : {Index{1}, Index{8}, Index{32}}) {
      AsyncServerConfig server_config;
      server_config.threads = max_threads;
      server_config.max_batch = max_batch;
      server_config.max_delay_us = max_delay_us;
      server_config.queue_capacity =
          static_cast<std::size_t>(std::max<Index>(64, max_batch * 8));
      server_config.cache_budget_bytes =
          static_cast<std::size_t>(cache_kb) * 1024;
      AsyncServer server(mapped, tflite_profile(), server_config);
      server.serve(requests, 1);  // warm-up (also warms the row cache)
      const ServingReport report =
          server.serve(requests, repeat, arrival_qps);
      const ResultRow row =
          make_row(technique_name(kind), "async", max_batch, arrival_qps,
                   report, server.max_resident_megabytes());
      rows.push_back(row);
      async_table.add_row(
          {row.technique, std::to_string(max_batch),
           arrival_qps > 0 ? format_float(arrival_qps, 0) : "max",
           format_float(row.qps, 0), format_float(row.modeled_qps, 0),
           format_float(row.p50_ms, 4),
           format_float(row.queue_wait_p95_ms, 4),
           format_float(row.service_p95_ms, 4),
           format_float(row.mean_batch, 1),
           format_float(row.cache_hit_rate * 100.0, 1),
           format_float(row.resident_mb, 2)});
      if (max_batch >= 8 && closed_modeled_qps > 0.0) {
        std::cout << "[" << technique_name(kind) << "] async batch<="
                  << max_batch << " vs closed-loop batch-1 (both "
                  << max_threads << " threads): modeled "
                  << format_float(report.modeled_qps / closed_modeled_qps, 2)
                  << "x\n";
      }
    }
    std::filesystem::remove(path);
  }

  // --- Multi-tenant: two models behind ONE AsyncServer, interleaved ------
  // traffic routed per request through the ModelRegistry; the JSON gains a
  // "multi" row per model with its modeled QPS so CI tracks multi-tenant
  // throughput alongside the single-model sweeps.
  TextTable multi_table({"model", "requests", "modeled qps", "p50 ms",
                         "hit%"});
  {
    ModelRegistry registry;
    std::vector<std::string> ids;
    std::vector<std::string> model_paths;
    for (const TechniqueKind kind :
         {TechniqueKind::kMemcom, TechniqueKind::kQrMult}) {
      ModelConfig config;
      config.embedding = {kind, vocab, embed_dim, hash};
      config.arch = ModelArch::kClassification;
      config.output_vocab = smoke ? 32 : 256;
      config.seed = 423;
      RecModel model(config);
      const std::string id = technique_name(kind);
      const std::string path =
          (std::filesystem::temp_directory_path() /
           ("serving_multi_" + id + ".mcm"))
              .string();
      model.export_mcm(path, DType::kF32, "serving_" + id, 1);
      registry.load(id, path);
      ids.push_back(id);
      model_paths.push_back(path);
    }

    std::vector<RoutedRequest> routed;
    routed.reserve(requests.size() * ids.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      for (const std::string& id : ids) {
        routed.push_back(RoutedRequest{id, requests[i]});
      }
    }

    AsyncServerConfig server_config;
    server_config.threads = max_threads;
    server_config.max_batch = 8;
    server_config.max_delay_us = max_delay_us;
    server_config.queue_capacity = 128;
    server_config.cache_budget_bytes =
        static_cast<std::size_t>(cache_kb) * 1024;
    AsyncServer server(registry, ids.front(), tflite_profile(),
                       server_config);
    server.serve(routed, 1, 0.0);  // warm-up
    const ServingReport report = server.serve(routed, repeat, arrival_qps);
    for (const ModelReport& model : report.per_model) {
      ResultRow row;
      row.technique = model.model_id;
      row.mode = "multi";
      row.threads = report.threads;
      row.max_batch = 8;
      row.offered_qps = arrival_qps;
      // Per-model wall share of the drain; the modeled figure is the
      // per-model simulated-device throughput.
      row.qps = report.wall_ms > 0.0
                    ? static_cast<double>(model.requests) /
                          (report.wall_ms / 1000.0)
                    : 0.0;
      row.modeled_qps = model.modeled_qps;
      row.p50_ms = model.latency.p50_ms;
      row.p95_ms = model.latency.p95_ms;
      row.p99_ms = model.latency.p99_ms;
      row.mean_ms = model.latency.mean_ms;
      // Per-model figures, not whole-server ones: trend tooling reading a
      // model's row must see THAT tenant's batching and footprint.
      row.mean_batch = model.mean_batch;
      row.cache_hit_rate = model.cache.hit_rate();
      row.resident_mb = model.resident_mb;
      rows.push_back(row);
      multi_table.add_row(
          {model.model_id, std::to_string(model.requests),
           format_float(model.modeled_qps, 0),
           format_float(model.latency.p50_ms, 4),
           model.cache.enabled
               ? format_float(model.cache.hit_rate() * 100.0, 1)
               : "off"});
    }
    for (const std::string& path : model_paths) {
      std::filesystem::remove(path);
    }
  }

  // --- Scheduler shoot-out: single queue vs sharded vs sharded+SLO -------
  // Four tenants with a SKEWED mix (half the traffic on one model) behind
  // the same worker pool, all offered the SAME overload (1.5x the measured
  // single-queue capacity, absolute-timestamp pacing). Three schedulers:
  //   single       — shards=1, the PR-3 configuration (one global queue);
  //   sharded      — shards=threads, work stealing, no deadlines;
  //   sharded+slo  — sharded plus deadline_us + SLO flush + shedding.
  // The story BENCH_serving.json tracks: sharding cuts queue wait at equal
  // offered load, and admission control converts unbounded queueing into
  // bounded-latency goodput (shed% up, wait p95 and miss% down).
  TextTable sched_table({"scheduler", "shards", "offered", "qps", "goodput",
                         "wait p50 ms", "wait p95 ms", "shed%", "miss%",
                         "steals", "late"});
  {
    ModelRegistry registry;
    std::vector<std::string> ids;
    std::vector<std::string> model_paths;
    const int tenant_count = std::max(2, std::min(4, max_threads));
    for (int m = 0; m < tenant_count; ++m) {
      ModelConfig config;
      config.embedding = {TechniqueKind::kMemcom, vocab, embed_dim, hash};
      config.arch = ModelArch::kClassification;
      config.output_vocab = smoke ? 32 : 256;
      config.seed = 500 + m;
      RecModel model(config);
      const std::string id = "tenant" + std::to_string(m);
      const std::string path =
          (std::filesystem::temp_directory_path() /
           ("serving_sched_" + id + ".mcm"))
              .string();
      model.export_mcm(path, DType::kF32, "sched_" + id, 1);
      registry.load(id, path);
      ids.push_back(id);
      model_paths.push_back(path);
    }

    // Skewed mix: tenant0 takes half of all requests, the rest split the
    // other half — the shape that strands capacity without work stealing.
    std::vector<RoutedRequest> routed;
    routed.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::size_t tenant =
          i % 2 == 0 ? 0 : 1 + (i / 2) % (ids.size() - 1);
      routed.push_back(RoutedRequest{ids[tenant], requests[i]});
    }

    struct SchedVariant {
      const char* label;
      int shards;
      double deadline_us;
      bool shed;
    };
    const std::vector<SchedVariant> variants = {
        {"single", 1, 0.0, false},
        {"sharded", max_threads, 0.0, false},
        {"sharded+slo", max_threads, deadline_us, true},
    };
    const auto make_server_config = [&](const SchedVariant& v) {
      AsyncServerConfig server_config;
      server_config.threads = max_threads;
      server_config.shards = v.shards;
      server_config.max_batch = 8;
      server_config.max_delay_us = max_delay_us;
      server_config.deadline_us = v.deadline_us;
      server_config.shed = v.shed;
      server_config.queue_capacity = 256;
      server_config.cache_budget_bytes =
          static_cast<std::size_t>(cache_kb) * 1024;
      return server_config;
    };

    // Calibrate: an unthrottled single-queue drain measures capacity; every
    // variant is then offered 1.5x of it so the comparison is overload at
    // EQUAL offered load, not three different workloads.
    double offered = arrival_qps;
    if (offered <= 0.0) {
      AsyncServer calib(registry, ids.front(), tflite_profile(),
                        make_server_config(variants.front()));
      calib.serve(routed, 1, 0.0);  // warm-up
      const ServingReport base = calib.serve(routed, repeat, 0.0);
      offered = base.qps * 1.5;
    }

    for (const SchedVariant& v : variants) {
      AsyncServer server(registry, ids.front(), tflite_profile(),
                         make_server_config(v));
      server.serve(routed, 1, 0.0);  // warm-up
      const ServingReport report = server.serve(routed, repeat, offered);
      ResultRow row = make_row(v.label, "sched", 8, offered, report,
                               server.max_resident_megabytes());
      rows.push_back(row);
      sched_table.add_row(
          {v.label, std::to_string(report.shards), format_float(offered, 0),
           format_float(row.qps, 0), format_float(row.goodput_qps, 0),
           format_float(row.queue_wait_p50_ms, 4),
           format_float(row.queue_wait_p95_ms, 4),
           format_float(row.shed_rate * 100.0, 1),
           format_float(row.deadline_miss_rate * 100.0, 1),
           std::to_string(report.steals),
           std::to_string(row.late_arrivals)});
    }
    for (const std::string& path : model_paths) {
      std::filesystem::remove(path);
    }
  }

  // --- Quantized residency: i8 vs i4g on a movielens Table-3 model -------
  // Same memcom model exported at two embedding precisions; the closed-loop
  // drain meters exactly the bytes each forward touches, so with correct
  // sub-byte span accounting the 4-bit groupwise export must show a smaller
  // resident footprint than int8 (nibbles + per-group f32 scales ~ 0.625x).
  TextTable residency_table({"dtype", "kernel", "qps", "modeled qps",
                             "p50 ms", "resident MB"});
  {
    const Index ml_vocab = smoke ? 2000 : 10000;  // paper movielens vocab
    const Index ml_embed = smoke ? 32 : 64;
    const Index ml_hash = std::max<Index>(8, ml_vocab / 16);
    ModelConfig config;
    config.embedding = {TechniqueKind::kMemcom, ml_vocab, ml_embed, ml_hash};
    config.arch = ModelArch::kClassification;
    config.output_vocab = smoke ? 32 : 500;
    config.seed = 99;
    RecModel model(config);

    Rng ml_rng(13);
    std::vector<std::vector<std::int32_t>> ml_requests;
    ml_requests.reserve(static_cast<std::size_t>(request_count));
    for (int i = 0; i < request_count; ++i) {
      std::vector<std::int32_t> history(static_cast<std::size_t>(seq_len), 0);
      for (Index t = 0; t < seq_len; ++t) {
        history[static_cast<std::size_t>(t)] =
            static_cast<std::int32_t>(1 + ml_rng.uniform_index(ml_vocab - 1));
      }
      ml_requests.push_back(std::move(history));
    }

    struct Variant {
      const char* label;
      DType dtype;
      Index group_size;
    };
    for (const Variant v : {Variant{"i8", DType::kI8, 0},
                            Variant{"i4g", DType::kI4G, kI4GroupDefault}}) {
      const std::string path =
          (std::filesystem::temp_directory_path() /
           ("serving_residency_" + std::string(v.label) + ".mcm"))
              .string();
      model.export_mcm(path, v.dtype, /*model_name=*/"", /*model_version=*/1,
                       v.group_size);
      const MmapModel mapped(path);
      ServingHarness harness(mapped, tflite_profile(), max_threads);
      harness.serve(ml_requests, 1);  // warm-up
      const ServingReport report = harness.serve(ml_requests, repeat);
      ResultRow row =
          make_row("memcom-movielens", "residency", 1, 0.0, report,
                   harness.max_resident_megabytes());
      row.dtype = v.label;
      rows.push_back(row);
      residency_table.add_row(
          {v.label, harness.compiled().kernel_name(),
           format_float(row.qps, 0), format_float(row.modeled_qps, 0),
           format_float(row.p50_ms, 4), format_float(row.resident_mb, 3)});
      std::filesystem::remove(path);
    }
  }

  // --- Session-based next-item serving -----------------------------------
  // Stateful traffic through submit_next_item: each event appends one item
  // to its session's bounded history ring and gets back the top-k item ids
  // ranked over the model's full output catalog (the compressed-catalog
  // scan). Zipf-skewed session popularity over a store sized BELOW the
  // distinct-session count, so the rows also track LRU eviction pressure.
  // One row per shard shape — session-affine routing means shard count may
  // shift latency but never a single returned id (test_differential pins
  // that; this section tracks the cost).
  TextTable session_table({"scheduler", "shards", "k", "nprobe", "qps",
                           "p50 ms", "p95 ms", "p99 ms", "pruned%", "active",
                           "evictions"});
  {
    ModelConfig config;
    config.embedding = {TechniqueKind::kMemcom, vocab, embed_dim, hash};
    config.arch = ModelArch::kClassification;
    config.output_vocab = smoke ? 32 : 256;
    config.seed = 808;
    RecModel model(config);
    const std::string path =
        (std::filesystem::temp_directory_path() / "serving_session.mcm")
            .string();
    // Export WITH the v4 catalog index (default ~sqrt(items) clusters) so
    // the pruned variant below rides the file-adoption path; the exact
    // variants ignore the section entirely (nprobe 0).
    model.export_mcm(path, DType::kF32, /*model_name=*/"", /*model_version=*/1,
                     /*group_size=*/0, /*emit_plan=*/false,
                     /*emit_index=*/true);
    const MmapModel mapped(path);

    const Index distinct_sessions = smoke ? 48 : 192;
    const Index session_capacity = distinct_sessions / 2;  // force eviction
    const int event_count = request_count * 4;
    Rng session_rng(29);
    const AliasSampler session_popularity(
        zipf_weights(distinct_sessions, 1.05));
    std::vector<SessionEvent> events;
    events.reserve(static_cast<std::size_t>(event_count));
    for (int i = 0; i < event_count; ++i) {
      events.push_back(
          {static_cast<std::uint64_t>(session_popularity.sample(session_rng)),
           static_cast<std::int32_t>(1 +
                                     session_rng.uniform_index(vocab - 1))});
    }
    const Index k = 10;

    // The pruned variant probes a quarter of the file-adopted index's
    // cells — the frontier knee BENCH_session_topk.json maps in detail.
    const Index catalog_clusters =
        default_catalog_clusters(config.output_vocab);
    const Index pruned_nprobe = std::max<Index>(1, catalog_clusters / 4);
    struct SessionVariant {
      const char* label;
      int shards;
      Index nprobe;
    };
    for (const SessionVariant v :
         {SessionVariant{"session/single", 1, 0},
          SessionVariant{"session/sharded", max_threads, 0},
          SessionVariant{"session/pruned", max_threads, pruned_nprobe}}) {
      AsyncServerConfig server_config;
      server_config.threads = max_threads;
      server_config.shards = v.shards;
      server_config.max_batch = 8;
      server_config.max_delay_us = max_delay_us;
      server_config.queue_capacity = 256;
      server_config.session_capacity = session_capacity;
      server_config.session_history = seq_len;
      server_config.nprobe = v.nprobe;
      AsyncServer server(mapped, tflite_profile(), server_config);
      server.serve_sessions(events, k);  // warm-up (also fills the store)
      const ServingReport report = server.serve_sessions(events, k);
      ResultRow row = make_row(v.label, "session", 8, 0.0, report,
                               server.max_resident_megabytes());
      // Session rows report the SESSION latency distribution, not the
      // all-traffic one (identical here, but explicit keeps trend tooling
      // honest if mixed traffic is ever added).
      row.p50_ms = report.session_latency.p50_ms;
      row.p95_ms = report.session_latency.p95_ms;
      row.p99_ms = report.session_latency.p99_ms;
      row.mean_ms = report.session_latency.mean_ms;
      row.top_k = k;
      row.active_sessions = report.active_sessions;
      row.session_evictions = report.session_evictions;
      row.nprobe = v.nprobe;
      row.pruned_fraction = report.pruned_fraction;
      row.scanned_bytes = report.scanned_bytes;
      rows.push_back(row);
      session_table.add_row(
          {v.label, std::to_string(report.shards), std::to_string(k),
           v.nprobe > 0 ? std::to_string(v.nprobe) : "exact",
           format_float(row.qps, 0), format_float(row.p50_ms, 4),
           format_float(row.p95_ms, 4), format_float(row.p99_ms, 4),
           format_float(row.pruned_fraction * 100.0, 1),
           std::to_string(row.active_sessions),
           std::to_string(row.session_evictions)});
    }
    std::filesystem::remove(path);
  }

  // --- Fleet cold start: plan adoption vs full compile -------------------
  // The same Table-3-scale memcom i8 model exported WITH a v3 compiled-plan
  // section, booted load -> first-inference repeatedly under both policies.
  // Adoption replaces the metadata parse + handle resolution + batchnorm
  // fold + trunk dequantization with a checksum scan and zero-copy views,
  // so its adopt phase must come in measurably below the full compile; the
  // "cold" JSON rows give CI the per-phase p50/p95 to hold that line.
  TextTable cold_table({"leg", "runs", "mmap p50", "validate p50",
                        "adopt-or-compile p50", "p95", "first-infer p50",
                        "total p50", "total p95"});
  {
    const Index ml_vocab = smoke ? 2000 : 10000;
    const Index ml_embed = smoke ? 32 : 64;
    const Index ml_hash = std::max<Index>(8, ml_vocab / 16);
    ModelConfig config;
    config.embedding = {TechniqueKind::kMemcom, ml_vocab, ml_embed, ml_hash};
    config.arch = ModelArch::kClassification;
    config.output_vocab = smoke ? 32 : 500;
    config.seed = 99;
    RecModel model(config);
    const std::string path =
        (std::filesystem::temp_directory_path() / "serving_cold.mcm")
            .string();
    model.export_mcm(path, DType::kI8, "serving_cold", 1, /*group_size=*/0,
                     /*emit_plan=*/true);

    const int cold_runs = smoke ? 5 : 30;
    // The sweep's requests draw ids from `vocab`, which is larger than this
    // model's id domain: fold the probe into it, or the first forward reads
    // past the embedding table.
    std::vector<std::int32_t> probe = requests.front();
    for (std::int32_t& id : probe) {
      id %= static_cast<std::int32_t>(ml_vocab);
    }
    struct ColdLeg {
      const char* label;
      PlanPolicy policy;
    };
    double adopt_p50 = 0.0, compile_p50 = 0.0;
    for (const ColdLeg leg :
         {ColdLeg{"plan-adopt", PlanPolicy::kAdoptIfPresent},
          ColdLeg{"full-compile", PlanPolicy::kNeverAdopt}}) {
      std::vector<double> mmap_ms, validate_ms, adopt_ms, infer_ms, total_ms;
      bool adopted = false;
      for (int i = 0; i < cold_runs; ++i) {
        const SteadyClock::time_point boot = SteadyClock::now();
        SteadyClock::time_point t = boot;
        auto mapped = std::make_shared<const MmapModel>(path);
        mmap_ms.push_back(elapsed_ms(t));
        // Standalone validation cost; the adopt leg re-validates inside
        // CompiledModel, so its adopt phase is checksum + view fixup only.
        t = SteadyClock::now();
        decode_plan(*mapped);
        validate_ms.push_back(elapsed_ms(t));
        t = SteadyClock::now();
        auto compiled =
            std::make_shared<const CompiledModel>(mapped, leg.policy);
        adopt_ms.push_back(elapsed_ms(t));
        t = SteadyClock::now();
        ExecutionContext context(compiled, tflite_profile());
        context.run_view(probe);
        infer_ms.push_back(elapsed_ms(t));
        total_ms.push_back(elapsed_ms(boot));
        adopted = compiled->plan_adopted();
      }
      const LatencyStats mmap_s = latency_stats_from_samples(mmap_ms);
      const LatencyStats validate_s = latency_stats_from_samples(validate_ms);
      const LatencyStats adopt_s = latency_stats_from_samples(adopt_ms);
      const LatencyStats infer_s = latency_stats_from_samples(infer_ms);
      const LatencyStats total_s = latency_stats_from_samples(total_ms);
      if (adopted) {
        adopt_p50 = adopt_s.p50_ms;
      } else {
        compile_p50 = adopt_s.p50_ms;
      }
      ResultRow row;
      row.technique = "memcom-table3";
      row.mode = "cold";
      row.dtype = "i8";
      row.threads = 1;
      row.plan_adopted = adopted;
      row.mmap_p50_ms = mmap_s.p50_ms;
      row.validate_p50_ms = validate_s.p50_ms;
      row.adopt_or_compile_p50_ms = adopt_s.p50_ms;
      row.adopt_or_compile_p95_ms = adopt_s.p95_ms;
      row.first_infer_p50_ms = infer_s.p50_ms;
      row.total_p50_ms = total_s.p50_ms;
      row.total_p95_ms = total_s.p95_ms;
      row.p50_ms = total_s.p50_ms;
      row.p95_ms = total_s.p95_ms;
      row.p99_ms = total_s.p99_ms;
      row.mean_ms = total_s.mean_ms;
      rows.push_back(row);
      cold_table.add_row(
          {leg.label, std::to_string(cold_runs),
           format_float(mmap_s.p50_ms, 4), format_float(validate_s.p50_ms, 4),
           format_float(adopt_s.p50_ms, 4), format_float(adopt_s.p95_ms, 4),
           format_float(infer_s.p50_ms, 4), format_float(total_s.p50_ms, 4),
           format_float(total_s.p95_ms, 4)});
    }
    if (adopt_p50 > 0.0 && compile_p50 > 0.0) {
      std::cout << "[cold start] plan adoption vs full compile (p50): "
                << format_float(compile_p50 / adopt_p50, 2) << "x faster\n";
    }
    std::filesystem::remove(path);
  }

  std::cout << "\nclosed-loop (batch-1, no cache):\n"
            << closed_table.to_string();
  std::cout << "\nasync micro-batching (open-loop, hot-row cache "
            << cache_kb << " KiB/context):\n"
            << async_table.to_string();
  std::cout << "\nmulti-tenant (2 models, interleaved, batch<=8, "
            << max_threads << " threads):\n"
            << multi_table.to_string();
  std::cout << "\nscheduler shoot-out (skewed tenants, equal offered "
            << "overload, deadline " << deadline_us << " us):\n"
            << sched_table.to_string();
  std::cout << "\nquantized residency (memcom, movielens table-3 dims, "
            << "closed-loop batch-1):\n"
            << residency_table.to_string();
  std::cout << "\nsession-based next-item serving (Zipf sessions, top-"
            << 10 << " over the full catalog, store below session count):\n"
            << session_table.to_string();
  std::cout << "\nfleet cold start (memcom table-3 dims, i8, v3 plan "
            << "section, load -> first-inference):\n"
            << cold_table.to_string();
  write_json(json_path, hw_threads, rows);
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
