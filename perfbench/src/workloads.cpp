#include "workloads.h"

#include <algorithm>
#include <array>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include <sched.h>

#include "core/rng.h"
#include "core/sampling.h"
#include "loadgen.h"
#include "ondevice/catalog_index.h"
#include "ondevice/compiled_model.h"
#include "ondevice/device_profile.h"
#include "ondevice/execution_context.h"
#include "ondevice/kernels.h"
#include "ondevice/plan.h"
#include "ondevice/registry.h"
#include "ondevice/serving.h"
#include "ondevice/topk.h"
#include "reference.h"
#include "repro/model.h"

namespace perfbench {
namespace {

using memcom::AsyncResult;
using memcom::AsyncServer;
using memcom::AsyncServerConfig;
using memcom::CompiledModel;
using memcom::DType;
using memcom::ExecutionContext;
using memcom::MmapModel;
using memcom::ModelConfig;
using memcom::ModelRegistry;
using memcom::RecModel;
using memcom::Rng;
using memcom::ScoredId;
using memcom::TechniqueKind;
using memcom::Tensor;

// ---------------------------------------------------------------------------
// Operating points. README.md gives the reason for each.

// Server shape: 2 workers + 1 batch former + the generator thread = the
// host's 4 hardware threads.
constexpr int kWorkers = 2;
constexpr int kShards = 1;
constexpr Index kMaxBatch = 8;
constexpr double kMaxDelayUs = 200.0;
constexpr std::size_t kQueueCapacity = 1024;
constexpr std::size_t kCacheBudgetBytes = 256 * 1024;

// Model weights come from this fixed seed; --seed drives the traffic and
// the request histories. The catalog's cluster sizes, and with them the
// rows a pruned request scans, depend on the weights, so seeding them per
// run would mix catalog geometry into the run-to-run spread.
constexpr std::uint64_t kModelSeed = 2022;

// Set-up is measured three times a run: once before the first round and,
// on a second copy of the files, after rounds 2 and 4, so that its median
// samples the whole run rather than one stretch of it.
constexpr int kSetupEvery = 2;
constexpr double kWarmupSeconds = 0.3;
constexpr double kOpenShare = 0.6;  // of each round; the rest is closed loop
constexpr Index kTopK = 10;
constexpr int kVerifyThreads = 4;

// tenants: the paper's Table-3 shape, one technique and codec per tenant.
struct TenantSpec {
  const char* id;
  TechniqueKind kind;
  DType dtype;
  Index group_size;
};
constexpr TenantSpec kTenants[] = {
    {"memcom", TechniqueKind::kMemcom, DType::kI8, 0},
    {"qr_mult", TechniqueKind::kQrMult, DType::kI4G, memcom::kI4GroupDefault},
    {"naive_hash", TechniqueKind::kNaiveHash, DType::kF32, 0},
};
constexpr int kTenantCount = 3;
constexpr Index kTenantVocab = 50000;
constexpr Index kTenantDim = 256;
constexpr Index kTenantHash = 10000;
constexpr Index kTenantLength = 128;
constexpr Index kTenantClasses = 500;
constexpr Index kTenantPool = 256;  // distinct histories per tenant
constexpr double kTenantRate = 2000.0;
constexpr int kTenantWindow = 64;

// Session workloads and cold start share one file: a 50k-item i8 catalog
// with the v3 plan and the v4 index.
constexpr const char* kSessionModelId = "session";
constexpr Index kItems = 50000;
constexpr Index kSessionDim = 128;
constexpr Index kSessionHash = 5000;
constexpr Index kSessionHistory = 32;
constexpr Index kDistinctSessions = 2048;
constexpr Index kSessionCapacity = 512;
constexpr Index kAnchors = 64;
constexpr float kAnchorNoise = 0.3f;
constexpr Index kNprobe = 8;
constexpr double kSessionZipf = 1.05;
constexpr double kItemZipf = 0.9;
constexpr double kSessionRate = 300.0;
constexpr int kSessionWindow = 32;

constexpr double kBootRate = 100.0;
constexpr Index kBootPool = 64;
constexpr std::uint64_t kBootsPerCore = 25;

constexpr int kProbeBatches = 64;
constexpr int kProbeBoots = 32;

// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

double seconds_since(SteadyClock::time_point t0) {
  return ms_between(t0, SteadyClock::now()) / 1000.0;
}

double file_mib(const std::vector<std::string>& paths) {
  double bytes = 0.0;
  for (const std::string& p : paths) {
    bytes += static_cast<double>(std::filesystem::file_size(p));
  }
  return bytes / (1024.0 * 1024.0);
}

AsyncServerConfig server_config(Index nprobe) {
  AsyncServerConfig c;
  c.threads = kWorkers;
  c.shards = kShards;
  c.max_batch = kMaxBatch;
  c.max_delay_us = kMaxDelayUs;
  c.queue_capacity = kQueueCapacity;
  c.cache_budget_bytes = kCacheBudgetBytes;
  c.session_capacity = kSessionCapacity;
  c.session_history = kSessionHistory;
  c.nprobe = nprobe;
  return c;
}

History random_history(Rng& rng, const memcom::AliasSampler& items,
                       Index length, Index real) {
  History h(static_cast<std::size_t>(length), memcom::kPadId);
  for (Index t = 0; t < real; ++t) {
    h[static_cast<std::size_t>(t)] =
        static_cast<std::int32_t>(1 + items.sample(rng));
  }
  return h;
}

// Reference logits for `histories`, in blocks (the nn forward materialises
// [batch, length, dim] embeddings).
std::vector<float> reference_rows(Reference& ref,
                                  const std::vector<History>& histories) {
  std::vector<float> rows;
  rows.reserve(histories.size() * static_cast<std::size_t>(ref.outputs()));
  for (std::size_t b = 0; b < histories.size(); b += 32) {
    std::vector<const History*> block;
    for (std::size_t i = b; i < std::min(histories.size(), b + 32); ++i) {
      block.push_back(&histories[i]);
    }
    const Tensor logits = ref.logits(block);
    rows.insert(rows.end(), logits.data(), logits.data() + logits.numel());
  }
  return rows;
}

// One ranked answer as returned by the engine.
struct Answer {
  std::array<Index, kTopK> ids{};
  std::array<float, kTopK> scores{};
  bool ok = false;  // status kOk with exactly kTopK results
};

Answer answer_from(const AsyncResult& r) {
  Answer a;
  a.ok = r.status == memcom::RequestStatus::kOk &&
         r.top_ids.size() == static_cast<std::size_t>(kTopK) &&
         r.top_scores.size() == static_cast<std::size_t>(kTopK);
  if (a.ok) {
    std::copy(r.top_ids.begin(), r.top_ids.end(), a.ids.begin());
    std::copy(r.top_scores.begin(), r.top_scores.end(), a.scores.begin());
  }
  return a;
}

std::uint64_t answer_hash(const Answer& a) {
  return fnv1a(a.scores.data(), sizeof(a.scores),
               fnv1a(a.ids.data(), sizeof(a.ids)));
}

// An input's verified answer: a later answer bit-identical to it (same
// hash) is verified by that equality.
struct Known {
  std::uint64_t hash = 0;
  double recall = 0.0;
  bool set = false;
};

// True when swapping the first and last id of `a` must change the answer:
// their scores sit further apart than the tie band.
bool separable(const Answer& a, const float* ref, Index n) {
  return a.scores[0] - a.scores[kTopK - 1] > 4.0f * row_tolerance(ref, n);
}

// The checks of the checks: corrupted copies of a verified answer must be
// rejected. Returns the corruption that slipped through, or "".
std::string ranking_check_rejects(const Answer& a, const float* ref, Index n) {
  Answer swapped = a;
  std::swap(swapped.ids[0], swapped.ids[kTopK - 1]);
  if (check_ranking(swapped.ids.data(), swapped.scores.data(), kTopK, ref, n)
          .scores_ok) {
    return "swapped top-10 id";
  }
  Answer perturbed = a;
  perturbed.scores[0] += 10.0f * row_tolerance(ref, n);
  if (check_ranking(perturbed.ids.data(), perturbed.scores.data(), kTopK, ref,
                    n)
          .scores_ok) {
    return "perturbed score";
  }
  return "";
}

void report_checks_of_checks(RunResult& out, const std::string& slipped) {
  if (!slipped.empty()) {
    out.checks_broken = true;
    out.note("check of the checks failed: " + slipped);
  }
}

// ---------------------------------------------------------------------------
// Per-layer figures. Every traced run prints all of them, measured on the
// workload's own files and inputs.
struct LayerFigures {
  double late_ms = 0, admit_us = 0, queue_wait_ms = 0, service_ms = 0,
         delivery_ms = 0, batch_mean = 0, steals = 0, load_ms = 0,
         forward_ms = 0, rank_exact_ms = 0, rank_pruned_ms = 0,
         first_run_ms = 0, hit_rate = 0, select_us = 0, scanned_rows = 0,
         scanned_kb = 0, index_decode_ms = 0, evictions = 0, open_ms = 0,
         plan_decode_ms = 0, adopt_ms = 0, scan_gbps = 0, export_s = 0;

  void emit(RunResult& out) const {
    out.layer("loadgen.late_ms", late_ms, "ms");
    out.layer("serving.admit_us", admit_us, "us");
    out.layer("serving.queue_wait_ms", queue_wait_ms, "ms");
    out.layer("serving.service_ms", service_ms, "ms");
    out.layer("serving.delivery_ms", delivery_ms, "ms");
    out.layer("serving.batch_mean", batch_mean, "count");
    out.layer("serving.steals", steals, "count");
    out.layer("registry.load_ms", load_ms, "ms");
    out.layer("execution_context.forward_ms", forward_ms, "ms");
    out.layer("execution_context.rank_exact_ms", rank_exact_ms, "ms");
    out.layer("execution_context.rank_pruned_ms", rank_pruned_ms, "ms");
    out.layer("execution_context.first_run_ms", first_run_ms, "ms");
    out.layer("hot_row_cache.hit_rate", hit_rate, "ratio");
    out.layer("topk.select_us", select_us, "us");
    out.layer("catalog_index.scanned_rows", scanned_rows, "count");
    out.layer("catalog_index.scanned_kb", scanned_kb, "KiB");
    out.layer("catalog_index.decode_ms", index_decode_ms, "ms");
    out.layer("session.evictions", evictions, "count");
    out.layer("format.open_ms", open_ms, "ms");
    out.layer("plan.decode_ms", plan_decode_ms, "ms");
    out.layer("compiled_model.adopt_ms", adopt_ms, "ms");
    out.layer("kernels.scan_gbps", scan_gbps, "GB/s");
    out.layer("repro.export_s", export_s, "s");
  }
};

// Which timed phase a served request belongs to.
enum class Phase { kNone, kOpen, kClosed };

// Spans for the open-loop requests (the latency phase), placed from what
// the generator saw and the server's own durations (the enqueue happens
// inside the submit call), and the mean micro-batch of the closed loop
// (the throughput phase): requests / sum(1 / batch size of each request).
class ServingObserver {
 public:
  explicit ServingObserver(Tracer& tracer) : tracer_(tracer) {}

  void observe(Phase phase, std::uint64_t op, const AsyncResult& r,
               const OpTiming& t) {
    if (phase == Phase::kClosed && r.batch > 0) {
      inv_batch_ += 1.0 / static_cast<double>(r.batch);
      ++served_;
    }
    if (phase != Phase::kOpen || !tracer_.enabled()) {
      return;
    }
    const auto span = [](double ms) {
      return std::chrono::duration_cast<SteadyClock::duration>(
          std::chrono::duration<double, std::milli>(ms));
    };
    const std::uint64_t request = op + 1;
    const std::uint64_t root =
        tracer_.record("request", request, 0, t.due, t.resolved);
    tracer_.record("serving.admit", request, root, t.submit_begin,
                   t.submit_end);
    const auto wait_end = t.submit_begin + span(r.queue_wait_ms);
    const auto service_end = wait_end + span(r.service_ms);
    tracer_.record("serving.queue_wait", request, root, t.submit_begin,
                   wait_end);
    tracer_.record("serving.service", request, root, wait_end, service_end);
    tracer_.record("serving.delivery", request, root, service_end,
                   std::max(service_end, t.resolved));
  }

  void fill(LayerFigures& f) const {
    f.admit_us = median(tracer_.durations_ms("serving.admit")) * 1000.0;
    f.queue_wait_ms = median(tracer_.durations_ms("serving.queue_wait"));
    f.service_ms = median(tracer_.durations_ms("serving.service"));
    f.delivery_ms = median(tracer_.durations_ms("serving.delivery"));
    f.batch_mean = inv_batch_ > 0.0 ? static_cast<double>(served_) / inv_batch_
                                    : 0.0;
  }

 private:
  Tracer& tracer_;
  double inv_batch_ = 0.0;
  std::uint64_t served_ = 0;
};

// Server counters at the start of the timed rounds, so the per-layer
// figures cover the rounds only.
struct ServerBaseline {
  memcom::RowCacheStats cache;
  std::uint64_t steals = 0;

  explicit ServerBaseline(const AsyncServer& server)
      : cache(server.cache_stats()), steals(server.steal_count()) {}

  void fill(const AsyncServer& server, LayerFigures& f) const {
    const memcom::RowCacheStats now = server.cache_stats();
    const double hits = static_cast<double>(now.hits - cache.hits);
    const double misses = static_cast<double>(now.misses - cache.misses);
    f.hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    f.steals = static_cast<double>(server.steal_count() - steals);
    f.evictions = static_cast<double>(server.evicted_sessions());
  }
};

// Scores/second of CatalogScorer over the file's output catalog, item-major
// with the bias folded in, at the catalog's stored dtype. Bytes are the
// scorer's stored payload, computed from tensor sizes.
double scan_gbps(const std::string& path, Rng& rng) {
  const MmapModel mapped(path);
  const Tensor w = mapped.load_tensor("out.weight");  // [in, items]
  const Tensor b = mapped.load_tensor("out.bias");
  const Index in = w.dim(0);
  const Index items = w.dim(1);
  Tensor rows({items, in + 1});
  for (Index j = 0; j < items; ++j) {
    for (Index d = 0; d < in; ++d) {
      rows.data()[j * (in + 1) + d] = w.data()[d * items + j];
    }
    rows.data()[j * (in + 1) + in] = b.data()[j];
  }
  const memcom::TensorEntry& entry = mapped.entry("out.weight");
  const memcom::QuantizedTensor catalog =
      memcom::quantize(rows, entry.dtype, entry.group_size);
  const memcom::CatalogScorer scorer(catalog, memcom::select_kernels());
  std::vector<float> query(static_cast<std::size_t>(in + 1), 1.0f);
  std::vector<double> ms;
  for (int rep = 0; rep < 64; ++rep) {
    for (Index d = 0; d < in; ++d) {
      query[static_cast<std::size_t>(d)] = rng.uniform(0.0f, 1.0f);
    }
    const auto t0 = SteadyClock::now();
    const auto best = scorer.top_k(query.data(), kTopK);
    const auto t1 = SteadyClock::now();
    if (!best.empty()) {
      ms.push_back(ms_between(t0, t1));
    }
  }
  const double s = median(ms) / 1000.0;
  return s > 0.0 ? static_cast<double>(scorer.resident_bytes()) / s / 1e9 : 0.0;
}

// Calls into the execution context, top-k, index, format, plan and kernel
// layers on the workload's own file and inputs (traced runs only, after
// the timed rounds). `boots` is false when the workload's timed boots
// already recorded the boot spans.
void probe_layers(Tracer& tracer, const std::string& path,
                  const std::shared_ptr<const CompiledModel>& compiled,
                  const std::vector<History>& histories, Index nprobe,
                  bool boots, Rng& rng, LayerFigures& f) {
  const memcom::DeviceProfile profile = memcom::tflite_profile();
  ExecutionContext ctx(compiled, profile);
  std::vector<std::vector<ScoredId>> ranked;
  std::uint64_t ranked_rows = 0, scanned_rows = 0, scanned_bytes = 0;
  std::vector<double> select_us;
  const std::size_t n = histories.size();
  for (int i = 0; i < kProbeBatches; ++i) {
    std::vector<History> batch;
    for (Index b = 0; b < kMaxBatch; ++b) {
      batch.push_back(histories[static_cast<std::size_t>(i * kMaxBatch + b) % n]);
    }
    const std::vector<Index> nprobes(batch.size(), kNprobe);
    memcom::BatchResult plain, exact, pruned;
    timed_span(tracer, "execution_context.forward",
               [&] { plain = ctx.run_batch(batch); });
    timed_span(tracer, "execution_context.rank_exact",
               [&] { exact = ctx.run_batch(batch, kTopK, &ranked); });
    timed_span(tracer, "execution_context.rank_pruned", [&] {
      pruned = ctx.run_batch(batch, kTopK, &ranked, &nprobes);
    });
    const memcom::BatchResult& mine = nprobe > 0 ? pruned : exact;
    ranked_rows += mine.ranked_rows;
    scanned_rows += mine.scanned_rows;
    scanned_bytes += mine.scanned_bytes;
    const Index width = plain.logits.dim(1);
    const auto t0 = SteadyClock::now();
    const auto best = memcom::topk_select(plain.logits.data(), width, kTopK);
    const auto t1 = SteadyClock::now();
    tracer.record("topk.select", 0, 0, t0, t1);
    select_us.push_back(best.empty() ? 0.0 : ms_between(t0, t1) * 1000.0);
  }
  f.forward_ms = median(tracer.durations_ms("execution_context.forward"));
  f.rank_exact_ms = median(tracer.durations_ms("execution_context.rank_exact"));
  f.rank_pruned_ms =
      median(tracer.durations_ms("execution_context.rank_pruned"));
  f.select_us = median(select_us);
  if (ranked_rows > 0) {
    f.scanned_rows = static_cast<double>(scanned_rows) /
                     static_cast<double>(ranked_rows);
    f.scanned_kb = static_cast<double>(scanned_bytes) /
                   static_cast<double>(ranked_rows) / 1024.0;
  }

  for (int i = 0; i < kProbeBoots; ++i) {
    std::shared_ptr<const MmapModel> mapped;
    timed_span(tracer, "format.open",
               [&] { mapped = std::make_shared<const MmapModel>(path); });
    timed_span(tracer, "plan.decode",
               [&] { (void)memcom::decode_plan(*mapped); });
    timed_span(tracer, "catalog_index.decode",
               [&] { (void)memcom::decode_catalog_index(*mapped); });
    if (!boots) {
      continue;
    }
    std::shared_ptr<const CompiledModel> plan;
    timed_span(tracer, "compiled_model.adopt",
               [&] { plan = std::make_shared<const CompiledModel>(mapped); });
    const std::vector<History> one = {histories[static_cast<std::size_t>(i) % n]};
    const std::vector<Index> nprobes(1, nprobe);
    timed_span(tracer, "execution_context.first_run", [&] {
      ExecutionContext fresh(plan, profile);
      fresh.run_batch(one, kTopK, &ranked, nprobe > 0 ? &nprobes : nullptr);
    });
  }
  f.open_ms = median(tracer.durations_ms("format.open"));
  f.plan_decode_ms = median(tracer.durations_ms("plan.decode"));
  f.index_decode_ms = median(tracer.durations_ms("catalog_index.decode"));
  f.adopt_ms = median(tracer.durations_ms("compiled_model.adopt"));
  f.first_run_ms = median(tracer.durations_ms("execution_context.first_run"));
  f.scan_gbps = scan_gbps(path, rng);
}

// Prints the per-layer sheet of a traced run and writes out its spans.
void finish_trace(const Tracer& tracer, const LayerFigures& layers,
                  const std::string& workdir, RunResult& out) {
  layers.emit(out);
  const std::string path = workdir + "/spans.jsonl";
  if (!tracer.write(path)) {
    out.note("could not write the spans to " + path);
  }
}

// The sheet's latency line plus the unbounded tail, for the log.
void report_latency(RunResult& out, const PhaseStats& open,
                    const std::string& what) {
  out.e2e("latency_p50_ms", median(open.latency_ms), "ms");
  const Tail tail = supported_tail(open.latency_ms);
  std::ostringstream s;
  s << what << ": " << open.latency_ms.size() << " open-loop samples, p50 "
    << median(open.latency_ms) << " ms";
  if (!tail.label.empty()) {
    s << ", " << tail.label << " " << tail.value << " ms (" << tail.beyond
      << " samples beyond it)";
  }
  s << ", generator late by " << mean(open.late_ms) << " ms on average";
  out.note(s.str());
}

// Models generated, exported, loaded into a registry and served, up to
// their first answers: what setup_s times.
struct Deployment {
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<AsyncServer> server;  // after registry: destroyed first
  std::vector<std::future<AsyncResult>> first;
  OpTiming first_timing;  // what the generator saw of first[0]
  double setup_s = 0.0;
  double export_s = 0.0;
};

// The set-up figures of a run: the first deployment plus the extra ones
// made between rounds on a second copy of the files.
struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> export_s;

  void add(const Deployment& d) {
    setup_s.push_back(d.setup_s);
    export_s.push_back(d.export_s);
  }
  // The between-rounds hook: deploys again after every kSetupEvery-th
  // round and tears that deployment down at once.
  template <class Deploy>
  void maybe_redeploy(int round, Deploy& deploy) {
    if ((round + 1) % kSetupEvery == 0) {
      add(deploy(".setup"));
    }
  }
};

// ---------------------------------------------------------------------------
// tenants

ModelConfig tenant_config(int t) {
  ModelConfig c;
  c.embedding = {kTenants[t].kind, kTenantVocab, kTenantDim, kTenantHash};
  c.arch = memcom::ModelArch::kClassification;
  c.output_vocab = kTenantClasses;
  c.seed = kModelSeed * 31 + static_cast<std::uint64_t>(t);
  return c;
}

RunResult run_tenants(const Options& o) {
  RunResult out;
  Tracer tracer(o.trace);
  ServingObserver observer(tracer);
  LayerFigures layers;
  const memcom::DeviceProfile profile = memcom::tflite_profile();

  Rng input_rng(o.seed);
  const memcom::AliasSampler items(
      memcom::zipf_weights(kTenantVocab - 1, kItemZipf));
  std::vector<std::vector<History>> pools(kTenantCount);
  for (auto& pool : pools) {
    for (Index p = 0; p < kTenantPool; ++p) {
      const Index real =
          kTenantLength -
          static_cast<Index>(input_rng.uniform_index(kTenantLength / 4 + 1));
      pool.push_back(random_history(input_rng, items, kTenantLength, real));
    }
  }
  const auto path_of = [&](int t, const std::string& suffix) {
    return o.workdir + "/tenant_" + kTenants[t].id + suffix + ".mcm";
  };

  const auto deploy = [&](const std::string& suffix) {
    Deployment d;
    const auto t0 = SteadyClock::now();
    for (int t = 0; t < kTenantCount; ++t) {
      RecModel model(tenant_config(t));
      d.export_s += timed_span(tracer, "repro.export", [&] {
                      model.export_mcm(path_of(t, suffix), kTenants[t].dtype,
                                       kTenants[t].id, 1,
                                       kTenants[t].group_size,
                                       /*emit_plan=*/true);
                    }) / 1000.0;
    }
    d.registry = std::make_unique<ModelRegistry>();
    for (int t = 0; t < kTenantCount; ++t) {
      timed_span(tracer, "registry.load",
                 [&] { d.registry->load(kTenants[t].id, path_of(t, suffix)); });
    }
    d.server = std::make_unique<AsyncServer>(*d.registry, kTenants[0].id,
                                             profile, server_config(0));
    for (int t = 0; t < kTenantCount; ++t) {
      d.first.push_back(
          d.server->submit(kTenants[t].id, pools[static_cast<std::size_t>(t)][0]));
    }
    for (auto& f : d.first) {
      f.wait();
    }
    d.setup_s = seconds_since(t0);
    return d;
  };
  Deployment main = deploy("");
  SetupTimes setup;
  setup.add(main);
  AsyncServer& server = *main.server;

  std::vector<std::vector<float>> ref_rows;
  for (int t = 0; t < kTenantCount; ++t) {
    Reference ref(tenant_config(t), path_of(t, ""));
    ref_rows.push_back(reference_rows(ref, pools[static_cast<std::size_t>(t)]));
  }

  // Each answer is checked against its reference row once per distinct
  // answer (see Known).
  std::vector<std::vector<Known>> known(
      kTenantCount, std::vector<Known>(static_cast<std::size_t>(kTenantPool)));
  std::vector<std::uint8_t> op_tenant;
  std::vector<std::uint16_t> op_pool;
  double recall_sum = 0.0;
  std::vector<float> sample_logits;
  const float* sample_ref = nullptr;
  Phase phase = Phase::kNone;

  const auto complete = [&](std::uint64_t op, AsyncResult r,
                            const OpTiming& timing) {
    observer.observe(phase, op, r, timing);
    ++out.attempted;
    const std::size_t t = op_tenant[op];
    const float* ref = ref_rows[t].data() + op_pool[op] * kTenantClasses;
    if (r.status != memcom::RequestStatus::kOk ||
        r.logits.size() != static_cast<std::size_t>(kTenantClasses)) {
      ++out.failed;
      return;
    }
    const std::uint64_t h =
        fnv1a(r.logits.data(), r.logits.size() * sizeof(float));
    Known& k = known[t][op_pool[op]];
    if (k.set && k.hash == h) {
      recall_sum += k.recall;
      return;
    }
    const std::vector<Index> top =
        reference_top_k(r.logits.data(), kTenantClasses, kTopK);
    std::vector<float> scores;
    for (const Index j : top) {
      scores.push_back(r.logits[static_cast<std::size_t>(j)]);
    }
    const RankVerdict v =
        check_ranking(top.data(), scores.data(), kTopK, ref, kTenantClasses);
    if (!logits_match(r.logits.data(), ref, kTenantClasses) || !v.scores_ok ||
        !v.members_ok) {
      ++out.failed;
      return;
    }
    k = {h, v.recall, true};
    recall_sum += v.recall;
    if (sample_ref == nullptr) {
      sample_logits = r.logits;
      sample_ref = ref;
    }
  };

  std::uint64_t next_op = 0;
  for (int t = 0; t < kTenantCount; ++t) {
    op_tenant.push_back(static_cast<std::uint8_t>(t));
    op_pool.push_back(0);
    complete(next_op++, main.first[static_cast<std::size_t>(t)].get(),
             OpTiming{});
  }

  // Traffic: half on the first tenant, a quarter on each of the others.
  Rng traffic_rng(o.seed ^ 0x7e11a9751ULL);
  const auto submit = [&](std::uint64_t) {
    const std::uint64_t draw = traffic_rng.uniform_u64(4);
    const int t = draw < 2 ? 0 : static_cast<int>(draw) - 1;
    const auto p = static_cast<std::size_t>(traffic_rng.uniform_u64(kTenantPool));
    op_tenant.push_back(static_cast<std::uint8_t>(t));
    op_pool.push_back(static_cast<std::uint16_t>(p));
    return server.submit(kTenants[t].id, pools[static_cast<std::size_t>(t)][p]);
  };

  drive_closed<AsyncResult>(kTenantWindow, kWarmupSeconds, next_op, submit,
                            complete);
  const ServerBaseline baseline(server);
  const RoundStats rounds = drive_rounds(
      o.seconds, kOpenShare,
      [&](double s) {
        phase = Phase::kOpen;
        return drive_open<AsyncResult>(kTenantRate, s, next_op, submit,
                                       complete);
      },
      [&](double s) {
        phase = Phase::kClosed;
        return drive_closed<AsyncResult>(kTenantWindow, s, next_op, submit,
                                         complete);
      },
      [&](int round) {
        phase = Phase::kNone;
        setup.maybe_redeploy(round, deploy);
      });
  phase = Phase::kNone;

  std::vector<std::string> paths;
  for (int t = 0; t < kTenantCount; ++t) {
    paths.push_back(path_of(t, ""));
  }
  report_latency(out, rounds.open, "tenants");
  out.e2e("throughput_qps", rounds.closed.throughput(), "1/s");
  out.e2e("resident_mb", server.max_resident_megabytes(), "MiB");
  out.e2e("artifact_mb", file_mib(paths), "MiB");
  out.e2e("setup_s", median(setup.setup_s), "s");
  out.e2e("recall_at_10", recall_sum / static_cast<double>(out.attempted),
          "ratio");

  if (sample_ref != nullptr) {
    Answer a;
    const std::vector<Index> top =
        reference_top_k(sample_logits.data(), kTenantClasses, kTopK);
    for (std::size_t i = 0; i < top.size(); ++i) {
      a.ids[i] = top[i];
      a.scores[i] = sample_logits[static_cast<std::size_t>(top[i])];
    }
    std::vector<float> perturbed = sample_logits;
    perturbed[0] += 10.0f * row_tolerance(sample_ref, kTenantClasses);
    report_checks_of_checks(
        out, logits_match(perturbed.data(), sample_ref, kTenantClasses)
                 ? "perturbed logit"
             : separable(a, sample_ref, kTenantClasses)
                 ? ranking_check_rejects(a, sample_ref, kTenantClasses)
                 : "");
  } else {
    report_checks_of_checks(out, "no verified answer to corrupt");
  }

  if (o.trace) {
    baseline.fill(server, layers);
    layers.late_ms = mean(rounds.open.late_ms);
    observer.fill(layers);
    layers.load_ms = median(tracer.durations_ms("registry.load"));
    layers.export_s = median(setup.export_s);
    Rng probe_rng(o.seed + 17);
    probe_layers(tracer, paths[0], main.registry->acquire(kTenants[0].id),
                 pools[0], 0, /*boots=*/true, probe_rng, layers);
    finish_trace(tracer, layers, o.workdir, out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The session model (session_exact, session_pruned, cold_start).

ModelConfig session_config() {
  ModelConfig c;
  c.embedding = {TechniqueKind::kMemcom, kItems, kSessionDim, kSessionHash};
  c.arch = memcom::ModelArch::kClassification;
  c.output_vocab = kItems;
  c.seed = kModelSeed * 31 + 7;
  return c;
}

// Generates the session model with its output catalog (out.weight columns)
// drawn as an anchored mixture — each item near one of kAnchors centres,
// the clustered geometry of trained item embeddings — and exports it as
// i8 with the v3 plan and the v4 index. Returns the export time (s).
double export_session_model(const std::string& path, Tracer& tracer) {
  RecModel model(session_config());
  memcom::ParamRefs params = model.params();
  Tensor& w = params[params.size() - 2]->value;  // out.weight [in, items]
  const Index in = w.dim(0);
  const Index items = w.dim(1);
  Rng rng(kModelSeed * 131 + 3);
  const Tensor anchors = Tensor::randn({kAnchors, in}, rng, 1.0f);
  for (Index j = 0; j < items; ++j) {
    const Index a = static_cast<Index>(rng.uniform_index(kAnchors));
    for (Index d = 0; d < in; ++d) {
      w.data()[d * items + j] =
          anchors.data()[a * in + d] + kAnchorNoise * rng.normal();
    }
  }
  return timed_span(tracer, "repro.export", [&] {
           model.export_mcm(path, DType::kI8, kSessionModelId, 1, 0,
                            /*emit_plan=*/true, /*emit_index=*/true);
         }) /
         1000.0;
}

// Deploys the session model behind a server ranking with `nprobe`; the
// first answer is for `first`.
Deployment deploy_session_model(const std::string& path, Index nprobe,
                                const memcom::SessionEvent& first,
                                Tracer& tracer) {
  Deployment d;
  const auto t0 = SteadyClock::now();
  d.export_s = export_session_model(path, tracer);
  d.registry = std::make_unique<ModelRegistry>();
  timed_span(tracer, "registry.load",
             [&] { d.registry->load(kSessionModelId, path); });
  d.server = std::make_unique<AsyncServer>(*d.registry, kSessionModelId,
                                           memcom::tflite_profile(),
                                           server_config(nprobe));
  d.first_timing.due = d.first_timing.submit_begin = SteadyClock::now();
  d.first.push_back(d.server->submit_next_item(kSessionModelId,
                                               first.session_id, first.item,
                                               kTopK));
  d.first_timing.submit_end = SteadyClock::now();
  d.first.back().wait();
  d.first_timing.resolved = SteadyClock::now();
  d.setup_s = seconds_since(t0);
  return d;
}

// Zipf-popular sessions, each event one Zipf-popular item. Generated in
// submission order; the log is what the replay walks.
class EventStream {
 public:
  explicit EventStream(std::uint64_t seed)
      : rng_(seed),
        sessions_(memcom::zipf_weights(kDistinctSessions, kSessionZipf)),
        items_(memcom::zipf_weights(kItems - 1, kItemZipf)) {}

  const memcom::SessionEvent& next() {
    log_.push_back({static_cast<std::uint64_t>(1 + sessions_.sample(rng_)),
                    static_cast<std::int32_t>(1 + items_.sample(rng_))});
    return log_.back();
  }
  const std::vector<memcom::SessionEvent>& log() const { return log_; }

 private:
  Rng rng_;
  memcom::AliasSampler sessions_;
  memcom::AliasSampler items_;
  std::vector<memcom::SessionEvent> log_;
};

// Checks every ranked answer against reference rows computed on
// kVerifyThreads threads, each with its own Reference.
std::vector<RankVerdict> verify_rankings(const std::string& path,
                                         const std::vector<History>& histories,
                                         const std::vector<Answer>& answers) {
  std::vector<RankVerdict> verdicts(answers.size());
  std::vector<std::exception_ptr> errors(kVerifyThreads);
  std::vector<std::thread> threads;
  constexpr std::size_t kBlock = 32;
  for (int t = 0; t < kVerifyThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        Reference ref(session_config(), path);
        for (std::size_t b = static_cast<std::size_t>(t) * kBlock;
             b < answers.size(); b += kVerifyThreads * kBlock) {
          const std::size_t e = std::min(answers.size(), b + kBlock);
          std::vector<const History*> block;
          for (std::size_t i = b; i < e; ++i) {
            block.push_back(&histories[i]);
          }
          const Tensor logits = ref.logits(block);
          for (std::size_t i = b; i < e; ++i) {
            if (answers[i].ok) {
              verdicts[i] = check_ranking(answers[i].ids.data(),
                                          answers[i].scores.data(), kTopK,
                                          logits.data() + (i - b) * kItems,
                                          kItems);
            }
          }
        }
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
  return verdicts;
}

// Replaying event i with the item of the next event of its session (the
// two swapped) must fail the check of answer i. Returns "" when it does.
std::string disordered_replay_rejected(
    const std::vector<memcom::SessionEvent>& log,
    const std::vector<Answer>& answers, bool pruned, Reference& ref) {
  for (std::size_t i = 0; i < log.size(); ++i) {
    std::size_t j = i + 1;
    while (j < log.size() && log[j].session_id != log[i].session_id) {
      ++j;
    }
    if (j == log.size() || log[j].item == log[i].item || !answers[i].ok) {
      continue;
    }
    SessionReplay disordered(kSessionCapacity, kSessionHistory);
    for (std::size_t m = 0; m < i; ++m) {
      disordered.apply(log[m].session_id, log[m].item);
    }
    const History h = disordered.apply(log[i].session_id, log[j].item);
    const Tensor row = ref.logits({&h});
    const RankVerdict v = check_ranking(answers[i].ids.data(),
                                        answers[i].scores.data(), kTopK,
                                        row.data(), kItems);
    return v.scores_ok && (pruned || v.members_ok)
               ? "history replayed out of order"
               : "";
  }
  return "no session with two distinct items to swap";
}

RunResult run_sessions(const Options& o, bool pruned) {
  RunResult out;
  Tracer tracer(o.trace);
  ServingObserver observer(tracer);
  LayerFigures layers;
  const std::string path = o.workdir + "/session.mcm";
  const Index nprobe = pruned ? kNprobe : 0;
  EventStream events(o.seed);
  const memcom::SessionEvent first_event = events.next();

  const auto deploy = [&](const std::string& suffix) {
    return deploy_session_model(path + suffix, nprobe, first_event, tracer);
  };
  Deployment main = deploy("");
  SetupTimes setup;
  setup.add(main);
  AsyncServer& server = *main.server;

  std::vector<Answer> answers;
  answers.push_back(answer_from(main.first[0].get()));
  Phase phase = Phase::kNone;
  const auto complete = [&](std::uint64_t op, AsyncResult r,
                            const OpTiming& timing) {
    observer.observe(phase, op, r, timing);
    answers[op] = answer_from(r);
  };
  const auto submit = [&](std::uint64_t) {
    const memcom::SessionEvent& e = events.next();
    answers.emplace_back();
    return server.submit_next_item(kSessionModelId, e.session_id, e.item,
                                   kTopK);
  };

  std::uint64_t next_op = 1;
  drive_closed<AsyncResult>(kSessionWindow, kWarmupSeconds, next_op, submit,
                            complete);
  const ServerBaseline baseline(server);
  const RoundStats rounds = drive_rounds(
      o.seconds, kOpenShare,
      [&](double s) {
        phase = Phase::kOpen;
        return drive_open<AsyncResult>(kSessionRate, s, next_op, submit,
                                       complete);
      },
      [&](double s) {
        phase = Phase::kClosed;
        return drive_closed<AsyncResult>(kSessionWindow, s, next_op, submit,
                                         complete);
      },
      [&](int round) {
        phase = Phase::kNone;
        setup.maybe_redeploy(round, deploy);
      });
  phase = Phase::kNone;

  report_latency(out, rounds.open, pruned ? "session_pruned" : "session_exact");
  out.e2e("throughput_qps", rounds.closed.throughput(), "1/s");
  out.e2e("resident_mb", server.max_resident_megabytes(), "MiB");
  out.e2e("artifact_mb", file_mib({path}), "MiB");
  out.e2e("setup_s", median(setup.setup_s), "s");
  if (o.trace) {
    baseline.fill(server, layers);
  }
  const std::uint64_t server_evictions = server.evicted_sessions();
  const std::shared_ptr<const CompiledModel> compiled =
      main.registry->acquire(kSessionModelId);
  main.server.reset();

  // Replay the session store and check every answer.
  SessionReplay replay(kSessionCapacity, kSessionHistory);
  std::vector<History> histories;
  histories.reserve(events.log().size());
  for (const memcom::SessionEvent& e : events.log()) {
    histories.push_back(replay.apply(e.session_id, e.item));
  }
  const std::vector<RankVerdict> verdicts =
      verify_rankings(path, histories, answers);
  double recall_sum = 0.0;
  std::ptrdiff_t sample = -1;
  Reference ref(session_config(), path);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    ++out.attempted;
    const RankVerdict& v = verdicts[i];
    if (!answers[i].ok || !v.scores_ok || (!pruned && !v.members_ok)) {
      ++out.failed;
      continue;
    }
    recall_sum += v.recall;
    if (sample < 0 && separable(answers[i], ref.logits({&histories[i]}).data(),
                                kItems)) {
      sample = static_cast<std::ptrdiff_t>(i);
    }
  }
  out.e2e("recall_at_10", recall_sum / static_cast<double>(out.attempted),
          "ratio");
  if (replay.evictions() != server_evictions) {
    ++out.failed;
    out.note("session evictions: server " + std::to_string(server_evictions) +
             ", replay " + std::to_string(replay.evictions()));
  }
  out.note("session events " + std::to_string(events.log().size()) +
           ", evictions " + std::to_string(server_evictions));

  std::string slipped = "no verified answer to corrupt";
  if (sample >= 0) {
    const auto i = static_cast<std::size_t>(sample);
    slipped = ranking_check_rejects(answers[i],
                                    ref.logits({&histories[i]}).data(), kItems);
  }
  if (slipped.empty()) {
    slipped = disordered_replay_rejected(events.log(), answers, pruned, ref);
  }
  report_checks_of_checks(out, slipped);

  if (o.trace) {
    layers.late_ms = mean(rounds.open.late_ms);
    observer.fill(layers);
    layers.load_ms = median(tracer.durations_ms("registry.load"));
    layers.export_s = median(setup.export_s);
    Rng probe_rng(o.seed + 17);
    probe_layers(tracer, path, compiled, histories, nprobe, /*boots=*/true,
                 probe_rng, layers);
    finish_trace(tracer, layers, o.workdir, out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// cold_start

// Moves the calling thread across every core it may run on, in turn. A
// single thread otherwise stays on one core for a whole run, and this
// host's cores run at different speeds for tens of seconds at a time (other
// guests share them): rotating makes each run sample all of them. The
// thread's own affinity is restored on destruction.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed_)) {
          cores_.push_back(c);
        }
      }
    }
  }
  ~CoreRotation() {
    if (!cores_.empty()) {
      sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void next() {
    if (cores_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[next_++ % cores_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cores_;
  std::size_t next_ = 0;
};

RunResult run_cold_start(const Options& o) {
  RunResult out;
  Tracer tracer(o.trace);
  ServingObserver observer(tracer);
  LayerFigures layers;
  const memcom::DeviceProfile profile = memcom::tflite_profile();
  const std::string path = o.workdir + "/session.mcm";

  // Pool of session histories a boot answers for; entry 0 is the one-item
  // history of the set-up's first served answer.
  Rng input_rng(o.seed);
  const memcom::AliasSampler items(memcom::zipf_weights(kItems - 1, kItemZipf));
  std::vector<History> pool;
  pool.push_back(random_history(input_rng, items, 1, 1));
  while (static_cast<Index>(pool.size()) < kBootPool) {
    const Index len =
        1 + static_cast<Index>(input_rng.uniform_index(kSessionHistory));
    pool.push_back(random_history(input_rng, items, len, len));
  }

  // Set-up deploys the file the way the session workloads do (registry,
  // server, first answer); the timed boots then re-open it in process.
  const memcom::SessionEvent first_event = {1, pool[0][0]};
  std::uint64_t deployments = 0;
  Answer setup_answer;
  const auto deploy = [&](const std::string& suffix) {
    Deployment d = deploy_session_model(path + suffix, 0, first_event, tracer);
    const AsyncResult r = d.first[0].get();
    observer.observe(Phase::kOpen, deployments++, r, d.first_timing);
    if (suffix.empty()) {
      setup_answer = answer_from(r);
    }
    return d;
  };
  SetupTimes setup;
  setup.add(deploy(""));

  Reference ref(session_config(), path);
  const std::vector<float> ref_rows = reference_rows(ref, pool);
  const auto ref_row = [&](Index p) { return ref_rows.data() + p * kItems; };

  std::vector<std::vector<History>> inputs;
  for (const History& h : pool) {
    inputs.push_back({h});
  }
  std::vector<Known> known(static_cast<std::size_t>(kBootPool));
  double recall_sum = 0.0;
  Answer sample;
  Index sample_pool = -1;
  const auto check = [&](const Answer& a, Index p) {
    ++out.attempted;
    const std::uint64_t h = answer_hash(a);
    Known& k = known[static_cast<std::size_t>(p)];
    if (a.ok && k.set && k.hash == h) {
      recall_sum += k.recall;
      return;
    }
    const RankVerdict v =
        a.ok ? check_ranking(a.ids.data(), a.scores.data(), kTopK, ref_row(p),
                             kItems)
             : RankVerdict{};
    if (!v.scores_ok || !v.members_ok) {
      ++out.failed;
      return;
    }
    k = {h, v.recall, true};
    recall_sum += v.recall;
    if (sample_pool < 0 && separable(a, ref_row(p), kItems)) {
      sample = a;
      sample_pool = p;
    }
  };
  check(setup_answer, 0);

  Rng boot_rng(o.seed ^ 0xb007ULL);
  std::vector<std::vector<ScoredId>> ranked;
  std::uint64_t not_adopted = 0;
  CoreRotation rotation;
  const auto boot = [&](std::uint64_t op) {
    if (op % kBootsPerCore == 0) {
      rotation.next();
    }
    const auto p = static_cast<Index>(boot_rng.uniform_u64(kBootPool));
    const auto t0 = SteadyClock::now();
    auto mapped = std::make_shared<const MmapModel>(path);
    const auto t1 = SteadyClock::now();
    auto compiled = std::make_shared<const CompiledModel>(mapped);
    const auto t2 = SteadyClock::now();
    {
      ExecutionContext ctx(compiled, profile);
      ctx.run_batch(inputs[static_cast<std::size_t>(p)], kTopK, &ranked);
    }
    const auto t3 = SteadyClock::now();
    if (tracer.enabled()) {
      const std::uint64_t root = tracer.record("boot", op + 1, 0, t0, t3);
      tracer.record("format.open", op + 1, root, t0, t1);
      tracer.record("compiled_model.adopt", op + 1, root, t1, t2);
      tracer.record("execution_context.first_run", op + 1, root, t2, t3);
    }
    const bool adopted =
        compiled->plan_adopted() && compiled->has_catalog_index();
    not_adopted += adopted ? 0 : 1;
    Answer a;
    a.ok = adopted && ranked.size() == 1 &&
           ranked[0].size() == static_cast<std::size_t>(kTopK);
    for (std::size_t i = 0; a.ok && i < ranked[0].size(); ++i) {
      a.ids[i] = ranked[0][i].id;
      a.scores[i] = ranked[0][i].score;
    }
    check(a, p);
    return ms_between(t0, t3);
  };

  std::uint64_t next_op = 0;
  drive_closed_sync(kWarmupSeconds, next_op, boot);
  const RoundStats rounds = drive_rounds(
      o.seconds, kOpenShare,
      [&](double s) { return drive_open_sync(kBootRate, s, next_op, boot); },
      [&](double s) { return drive_closed_sync(s, next_op, boot); },
      [&](int round) { setup.maybe_redeploy(round, deploy); });

  // A boot holds one context and one plan: its footprint is the context's
  // metered pages plus the plan's buffers.
  double resident_mb = 0.0;
  {
    auto compiled = std::make_shared<const CompiledModel>(
        std::make_shared<const MmapModel>(path));
    ExecutionContext ctx(compiled, profile);
    ctx.run_batch(inputs[0], kTopK, &ranked);
    resident_mb = ctx.resident_megabytes() +
                  static_cast<double>(compiled->plan_resident_bytes()) /
                      (1024.0 * 1024.0);
  }
  report_latency(out, rounds.open, "cold_start");
  out.e2e("throughput_qps", rounds.closed.throughput(), "1/s");
  out.e2e("resident_mb", resident_mb, "MiB");
  out.e2e("artifact_mb", file_mib({path}), "MiB");
  out.e2e("setup_s", median(setup.setup_s), "s");
  out.e2e("recall_at_10", recall_sum / static_cast<double>(out.attempted),
          "ratio");
  if (not_adopted > 0) {
    out.note(std::to_string(not_adopted) +
             " boots did not adopt the plan and the index");
  }
  report_checks_of_checks(
      out, sample_pool >= 0
               ? ranking_check_rejects(sample, ref_row(sample_pool), kItems)
               : "no verified answer to corrupt");

  if (o.trace) {
    layers.late_ms = mean(rounds.open.late_ms);
    observer.fill(layers);
    layers.load_ms = median(tracer.durations_ms("registry.load"));
    layers.export_s = median(setup.export_s);
    Rng probe_rng(o.seed + 17);
    auto compiled = std::make_shared<const CompiledModel>(
        std::make_shared<const MmapModel>(path));
    probe_layers(tracer, path, compiled, pool, 0, /*boots=*/false, probe_rng,
                 layers);
    finish_trace(tracer, layers, o.workdir, out);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"tenants", "session_exact",
                                                 "session_pruned", "cold_start"};
  return names;
}

RunResult run_workload(const Options& options) {
  if (options.workload == "tenants") {
    return run_tenants(options);
  }
  if (options.workload == "session_exact") {
    return run_sessions(options, /*pruned=*/false);
  }
  if (options.workload == "session_pruned") {
    return run_sessions(options, /*pruned=*/true);
  }
  return run_cold_start(options);
}

}  // namespace perfbench
