// Concurrency stress tests for the async serving pipeline.
//
//   * RequestQueue under producer/consumer contention: bounded capacity is a
//     hard invariant (backpressure engages at capacity), nothing is lost or
//     duplicated, close() drains cleanly and wakes blocked producers.
//   * AsyncServer under multi-producer load with random pacing: every
//     submitted request resolves exactly once with logits bit-identical to
//     the sequential engine, regardless of micro-batch composition — i.e.
//     the run is deterministic in request CONTENT even though scheduling is
//     not (order-independent logit multiset).
//
// The CI ThreadSanitizer job runs this suite (MEMCOM_SANITIZE=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ondevice/request_queue.h"
#include "ondevice/serving.h"
#include "repro/model.h"
#include "test_util.h"

namespace memcom {
namespace {

// --- RequestQueue --------------------------------------------------------

TEST(RequestQueueStress, NoLossNoDuplicationUnderContention) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  constexpr std::size_t kCapacity = 8;
  RequestQueue<std::uint64_t> queue(kCapacity);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      std::mt19937 rng(static_cast<unsigned>(1000 + p));
      std::uniform_int_distribution<int> delay_us(0, 80);
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t token =
            (static_cast<std::uint64_t>(p) << 32) |
            static_cast<std::uint64_t>(i);
        ASSERT_TRUE(queue.push(token));
        if (const int d = delay_us(rng); d > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(d));
        }
      }
    });
  }

  std::vector<std::vector<std::uint64_t>> received(2);
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < received.size(); ++c) {
    consumers.emplace_back([&queue, &received, c] {
      std::uint64_t token = 0;
      while (queue.pop(token)) {
        received[c].push_back(token);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  queue.close();
  for (auto& t : consumers) {
    t.join();
  }

  std::vector<std::uint64_t> all;
  for (const auto& r : received) {
    all.insert(all.end(), r.begin(), r.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  // Sorted tokens must be exactly {p<<32|i}: any loss or duplication breaks
  // the element-wise match.
  std::size_t idx = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      EXPECT_EQ(all[idx++], (static_cast<std::uint64_t>(p) << 32) |
                                static_cast<std::uint64_t>(i));
    }
  }
  EXPECT_EQ(queue.total_pushed(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  // The ring IS the storage: occupancy can never have exceeded capacity.
  EXPECT_LE(queue.high_water(), kCapacity);
}

TEST(RequestQueueStress, BackpressureEngagesAtCapacity) {
  RequestQueue<int> queue(3);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3));
  // Full: non-blocking admission must fail and be counted.
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_FALSE(queue.try_push(5));
  EXPECT_EQ(queue.rejected(), 2u);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.high_water(), 3u);
  int out = 0;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  // One slot freed: admission resumes.
  EXPECT_TRUE(queue.try_push(6));
  EXPECT_EQ(queue.high_water(), 3u);
}

TEST(RequestQueueStress, CloseDrainsPendingThenStops) {
  RequestQueue<int> queue(4);
  ASSERT_TRUE(queue.push(10));
  ASSERT_TRUE(queue.push(11));
  queue.close();
  EXPECT_FALSE(queue.push(12));      // no admission after close...
  EXPECT_FALSE(queue.try_push(13));
  int out = 0;
  EXPECT_TRUE(queue.pop(out));       // ...but the backlog still drains
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 11);
  EXPECT_FALSE(queue.pop(out));      // drained: pop reports shutdown
}

TEST(RequestQueueStress, CloseWakesBlockedProducer) {
  RequestQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));
  std::promise<bool> pushed;
  std::thread producer([&] {
    pushed.set_value(queue.push(2));  // blocks: queue is full
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  EXPECT_FALSE(pushed.get_future().get());  // woken with a clean failure
}

TEST(RequestQueueStress, PopWaitUntilTimesOutOnEmptyQueue) {
  RequestQueue<int> queue(2);
  int out = 0;
  bool timed_out = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_FALSE(queue.pop_wait_until(out, deadline, &timed_out));
  EXPECT_TRUE(timed_out);
}

// --- AsyncServer ---------------------------------------------------------

class AsyncStressTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }

  std::string export_model(TechniqueKind kind, const std::string& tag) {
    ModelConfig config;
    config.embedding.kind = kind;
    config.embedding.vocab = 200;
    config.embedding.embed_dim = 16;
    config.embedding.knob = 32;
    config.arch = ModelArch::kClassification;
    config.output_vocab = 20;
    config.seed = 777;
    RecModel model(config);
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_async_stress_" + tag + ".mcm");
    paths_.push_back(p);
    model.export_mcm(p.string());
    return p.string();
  }

  std::vector<std::filesystem::path> paths_;
};

std::vector<std::int32_t> random_history(std::mt19937& rng) {
  std::uniform_int_distribution<int> len(1, 12);
  std::uniform_int_distribution<std::int32_t> id(1, 199);
  std::vector<std::int32_t> history(static_cast<std::size_t>(len(rng)));
  for (auto& v : history) {
    v = id(rng);
  }
  return history;
}

TEST_F(AsyncStressTest, MultiProducerNoLossNoDuplicationBitExact) {
  const std::string path = export_model(TechniqueKind::kMemcom, "producers");
  const MmapModel model(path);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  AsyncServerConfig config;
  config.threads = 3;
  config.max_batch = 4;
  config.max_delay_us = 100.0;
  config.queue_capacity = 8;  // small on purpose: submit() must block
  config.cache_budget_bytes = 16 * 1024;

  struct Submitted {
    std::vector<std::int32_t> history;
    std::future<AsyncResult> future;
  };
  std::vector<std::vector<Submitted>> per_producer(kProducers);
  {
    AsyncServer server(model, tflite_profile(), config);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&server, &per_producer, p] {
        std::mt19937 rng(static_cast<unsigned>(31 + p));
        std::uniform_int_distribution<int> delay_us(0, 120);
        for (int i = 0; i < kPerProducer; ++i) {
          Submitted s;
          s.history = random_history(rng);
          s.future = server.submit(s.history);
          per_producer[static_cast<std::size_t>(p)].push_back(std::move(s));
          if (const int d = delay_us(rng); d > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(d));
          }
        }
      });
    }
    for (auto& t : producers) {
      t.join();
    }
    // Backpressure invariant: admission never exceeded the bound.
    EXPECT_LE(server.queue_high_water(), config.queue_capacity);

    // Every request resolves exactly once, bit-identical to the sequential
    // engine — the scheduler may have packed them into any micro-batches.
    ExecutionContext reference(std::make_shared<const CompiledModel>(model),
                               tflite_profile());
    std::uint64_t resolved = 0;
    for (auto& produced : per_producer) {
      for (Submitted& s : produced) {
        const AsyncResult result = s.future.get();
        ++resolved;
        const InferenceView expected = reference.run_view(s.history);
        ASSERT_EQ(static_cast<Index>(result.logits.size()),
                  expected.dim);
        for (Index c = 0; c < expected.dim; ++c) {
          EXPECT_EQ(result.logits[static_cast<std::size_t>(c)],
                    expected.logits[c]);
        }
        EXPECT_GE(result.batch, 1);
        EXPECT_LE(result.batch, config.max_batch);
        EXPECT_GE(result.queue_wait_ms, 0.0);
        EXPECT_GE(result.total_ms, result.service_ms);
      }
    }
    EXPECT_EQ(resolved,
              static_cast<std::uint64_t>(kProducers) * kPerProducer);
  }
}

TEST_F(AsyncStressTest, LogitMultisetIsScheduleIndependent) {
  const std::string path = export_model(TechniqueKind::kQrMult, "multiset");
  const MmapModel model(path);

  std::mt19937 rng(404);
  std::vector<std::vector<std::int32_t>> requests;
  for (int i = 0; i < 48; ++i) {
    requests.push_back(random_history(rng));
  }

  // Same request content through two very different schedules: batch-1
  // single worker vs aggressive micro-batching on 4 workers with a cache.
  auto drain = [&](AsyncServerConfig config) {
    AsyncServer server(model, tflite_profile(), config);
    Tensor logits;
    server.serve(requests, 1, 0.0, &logits);
    std::vector<std::vector<float>> rows;
    for (Index r = 0; r < logits.dim(0); ++r) {
      const float* row = &logits.at2(r, 0);
      rows.emplace_back(row, row + logits.shape()[1]);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  AsyncServerConfig serial;
  serial.threads = 1;
  serial.max_batch = 1;
  serial.max_delay_us = 0.0;
  serial.queue_capacity = 4;
  AsyncServerConfig batched;
  batched.threads = 4;
  batched.max_batch = 16;
  batched.max_delay_us = 300.0;
  batched.queue_capacity = 32;
  batched.cache_budget_bytes = 64 * 1024;

  const auto rows_serial = drain(serial);
  const auto rows_batched = drain(batched);
  ASSERT_EQ(rows_serial.size(), rows_batched.size());
  for (std::size_t i = 0; i < rows_serial.size(); ++i) {
    EXPECT_EQ(rows_serial[i], rows_batched[i]) << "sorted row " << i;
  }
}

TEST_F(AsyncStressTest, ReportIsInternallyConsistent) {
  const std::string path = export_model(TechniqueKind::kMemcom, "report");
  const MmapModel model(path);

  std::mt19937 rng(11);
  std::vector<std::vector<std::int32_t>> requests;
  for (int i = 0; i < 24; ++i) {
    requests.push_back(random_history(rng));
  }

  AsyncServerConfig config;
  config.threads = 2;
  config.max_batch = 8;
  config.max_delay_us = 200.0;
  config.queue_capacity = 16;
  config.cache_budget_bytes = 32 * 1024;
  AsyncServer server(model, tflite_profile(), config);
  const ServingReport report = server.serve(requests, 3);

  EXPECT_EQ(report.threads, 2);
  EXPECT_EQ(report.requests, 72u);
  EXPECT_EQ(report.latency.runs, 72);
  EXPECT_EQ(report.queue_wait.runs, 72);
  EXPECT_EQ(report.service.runs, 72);
  EXPECT_GT(report.batches, 0u);
  EXPECT_GE(report.mean_batch, 1.0);
  EXPECT_LE(report.mean_batch, static_cast<double>(config.max_batch));
  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GT(report.modeled_busy_ms, 0.0);
  EXPECT_GT(report.modeled_qps, 0.0);
  EXPECT_LE(report.latency.min_ms, report.latency.p50_ms);
  EXPECT_LE(report.latency.p50_ms, report.latency.p99_ms);
  EXPECT_LE(report.latency.p99_ms, report.latency.max_ms);
  // total = queue wait + service, so the max total bounds each part's min.
  EXPECT_GE(report.latency.max_ms, report.queue_wait.min_ms);
  EXPECT_GE(report.latency.max_ms, report.service.min_ms);
  // Cache engaged: memcom is a lookup technique and the drain repeats the
  // corpus three times, so hits are guaranteed.
  EXPECT_TRUE(report.cache.enabled);
  EXPECT_GT(report.cache.hits, 0u);
  EXPECT_GT(report.cache.resident_bytes, 0u);
  EXPECT_LE(report.cache.resident_bytes, report.cache.capacity_bytes);
  EXPECT_GT(server.max_resident_megabytes(), 0.0);

  // Cache counters in a report are the DRAIN'S delta, not lifetime totals:
  // the same corpus gathers the same row count every drain, and a warmer
  // cache can only shift misses toward hits.
  const ServingReport second = server.serve(requests, 3);
  EXPECT_EQ(second.cache.hits + second.cache.misses,
            report.cache.hits + report.cache.misses);
  EXPECT_GE(second.cache.hits, report.cache.hits);
}

TEST_F(AsyncStressTest, CacheAccessorsCountSubmitOnlyTraffic) {
  // Traffic sent through submit() alone never starts a drain, so
  // cache_stats() and max_resident_megabytes() carry lifetime totals of the
  // per-batch worker counters — what a load generator reads between runs.
  const std::string path = export_model(TechniqueKind::kMemcom, "accessors");
  const MmapModel model(path);
  constexpr std::size_t kBudget = 32 * 1024;

  std::mt19937 rng(12);
  std::vector<std::vector<std::int32_t>> requests;
  for (int i = 0; i < 48; ++i) {
    requests.push_back(random_history(rng));
  }
  // Hits plus misses count every gathered row, whatever the cache held:
  // one cached context over the same histories gives the expected count.
  ExecutionContext reference(std::make_shared<const CompiledModel>(model),
                             tflite_profile());
  reference.enable_row_cache(kBudget);
  std::uint64_t gathered = 0;
  for (const auto& history : requests) {
    const InferenceView view = reference.run_view(history);
    gathered += view.cache_hits + view.cache_misses;
  }
  ASSERT_GT(gathered, 0u);

  AsyncServerConfig config;
  config.threads = 2;
  config.max_batch = 8;
  config.max_delay_us = 200.0;
  config.queue_capacity = 16;
  config.cache_budget_bytes = kBudget;
  AsyncServer server(model, tflite_profile(), config);
  EXPECT_FALSE(server.cache_stats().enabled);  // no batch has run yet
  EXPECT_EQ(server.max_resident_megabytes(), 0.0);

  std::vector<std::future<AsyncResult>> futures;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& history : requests) {
      futures.push_back(server.submit(history));
    }
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, RequestStatus::kOk);
  }
  const RowCacheStats cache = server.cache_stats();
  EXPECT_TRUE(cache.enabled);
  EXPECT_EQ(cache.hits + cache.misses, 2 * gathered);
  EXPECT_GT(cache.resident_bytes, 0u);
  EXPECT_LE(cache.resident_bytes, cache.capacity_bytes);
  EXPECT_GT(server.max_resident_megabytes(), 0.0);
}

TEST_F(AsyncStressTest, HotSwapUnderConcurrentTrafficIsBitExactPerVersion) {
  // Producers stream requests while the registry publishes v2 mid-traffic.
  // Contract: every future resolves; each result is bit-identical to a
  // sequential run on WHICHEVER version served it (the result says which);
  // the old version's plan+mapping are released once in-flight work drains.
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcom, 200, 16, 32};
  config.arch = ModelArch::kClassification;
  config.output_vocab = 20;

  const auto export_version = [&](std::uint64_t seed, std::uint64_t version) {
    config.seed = seed;
    RecModel model(config);
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_hotswap_v" + std::to_string(version) + ".mcm");
    paths_.push_back(p);
    model.export_mcm(p.string(), DType::kF32, "hotswap", version);
    return p.string();
  };
  const std::string v1_path = export_version(1001, 1);
  const std::string v2_path = export_version(2002, 2);

  const MmapModel v1_mapped(v1_path);
  const MmapModel v2_mapped(v2_path);
  ExecutionContext v1_reference(
      std::make_shared<const CompiledModel>(v1_mapped), tflite_profile());
  ExecutionContext v2_reference(
      std::make_shared<const CompiledModel>(v2_mapped), tflite_profile());

  ModelRegistry registry;
  registry.load("m", v1_path);
  std::shared_ptr<const CompiledModel> old_plan = registry.acquire("m");

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 60;
  AsyncServerConfig server_config;
  server_config.threads = 2;
  server_config.max_batch = 4;
  server_config.max_delay_us = 100.0;
  server_config.queue_capacity = 8;
  server_config.cache_budget_bytes = 16 * 1024;

  struct Submitted {
    std::vector<std::int32_t> history;
    std::future<AsyncResult> future;
  };
  std::vector<std::vector<Submitted>> per_producer(kProducers);
  std::uint64_t served_by_v1 = 0;
  std::uint64_t served_by_v2 = 0;
  {
    AsyncServer server(registry, "m", tflite_profile(), server_config);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&server, &per_producer, p] {
        std::mt19937 rng(static_cast<unsigned>(91 + p));
        std::uniform_int_distribution<int> delay_us(0, 120);
        for (int i = 0; i < kPerProducer; ++i) {
          Submitted s;
          s.history = random_history(rng);
          s.future = server.submit("m", s.history);
          per_producer[static_cast<std::size_t>(p)].push_back(std::move(s));
          if (const int d = delay_us(rng); d > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(d));
          }
        }
      });
    }
    // Swap once roughly a third of the traffic has completed, so both
    // versions demonstrably serve (v1 before, v2 after; batches formed
    // around the swap pin whichever version they started with).
    while (server.completed_requests() <
           static_cast<std::uint64_t>(kProducers) * kPerProducer / 3) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    EXPECT_EQ(registry.swap("m", v2_path), 2u);
    for (auto& t : producers) {
      t.join();
    }

    std::uint64_t resolved = 0;
    for (auto& produced : per_producer) {
      for (Submitted& s : produced) {
        const AsyncResult result = s.future.get();
        ++resolved;
        ASSERT_TRUE(result.model_version == 1 || result.model_version == 2);
        ExecutionContext& reference =
            result.model_version == 1 ? v1_reference : v2_reference;
        (result.model_version == 1 ? served_by_v1 : served_by_v2) += 1;
        const InferenceView expected = reference.run_view(s.history);
        ASSERT_EQ(static_cast<Index>(result.logits.size()),
                  expected.dim);
        for (Index c = 0; c < expected.dim; ++c) {
          ASSERT_EQ(result.logits[static_cast<std::size_t>(c)],
                    expected.logits[c])
              << "version " << result.model_version << " logit " << c;
        }
      }
    }
    EXPECT_EQ(resolved,
              static_cast<std::uint64_t>(kProducers) * kPerProducer);
    // The swap landed mid-traffic: v2 must have served, and the swap gate
    // (a third completed before publication) guarantees v1 did too.
    EXPECT_GT(served_by_v1, 0u);
    EXPECT_GT(served_by_v2, 0u);
  }
  // Server destroyed: every in-flight batch and worker context has drained,
  // so the test handle is the LAST reference to v1 — the registry moved on
  // at swap time. Dropping it releases the old plan and its mmap.
  EXPECT_EQ(old_plan.use_count(), 1);
  EXPECT_EQ(registry.acquire("m")->model_version(), 2u);
}

TEST_F(AsyncStressTest, IdleWorkerLaneReleasesSwappedPlanUnderOtherTraffic) {
  // Regression: a worker keeps one ExecutionContext lane per model id. If a
  // model is swapped (or retired) and never sees traffic again, its lane
  // must not pin the superseded plan until server destruction — completing
  // a batch of ANY model prunes every stale lane.
  const std::string a_v1 = export_model(TechniqueKind::kMemcom, "idlelane_a1");
  const std::string a_v2 = export_model(TechniqueKind::kMemcom, "idlelane_a2");
  const std::string b = export_model(TechniqueKind::kQrMult, "idlelane_b");

  ModelRegistry registry;
  registry.load("a", a_v1);
  registry.load("b", b);
  std::shared_ptr<const CompiledModel> old_plan = registry.acquire("a");

  AsyncServerConfig config;
  config.threads = 1;  // deterministic: one worker owns both lanes
  config.max_batch = 2;
  config.max_delay_us = 50.0;

  AsyncServer server(registry, "a", tflite_profile(), config);
  std::mt19937 rng(515);
  // Bind the worker's "a" lane to v1.
  server.submit("a", random_history(rng)).get();
  // Swap "a" while its lane idles; all further traffic goes to "b".
  EXPECT_EQ(registry.swap("a", a_v2), 2u);
  server.submit("b", random_history(rng)).get();

  // The "b" batch completion prunes the stale "a" lane. The prune runs
  // just AFTER the future resolves, so allow it a bounded moment to land.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (old_plan.use_count() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Only the test handle is left: the v1 plan (and its mmap) drained with
  // the server still running.
  EXPECT_EQ(old_plan.use_count(), 1);
  // The swapped model still serves — on a freshly bound v2 lane.
  const AsyncResult post = server.submit("a", random_history(rng)).get();
  EXPECT_EQ(post.model_version, 2u);
}

TEST_F(AsyncStressTest, MixedModelTrafficRoutesAndReportsPerModel) {
  // Two models behind one server: interleaved traffic must route each
  // request to its model (different output widths make cross-routing
  // impossible to miss) and the report must break down per model.
  ModelConfig small;
  small.embedding = {TechniqueKind::kMemcom, 200, 16, 32};
  small.arch = ModelArch::kClassification;
  small.output_vocab = 12;
  small.seed = 31;
  ModelConfig large;
  large.embedding = {TechniqueKind::kQrMult, 200, 16, 32};
  large.arch = ModelArch::kClassification;
  large.output_vocab = 28;
  large.seed = 32;

  const auto export_config = [&](const ModelConfig& model_config,
                                 const std::string& tag) {
    RecModel model(model_config);
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_mixed_" + tag + ".mcm");
    paths_.push_back(p);
    model.export_mcm(p.string());
    return p.string();
  };
  const std::string small_path = export_config(small, "small");
  const std::string large_path = export_config(large, "large");

  ModelRegistry registry;
  registry.load("small", small_path);
  registry.load("large", large_path);

  AsyncServerConfig config;
  config.threads = 2;
  config.max_batch = 4;
  config.max_delay_us = 100.0;
  config.queue_capacity = 16;
  config.cache_budget_bytes = 16 * 1024;
  AsyncServer server(registry, "small", tflite_profile(), config);
  EXPECT_EQ(server.output_dim(), 12);

  std::mt19937 rng(77);
  std::vector<RoutedRequest> requests;
  for (int i = 0; i < 40; ++i) {
    requests.push_back(
        RoutedRequest{i % 2 == 0 ? "small" : "large", random_history(rng)});
  }
  std::vector<std::vector<float>> logits;
  const ServingReport report = server.serve(requests, 2, 0.0, &logits);

  EXPECT_EQ(report.requests, 80u);
  ASSERT_EQ(logits.size(), requests.size());
  const MmapModel small_mapped(small_path);
  const MmapModel large_mapped(large_path);
  ExecutionContext small_reference(
      std::make_shared<const CompiledModel>(small_mapped), tflite_profile());
  ExecutionContext large_reference(
      std::make_shared<const CompiledModel>(large_mapped), tflite_profile());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    ExecutionContext& reference =
        requests[r].model_id == "small" ? small_reference : large_reference;
    const InferenceView expected = reference.run_view(requests[r].history);
    ASSERT_EQ(static_cast<Index>(logits[r].size()), expected.dim)
        << requests[r].model_id << " request " << r;
    for (Index c = 0; c < expected.dim; ++c) {
      EXPECT_EQ(logits[r][static_cast<std::size_t>(c)], expected.logits[c])
          << requests[r].model_id << " request " << r << " logit " << c;
    }
  }

  // Per-model breakdown: both models present, request counts split evenly,
  // latency sample counts match, caches engaged per model.
  ASSERT_EQ(report.per_model.size(), 2u);
  std::uint64_t breakdown_total = 0;
  for (const ModelReport& model : report.per_model) {
    EXPECT_TRUE(model.model_id == "small" || model.model_id == "large");
    EXPECT_EQ(model.requests, 40u);
    EXPECT_EQ(model.latency.runs, 40);
    EXPECT_GT(model.modeled_busy_ms, 0.0);
    EXPECT_GT(model.modeled_qps, 0.0);
    EXPECT_EQ(model.version, 1u);
    EXPECT_TRUE(model.cache.enabled);
    EXPECT_GT(model.cache.hits + model.cache.misses, 0u);
    breakdown_total += model.requests;
  }
  EXPECT_EQ(breakdown_total, report.requests);
}

TEST_F(AsyncStressTest, TrySubmitRejectsWhenQueueSaturated) {
  const std::string path = export_model(TechniqueKind::kMemcom, "reject");
  const MmapModel model(path);

  AsyncServerConfig config;
  config.threads = 1;
  config.max_batch = 2;
  config.max_delay_us = 50.0;
  config.queue_capacity = 2;
  AsyncServer server(model, tflite_profile(), config);

  // Flood the tiny queue from one thread with no pacing: with a single
  // worker some try_submit must eventually bounce (and be counted), while
  // every ACCEPTED request still resolves correctly.
  ExecutionContext reference(std::make_shared<const CompiledModel>(model),
                             tflite_profile());
  std::mt19937 rng(8);
  struct Accepted {
    std::vector<std::int32_t> history;
    std::future<AsyncResult> future;
  };
  std::vector<Accepted> accepted;
  std::uint64_t bounced = 0;
  for (int i = 0; i < 400; ++i) {
    Accepted a;
    a.history = random_history(rng);
    if (server.try_submit(a.history, &a.future)) {
      accepted.push_back(std::move(a));
    } else {
      ++bounced;
    }
  }
  EXPECT_GT(bounced, 0u);
  EXPECT_EQ(server.rejected(), bounced);
  EXPECT_EQ(server.queue_high_water(), config.queue_capacity);
  for (Accepted& a : accepted) {
    const AsyncResult result = a.future.get();
    const InferenceView expected = reference.run_view(a.history);
    for (Index c = 0; c < expected.dim; ++c) {
      EXPECT_EQ(result.logits[static_cast<std::size_t>(c)], expected.logits[c]);
    }
  }
}

}  // namespace
}  // namespace memcom
