// ServingHarness tests: threaded serving over one shared MmapModel must
// produce bit-identical logits to sequential single-engine runs, and the
// report (QPS, percentiles, request counts) must be internally consistent.
#include "ondevice/serving.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <vector>

#include "repro/model.h"
#include "test_util.h"

namespace memcom {
namespace {

class ServingTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tag) {
    auto p = std::filesystem::temp_directory_path() /
             ("memcom_serving_" + tag + ".mcm");
    paths_.push_back(p);
    return p.string();
  }
  void TearDown() override {
    for (const auto& p : paths_) {
      std::filesystem::remove(p);
    }
  }

  std::string export_model(TechniqueKind kind, ModelArch arch,
                           const std::string& tag) {
    ModelConfig config;
    config.embedding.kind = kind;
    config.embedding.vocab = 200;
    config.embedding.embed_dim = 16;
    config.embedding.knob =
        kind == TechniqueKind::kFactorized ? 8 : 32;
    config.arch = arch;
    config.output_vocab = 24;
    config.seed = 4321;
    RecModel model(config);
    const std::string path = temp_path(tag);
    model.export_mcm(path);
    return path;
  }

  std::vector<std::filesystem::path> paths_;
};

std::vector<std::vector<std::int32_t>> make_requests(int count) {
  std::vector<std::vector<std::int32_t>> requests;
  Rng rng(5);
  for (int i = 0; i < count; ++i) {
    std::vector<std::int32_t> history(8, 0);
    const Index real = 2 + static_cast<Index>(rng.uniform_index(6));
    for (Index t = 0; t < real; ++t) {
      history[static_cast<std::size_t>(t)] =
          static_cast<std::int32_t>(1 + rng.uniform_index(199));
    }
    requests.push_back(std::move(history));
  }
  return requests;
}

TEST_F(ServingTest, ThreadedHarnessMatchesSequentialEngineBitExact) {
  for (const TechniqueKind kind :
       {TechniqueKind::kMemcom, TechniqueKind::kQrConcat,
        TechniqueKind::kWeinberger}) {
    const std::string path = export_model(
        kind, ModelArch::kClassification,
        "parity_" + std::string(technique_name(kind)));
    const MmapModel mapped(path);
    const auto requests = make_requests(24);

    ExecutionContext sequential(std::make_shared<const CompiledModel>(mapped),
                                tflite_profile());
    ServingHarness harness(mapped, tflite_profile(), 4);
    Tensor served;
    const ServingReport report = harness.serve(requests, 1, &served);
    ASSERT_EQ(report.requests, 24u);
    ASSERT_EQ(served.dim(0), 24);
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const InferenceView expected = sequential.run_view(requests[r]);
      for (Index c = 0; c < expected.dim; ++c) {
        EXPECT_EQ(served.at2(static_cast<Index>(r), c), expected.logits[c])
            << technique_name(kind) << " request " << r << " logit " << c;
      }
    }
  }
}

TEST_F(ServingTest, SingleThreadHarnessMatchesToo) {
  const std::string path =
      export_model(TechniqueKind::kMemcom, ModelArch::kRanking, "single");
  const MmapModel mapped(path);
  const auto requests = make_requests(10);
  ExecutionContext sequential(std::make_shared<const CompiledModel>(mapped),
                              coreml_profile("all"));
  ServingHarness harness(mapped, coreml_profile("all"), 1);
  Tensor served;
  harness.serve(requests, 1, &served);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const InferenceView expected = sequential.run_view(requests[r]);
    for (Index c = 0; c < expected.dim; ++c) {
      EXPECT_EQ(served.at2(static_cast<Index>(r), c), expected.logits[c]);
    }
  }
}

TEST_F(ServingTest, RepeatedDrainsKeepLogitsStable) {
  const std::string path =
      export_model(TechniqueKind::kNaiveHash, ModelArch::kClassification,
                   "repeat");
  const MmapModel mapped(path);
  const auto requests = make_requests(6);
  ServingHarness harness(mapped, tflite_profile(), 3);
  Tensor first, second;
  harness.serve(requests, 4, &first);
  const ServingReport report = harness.serve(requests, 4, &second);
  EXPECT_EQ(report.requests, 24u);  // 6 unique x 4 repeats
  EXPECT_TENSOR_NEAR(first, second, 0.0f);
}

TEST_F(ServingTest, ReportIsInternallyConsistent) {
  const std::string path =
      export_model(TechniqueKind::kMemcom, ModelArch::kClassification,
                   "report");
  const MmapModel mapped(path);
  const auto requests = make_requests(16);
  ServingHarness harness(mapped, tflite_profile(), 2);
  const ServingReport report = harness.serve(requests, 3);
  EXPECT_EQ(report.threads, 2);
  EXPECT_EQ(report.requests, 48u);
  EXPECT_EQ(report.latency.runs, 48);
  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_LE(report.latency.min_ms, report.latency.p50_ms);
  EXPECT_LE(report.latency.p50_ms, report.latency.p95_ms);
  EXPECT_LE(report.latency.p95_ms, report.latency.p99_ms);
  EXPECT_LE(report.latency.p99_ms, report.latency.max_ms);
  // The whole drain can't be faster than its slowest request.
  EXPECT_GE(report.wall_ms, report.latency.max_ms);
  EXPECT_GT(harness.max_resident_megabytes(), 0.0);
}

TEST_F(ServingTest, NonPositiveThreadCountRejectedUpFront) {
  // Both serving layers must reject a 0/negative pool at construction —
  // otherwise output_dim() would dereference an empty engine list (UB).
  // The engine split moved these checks; this pins that they still fire
  // before any thread spawns.
  const std::string path =
      export_model(TechniqueKind::kMemcom, ModelArch::kRanking, "degenerate");
  const MmapModel mapped(path);
  EXPECT_THROW(ServingHarness(mapped, tflite_profile(), 0),
               std::runtime_error);
  EXPECT_THROW(ServingHarness(mapped, tflite_profile(), -4),
               std::runtime_error);
  AsyncServerConfig config;
  config.threads = 0;
  EXPECT_THROW(AsyncServer(mapped, tflite_profile(), config),
               std::runtime_error);
  config.threads = -2;
  EXPECT_THROW(AsyncServer(mapped, tflite_profile(), config),
               std::runtime_error);
  // The checks reject before any thread spawns, so a valid construction
  // right after the failures works normally.
  ServingHarness harness(mapped, tflite_profile(), 1);
  EXPECT_EQ(harness.threads(), 1);
  EXPECT_GT(harness.output_dim(), 0);
}

TEST_F(ServingTest, PlanCompiledOnceAndSharedAcrossWorkers) {
  // Factorized has the largest plan (the pre-dequantized [h, e] projection),
  // so plan duplication would be most visible here.
  const std::string path = export_model(
      TechniqueKind::kFactorized, ModelArch::kClassification, "sharedplan");
  const MmapModel mapped(path);

  ExecutionContext single(std::make_shared<const CompiledModel>(mapped),
                          tflite_profile());
  const std::size_t one_plan = single.compiled().plan_resident_bytes();
  ASSERT_GT(one_plan, 0u);

  // The PR-3 layout compiled one private plan per worker: N x one_plan.
  constexpr int kWorkers = 4;
  std::size_t duplicated = 0;
  for (int i = 0; i < kWorkers; ++i) {
    ExecutionContext private_context(
        std::make_shared<const CompiledModel>(mapped), tflite_profile());
    duplicated += private_context.compiled().plan_resident_bytes();
  }
  EXPECT_EQ(duplicated, static_cast<std::size_t>(kWorkers) * one_plan);

  // The harness shares ONE plan: the fleet's plan bytes equal a single
  // compile, regardless of worker count...
  ServingHarness harness(mapped, tflite_profile(), kWorkers);
  EXPECT_EQ(harness.plan_resident_bytes(), one_plan);
  EXPECT_LT(harness.plan_resident_bytes(), duplicated);
  for (int w = 0; w < harness.threads(); ++w) {
    EXPECT_EQ(&harness.context(w).compiled(), &harness.compiled());
  }

  // ...and the shared plan still serves bit-identical logits with the
  // page-touch metering of the uncached path unchanged per worker.
  const auto requests = make_requests(12);
  ExecutionContext reference(std::make_shared<const CompiledModel>(mapped),
                             tflite_profile());
  Tensor served;
  harness.serve(requests, 1, &served);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const InferenceView expected = reference.run_view(requests[r]);
    for (Index c = 0; c < expected.dim; ++c) {
      EXPECT_EQ(served.at2(static_cast<Index>(r), c), expected.logits[c]);
    }
  }
}

TEST_F(ServingTest, WorkersMeterIndependently) {
  // Each worker owns a private meter over the shared mapping; a worker that
  // served at least one request reports a plausible resident footprint.
  const std::string path =
      export_model(TechniqueKind::kMemcom, ModelArch::kRanking, "meters");
  const MmapModel mapped(path);
  const auto requests = make_requests(32);
  ServingHarness harness(mapped, tflite_profile(), 2);
  harness.serve(requests, 2);
  Index served_by_someone = 0;
  for (int w = 0; w < harness.threads(); ++w) {
    served_by_someone += harness.context(w).meter().touched_pages();
  }
  EXPECT_GT(served_by_someone, 0);
}

}  // namespace
}  // namespace memcom
