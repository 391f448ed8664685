// Shared gtest helpers for the MEmCom suites.
//
// Use EXPECT_TENSOR_NEAR (or ExpectTensorNear) instead of
// EXPECT_TRUE(a.allclose(b, tol)): on failure it reports the first offending
// index, both values, and the max abs diff, instead of a bare "false".
// SeededTest provides a per-test deterministic Rng so suites don't share
// random streams but stay reproducible run to run.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/tensor.h"
#include "ondevice/execution_context.h"

namespace memcom {
namespace test {

inline constexpr float kTolStrict = 1e-6f;
inline constexpr float kTolDefault = 1e-5f;
inline constexpr float kTolLoose = 1e-4f;

inline ::testing::AssertionResult TensorNear(const Tensor& actual,
                                             const Tensor& expected,
                                             float tol = kTolDefault) {
  if (!actual.same_shape(expected)) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << actual.shape_string() << " vs "
           << expected.shape_string();
  }
  float max_diff = 0.0f;
  Index worst = -1;
  for (Index i = 0; i < actual.numel(); ++i) {
    // Stricter than Tensor::allclose, which silently accepts matched
    // non-finite pairs (|inf - inf| = NaN compares false against tol).
    if (!std::isfinite(actual[i]) || !std::isfinite(expected[i])) {
      return ::testing::AssertionFailure()
             << "non-finite value at flat index " << i
             << ": actual=" << actual[i] << " expected=" << expected[i];
    }
    const float diff = std::fabs(actual[i] - expected[i]);
    if (diff > tol && diff > max_diff) {
      max_diff = diff;
      worst = i;
    }
  }
  if (worst < 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "tensors differ (tol=" << tol << "): worst at flat index " << worst
         << ", actual=" << actual[worst] << " expected=" << expected[worst]
         << " |diff|=" << max_diff;
}

// Copies a forward's logits out of the context scratch, which the next run
// on the same context overwrites.
inline Tensor copy_logits(const InferenceView& view) {
  return Tensor::from_vector(
      {view.dim}, std::vector<float>(view.logits, view.logits + view.dim));
}

inline void ExpectTensorNear(const Tensor& actual, const Tensor& expected,
                             float tol = kTolDefault) {
  EXPECT_TRUE(TensorNear(actual, expected, tol));
}

// Test fixture with a deterministic Rng whose seed mixes the full test name,
// so every test gets an independent but reproducible stream.
class SeededTest : public ::testing::Test {
 protected:
  SeededTest() : rng_(SeedFromTestName()) {}

  static std::uint64_t SeedFromTestName() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "memcom";
    if (info != nullptr) {
      name = std::string(info->test_suite_name()) + "." + info->name();
    }
    // FNV-1a, 64-bit.
    std::uint64_t h = 1469598103934665603ull;
    for (char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return h;
  }

  Rng rng_;
};

}  // namespace test
}  // namespace memcom

#define EXPECT_TENSOR_NEAR(actual, expected, tol) \
  EXPECT_TRUE(::memcom::test::TensorNear((actual), (expected), (tol)))
