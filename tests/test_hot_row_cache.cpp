// The HotRowCache fixed-budget contract: total slot capacity never exceeds
// the configured budget, even when a table's rows are wider than its
// per-table share — such tables get zero slots and are bypassed (this PR's
// satellite bugfix; the old code forced one slot per table and silently
// blew the budget).
#include "ondevice/hot_row_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "embedding/id_batch.h"
#include "ondevice/execution_context.h"
#include "repro/model.h"

namespace memcom {
namespace {

constexpr std::size_t kKeyBytes = sizeof(std::uint64_t);

std::size_t slot_bytes(Index elems) {
  return kKeyBytes + static_cast<std::size_t>(elems) * sizeof(float);
}

TEST(HotRowCacheBudget, CapacityNeverExceedsBudget) {
  // Three tables, shares of 100 bytes each: widths 4 (fits), 16 (fits),
  // 64 (slot costs 264 bytes > share -> zero slots).
  const HotRowCache cache(300, {4, 16, 64});
  EXPECT_LE(cache.stats().capacity_bytes, 300u);
}

TEST(HotRowCacheBudget, OversizedRowTableIsBypassed) {
  // One table whose single slot (8 + 256*4 = 1032 bytes) exceeds the whole
  // budget. The old max(1, ...) forced a slot anyway.
  HotRowCache cache(512, {256});
  EXPECT_EQ(cache.stats().capacity_bytes, 0u);
  EXPECT_EQ(cache.slot_count(), 0u);
  // Bypass: no slab pointer, and the traffic counters stay untouched so
  // hit_rate keeps describing tables that CAN cache.
  EXPECT_EQ(cache.lookup(0, 3), nullptr);
  EXPECT_EQ(cache.fill(0, 3), nullptr);
  const RowCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

TEST(HotRowCacheBudget, MixedWidthsCacheOnlyTheTablesThatFit) {
  // memcom-shaped partitions: wide shared rows + width-1 multipliers. With
  // a budget whose per-table share fits only the narrow table, the wide one
  // must be bypassed while the narrow one still caches.
  const Index wide = 128;  // slot = 8 + 512 = 520 bytes
  const std::size_t budget = 800;  // share = 400: too small for wide rows
  HotRowCache cache(budget, {wide, 1});
  EXPECT_LE(cache.stats().capacity_bytes, budget);
  EXPECT_EQ(cache.fill(0, 7), nullptr);  // wide: bypassed
  float* slot = cache.fill(1, 7);        // narrow: real slot
  ASSERT_NE(slot, nullptr);
  *slot = 42.0f;
  const float* hit = cache.lookup(1, 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42.0f);
  // Narrow share 400 bytes / 12-byte slots = 33 slots.
  EXPECT_EQ(cache.slot_count(), 400u / slot_bytes(1));
}

TEST(HotRowCacheBudget, EveryTableFittingKeepsOldBehavior) {
  HotRowCache cache(4096, {8, 8});
  // share 2048 / slot 40 -> 51 slots each.
  EXPECT_EQ(cache.slot_count(), 2u * (2048u / slot_bytes(8)));
  EXPECT_LE(cache.stats().capacity_bytes, 4096u);
  EXPECT_EQ(cache.lookup(0, 5), nullptr);  // cold miss IS counted here
  EXPECT_EQ(cache.stats().misses, 1u);
}

// Engine-level: a budget too small for the embedding rows must not change
// logits — the bypass serves every read straight from the mapping.
TEST(HotRowCacheBudget, TinyBudgetEngineStillBitIdentical) {
  ModelConfig config;
  config.embedding = {TechniqueKind::kMemcomBias, /*vocab=*/150,
                      /*embed_dim=*/32, /*knob=*/16};
  config.arch = ModelArch::kRanking;
  config.output_vocab = 24;
  config.seed = 7;
  RecModel model(config);
  const std::string path =
      (std::filesystem::temp_directory_path() / "hot_row_budget.mcm").string();
  model.export_mcm(path, DType::kI8);

  const MmapModel mapped(path);
  ExecutionContext plain(std::make_shared<const CompiledModel>(mapped),
                         tflite_profile());
  ExecutionContext tiny(std::make_shared<const CompiledModel>(mapped),
                        tflite_profile());
  // 300 bytes across {32, 1, 1}-wide partitions: the 32-wide shared rows
  // cost 136 bytes/slot > the 100-byte share — bypassed; the width-1
  // multiplier and bias tables still cache.
  ASSERT_TRUE(tiny.enable_row_cache(300));
  ASSERT_LE(tiny.row_cache_stats().capacity_bytes, 300u);

  const std::vector<std::int32_t> history = {3, 11, 3, 25, kPadId, 7};
  const InferenceView a = plain.run_view(history);
  const std::vector<float> expected(a.logits, a.logits + a.dim);
  for (int pass = 0; pass < 3; ++pass) {  // cold + warm passes
    const InferenceView b = tiny.run_view(history);
    ASSERT_EQ(a.dim, b.dim);
    for (Index i = 0; i < a.dim; ++i) {
      EXPECT_EQ(expected[static_cast<std::size_t>(i)], b.logits[i]) << i;
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace memcom
