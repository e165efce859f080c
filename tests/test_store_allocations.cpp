/// The serve tier's writer path allocates nothing per batch.
///
/// `ShardedTrackStore::apply_batch` groups each batch by shard in writer-side
/// scratch that keeps its capacity, so once every label of a load has an
/// entry and a full history ring, applying a batch makes no allocation.
/// This binary counts allocations through a replaced global
/// `operator new` (tests/counting_allocator.hpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "counting_allocator.hpp"
#include "serve/track_store.hpp"

namespace et::serve {
namespace {

constexpr std::uint32_t kLabels = 48;
constexpr std::size_t kBatch = 32;

/// One batch of a round-robin load over kLabels labels from 12 leaders,
/// written into `batch` in place.
void fill(std::vector<metrics::DecodedTrack>& batch, std::uint32_t round) {
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::uint32_t n = round * kBatch + static_cast<std::uint32_t>(k);
    metrics::DecodedTrack& report = batch[k];
    report.time = Time::micros(1000 * static_cast<std::int64_t>(n));
    report.label = LabelId::make(NodeId{n % kLabels % 12}, n % kLabels);
    report.source = NodeId{n % 12};
    report.position = Vec2{static_cast<double>(n % 97), 1.0};
    report.epoch = 1;
  }
}

TEST(StoreAllocations, WarmedStoreAppliesBatchesWithoutAllocating) {
  StoreConfig config;
  config.shard_count = 64;
  config.ring_capacity = 8;
  ShardedTrackStore store(config);
  std::vector<metrics::DecodedTrack> batch(kBatch);

  // Warm-up: every label gets an entry and a full ring, and the writer's
  // scratch reaches the batch size.
  std::uint32_t round = 0;
  for (; round < 64; ++round) {
    fill(batch, round);
    store.apply_batch(batch);
  }
  ASSERT_EQ(store.stats().labels, kLabels);

  const std::uint64_t before = testing::allocations();
  for (; round < 192; ++round) {
    fill(batch, round);
    store.apply_batch(batch);
  }
  EXPECT_EQ(testing::allocations() - before, 0u);

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.reports_applied, std::uint64_t{round} * kBatch);
  EXPECT_EQ(stats.points_evicted,
            std::uint64_t{round} * kBatch - kLabels * config.ring_capacity);
}

}  // namespace
}  // namespace et::serve
