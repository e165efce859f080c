#include "util/lru_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tests/reference_lru_map.hpp"
#include "util/rng.hpp"

namespace et {
namespace {

TEST(LruMap, PutAndGet) {
  LruMap<int, std::string> map(3);
  map.put(1, "one");
  map.put(2, "two");
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.get(1), nullptr);
  EXPECT_EQ(*map.get(1), "one");
  EXPECT_EQ(map.get(9), nullptr);
}

TEST(LruMap, OverwriteKeepsSize) {
  LruMap<int, int> map(2);
  map.put(1, 10);
  map.put(1, 11);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.get(1), 11);
}

TEST(LruMap, EvictsLeastRecentlyUsed) {
  LruMap<int, int> map(2);
  map.put(1, 10);
  map.put(2, 20);
  const auto evicted = map.put(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 1);
  EXPECT_EQ(evicted->second, 10);
  EXPECT_FALSE(map.contains(1));
  EXPECT_TRUE(map.contains(2));
  EXPECT_TRUE(map.contains(3));
}

TEST(LruMap, GetRefreshesRecency) {
  LruMap<int, int> map(2);
  map.put(1, 10);
  map.put(2, 20);
  map.get(1);  // 1 becomes most recent; 2 is now LRU
  const auto evicted = map.put(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 2);
  EXPECT_TRUE(map.contains(1));
}

TEST(LruMap, PeekDoesNotRefresh) {
  LruMap<int, int> map(2);
  map.put(1, 10);
  map.put(2, 20);
  EXPECT_EQ(*map.peek(1), 10);  // no recency change: 1 stays LRU
  const auto evicted = map.put(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 1);
}

TEST(LruMap, PutRefreshesRecency) {
  LruMap<int, int> map(2);
  map.put(1, 10);
  map.put(2, 20);
  map.put(1, 11);  // overwrite refreshes
  const auto evicted = map.put(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 2);
}

TEST(LruMap, Erase) {
  LruMap<int, int> map(3);
  map.put(1, 10);
  EXPECT_TRUE(map.erase(1));
  EXPECT_FALSE(map.erase(1));
  EXPECT_TRUE(map.empty());
}

TEST(LruMap, Clear) {
  LruMap<int, int> map(3);
  map.put(1, 10);
  map.put(2, 20);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.get(1), nullptr);
  map.put(3, 30);  // still usable
  EXPECT_EQ(map.size(), 1u);
}

TEST(LruMap, ForEachOrdersMostRecentFirst) {
  LruMap<int, int> map(3);
  map.put(1, 10);
  map.put(2, 20);
  map.put(3, 30);
  map.get(1);
  std::vector<int> order;
  map.for_each([&](int key, int) { order.push_back(key); });
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(LruMap, CapacityOne) {
  LruMap<int, int> map(1);
  map.put(1, 10);
  const auto evicted = map.put(2, 20);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 1);
  EXPECT_EQ(map.size(), 1u);
}

TEST(LruMap, HeavyChurn) {
  LruMap<int, int> map(16);
  for (int i = 0; i < 1000; ++i) map.put(i, i);
  EXPECT_EQ(map.size(), 16u);
  for (int i = 984; i < 1000; ++i) {
    ASSERT_TRUE(map.contains(i)) << i;
    EXPECT_EQ(*map.get(i), i);
  }
  EXPECT_FALSE(map.contains(983));
}

using Order = std::vector<std::pair<std::uint64_t, int>>;

template <typename Map>
Order order_of(const Map& map) {
  Order order;
  map.for_each([&](std::uint64_t key, int value) {
    order.emplace_back(key, value);
  });
  return order;
}

// Drives the flat map and the list-based reference with the same seeded
// operation stream. Keys come from a range a little wider than the
// capacity, so hits, refreshes, evictions and erasures of both recent and
// stale entries are all frequent; the growth points of the slot vector are
// crossed again after every clear().
TEST(LruMap, MatchesReferenceModelUnderRandomOperations) {
  for (const std::size_t capacity : {1u, 2u, 3u, 128u, 256u}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    LruMap<std::uint64_t, int> flat(capacity);
    test::ReferenceLruMap<std::uint64_t, int> reference(capacity);
    Rng rng(0x1e5 + capacity);
    const std::uint64_t key_range = capacity + capacity / 2 + 2;
    std::size_t evictions = 0;
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t key = rng.next_below(key_range);
      const std::uint64_t op = rng.next_below(10000);
      if (op < 5000) {
        const auto a = flat.put(key, step);
        const auto b = reference.put(key, step);
        ASSERT_EQ(a, b) << "put " << key << " at step " << step;
        evictions += a.has_value() ? 1 : 0;
      } else if (op < 7000) {
        int* a = flat.get(key);
        int* b = reference.get(key);
        ASSERT_EQ(a == nullptr, b == nullptr) << "get " << key;
        if (a) {
          ASSERT_EQ(*a, *b);
        }
      } else if (op < 8000) {
        const int* a = flat.peek(key);
        const int* b = reference.peek(key);
        ASSERT_EQ(a == nullptr, b == nullptr) << "peek " << key;
        if (a) {
          ASSERT_EQ(*a, *b);
        }
      } else if (op < 9000) {
        ASSERT_EQ(flat.contains(key), reference.contains(key));
      } else if (op < 9998) {
        ASSERT_EQ(flat.erase(key), reference.erase(key)) << "erase " << key;
      } else {
        flat.clear();
        reference.clear();
      }
      ASSERT_EQ(flat.size(), reference.size()) << "step " << step;
      ASSERT_EQ(flat.empty(), reference.empty());
      ASSERT_EQ(order_of(flat), order_of(reference)) << "step " << step;
    }
    EXPECT_GT(evictions, 100u);
  }
}

}  // namespace
}  // namespace et
