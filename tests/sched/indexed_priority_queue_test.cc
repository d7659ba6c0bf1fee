#include "sched/indexed_priority_queue.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace webtx {
namespace {

TEST(IndexedPriorityQueueTest, EmptyQueue) {
  IndexedPriorityQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.Contains(0));
  EXPECT_FALSE(q.Erase(0));
}

TEST(IndexedPriorityQueueTest, PushPopInKeyOrder) {
  IndexedPriorityQueue q;
  q.Push(0, 5.0);
  q.Push(1, 1.0);
  q.Push(2, 3.0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop(), 1u);
  EXPECT_EQ(q.Pop(), 2u);
  EXPECT_EQ(q.Pop(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(IndexedPriorityQueueTest, TiesBrokenByLowerId) {
  IndexedPriorityQueue q;
  q.Push(7, 2.0);
  q.Push(3, 2.0);
  q.Push(5, 2.0);
  EXPECT_EQ(q.Pop(), 3u);
  EXPECT_EQ(q.Pop(), 5u);
  EXPECT_EQ(q.Pop(), 7u);
}

TEST(IndexedPriorityQueueTest, TopAndTopKey) {
  IndexedPriorityQueue q;
  q.Push(4, 9.0);
  q.Push(2, 1.5);
  EXPECT_EQ(q.Top(), 2u);
  EXPECT_EQ(q.TopKey(), 1.5);
  EXPECT_EQ(q.size(), 2u);  // Top does not remove
}

TEST(IndexedPriorityQueueTest, ContainsAndKeyOf) {
  IndexedPriorityQueue q;
  q.Push(1, 2.5);
  EXPECT_TRUE(q.Contains(1));
  EXPECT_FALSE(q.Contains(0));
  EXPECT_EQ(q.KeyOf(1), 2.5);
}

TEST(IndexedPriorityQueueTest, EraseMiddleKeepsOrder) {
  IndexedPriorityQueue q;
  for (uint32_t id = 0; id < 10; ++id) {
    q.Push(id, static_cast<double>(id));
  }
  EXPECT_TRUE(q.Erase(5));
  EXPECT_FALSE(q.Contains(5));
  EXPECT_FALSE(q.Erase(5));
  std::vector<uint32_t> popped;
  while (!q.empty()) popped.push_back(q.Pop());
  EXPECT_EQ(popped, (std::vector<uint32_t>{0, 1, 2, 3, 4, 6, 7, 8, 9}));
}

TEST(IndexedPriorityQueueTest, UpdateMovesBothDirections) {
  IndexedPriorityQueue q;
  q.Push(0, 1.0);
  q.Push(1, 2.0);
  q.Push(2, 3.0);
  q.Update(2, 0.5);  // up
  EXPECT_EQ(q.Top(), 2u);
  q.Update(2, 10.0);  // down
  EXPECT_EQ(q.Top(), 0u);
  q.Update(0, 5.0);
  EXPECT_EQ(q.Top(), 1u);
}

TEST(IndexedPriorityQueueTest, PushOrUpdate) {
  IndexedPriorityQueue q;
  q.PushOrUpdate(3, 4.0);
  EXPECT_EQ(q.KeyOf(3), 4.0);
  q.PushOrUpdate(3, 1.0);
  EXPECT_EQ(q.KeyOf(3), 1.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(IndexedPriorityQueueTest, ClearEmptiesAndAllowsReuse) {
  IndexedPriorityQueue q;
  q.Push(0, 1.0);
  q.Push(1, 2.0);
  q.Clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Contains(0));
  q.Push(0, 9.0);
  EXPECT_EQ(q.Top(), 0u);
}

TEST(IndexedPriorityQueueTest, SparseIdsGrowIndex) {
  IndexedPriorityQueue q;
  q.Push(1000, 1.0);
  q.Push(3, 2.0);
  EXPECT_EQ(q.Pop(), 1000u);
  EXPECT_EQ(q.Pop(), 3u);
}

TEST(IndexedPriorityQueueTest, PresizedConstructor) {
  IndexedPriorityQueue q(100);
  EXPECT_FALSE(q.Contains(50));
  q.Push(50, 1.0);
  EXPECT_TRUE(q.Contains(50));
}

TEST(IndexedPriorityQueueTest, RandomizedAgainstSortReference) {
  Rng rng(1234);
  IndexedPriorityQueue q;
  std::vector<std::pair<double, uint32_t>> reference;

  // Interleaved pushes, erases, and updates; then drain and compare.
  for (uint32_t id = 0; id < 500; ++id) {
    const double key = rng.NextDouble() * 100.0;
    q.Push(id, key);
    reference.emplace_back(key, id);
  }
  for (int i = 0; i < 200; ++i) {
    const auto id = static_cast<uint32_t>(rng.NextInRange(0, 499));
    if (rng.NextDouble() < 0.5) {
      if (q.Contains(id)) {
        q.Erase(id);
        reference.erase(std::find_if(reference.begin(), reference.end(),
                                     [&](const auto& e) {
                                       return e.second == id;
                                     }));
      }
    } else if (q.Contains(id)) {
      const double key = rng.NextDouble() * 100.0;
      q.Update(id, key);
      std::find_if(reference.begin(), reference.end(), [&](const auto& e) {
        return e.second == id;
      })->first = key;
    }
  }
  std::sort(reference.begin(), reference.end());
  for (const auto& [key, id] : reference) {
    ASSERT_EQ(q.TopKey(), key);
    ASSERT_EQ(q.Pop(), id);
  }
  EXPECT_TRUE(q.empty());
}

TEST(IndexedPriorityQueueTest, BulkLoadMatchesIndividualPushes) {
  Rng rng(21);
  for (const size_t n : {0u, 1u, 2u, 7u, 64u, 500u}) {
    std::vector<std::pair<uint32_t, double>> items;
    items.reserve(n);
    for (uint32_t id = 0; id < n; ++id) {
      // Duplicate keys on purpose: ties must still pop lowest-id first.
      items.emplace_back(id, std::floor(rng.NextDouble() * 10.0));
    }
    IndexedPriorityQueue bulk;
    bulk.ReserveAndBulkLoad(items);
    IndexedPriorityQueue pushed;
    for (const auto& [id, key] : items) pushed.Push(id, key);
    ASSERT_EQ(bulk.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bulk.TopKey(), pushed.TopKey()) << "n=" << n << " i=" << i;
      ASSERT_EQ(bulk.Pop(), pushed.Pop()) << "n=" << n << " i=" << i;
    }
    EXPECT_TRUE(bulk.empty());
  }
}

TEST(IndexedPriorityQueueTest, BulkLoadReplacesPriorContents) {
  IndexedPriorityQueue q;
  q.Push(11, 1.0);
  q.Push(12, 2.0);
  q.ReserveAndBulkLoad({{3, 5.0}, {4, 4.0}});
  EXPECT_FALSE(q.Contains(11));
  EXPECT_FALSE(q.Contains(12));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop(), 4u);
  EXPECT_EQ(q.Pop(), 3u);
}

TEST(IndexedPriorityQueueTest, BulkLoadReservesRequestedCapacity) {
  IndexedPriorityQueue q;
  q.ReserveAndBulkLoad({{0, 1.0}}, /*capacity=*/16);
  // Ids up to the reserved capacity are pushable without growing pos_.
  q.Push(15, 0.5);
  EXPECT_EQ(q.Pop(), 15u);
  EXPECT_EQ(q.Pop(), 0u);
}

TEST(IndexedPriorityQueueTest, UpdateKeyIfChangedSkipsEqualKeys) {
  IndexedPriorityQueue q;
  q.Push(0, 3.0);
  q.Push(1, 1.0);
  EXPECT_FALSE(q.UpdateKeyIfChanged(0, 3.0));
  EXPECT_EQ(q.KeyOf(0), 3.0);
  EXPECT_TRUE(q.UpdateKeyIfChanged(0, 0.5));
  EXPECT_EQ(q.Top(), 0u);
  EXPECT_TRUE(q.UpdateKeyIfChanged(0, 2.0));
  EXPECT_EQ(q.Top(), 1u);
}

TEST(IndexedPriorityQueueTest, UpdateKeyIfChangedMatchesUpdate) {
  Rng rng(33);
  IndexedPriorityQueue a;
  IndexedPriorityQueue b;
  constexpr uint32_t kIds = 100;
  for (uint32_t id = 0; id < kIds; ++id) {
    const double key = std::floor(rng.NextDouble() * 8.0);
    a.Push(id, key);
    b.Push(id, key);
  }
  for (int i = 0; i < 1000; ++i) {
    const auto id = static_cast<uint32_t>(rng.NextInRange(0, kIds - 1));
    // Quantized keys make repeats (the skip path) common.
    const double key = std::floor(rng.NextDouble() * 8.0);
    a.Update(id, key);
    b.UpdateKeyIfChanged(id, key);
  }
  for (uint32_t id = 0; id < kIds; ++id) {
    ASSERT_EQ(a.KeyOf(id), b.KeyOf(id));
  }
  while (!a.empty()) {
    ASSERT_EQ(a.TopKey(), b.TopKey());
    ASSERT_EQ(a.Pop(), b.Pop());
  }
  EXPECT_TRUE(b.empty());
}

TEST(IndexedPriorityQueueTest, ReservePreservesContents) {
  IndexedPriorityQueue q;
  q.Push(2, 2.0);
  q.Reserve(64);
  EXPECT_TRUE(q.Contains(2));
  q.Push(63, 1.0);
  EXPECT_EQ(q.Pop(), 63u);
  EXPECT_EQ(q.Pop(), 2u);
}

// AppendTopK is a read-only walk that must hand back exactly what k
// successive Pops would: for every k from 0 past the size (and 64), on
// heaps with duplicate keys and on heaps reshaped by Erase/Update churn,
// appending after whatever `out` already holds and leaving the queue
// unchanged. One scratch frontier serves every call.
TEST(IndexedPriorityQueueTest, AppendTopKMatchesSuccessivePops) {
  Rng rng(2028);
  IndexedPriorityQueue::TopKScratch frontier;
  for (int trial = 0; trial < 80; ++trial) {
    const auto n = static_cast<uint32_t>(
        trial < 12 ? trial : rng.NextInRange(0, 300));
    IndexedPriorityQueue q;
    for (uint32_t id = 0; id < n; ++id) {
      // Few distinct keys: ties must still come out lowest id first.
      q.Push(id, std::floor(rng.NextDouble() * 8.0));
    }
    if (trial % 2 == 1) {
      for (uint32_t i = 0; i < n; ++i) {
        const auto id = static_cast<uint32_t>(rng.NextInRange(0, n - 1));
        if (!q.Contains(id)) {
          q.Push(id, std::floor(rng.NextDouble() * 8.0));
        } else if (rng.NextDouble() < 0.5) {
          q.Erase(id);
        } else {
          q.Update(id, std::floor(rng.NextDouble() * 8.0));
        }
      }
    }
    // The pop order of a copy; k Pops return its first min(k, size).
    std::vector<uint32_t> pops;
    IndexedPriorityQueue copy = q;
    while (!copy.empty()) pops.push_back(copy.Pop());

    std::vector<size_t> ks;
    for (size_t k = 0; k <= q.size() + 2; ++k) ks.push_back(k);
    ks.push_back(64);
    for (const size_t k : ks) {
      constexpr uint32_t kSentinel = 0xFEEDu;
      std::vector<uint32_t> out = {kSentinel};
      q.AppendTopK(k, out, frontier);
      const size_t taken = std::min(k, pops.size());
      ASSERT_EQ(out.size(), 1 + taken) << "trial=" << trial << " k=" << k;
      EXPECT_EQ(out[0], kSentinel);
      EXPECT_TRUE(std::equal(out.begin() + 1, out.end(), pops.begin()))
          << "trial=" << trial << " k=" << k;
    }
    ASSERT_EQ(q.size(), pops.size());
    for (const uint32_t id : pops) ASSERT_EQ(q.Pop(), id);
  }
}

}  // namespace
}  // namespace webtx
