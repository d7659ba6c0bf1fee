// AdaptiveSort must give exactly std::sort's result under a strict total
// order, whichever of its two paths runs, and must take the insertion
// path exactly when the input has at most kAdaptiveSortMovesPerElement
// moves (inversions) per element.
#include "common/adaptive_sort.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace webtx {
namespace {

/// Ids ordered by (key, id), the shape of SimWorkload's (arrival, id)
/// order: a strict total order even where keys tie.
struct ByKeyThenId {
  const std::vector<double>* keys;
  bool operator()(uint32_t a, uint32_t b) const {
    if ((*keys)[a] != (*keys)[b]) return (*keys)[a] < (*keys)[b];
    return a < b;
  }
};

/// Sorts `ids` with AdaptiveSort, checks the result against std::sort
/// and returns whether the insertion pass finished the sort.
bool SortsLikeStdSort(std::vector<uint32_t> ids,
                      const std::vector<double>& keys) {
  std::vector<uint32_t> want = ids;
  std::sort(want.begin(), want.end(), ByKeyThenId{&keys});
  const bool insertion = AdaptiveSort(ids.begin(), ids.end(),
                                      ByKeyThenId{&keys});
  EXPECT_EQ(ids, want);
  return insertion;
}

/// Keys 0..n-1 (distinct), so id order is the sorted order.
std::vector<double> DistinctKeys(size_t n) {
  std::vector<double> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<double>(i);
  return keys;
}

std::vector<uint32_t> Identity(size_t n) {
  std::vector<uint32_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<uint32_t>(i);
  return ids;
}

void Shuffle(std::vector<uint32_t>::iterator first,
             std::vector<uint32_t>::iterator last, Rng& rng) {
  for (auto n = static_cast<uint64_t>(last - first); n > 1; --n) {
    std::swap(first[n - 1], first[rng.NextInRange(0, n - 1)]);
  }
}

/// Inversions of `ids` under ByKeyThenId (quadratic: small inputs only).
size_t Inversions(const std::vector<uint32_t>& ids,
                  const std::vector<double>& keys) {
  size_t count = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      count += ByKeyThenId{&keys}(ids[j], ids[i]) ? 1 : 0;
    }
  }
  return count;
}

const size_t kSizes[] = {3, 10, 100, 1000, 100000};

TEST(AdaptiveSortTest, TinyRanges) {
  const std::vector<double> keys = {5.0, 1.0};
  EXPECT_TRUE(SortsLikeStdSort({}, keys));
  EXPECT_TRUE(SortsLikeStdSort({0}, keys));
  EXPECT_TRUE(SortsLikeStdSort({1, 0}, keys));
  EXPECT_TRUE(SortsLikeStdSort({0, 1}, keys));
}

TEST(AdaptiveSortTest, SortedInputTakesTheInsertionPath) {
  for (const size_t n : kSizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    EXPECT_TRUE(SortsLikeStdSort(Identity(n), DistinctKeys(n)));
  }
}

TEST(AdaptiveSortTest, ReversedInputFallsBackToStdSort) {
  for (const size_t n : kSizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<uint32_t> ids = Identity(n);
    std::reverse(ids.begin(), ids.end());
    // n (n - 1) / 2 inversions: within the budget only while n <= 17.
    EXPECT_EQ(SortsLikeStdSort(ids, DistinctKeys(n)),
              n * (n - 1) / 2 <= kAdaptiveSortMovesPerElement * n);
  }
}

TEST(AdaptiveSortTest, RandomInput) {
  Rng rng(29);
  for (const size_t n : kSizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<double> keys(n);
    for (double& key : keys) key = rng.NextDouble();
    std::vector<uint32_t> ids = Identity(n);
    Shuffle(ids.begin(), ids.end(), rng);
    const bool insertion = SortsLikeStdSort(ids, keys);
    if (n >= 100) {
      EXPECT_FALSE(insertion);
    }
  }
}

// Shuffling within blocks of 9 leaves every element at most 8 places
// from its slot and at most 36 inversions per block: the insertion
// pass finishes.
TEST(AdaptiveSortTest, AtMostEightPlacesOutTakesTheInsertionPath) {
  Rng rng(2009);
  for (const size_t n : kSizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<uint32_t> ids = Identity(n);
    for (size_t b = 0; b < n; b += 9) {
      Shuffle(ids.begin() + static_cast<std::ptrdiff_t>(b),
              ids.begin() + static_cast<std::ptrdiff_t>(std::min(n, b + 9)),
              rng);
    }
    EXPECT_TRUE(SortsLikeStdSort(ids, DistinctKeys(n)));
  }
}

// Keys drawn from three values, so almost every comparison is decided
// by the id; both a shuffled and a nearly sorted input.
TEST(AdaptiveSortTest, EqualKeysAreBrokenById) {
  Rng rng(7);
  for (const size_t n : kSizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<double> keys(n);
    for (double& key : keys) key = static_cast<double>(rng.NextInRange(0, 2));
    std::vector<uint32_t> ids = Identity(n);
    Shuffle(ids.begin(), ids.end(), rng);
    SortsLikeStdSort(ids, keys);
    std::sort(ids.begin(), ids.end(), ByKeyThenId{&keys});
    for (size_t i = 1; i < n; i += 5) std::swap(ids[i - 1], ids[i]);
    EXPECT_TRUE(SortsLikeStdSort(ids, keys));
  }
}

// Reversing every block of 17 gives 136 = 8 * 17 inversions per block,
// exactly the budget; one more adjacent swap across a block boundary
// is one move past it.
TEST(AdaptiveSortTest, OneMovePastTheBudgetFallsBack) {
  static_assert(kAdaptiveSortMovesPerElement == 8,
                "the block length below assumes a budget of 8 per element");
  const size_t kBlocks[] = {2, 10, 100, 5882};
  for (const size_t blocks : kBlocks) {
    const size_t n = 17 * blocks;
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<uint32_t> ids = Identity(n);
    for (size_t b = 0; b < n; b += 17) {
      std::reverse(ids.begin() + static_cast<std::ptrdiff_t>(b),
                   ids.begin() + static_cast<std::ptrdiff_t>(b + 17));
    }
    const std::vector<double> keys = DistinctKeys(n);
    if (n <= 2000) {
      ASSERT_EQ(Inversions(ids, keys), kAdaptiveSortMovesPerElement * n);
    }
    EXPECT_TRUE(SortsLikeStdSort(ids, keys));
    std::swap(ids[16], ids[17]);
    EXPECT_FALSE(SortsLikeStdSort(ids, keys));
  }
}

// On random near-sorted inputs the insertion pass finishes exactly when
// the inversions fit the budget.
TEST(AdaptiveSortTest, InsertionPathExactlyWithinTheBudget) {
  Rng rng(28);
  const size_t n = 400;
  const std::vector<double> keys = DistinctKeys(n);
  size_t insertions = 0;
  size_t fallbacks = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const uint64_t window = rng.NextInRange(2, 40);
    std::vector<uint32_t> ids = Identity(n);
    for (size_t b = 0; b < n; b += window) {
      Shuffle(ids.begin() + static_cast<std::ptrdiff_t>(b),
              ids.begin() + static_cast<std::ptrdiff_t>(
                                std::min<size_t>(n, b + window)),
              rng);
    }
    SCOPED_TRACE("window = " + std::to_string(window));
    const bool insertion = SortsLikeStdSort(ids, keys);
    EXPECT_EQ(insertion,
              Inversions(ids, keys) <= kAdaptiveSortMovesPerElement * n);
    ++(insertion ? insertions : fallbacks);
  }
  // The windows straddle the budget, so both paths ran.
  EXPECT_GT(insertions, 0u);
  EXPECT_GT(fallbacks, 0u);
}

}  // namespace
}  // namespace webtx
