#ifndef WEBTX_COMMON_ADAPTIVE_SORT_H_
#define WEBTX_COMMON_ADAPTIVE_SORT_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

namespace webtx {

/// How many element moves per element of the range AdaptiveSort's
/// insertion pass may make before it hands the range to std::sort.
inline constexpr size_t kAdaptiveSortMovesPerElement = 8;

/// Sorts [first, last) under `less`, which must be a strict total order
/// (no two distinct elements compare equivalent): the sorted range is
/// then unique, so which algorithm produced it never shows.
///
/// Insertion sort runs first. It costs one comparison per element plus
/// one move per inversion, so a range whose elements each sit a few
/// places from their slot (a generated arrival order, a recorded
/// schedule) sorts in linear time. When the moves would pass
/// kAdaptiveSortMovesPerElement * n, the pass stops with the range
/// still a permutation of its input and std::sort sorts all of it, so
/// a far-out-of-order range costs at most O(n) more than std::sort
/// alone. Returns true when insertion sort finished the job, false when
/// std::sort did.
template <typename RandomIt, typename Less>
bool AdaptiveSort(RandomIt first, RandomIt last, Less less) {
  if (first == last) return true;
  size_t budget =
      kAdaptiveSortMovesPerElement * static_cast<size_t>(last - first);
  for (RandomIt next = std::next(first); next != last; ++next) {
    if (!less(*next, *std::prev(next))) continue;
    auto value = std::move(*next);
    RandomIt hole = next;
    do {
      if (budget == 0) {
        *hole = std::move(value);
        std::sort(first, last, less);
        return false;
      }
      --budget;
      *hole = std::move(*std::prev(hole));
      --hole;
    } while (hole != first && less(value, *std::prev(hole)));
    *hole = std::move(value);
  }
  return true;
}

}  // namespace webtx

#endif  // WEBTX_COMMON_ADAPTIVE_SORT_H_
