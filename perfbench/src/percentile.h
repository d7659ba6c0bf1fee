#ifndef PERFBENCH_PERCENTILE_H_
#define PERFBENCH_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// A lost request (shed or dropped) as a latency sample: it misses every
/// limit, so it sorts above every finite response.
inline constexpr double kLost = std::numeric_limits<double>::infinity();

/// One nearest-rank percentile. `ok` is false when fewer than
/// `min_beyond` samples lie above the rank: such a percentile is
/// refused, because a handful of samples cannot pin it.
struct Percentile {
  bool ok = false;
  double value = 0.0;
  size_t samples = 0;  // n
  size_t beyond = 0;   // samples ranked above the percentile
};

/// Nearest-rank percentile `q` in (0, 1] of `sorted` (ascending): the
/// value at 1-based rank ceil(q * n). Lost requests are kLost samples.
inline Percentile NearestRank(const std::vector<double>& sorted, double q,
                              size_t min_beyond = 10) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  // The epsilon keeps q * n == integer exact under floating point
  // (0.99 * 1000 must be rank 990, not 991).
  const double exact = q * static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  p.ok = p.beyond >= min_beyond;
  return p;
}

/// Sorts `samples` in place, then NearestRank.
inline Percentile PercentileOf(std::vector<double>& samples, double q,
                               size_t min_beyond = 10) {
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, q, min_beyond);
}

/// True when percentile `q` of `sorted` is supported and strictly under
/// `limit`; a lost-request sample at or below the rank fails it.
inline bool MeetsLimit(const std::vector<double>& sorted, double q,
                       double limit, size_t min_beyond = 10) {
  const Percentile p = NearestRank(sorted, q, min_beyond);
  return p.ok && p.value < limit;
}

}  // namespace perfbench

#endif  // PERFBENCH_PERCENTILE_H_
