// Live arrival generation (workload/live_arrivals.h): seed
// determinism, batch invariants shared by every shape, and the
// flash-crowd density spike.

#include "workload/live_arrivals.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace webtx {
namespace {

LiveArrivalOptions ShapeOptions(LiveArrivalShape shape) {
  LiveArrivalOptions options;
  options.shape = shape;
  options.seed = 17;
  options.num_tasks = 400;
  options.rate = 80.0;
  options.max_weight = 4;
  return options;
}

void ExpectBatchInvariants(const std::vector<LiveArrival>& batch,
                           const LiveArrivalOptions& options) {
  ASSERT_EQ(batch.size(), options.num_tasks);
  double prev = 0.0;
  for (const LiveArrival& a : batch) {
    EXPECT_GE(a.arrival, prev);  // non-decreasing submission order
    prev = a.arrival;
    EXPECT_GT(a.duration, 0.0);
    // deadline_slack >= 0 means every deadline covers the work itself.
    EXPECT_GE(a.relative_deadline, a.duration);
    EXPECT_GE(a.weight, 1.0);
    EXPECT_LE(a.weight, static_cast<double>(options.max_weight));
  }
}

// The batches below are compared bytewise, which needs a struct
// without padding.
static_assert(sizeof(LiveArrival) == 5 * sizeof(double) + sizeof(int64_t));

TEST(LiveArrivalsTest, EveryShapeIsDeterministicPerSeedAndHonorsInvariants) {
  for (LiveArrivalShape shape :
       {LiveArrivalShape::kPoisson, LiveArrivalShape::kOnOff,
        LiveArrivalShape::kFlashCrowd}) {
    const LiveArrivalOptions options = ShapeOptions(shape);
    const std::vector<LiveArrival> first = GenerateLiveArrivals(options);
    const std::vector<LiveArrival> second = GenerateLiveArrivals(options);
    ExpectBatchInvariants(first, options);
    ASSERT_EQ(first.size(), second.size());
    // Byte-stable, not merely approximately equal: the twin's replay
    // digests hang off this.
    EXPECT_EQ(0, std::memcmp(first.data(), second.data(),
                             first.size() * sizeof(LiveArrival)))
        << "shape " << static_cast<int>(shape);

    LiveArrivalOptions reseeded = options;
    reseeded.seed = 18;
    const std::vector<LiveArrival> other = GenerateLiveArrivals(reseeded);
    EXPECT_NE(0, std::memcmp(first.data(), other.data(),
                             first.size() * sizeof(LiveArrival)))
        << "shape " << static_cast<int>(shape);
  }
}

TEST(LiveArrivalsTest, FlashCrowdSpikesInsideItsWindow) {
  LiveArrivalOptions options = ShapeOptions(LiveArrivalShape::kFlashCrowd);
  options.num_tasks = 2000;
  options.rate = 50.0;
  options.spike_factor = 8.0;
  options.spike_start = 2.0;
  options.spike_duration = 1.0;
  const std::vector<LiveArrival> batch = GenerateLiveArrivals(options);

  // Compare empirical density inside the spike window against an
  // equally long stretch of base load before it. With an 8x factor the
  // gap is enormous; 3x is a loose, seed-robust bound.
  size_t in_spike = 0;
  size_t before_spike = 0;
  for (const LiveArrival& a : batch) {
    if (a.arrival >= options.spike_start &&
        a.arrival < options.spike_start + options.spike_duration) {
      ++in_spike;
    } else if (a.arrival >= options.spike_start - options.spike_duration &&
               a.arrival < options.spike_start) {
      ++before_spike;
    }
  }
  ASSERT_GT(before_spike, 0u);
  EXPECT_GT(in_spike, 3 * before_spike);
}

}  // namespace
}  // namespace webtx
