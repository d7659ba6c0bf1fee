#include "workload/live_arrivals.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "workload/arrival_process.h"

namespace webtx {

std::vector<LiveArrival> GenerateLiveArrivals(
    const LiveArrivalOptions& options) {
  WEBTX_CHECK_GT(options.rate, 0.0);
  WEBTX_CHECK_GT(options.mean_duration, 0.0);
  WEBTX_CHECK_GE(options.deadline_slack, 0.0);
  WEBTX_CHECK_GE(options.max_weight, 1u);
  std::unique_ptr<ArrivalProcess> process;
  switch (options.shape) {
    case LiveArrivalShape::kPoisson:
      process = std::make_unique<PoissonProcess>(options.rate);
      break;
    case LiveArrivalShape::kOnOff:
      process = std::make_unique<OnOffPoissonProcess>(
          options.rate, options.burstiness, options.on_off_mean_cycle);
      break;
    case LiveArrivalShape::kFlashCrowd:
      process = std::make_unique<FlashCrowdProcess>(
          options.rate, options.spike_factor, options.spike_start,
          options.spike_duration);
      break;
  }
  Rng rng(options.seed);
  std::vector<LiveArrival> arrivals(options.num_tasks);
  for (LiveArrival& a : arrivals) {
    a.arrival = process->Next(rng);
    a.duration = std::max(kMinTaskSeconds, ExpDraw(rng, options.mean_duration));
    a.relative_deadline =
        a.duration * (1.0 + options.deadline_slack * rng.NextDouble());
    a.weight = static_cast<double>(rng.NextInRange(1, options.max_weight));
  }
  return arrivals;
}

}  // namespace webtx
