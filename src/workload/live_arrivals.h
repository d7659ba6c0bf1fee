#ifndef WEBTX_WORKLOAD_LIVE_ARRIVALS_H_
#define WEBTX_WORKLOAD_LIVE_ARRIVALS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace webtx {

/// One arrival the live front end (rt/serve.h) submits to rt::Executor:
/// the common currency of the open-loop load generator, the live chaos
/// harness, the digital twin and the live benches. All times are
/// seconds; `arrival` instants are non-decreasing within a batch.
struct LiveArrival {
  double arrival = 0.0;
  /// Simulated execution cost (TaskSpec::simulated_duration AND the
  /// policy's estimate — the live generator models honest estimates;
  /// estimate error studies live in bench/ext_estimate_error).
  double duration = 0.0;
  double relative_deadline = 0.0;
  double weight = 1.0;
  /// Per-attempt budget (TaskSpec::timeout_seconds); 0 = unlimited.
  double timeout = 0.0;
  /// Index of an earlier arrival of the same batch that must finish
  /// first, or -1 for none. 64 bits wide, so the struct has no padding
  /// and batches compare bytewise.
  int64_t depends_on = -1;
};

/// Smallest task duration a live arrival or a twin forecast carries, in
/// seconds: an exponential draw can come arbitrarily close to 0.
inline constexpr double kMinTaskSeconds = 1e-4;

/// -mean * ln(1 - U), U in [0, 1): the inverse-CDF exponential draw of
/// the live generators and the twin's forecasts.
/// ExponentialDistribution::Sample computes -log1p(-U) / rate, which
/// rounds differently, so the two are not interchangeable.
inline double ExpDraw(Rng& rng, double mean) {
  return -mean * std::log1p(-rng.NextDouble());
}

/// Arrival-shape of the open-loop generator.
enum class LiveArrivalShape : uint8_t {
  kPoisson = 0,     // homogeneous Poisson at `rate`
  kOnOff,           // bursty Markov-modulated ON/OFF (workload/arrival_process)
  kFlashCrowd,      // rate spike in [spike_start, spike_start + spike_duration)
};

struct LiveArrivalOptions {
  LiveArrivalShape shape = LiveArrivalShape::kPoisson;
  uint64_t seed = 1;
  size_t num_tasks = 100;
  /// Long-run arrival rate (per second). For kFlashCrowd this is the
  /// BASE rate; the spike multiplies it by spike_factor.
  double rate = 100.0;
  /// kOnOff: burstiness in [0, 1) and expected ON+OFF cycle seconds.
  double burstiness = 0.5;
  double on_off_mean_cycle = 2.0;
  /// kFlashCrowd knobs.
  double spike_factor = 8.0;
  double spike_start = 1.0;
  double spike_duration = 1.0;
  /// Exponential task durations with this mean (floored at
  /// kMinTaskSeconds).
  double mean_duration = 0.05;
  /// relative_deadline = duration * (1 + deadline_slack * U[0,1)).
  double deadline_slack = 2.0;
  /// Weights drawn uniformly from {1, ..., max_weight}.
  uint64_t max_weight = 1;
};

/// Materializes the whole batch up front (arrival order fixes TxnId
/// assignment at submission, the live determinism contract). A pure
/// function of the options, byte-stable across platforms. No arrival
/// has a timeout or a dependency.
std::vector<LiveArrival> GenerateLiveArrivals(const LiveArrivalOptions& options);

}  // namespace webtx

#endif  // WEBTX_WORKLOAD_LIVE_ARRIVALS_H_
