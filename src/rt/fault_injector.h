#ifndef WEBTX_RT_FAULT_INJECTOR_H_
#define WEBTX_RT_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/fault_plan.h"

namespace webtx::rt {

/// Configuration of live fault injection. The `plan` is the exact
/// seeded per-server stream config the simulator consumes
/// (sim/fault_plan.h) reinterpreted for executor slots:
///   - outages become STALL windows: the slot stops accepting work and
///     its in-flight attempt is failed over by the watchdog after the
///     executor's detection delay (or rides the window out when the
///     watchdog is disabled);
///   - aborts become FORCED ABORTS of the attempt in flight on the slot
///     (idle instants are thinned no-ops, exactly like the sim);
///   - crashes take the slot out of the pool for the repair window and
///     the in-flight attempt is failed over immediately, warm or cold
///     per ExecutorOptions::migration. Correlated crashes fell
///     co-victim slots at the same instant.
/// Latency spikes are executor-only: each dispatch draws, from a
/// per-slot stream derived from the same plan seed, whether the attempt
/// pays an exponential extra latency before its work proceeds.
struct FaultInjectorOptions {
  FaultPlanConfig plan;
  /// Probability that a dispatch suffers a latency spike, in [0, 1].
  double latency_spike_prob = 0.0;
  /// Mean injected latency in seconds (exponential); must be > 0 when
  /// latency_spike_prob > 0.
  double mean_latency_spike = 0.0;

  bool enabled() const {
    return plan.outage_rate > 0.0 || plan.abort_rate > 0.0 ||
           plan.crash_rate > 0.0 || latency_spike_prob > 0.0;
  }
};

/// Deterministic fault event source for the live executor: one
/// sim/fault_plan FaultStream per slot plus per-slot latency-spike
/// streams. The executor consumes it under its own mutex (the injector
/// is not thread-safe) in two ways: CollectEventsUpTo drains every
/// timed fault event due by `now` in deterministic (time, slot, kind)
/// order, and DrawLatencySpike is consumed exactly once per dispatch.
/// Given the same seed and the same dispatch sequence the injected
/// fault timeline is identical run to run — the property the live chaos
/// profile (`tools/chaos --profile live`) pins with trace digests.
class FaultInjector {
 public:
  /// Validates the options (via FaultPlan::Create) and builds streams
  /// for `num_slots` slots.
  static Result<FaultInjector> Create(FaultInjectorOptions options,
                                      size_t num_slots);

  /// One timed fault event, in executor-clock seconds.
  struct Event {
    enum class Kind : uint8_t {
      kStallStart = 0,  // outage window opens: slot undispatchable
      kStallEnd,        // outage window closes
      kCrash,           // slot leaves the pool (repair window opens)
      kRepair,          // slot rejoins the pool
      kAbort,           // abort instant (no-op if the slot is idle)
    };
    double time = 0.0;
    Kind kind = Kind::kStallStart;
    uint32_t slot = 0;
  };

  /// Appends every fault event with time <= now, in (time, slot, kind)
  /// order, advancing the underlying streams. Correlated crashes are
  /// resolved here: a natural crash instant fells each seeded co-victim
  /// slot at the same instant (emitted as its own kCrash event).
  void CollectEventsUpTo(double now, std::vector<Event>* events);

  /// Earliest future fault event, or kNeverTime when none is pending.
  double NextEventTime() const;

  /// Out of the pool right now: stalled or crashed.
  bool slot_down(size_t slot) const { return streams_[slot].down(); }
  bool slot_crashed(size_t slot) const { return streams_[slot].crashed(); }
  size_t num_slots() const { return streams_.size(); }
  size_t num_slots_up() const;

  /// Latency-spike draw for one dispatch on `slot`: 0 most of the time,
  /// an exponential extra latency with probability latency_spike_prob.
  /// Consumes the slot's spike stream exactly once per call.
  double DrawLatencySpike(uint32_t slot);

  const FaultInjectorOptions& options() const { return options_; }

 private:
  FaultInjector(FaultInjectorOptions options, size_t num_slots);

  FaultInjectorOptions options_;
  std::vector<FaultStream> streams_;
  std::vector<Rng> spike_rngs_;
  /// Outage phase per slot (FaultStream keeps it private and down()
  /// unions it with crashes): flipped on every outage boundary so
  /// CollectEventsUpTo can label starts vs ends.
  std::vector<bool> stall_active_;
};

}  // namespace webtx::rt

#endif  // WEBTX_RT_FAULT_INJECTOR_H_
