#ifndef WEBTX_EXP_LIVE_CHAOS_H_
#define WEBTX_EXP_LIVE_CHAOS_H_

// The executor-backed chaos profiles of the campaign engine
// (exp/campaign.h): `live` drives rt::Executor directly, `twin` drives
// rt::Twin (the executor steered by shadow simulations). Both run on a
// VirtualClock, so every case replays digest-identically.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "exp/campaign.h"
#include "rt/executor.h"
#include "rt/fault_injector.h"
#include "rt/live_trace.h"
#include "rt/live_validator.h"
#include "rt/twin.h"
#include "sim/fault_plan.h"
#include "workload/live_arrivals.h"

namespace webtx {

/// One randomized resilience scenario against the LIVE executor
/// (rt/executor.h) under a VirtualClock: a seeded task workload
/// submitted at virtual arrival instants, executed with seeded fault
/// injection (crashes, stalls, forced aborts, latency spikes), retry
/// backoff, optional admission control, and the stall watchdog. Every
/// knob is a value, so a case serializes to a replay file and re-runs
/// digest-identically (the live counterpart of exp/chaos.h).
struct LiveChaosCase {
  // -- Workload shape (all draws derive from workload_seed) --
  uint64_t workload_seed = 1;
  size_t num_tasks = 50;
  /// Mean of the exponential inter-arrival gaps, virtual seconds.
  double mean_interarrival = 0.05;
  /// Mean of the exponential simulated task durations.
  double mean_duration = 0.1;
  /// Relative deadline = duration * (1 + deadline_slack * U[0,1)).
  double deadline_slack = 2.0;
  /// Weights drawn uniformly from {1, ..., max_weight}.
  uint64_t max_weight = 1;
  /// Probability a task depends on one uniformly chosen earlier task.
  double dep_prob = 0.0;
  /// Probability a task gets a per-attempt timeout of
  /// duration * (0.5 + 1.5 * U[0,1)) — some attempts time out.
  double timeout_prob = 0.0;

  // -- Executor configuration (named as in rt::TwinOptions) --
  size_t num_workers = 2;
  /// Transaction-level policy spec (sched/policy_factory.h).
  std::string policy = "EDF";
  /// Seeded fault streams, one per executor slot, and latency spikes.
  rt::FaultInjectorOptions faults;
  /// Failover of a crashed slot's attempt: warm or cold.
  MigrationPolicy migration = MigrationPolicy::kWarm;
  /// Per-task retry budget and backoff (same for every task).
  uint32_t retry_max_attempts = 1;
  double retry_backoff = 0.0;
  double retry_backoff_multiplier = 2.0;
  /// Executor-wide retry-storm suppression.
  double retry_max_backoff = 0.0;
  size_t retry_budget = 0;
  /// Admission controller: none, a static queue-depth cap, or the
  /// adaptive brownout controller (a twin candidate's choices).
  using Admission = rt::TwinCandidate::Admission;
  Admission admission = Admission::kNone;
  size_t admission_max_ready = 0;  // kQueueDepth cap
  bool watchdog = false;
  double watchdog_stall_seconds = 0.0;
};

/// Everything one executed case produced, enough to validate and to
/// digest: the quiescent trace, the harness-side ground-truth task
/// records, final outcomes (indexed by TxnId), and the stats snapshot.
struct LiveChaosRun {
  std::vector<rt::LiveTraceEvent> trace;
  std::vector<rt::LiveTaskRecord> tasks;
  std::vector<rt::TaskOutcome> outcomes;
  rt::ExecutorStats stats;
  /// LiveTraceDigest(trace): the replay byte-identity contract.
  uint64_t digest = 0;
};

/// Executes one case to quiescence under a fresh VirtualClock (the
/// caller thread drives submissions at the drawn arrival instants as a
/// registered clock participant) and returns the run record. Fails on
/// invalid case parameters (bad policy spec, bad fault config, ...).
Result<LiveChaosRun> RunLiveChaosCase(const LiveChaosCase& c);

/// Audits a run against the live crash-era invariants
/// (rt/live_validator.h). Ok iff no violations.
Status CheckLiveChaosInvariants(const LiveChaosCase& c,
                                const LiveChaosRun& run);

/// The `index`-th case of a campaign, derived deterministically from
/// `master_seed` (biased toward crash streams — the point of the
/// harness).
LiveChaosCase RandomLiveChaosCase(uint64_t master_seed, uint64_t index);

/// The `live` profile of the campaign engine (exp/campaign.h): digest
/// LiveTraceDigest, audit the live validator; `--mint` pins a case that
/// still fails work over off a dead slot.
const CaseProfile<LiveChaosCase>& LiveChaosProfile();

/// One randomized digital-twin scenario (rt/twin.h) under a
/// VirtualClock: a seeded open-loop workload (Poisson / bursty ON-OFF /
/// flash crowd) served by the live executor while the shadow-simulator
/// controller forecasts, switches, and — when the model is corrupted —
/// falls back. Every knob is a value, so a case serializes to a replay
/// file and re-runs digest-identically (the twin counterpart of
/// LiveChaosCase; the digest additionally covers the controller's
/// decision log).
struct TwinChaosCase {
  /// The open-loop workload (all draws derive from workload.seed).
  LiveArrivalOptions workload{.shape = LiveArrivalShape::kFlashCrowd,
                              .num_tasks = 80,
                              .spike_start = 0.5,
                              .spike_duration = 0.5};
  /// The controller and the executor it steers (workers, faults,
  /// retries, watchdog).
  rt::TwinOptions controller;
};

/// Executes one case to quiescence and returns the twin's full report.
Result<rt::TwinReport> RunTwinChaosCase(const TwinChaosCase& c);

/// Audits a run: the live-trace invariants (rt/live_validator.h) plus
/// the controller contract — decision times strictly increasing,
/// applied indices in range, every fallback pinning the static
/// configuration and entering its cooldown. Ok iff no violations.
Status CheckTwinChaosInvariants(const TwinChaosCase& c,
                                const rt::TwinReport& report);

/// The `index`-th case of a campaign, derived deterministically from
/// `master_seed` (biased toward flash crowds and occasional corrupted
/// models — the guard is the point of the harness).
TwinChaosCase RandomTwinChaosCase(uint64_t master_seed, uint64_t index);

/// The `twin` profile: digest over the trace and the decision log;
/// neutral variants forecast_threads 1, 2 and 8 when the controller is
/// on (the fan-out may change decision cost, never decisions); `--mint`
/// pins a flash crowd with a corrupted model whose guard fires.
const CaseProfile<TwinChaosCase>& TwinChaosProfile();

}  // namespace webtx

#endif  // WEBTX_EXP_LIVE_CHAOS_H_
