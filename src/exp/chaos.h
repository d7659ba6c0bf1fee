#ifndef WEBTX_EXP_CHAOS_H_
#define WEBTX_EXP_CHAOS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/result.h"
#include "exp/campaign.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "workload/spec.h"

namespace webtx {

/// One fully-specified chaos scenario: workload shape, policy, fault
/// plan (crashes, outages, aborts), retry behavior, and optional
/// admission control. A ChaosCase is a pure value — running it twice
/// replays the byte-identical schedule (ScheduleDigest) — which is what
/// makes shrunken reproducers replayable from a text file.
struct ChaosCase {
  // Workload shape (the knobs the shrinker can simplify).
  uint64_t workload_seed = 1;
  WorkloadSpec workload{.num_transactions = 200, .utilization = 0.8};

  // System under test.
  size_t num_servers = 1;
  /// Policy spec understood by CreatePolicy (sched/policy_factory.h).
  std::string policy = "FCFS";
  FaultPlanConfig fault;
  RetryOptions retry;
  /// QueueDepthAdmission max_ready cap; 0 = no admission control.
  size_t admission_max_ready = 0;
};

/// Runs the case to completion with outcome and schedule recording on.
/// Fails (InvalidArgument) on nonsensical parameters, never on fault
/// activity — a crashed-to-pieces run still returns its RunResult.
Result<RunResult> RunChaosCase(const ChaosCase& c);

/// Audits a recorded run against the full invariant set: everything
/// ValidateSchedule checks (no execution on a down or crashed server,
/// migrated work conserved or zeroed exactly per the case's
/// MigrationPolicy, every fate accounted for in the goodput/shed/drop
/// partition), wired up from the case's fault plan. Returns OK or the
/// first violation, with timestamps/server/txn ids in the message.
Status CheckChaosInvariants(const ChaosCase& c, const RunResult& result);

/// Order-sensitive FNV-1a digest of the observable behavior of a run:
/// every schedule segment, every outcome (fate, finish, aborts,
/// migrations), and the fault/fate counters. Two runs are considered
/// byte-identical iff their digests match — the replay test's equality
/// oracle, and stable across platforms (doubles hashed by bit pattern).
uint64_t ScheduleDigest(const RunResult& result);

/// Derives case `index` of a campaign from `master_seed` via the
/// DeriveSeed chain: randomizes the policy, workload shape, crash /
/// outage / abort rates, MigrationPolicy, correlated-failure mode,
/// retry options, and admission — biased so most cases crash servers
/// (this is a crash-failover harness). Pure function of its arguments.
ChaosCase RandomChaosCase(uint64_t master_seed, uint64_t index);

/// The simulator profiles of the campaign engine (exp/campaign.h):
/// `sim` (RandomChaosCase; `--mint` pins a cold-failover migration) and
/// `huge` (the same cases at 10^5 transactions).
const CaseProfile<ChaosCase>& SimChaosProfile();
const CaseProfile<ChaosCase>& HugeChaosProfile();

}  // namespace webtx

#endif  // WEBTX_EXP_CHAOS_H_
