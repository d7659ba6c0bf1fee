#ifndef WEBTX_EXP_CHAOS_H_
#define WEBTX_EXP_CHAOS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/result.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "sim/simulator.h"

namespace webtx {

/// One fully-specified chaos scenario: workload shape, policy, fault
/// plan (crashes, outages, aborts), retry behavior, and optional
/// admission control. A ChaosCase is a pure value — running it twice
/// replays the byte-identical schedule (ScheduleDigest) — which is what
/// makes shrunken reproducers replayable from a text file.
struct ChaosCase {
  // Workload shape (the knobs the shrinker can simplify).
  uint64_t workload_seed = 1;
  size_t num_transactions = 200;
  double utilization = 0.8;
  uint64_t max_weight = 1;
  size_t max_workflow_length = 1;
  size_t max_workflows_per_txn = 1;
  double burstiness = 0.0;
  double estimate_error = 0.0;

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

/// Serializes a case as "key value" lines under a versioned header —
/// the replay-file format. Round-trips exactly (doubles printed with
/// max_digits10).
std::string SerializeChaosCase(const ChaosCase& c);

/// Parses a replay file produced by SerializeChaosCase. Unknown keys
/// are errors (a replay must not silently lose a knob); missing keys
/// keep their ChaosCase defaults.
Result<ChaosCase> ParseChaosReplay(const std::string& text);

/// Returns true when the case still exhibits the failure being
/// shrunk. Predicates must be deterministic (same case, same answer).
using ChaosPredicate = std::function<bool(const ChaosCase&)>;

/// Greedily shrinks a failing case while `still_fails` holds: halves
/// the transaction count, drops whole fault streams (aborts, outages,
/// correlated mode, crashes), disables admission and retries, levels
/// the workload shape (weights, workflows, burstiness, estimate
/// error), removes servers, and finally bisects the fault timeline
/// itself — suppressing individual natural crash / outage windows
/// (FaultPlanConfig::suppressed_*, draw-and-discard so the rest of the
/// timeline is untouched) — keeping each simplification only if the
/// predicate still fails. The result is a local minimum: every
/// remaining knob and every remaining fault instant is load-bearing.
/// Requires still_fails(c) on entry.
ChaosCase ShrinkChaosCase(ChaosCase c, const ChaosPredicate& still_fails);

/// Derives case `index` of a campaign from `master_seed` via the
/// DeriveSeed chain: randomizes the policy, workload shape, crash /
/// outage / abort rates, MigrationPolicy, correlated-failure mode,
/// retry options, and admission — biased so most cases crash servers
/// (this is a crash-failover harness). Pure function of its arguments.
ChaosCase RandomChaosCase(uint64_t master_seed, uint64_t index);

struct ChaosCampaignOptions {
  uint64_t master_seed = 1;
  /// Randomized (policy, fault plan, seed) cases to run.
  size_t num_cases = 200;
  /// When non-empty and a violation is found, the shrunken reproducer
  /// is serialized here.
  std::string reproducer_path;
  /// Per-case progress callback (case index, violation or empty).
  std::function<void(size_t index, const std::string& violation)> progress;
};

struct ChaosCampaignResult {
  size_t cases_run = 0;
  size_t violations = 0;
  /// Validator message of the first violation (empty when none).
  std::string first_violation;
  /// The first failing case, shrunk to a local minimum.
  ChaosCase first_reproducer;
  // Aggregate fault activity, to prove the campaign exercised the
  // machinery rather than idling on fault-free cases.
  size_t total_crashes = 0;
  size_t total_migrations = 0;
  size_t total_aborts = 0;
  size_t total_outages = 0;
};

/// Runs `num_cases` randomized cases through RunChaosCase +
/// CheckChaosInvariants. On the first violation the case is shrunk
/// (predicate: the violation — any violation — still reproduces) and
/// serialized to `reproducer_path`; the campaign then continues, so
/// the violation count is complete. IOError if the reproducer cannot
/// be written.
Result<ChaosCampaignResult> RunChaosCampaign(
    const ChaosCampaignOptions& options);

}  // namespace webtx

#endif  // WEBTX_EXP_CHAOS_H_
