#ifndef WEBTX_EXP_TWIN_CHAOS_H_
#define WEBTX_EXP_TWIN_CHAOS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "rt/twin.h"
#include "sim/fault_plan.h"
#include "workload/live_arrivals.h"

namespace webtx {

/// One randomized digital-twin scenario (rt/twin.h) under a
/// VirtualClock: a seeded open-loop workload (Poisson / bursty ON-OFF /
/// flash crowd) served by the live executor while the shadow-simulator
/// controller forecasts, switches, and — when the model is corrupted —
/// falls back. Every knob is a value, so a case serializes to a replay
/// file and re-runs digest-identically (the twin counterpart of
/// exp/live_chaos.h; the digest additionally covers the controller's
/// decision log).
struct TwinChaosCase {
  // -- Workload shape (all draws derive from workload_seed) --
  LiveArrivalShape shape = LiveArrivalShape::kFlashCrowd;
  uint64_t workload_seed = 1;
  size_t num_tasks = 80;
  double rate = 100.0;
  double burstiness = 0.5;        // kOnOff
  double on_off_mean_cycle = 2.0;
  double spike_factor = 8.0;      // kFlashCrowd
  double spike_start = 0.5;
  double spike_duration = 0.5;
  double mean_duration = 0.05;
  double deadline_slack = 2.0;
  uint64_t max_weight = 1;

  // -- Controller configuration --
  std::vector<rt::TwinCandidate> candidates;
  size_t static_index = 0;
  bool controller_enabled = true;
  double control_interval = 0.25;
  double forecast_horizon = 0.5;
  double switch_margin = 0.1;
  size_t dwell_ticks = 2;
  double shed_penalty = 1.0;
  double divergence_tolerance = 2.0;
  double divergence_abs_floor = 0.05;
  double shed_divergence = 0.5;
  size_t guard_strikes = 2;
  size_t guard_cooldown_ticks = 4;
  uint64_t forecast_seed = 2009;
  double snapshot_corruption = 1.0;

  // -- Forecast execution (decision-loop cost knobs) --
  // Digest-neutral by contract (rt::TwinOptions); the campaign sweeps
  // forecast_threads and the determinism audit is the enforcement.
  size_t forecast_threads = 1;
  bool prune = false;
  double prune_prefix = 0.4;

  // -- Executor configuration --
  size_t num_workers = 2;
  FaultPlanConfig fault;
  double latency_spike_prob = 0.0;
  double mean_latency_spike = 0.0;
  uint32_t retry_max_attempts = 1;
  double retry_backoff = 0.0;
  double retry_backoff_multiplier = 2.0;
  double retry_max_backoff = 0.0;
  size_t retry_budget = 0;
  bool watchdog = false;
  double watchdog_stall_seconds = 0.0;
};

/// Maps a case onto the twin's option struct (exposed so tools and
/// benches configure runs the exact way the campaign does).
rt::TwinOptions TwinOptionsFor(const TwinChaosCase& c);

/// Executes one case to quiescence and returns the twin's full report.
Result<rt::TwinReport> RunTwinChaosCase(const TwinChaosCase& c);

/// Audits a run: the live-trace invariants (rt/live_validator.h) plus
/// the controller contract — decision times strictly increasing on the
/// tick grid, applied indices in range, every fallback pinning the
/// static configuration and entering its cooldown. Ok iff no
/// violations.
Status CheckTwinChaosInvariants(const TwinChaosCase& c,
                                const rt::TwinReport& report);

/// Replay file round-trip: "key value" lines under a versioned header.
/// Candidates serialize as repeated `candidate <policy> <admission>
/// <max_ready> <capacity_slo>` lines in table order. Unknown keys are
/// an error (a replay must not silently lose a knob).
std::string SerializeTwinChaosCase(const TwinChaosCase& c);
Result<TwinChaosCase> ParseTwinChaosReplay(const std::string& text);

/// True when the (shrunk) case still exhibits the failure being chased.
using TwinChaosPredicate = std::function<bool(const TwinChaosCase&)>;

/// Greedy shrink: fewer tasks, dropped fault streams, an honest model,
/// a smaller candidate table, fewer workers — keeping only mutations
/// under which `still_fails` holds.
TwinChaosCase ShrinkTwinChaosCase(TwinChaosCase c,
                                  const TwinChaosPredicate& still_fails);

/// The `index`-th case of a campaign, derived deterministically from
/// `master_seed` (biased toward flash crowds and occasional corrupted
/// models — the guard is the point of the harness).
TwinChaosCase RandomTwinChaosCase(uint64_t master_seed, uint64_t index);

struct TwinChaosCampaignOptions {
  uint64_t master_seed = 1;
  size_t num_cases = 50;
  /// When non-empty, the shrunk reproducer of the first failure is
  /// written here as a replay file.
  std::string reproducer_path;
  /// Progress hook: case index and its verdict ("" = passed).
  std::function<void(size_t, const std::string&)> progress;
};

struct TwinChaosCampaignResult {
  size_t cases_run = 0;
  size_t violations = 0;
  /// Cases whose two runs produced different digests — the determinism
  /// contract (trace + decision log) broke. Counted in `violations` too.
  size_t determinism_mismatches = 0;
  /// Cases where re-running with a different forecast_threads (1/2/8)
  /// changed the digest — the digest-neutrality contract of the
  /// forecast fan-out broke. Counted in `violations` too.
  size_t neutrality_mismatches = 0;
  std::string first_violation;
  TwinChaosCase first_reproducer;
  // Aggregate controller exposure, to prove the campaign exercised the
  // loop (and its guard), not just the executor.
  size_t total_decisions = 0;
  size_t total_switches = 0;
  size_t total_fallbacks = 0;
  size_t total_crashes = 0;
  size_t total_migrations = 0;
};

/// Runs `num_cases` random cases. Every case is executed TWICE: the two
/// digests must match (determinism audit) and the first run must pass
/// the invariants. The first failing case is shrunk and (optionally)
/// written as a reproducer.
Result<TwinChaosCampaignResult> RunTwinChaosCampaign(
    const TwinChaosCampaignOptions& options);

}  // namespace webtx

#endif  // WEBTX_EXP_TWIN_CHAOS_H_
