#ifndef WEBTX_RT_TWIN_H_
#define WEBTX_RT_TWIN_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "rt/executor.h"
#include "rt/serve.h"
#include "sched/admission.h"
#include "sched/scheduler_policy.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "workload/live_arrivals.h"

namespace webtx::rt {

/// One live configuration the twin's controller can apply online: a
/// transaction-level policy spec (sched/policy_factory.h) plus an
/// admission knob.
struct TwinCandidate {
  std::string policy = "FCFS";
  enum class Admission : uint8_t { kNone = 0, kQueueDepth, kBrownout };
  Admission admission = Admission::kNone;
  /// kQueueDepth cap (>= 1 when used).
  size_t max_ready = 64;
  /// kBrownout crash-aware down-fraction SLO (0 = signal off); see
  /// BrownoutAdmissionOptions::capacity_slo.
  double capacity_slo = 0.0;
};

/// The admission controller `candidate` names (null for kNone).
/// InvalidArgument for a queue-depth max_ready of 0 or a capacity_slo
/// outside [0, 1], which the controllers would CHECK.
Result<AdmissionFactory> AdmissionFor(const TwinCandidate& candidate);

/// Digital-twin serving-loop knobs. The `candidates` table is the
/// controller's whole action space; `static_index` names both the
/// configuration the run starts under and the one the divergence guard
/// falls back to.
struct TwinOptions {
  size_t num_workers = 2;
  std::vector<TwinCandidate> candidates;
  size_t static_index = 0;
  /// Off = pure static serving (the A side of every A-B): no control
  /// ticks, no reconfiguration, no decisions.
  bool controller_enabled = true;

  // -- Control-loop cadence and hysteresis --
  double control_interval = 0.25;  // virtual seconds between ticks
  double forecast_horizon = 0.5;   // what-if lookahead per tick
  /// Required relative score improvement before a switch (plus a dwell
  /// of `dwell_ticks` ticks since the last switch): hysteresis against
  /// forecast-noise flapping.
  double switch_margin = 0.1;
  size_t dwell_ticks = 2;
  /// Score = predicted avg tardiness + shed_penalty * predicted shed
  /// fraction (lower is better).
  double shed_penalty = 1.0;

  // -- Divergence guard (the robustness headline) --
  /// Observed window tardiness diverges when it misses the forecast by
  /// more than tolerance * max(forecast, abs_floor) AND by more than
  /// abs_floor seconds; shed ratios diverge when they differ by more
  /// than shed_divergence (absolute, both in [0, 1]).
  double divergence_tolerance = 2.0;
  double divergence_abs_floor = 0.05;
  double shed_divergence = 0.5;
  /// Consecutive divergent ticks before the guard trips.
  size_t guard_strikes = 2;
  /// Ticks the controller stays on the static configuration (no
  /// forecasts, no switches) after tripping.
  size_t guard_cooldown_ticks = 4;

  // -- Shadow-model fidelity --
  uint64_t forecast_seed = 2009;
  /// Multiplies every service-time estimate the shadow simulator is fed
  /// (snapshot residuals and synthetic future durations). 1.0 =
  /// faithful model; anything else corrupts the twin — the forced-
  /// divergence hook the guard's acceptance test leans on.
  double snapshot_corruption = 1.0;

  // -- Forecast execution (decision-loop cost knob) --
  /// Worker threads for the per-candidate forecast fan-out. 1 = serial
  /// in the control thread; 0 = hardware concurrency. Changes only how
  /// fast the controller decides, never what: results merge in
  /// candidate-index order, so the decision sequence (and so
  /// TwinReport::digest) is thread-count invariant.
  size_t forecast_threads = 1;

  // -- Live executor knobs (mirror ExecutorOptions) --
  FaultInjectorOptions faults;
  MigrationPolicy migration = MigrationPolicy::kWarm;
  bool watchdog = false;
  double watchdog_stall_seconds = 0.0;
  uint32_t retry_max_attempts = 1;
  double retry_backoff = 0.0;
  double retry_backoff_multiplier = 2.0;
  double retry_max_backoff = 0.0;
  size_t retry_budget = 0;
};

/// One recorded controller decision (one per control tick).
struct TwinDecision {
  enum class Kind : uint8_t {
    kHold = 0,   // kept the applied configuration
    kSwitch,     // reconfigured to a better-scoring candidate
    kFallback,   // divergence guard tripped: reverted to static
    kCooldown,   // guard cooldown tick (no forecasting)
    kReenable,   // last cooldown tick: controller live again next tick
  };
  double time = 0.0;
  Kind kind = Kind::kHold;
  /// Candidate index in force AFTER the tick.
  uint32_t applied = 0;
  /// Forecast winner (kHold/kSwitch ticks only).
  uint32_t best = 0;
  /// Shadow forecast for the post-tick applied configuration
  /// (kHold/kSwitch only) — next tick's guard reference.
  double predicted_tardiness = 0.0;
  double predicted_shed_ratio = 0.0;
  /// Observed metrics of the window that just closed.
  double observed_tardiness = 0.0;
  double observed_shed_ratio = 0.0;
};

/// Aggregate statistics over the arrivals observed since the last
/// control tick — the controller's traffic model for synthesizing
/// future arrivals in each forecast.
struct TwinArrivalWindow {
  size_t count = 0;
  double duration_sum = 0.0;
  double deadline_sum = 0.0;
  double weight_sum = 0.0;

  void Observe(const LiveArrival& arrival) {
    ++count;
    duration_sum += arrival.duration;
    deadline_sum += arrival.relative_deadline;
    weight_sum += arrival.weight;
  }
  void Reset() { *this = TwinArrivalWindow{}; }
};

/// One candidate's shadow-forecast outcome for a control tick. A
/// default-constructed value (infinite score) means "not ranked": the
/// candidate's shadow run could not be built.
struct TwinForecast {
  double tardiness = 0.0;
  double shed_ratio = 0.0;
  double score = std::numeric_limits<double>::infinity();
};

/// Decision-loop cost counters, accumulated across every Forecast()
/// call on an engine. Wall-clock time NEVER feeds the twin digest —
/// these are reporting-only.
struct TwinDecisionStats {
  /// Wall-clock milliseconds spent inside Forecast() (spec build, shadow
  /// runs, merge).
  double decision_ms = 0.0;
  /// Scheduling points executed across all shadow runs, summed in
  /// candidate-index order.
  uint64_t forecast_events = 0;
  /// Candidate forecasts executed (every shadow run scores the full
  /// horizon).
  uint64_t forecasts_run = 0;
  /// Always 0: every candidate is forecast on every forecasting tick.
  /// Kept because the repository benchmark reads it
  /// (rt.twin.forecasts_pruned).
  uint64_t forecasts_pruned = 0;
};

/// The twin's per-tick forecast fan-out, factored out of the serving
/// loop so its cost structure is independently testable. One engine is
/// built per twin run; each Forecast() call projects the executor
/// snapshot + arrival window through every candidate's shadow simulator
/// and returns the scored table the controller ranks.
///
/// Cost model: specs are built once per tick into a shared immutable
/// SimWorkload, and each candidate slot keeps a warm simulator (scratch
/// arenas survive across ticks) and a reusable policy. With
/// forecast_threads > 1 the candidates fan out over a ThreadPool; slots
/// are fully independent, and results land at their candidate index, so
/// the merge order — and therefore the decision — is deterministic.
class TwinForecastEngine {
 public:
  /// Validates the candidate table as Twin::Run does (non-empty, known
  /// policy specs, queue-depth max_ready >= 1, capacity_slo in [0, 1];
  /// InvalidArgument names the field) and builds the candidate slots.
  static Result<TwinForecastEngine> Create(const TwinOptions& options);

  TwinForecastEngine(TwinForecastEngine&&) noexcept;
  TwinForecastEngine& operator=(TwinForecastEngine&&) noexcept;
  ~TwinForecastEngine();

  /// Runs every candidate's shadow forecast for one control tick.
  /// `incumbent` is the currently applied candidate index; it must be in
  /// range but does not change the table. The returned reference is
  /// owned by the engine and valid until the next Forecast() call.
  /// Deterministic for fixed inputs regardless of forecast_threads. Not
  /// thread-safe; one Forecast() at a time.
  const std::vector<TwinForecast>& Forecast(const ExecutorSnapshot& snap,
                                            const TwinArrivalWindow& window,
                                            uint64_t tick,
                                            uint32_t incumbent);

  const TwinDecisionStats& stats() const { return stats_; }

 private:
  /// One pooled candidate: a long-lived policy and a warm simulator
  /// bound to the engine's shared per-tick workload.
  struct Slot {
    std::unique_ptr<SchedulerPolicy> policy;
    std::unique_ptr<Simulator> sim;
  };

  TwinForecastEngine() = default;

  /// Rebuilds spec_buffer_ (and remap_) from the snapshot + window;
  /// reuses capacity so steady-state ticks allocate nothing.
  void BuildSpecsInto(const ExecutorSnapshot& snap,
                      const TwinArrivalWindow& window, uint64_t tick);

  /// Forecasts candidate `index` on the shared workload, adding the
  /// run's scheduling points to slot_events_[index].
  TwinForecast ForecastOne(size_t index, size_t num_workers_up);

  TwinOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when forecast_threads == 1
  /// The shared per-tick workload. Mutated only between shadow runs,
  /// via Rebuild.
  std::shared_ptr<SimWorkload> workload_;
  std::vector<Slot> slots_;
  // Reused per-tick buffers.
  std::vector<TransactionSpec> spec_buffer_;
  std::vector<TxnId> remap_;
  std::vector<TwinForecast> forecasts_;
  std::vector<uint64_t> slot_events_;
  TwinDecisionStats stats_;
};

/// Everything one twin run produced: the served-batch bundle (trace,
/// task records, outcomes, stats, validator options), the decision log,
/// and a combined digest covering both — byte-identity of a twin run
/// includes what the controller DID, not just what the executor
/// executed.
struct TwinReport : ServedRun {
  std::vector<TwinDecision> decisions;
  uint64_t digest = 0;
  size_t switches = 0;
  size_t fallbacks = 0;
  uint32_t final_config = 0;
  // Headline metrics.
  double avg_tardiness = 0.0;  // mean over completed tasks
  double shed_ratio = 0.0;     // non-completed / submitted
  double goodput = 0.0;        // completed / submitted
  /// Decision-loop cost totals across the run (TwinForecastEngine
  /// accounting; wall clock, reporting-only, never digested).
  TwinDecisionStats decision_stats;
};

/// The digital-twin serving loop: the live front end (ServeArrivals)
/// submits `arrivals` to an rt::Executor at their exact virtual
/// instants while, at each control tick (every control_interval), a
/// shadow Simulator warm-started from a quiescent executor snapshot
/// runs faster-than-real-time what-if forecasts
/// (tardiness / shed ratio / goodput for every candidate policy ×
/// admission knob over forecast_horizon of projected traffic) and a
/// hysteresis controller applies the winner via
/// Executor::Reconfigure — at quiescent points, so in-flight work is
/// never lost. A divergence guard compares each window's observed
/// tardiness/shed against the previous tick's forecast and, after
/// guard_strikes consecutive misses, falls back to the static
/// configuration for guard_cooldown_ticks (the twin must survive its
/// own model being wrong). On a VirtualClock the whole loop — arrivals,
/// faults, forecasts, reconfigurations — is one deterministic timeline:
/// TwinReport::digest is byte-stable across repeats and host thread
/// counts (tools/chaos --profile twin pins it).
class Twin {
 public:
  explicit Twin(TwinOptions options);

  /// Runs the serving loop over the materialized arrival batch to
  /// quiescence. The calling thread drives submissions and control
  /// ticks as a registered clock participant. Fails on invalid options
  /// (unknown policy spec, bad fault plan, empty candidate table, ...)
  /// and on arrivals ServeArrivals refuses.
  Result<TwinReport> Run(const std::vector<LiveArrival>& arrivals);

 private:
  TwinOptions options_;
};

}  // namespace webtx::rt

#endif  // WEBTX_RT_TWIN_H_
