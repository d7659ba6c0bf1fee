#include "rt/twin.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/digest.h"
#include "common/rng.h"
#include "sched/policy_factory.h"
#include "sim/simulator.h"

namespace webtx::rt {
namespace {

// DeriveSeed stream tag of the per-tick synthetic-arrival forecasts.
constexpr uint64_t kForecastStream = 0x7D161A17ull;

/// Cap on synthetic future arrivals per forecast (tick cost bound).
constexpr size_t kMaxForecastArrivals = 2000;

/// Terminal-but-not-completed count from the live stats counters.
size_t ShedCount(const ExecutorStats& s) {
  return s.shed_admission + s.shed_shutdown + s.dropped_retries +
         s.dropped_dependency;
}

/// The candidate checks of Twin::Run and TwinForecastEngine::Create:
/// every spec and admission knob is checked up front, so neither a
/// per-tick CreatePolicy call nor an admission controller's CHECK can
/// fail mid-run.
Status ValidateCandidates(const std::vector<TwinCandidate>& candidates) {
  if (candidates.empty()) {
    return Status::InvalidArgument("twin needs at least one candidate");
  }
  for (const TwinCandidate& candidate : candidates) {
    WEBTX_RETURN_NOT_OK(CreatePolicy(candidate.policy).status());
    WEBTX_RETURN_NOT_OK(AdmissionFor(candidate).status());
  }
  return Status::OK();
}

/// Mutable controller state threaded through the serving loop.
struct ControllerState {
  uint32_t applied = 0;
  size_t dwell = 0;       // ticks since the last switch
  size_t strikes = 0;     // consecutive divergent windows
  size_t cooldown = 0;    // remaining guard-cooldown ticks
  bool has_forecast = false;
  double forecast_tardiness = 0.0;
  double forecast_shed = 0.0;
  ExecutorStats prev_stats;  // window baseline
};

}  // namespace

Result<AdmissionFactory> AdmissionFor(const TwinCandidate& candidate) {
  if (candidate.admission == TwinCandidate::Admission::kQueueDepth &&
      candidate.max_ready == 0) {
    return Status::InvalidArgument("queue-depth admission needs max_ready");
  }
  if (!(candidate.capacity_slo >= 0.0 && candidate.capacity_slo <= 1.0)) {
    return Status::InvalidArgument("capacity_slo must be in [0, 1]");
  }
  switch (candidate.admission) {
    case TwinCandidate::Admission::kNone:
      break;
    case TwinCandidate::Admission::kQueueDepth: {
      QueueDepthAdmissionOptions o;
      o.max_ready = candidate.max_ready;
      return MakeQueueDepthAdmission(o);
    }
    case TwinCandidate::Admission::kBrownout: {
      BrownoutAdmissionOptions o;
      o.capacity_slo = candidate.capacity_slo;
      return MakeBrownoutAdmission(o);
    }
  }
  return AdmissionFactory();
}

Twin::Twin(TwinOptions options) : options_(std::move(options)) {}

TwinForecastEngine::TwinForecastEngine(TwinForecastEngine&&) noexcept = default;
TwinForecastEngine& TwinForecastEngine::operator=(TwinForecastEngine&&) noexcept =
    default;
TwinForecastEngine::~TwinForecastEngine() = default;

Result<TwinForecastEngine> TwinForecastEngine::Create(
    const TwinOptions& options) {
  WEBTX_RETURN_NOT_OK(ValidateCandidates(options.candidates));
  TwinForecastEngine engine;
  engine.options_ = options;
  const size_t threads = options.forecast_threads == 0
                             ? ThreadPool::DefaultConcurrency()
                             : options.forecast_threads;
  // The control thread is one worker, so forecast_threads = N means
  // N-1 pool helpers; 1 stays a plain serial loop with no pool at all.
  if (threads > 1) engine.pool_ = std::make_unique<ThreadPool>(threads - 1);
  engine.workload_ = std::make_shared<SimWorkload>();
  engine.slots_.reserve(options.candidates.size());
  for (const TwinCandidate& candidate : options.candidates) {
    Slot slot;
    WEBTX_ASSIGN_OR_RETURN(slot.policy, CreatePolicy(candidate.policy));
    SimOptions sim_options;
    sim_options.admission = std::move(AdmissionFor(candidate)).ValueOrDie();
    sim_options.record_outcomes = false;
    WEBTX_ASSIGN_OR_RETURN(
        Simulator sim,
        Simulator::CreateShared(engine.workload_, std::move(sim_options)));
    slot.sim = std::make_unique<Simulator>(std::move(sim));
    engine.slots_.push_back(std::move(slot));
  }
  return engine;
}

/// Translates a quiescent executor snapshot plus projected traffic into
/// the shadow simulator's workload, rebased so the snapshot instant is
/// t = 0. Already-late work keeps its (negative) relative deadline —
/// the simulator scores it tardy exactly as the live run would. The
/// spec values are a pure function of (snapshot, window, options,
/// tick); reusing the engine's buffers only recycles their capacity.
void TwinForecastEngine::BuildSpecsInto(const ExecutorSnapshot& snap,
                                        const TwinArrivalWindow& window,
                                        uint64_t tick) {
  const TwinOptions& options = options_;
  std::vector<TransactionSpec>& specs = spec_buffer_;
  specs.clear();
  if (specs.capacity() < snap.tasks.size()) specs.reserve(snap.tasks.size());
  // Snapshot id -> forecast index, for dependency remapping.
  remap_.clear();
  for (const SnapshotTask& task : snap.tasks) {
    if (task.id >= remap_.size()) remap_.resize(task.id + 1, kInvalidTxn);
    remap_[task.id] = specs.size();
    TransactionSpec spec;
    spec.id = specs.size();
    spec.arrival = std::max(0.0, task.release - snap.now);
    spec.length = std::max(kMinTaskSeconds,
                           task.remaining * options.snapshot_corruption);
    spec.length_estimate = spec.length;
    spec.deadline = task.deadline - snap.now;
    spec.weight = task.weight;
    specs.push_back(std::move(spec));
  }
  for (size_t i = 0; i < snap.tasks.size(); ++i) {
    for (const TxnId dep : snap.tasks[i].unfinished_dependencies) {
      if (dep < remap_.size() && remap_[dep] != kInvalidTxn) {
        specs[i].dependencies.push_back(remap_[dep]);
      }
    }
  }
  // Project the recent arrival mix forward over the horizon: a Poisson
  // stream at the observed window rate with the window's mean service
  // time, relative deadline, and weight. The projection is a pure
  // function of (forecast_seed, tick, window), so forecasts never
  // perturb the live timeline's determinism.
  if (window.count > 0) {
    const double rate =
        static_cast<double>(window.count) / options.control_interval;
    const double mean_duration =
        window.duration_sum / static_cast<double>(window.count);
    const double mean_deadline =
        window.deadline_sum / static_cast<double>(window.count);
    const double mean_weight =
        window.weight_sum / static_cast<double>(window.count);
    Rng rng(DeriveSeed(options.forecast_seed, kForecastStream, tick));
    double t = ExpDraw(rng, 1.0 / rate);
    size_t synthesized = 0;
    while (t < options.forecast_horizon &&
           synthesized < kMaxForecastArrivals) {
      TransactionSpec spec;
      spec.id = specs.size();
      spec.arrival = t;
      spec.length =
          std::max(kMinTaskSeconds,
                   ExpDraw(rng, mean_duration) * options.snapshot_corruption);
      spec.length_estimate = spec.length;
      spec.deadline = t + std::max(kMinTaskSeconds, mean_deadline);
      spec.weight = mean_weight;
      specs.push_back(std::move(spec));
      t += ExpDraw(rng, 1.0 / rate);
      ++synthesized;
    }
  }
}

TwinForecast TwinForecastEngine::ForecastOne(size_t index,
                                             size_t num_workers_up) {
  Slot& slot = slots_[index];
  slot.sim->BindWorkload(workload_);
  slot.sim->set_num_servers(std::max<size_t>(1, num_workers_up));
  const RunResult r = slot.sim->Run(*slot.policy);
  slot_events_[index] += r.num_scheduling_points;
  TwinForecast f;
  f.tardiness = r.avg_tardiness;
  f.shed_ratio = 1.0 - r.goodput;
  f.score = f.tardiness + options_.shed_penalty * f.shed_ratio;
  return f;
}

const std::vector<TwinForecast>& TwinForecastEngine::Forecast(
    const ExecutorSnapshot& snap, const TwinArrivalWindow& window,
    uint64_t tick, uint32_t incumbent) {
  const auto start = std::chrono::steady_clock::now();
  const size_t num_candidates = options_.candidates.size();
  WEBTX_CHECK(incumbent < num_candidates)
      << "incumbent candidate out of range";
  forecasts_.assign(num_candidates, TwinForecast{});
  slot_events_.assign(num_candidates, 0);
  BuildSpecsInto(snap, window, tick);

  if (spec_buffer_.empty()) {
    // Nothing to serve: every candidate forecasts a clean slate.
    for (TwinForecast& f : forecasts_) f.score = 0.0;
  } else {
    const size_t num_up = snap.num_workers_up;
    if (workload_->Rebuild(spec_buffer_).ok()) {
      // Each candidate writes only its own index, so the merged table is
      // identical for any thread count.
      const auto job = [&](size_t i) {
        forecasts_[i] = ForecastOne(i, num_up);
      };
      if (pool_ != nullptr) {
        pool_->RunBatch(num_candidates, job);
      } else {
        for (size_t i = 0; i < num_candidates; ++i) job(i);
      }
      stats_.forecasts_run += num_candidates;
    }
    // Otherwise an invalid spec made the shared workload unbuildable:
    // every candidate keeps the default infinite score.
  }

  // Sum per-slot event counts in candidate-index order so the total is
  // independent of which thread ran which candidate.
  for (size_t i = 0; i < num_candidates; ++i) {
    stats_.forecast_events += slot_events_[i];
  }
  stats_.decision_ms +=
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return forecasts_;
}

namespace {

/// Puts `candidate` in force at the executor's next quiescent point.
void Apply(Executor& exec, const TwinCandidate& candidate) {
  ReconfigureRequest request;
  request.policy = std::move(CreatePolicy(candidate.policy)).ValueOrDie();
  request.replace_admission = true;
  request.admission = std::move(AdmissionFor(candidate)).ValueOrDie();
  exec.Reconfigure(std::move(request));
}

/// One control tick: close the observation window (`window`, the
/// arrivals since the previous tick), run the divergence guard, and
/// (when the guard allows) forecast every candidate and apply the
/// hysteresis switch rule. Runs on the driver thread while it is a
/// runnable clock participant, so the whole tick — snapshot, forecasts,
/// reconfiguration — happens at one frozen virtual instant. `snap` is a
/// caller-owned buffer reused across ticks.
void ControlTick(const TwinOptions& options, Executor& exec,
                 TwinForecastEngine& engine, ControllerState& ctl,
                 uint64_t tick, const TwinArrivalWindow& window,
                 TwinReport& report, ExecutorSnapshot& snap) {
  exec.SnapshotAtQuiescence(&snap);

  // Observed metrics of the window that just closed, from exact
  // counter diffs.
  const ExecutorStats& s = snap.stats;
  const size_t d_completed = s.completed - ctl.prev_stats.completed;
  const size_t d_submitted = s.submitted - ctl.prev_stats.submitted;
  const size_t d_shed = ShedCount(s) - ShedCount(ctl.prev_stats);
  const double observed_tardiness =
      d_completed > 0
          ? (s.tardiness_total - ctl.prev_stats.tardiness_total) /
                static_cast<double>(d_completed)
          : 0.0;
  const double observed_shed =
      d_submitted > 0 ? static_cast<double>(d_shed) /
                            static_cast<double>(d_submitted)
                      : 0.0;
  ctl.prev_stats = s;

  TwinDecision decision;
  decision.time = snap.now;
  decision.applied = ctl.applied;
  decision.best = ctl.applied;
  decision.observed_tardiness = observed_tardiness;
  decision.observed_shed_ratio = observed_shed;

  // Guard cooldown: the controller sits out, pinned to static.
  if (ctl.cooldown > 0) {
    --ctl.cooldown;
    decision.kind = ctl.cooldown == 0 ? TwinDecision::Kind::kReenable
                                      : TwinDecision::Kind::kCooldown;
    report.decisions.push_back(decision);
    return;
  }

  // Divergence guard: compare the window against the previous tick's
  // forecast for the configuration that was actually in force.
  if (ctl.has_forecast) {
    const double tardiness_error =
        std::abs(observed_tardiness - ctl.forecast_tardiness);
    const bool tardiness_diverged =
        tardiness_error > options.divergence_abs_floor &&
        tardiness_error >
            options.divergence_tolerance *
                std::max(ctl.forecast_tardiness, options.divergence_abs_floor);
    const bool shed_diverged =
        std::abs(observed_shed - ctl.forecast_shed) > options.shed_divergence;
    if (tardiness_diverged || shed_diverged) {
      ++ctl.strikes;
    } else {
      ctl.strikes = 0;
    }
  }
  if (ctl.strikes >= options.guard_strikes) {
    // The twin's model is off the rails: revert to the static
    // configuration and stop trusting forecasts for the cooldown.
    const auto static_index = static_cast<uint32_t>(options.static_index);
    if (ctl.applied != static_index) {
      Apply(exec, options.candidates[static_index]);
      ctl.applied = static_index;
    }
    ctl.strikes = 0;
    ctl.dwell = 0;
    ctl.has_forecast = false;
    ctl.cooldown = options.guard_cooldown_ticks;
    decision.kind = TwinDecision::Kind::kFallback;
    decision.applied = ctl.applied;
    decision.best = ctl.applied;
    ++report.fallbacks;
    report.decisions.push_back(decision);
    return;
  }

  // Shadow what-if forecasts, one per candidate, all from the same
  // warm-started workload.
  const std::vector<TwinForecast>& forecasts =
      engine.Forecast(snap, window, tick, ctl.applied);
  uint32_t best = 0;
  for (uint32_t i = 1; i < forecasts.size(); ++i) {
    if (forecasts[i].score < forecasts[best].score) best = i;
  }
  decision.best = best;

  // Hysteresis: switch only when the winner beats the incumbent by the
  // margin, the incumbent's predicted pain is actionable at all, and
  // the dwell has elapsed.
  const double incumbent_score = forecasts[ctl.applied].score;
  const bool actionable = incumbent_score > options.divergence_abs_floor;
  const bool margin_met =
      forecasts[best].score < incumbent_score * (1.0 - options.switch_margin);
  if (best != ctl.applied && actionable && margin_met &&
      ctl.dwell >= options.dwell_ticks) {
    Apply(exec, options.candidates[best]);
    ctl.applied = best;
    ctl.dwell = 0;
    decision.kind = TwinDecision::Kind::kSwitch;
    ++report.switches;
  } else {
    decision.kind = TwinDecision::Kind::kHold;
    ++ctl.dwell;
  }
  decision.applied = ctl.applied;
  decision.predicted_tardiness = forecasts[ctl.applied].tardiness;
  decision.predicted_shed_ratio = forecasts[ctl.applied].shed_ratio;
  ctl.has_forecast = true;
  ctl.forecast_tardiness = decision.predicted_tardiness;
  ctl.forecast_shed = decision.predicted_shed_ratio;
  report.decisions.push_back(decision);
}

uint64_t TwinDigest(const TwinReport& report) {
  uint64_t hash = LiveTraceDigest(report.trace);
  hash = Fnv1a(hash, report.decisions.size());
  for (const TwinDecision& d : report.decisions) {
    hash = Fnv1a(hash, DoubleBits(d.time));
    hash = Fnv1a(hash, static_cast<uint64_t>(d.kind));
    hash = Fnv1a(hash, d.applied);
    hash = Fnv1a(hash, d.best);
    hash = Fnv1a(hash, DoubleBits(d.predicted_tardiness));
    hash = Fnv1a(hash, DoubleBits(d.predicted_shed_ratio));
    hash = Fnv1a(hash, DoubleBits(d.observed_tardiness));
    hash = Fnv1a(hash, DoubleBits(d.observed_shed_ratio));
  }
  return hash;
}

}  // namespace

Result<TwinReport> Twin::Run(const std::vector<LiveArrival>& arrivals) {
  WEBTX_RETURN_NOT_OK(ValidateCandidates(options_.candidates));
  if (options_.static_index >= options_.candidates.size()) {
    return Status::InvalidArgument("static_index out of range");
  }
  if (!(options_.control_interval > 0.0) ||
      !(options_.forecast_horizon > 0.0)) {
    return Status::InvalidArgument(
        "control_interval and forecast_horizon must be > 0");
  }
  if (!(options_.snapshot_corruption > 0.0)) {
    return Status::InvalidArgument("snapshot_corruption must be > 0");
  }

  const TwinCandidate& initial = options_.candidates[options_.static_index];
  ExecutorOptions exec_options;
  exec_options.num_workers = options_.num_workers;
  exec_options.faults = options_.faults;
  exec_options.migration = options_.migration;
  exec_options.admission = std::move(AdmissionFor(initial)).ValueOrDie();
  exec_options.watchdog = options_.watchdog;
  exec_options.watchdog_stall_seconds = options_.watchdog_stall_seconds;
  exec_options.retry_max_backoff = options_.retry_max_backoff;
  exec_options.retry_budget = options_.retry_budget;
  const TaskRetry retry{options_.retry_max_attempts, options_.retry_backoff,
                        options_.retry_backoff_multiplier};

  TwinReport report;
  ControllerState ctl;
  ctl.applied = static_cast<uint32_t>(options_.static_index);
  // The forecast engine owns the per-candidate shadow simulators; only
  // built when control ticks will actually run.
  std::unique_ptr<TwinForecastEngine> engine;
  ServeTickHook on_tick;
  uint64_t tick = 0;
  ExecutorSnapshot snap;  // reused across control ticks
  if (options_.controller_enabled) {
    WEBTX_ASSIGN_OR_RETURN(TwinForecastEngine built,
                           TwinForecastEngine::Create(options_));
    engine = std::make_unique<TwinForecastEngine>(std::move(built));
    on_tick = [&](Executor& exec, size_t first, size_t end) {
      TwinArrivalWindow window;
      for (size_t i = first; i < end; ++i) window.Observe(arrivals[i]);
      ControlTick(options_, exec, *engine, ctl, tick++, window, report, snap);
    };
  }

  WEBTX_ASSIGN_OR_RETURN(auto policy, CreatePolicy(initial.policy));
  WEBTX_ASSIGN_OR_RETURN(
      static_cast<ServedRun&>(report),
      ServeArrivals(std::move(policy), std::move(exec_options), retry,
                    arrivals, options_.control_interval, on_tick));
  report.final_config = ctl.applied;
  const ExecutorStats& s = report.stats;
  report.avg_tardiness =
      s.completed > 0 ? s.tardiness_total / static_cast<double>(s.completed)
                      : 0.0;
  report.shed_ratio =
      s.submitted > 0 ? static_cast<double>(ShedCount(s)) /
                            static_cast<double>(s.submitted)
                      : 0.0;
  report.goodput = s.submitted > 0 ? static_cast<double>(s.completed) /
                                         static_cast<double>(s.submitted)
                                   : 0.0;
  if (engine != nullptr) report.decision_stats = engine->stats();
  report.digest = TwinDigest(report);
  return report;
}

}  // namespace webtx::rt
