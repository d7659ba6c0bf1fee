#include "exp/live_chaos.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "rt/live_validator.h"
#include "sched/policy_factory.h"

namespace webtx {

namespace {

// Upper bound of the live and twin time-scale keys, in virtual seconds:
// mean interarrival gaps and task durations (and, as its reciprocal, an
// arrival rate). The executor's clock jumps to the next arrival or
// completion and the fault injector gathers every fault instant on the
// way in one batch, so a gap of 2^32 s exhausts memory and a task that
// long runs for more than 20 s. The campaigns draw gaps and durations
// below 0.7 s; a minute leaves ample room.
constexpr double kMaxLiveSeconds = 60.0;

// Upper bound of forecast_threads, the size of the twin's forecast
// pool. The twin runs one forecast per candidate, so threads past the
// candidate count idle; the benches' largest grid has 16 candidates and
// at 2^32 the pool exhausts memory.
constexpr uint64_t kMaxForecastThreads = 64;

// The executor-side keys of the live and twin dialects, in file
// order: the fault plan, latency spikes, then the retry knobs. `k`
// maps a member of `Knobs` (LiveChaosCase or rt::TwinOptions, which
// name them alike) to its accessor in `Case`.
template <typename Case, typename Knobs, typename Map>
std::vector<Field<Case>> ExecutorFaultFields(Map k) {
  using FI = rt::FaultInjectorOptions;
  const auto faults = [k](auto member) {
    return Member(k(&Knobs::faults), member);
  };
  return JoinFields<Case>(
      {FaultPlanFields<Case>(faults(&FI::plan), k(&Knobs::migration)),
       {DoubleField<Case>("latency_spike_prob",
                          faults(&FI::latency_spike_prob), 0.0, 1.0),
        DoubleField<Case>("mean_latency_spike",
                          faults(&FI::mean_latency_spike), 0.0),
        UnsignedField<Case>("retry_max_attempts",
                            k(&Knobs::retry_max_attempts), 1),
        DoubleField<Case>("retry_backoff", k(&Knobs::retry_backoff), 0.0),
        DoubleField<Case>("retry_backoff_multiplier",
                          k(&Knobs::retry_backoff_multiplier), 0.0),
        DoubleField<Case>("retry_max_backoff", k(&Knobs::retry_max_backoff),
                          0.0),
        UnsignedField<Case>("retry_budget", k(&Knobs::retry_budget))}});
}

// The admission controllers of live cases and twin candidates.
template <typename Case, typename Get>
Field<Case> AdmissionField(const char* key, Get get) {
  using A = rt::TwinCandidate::Admission;
  return NamedField<Case>(key, get,
                          std::vector<std::pair<const char*, A>>{
                              {"none", A::kNone},
                              {"depth", A::kQueueDepth},
                              {"brownout", A::kBrownout}});
}

// The stall watchdog keys of the live and twin dialects.
template <typename Case, typename Knobs, typename Map>
std::vector<Field<Case>> WatchdogFields(Map k) {
  return {BoolField<Case>("watchdog", k(&Knobs::watchdog)),
          DoubleField<Case>("watchdog_stall_seconds",
                            k(&Knobs::watchdog_stall_seconds), 0.0)};
}

// -- live --------------------------------------------------------------

// DeriveSeed coordinates of the live case streams (arbitrary but fixed,
// distinct from the other profiles'; reproducers depend on them).
constexpr uint64_t kLiveCaseStream = 0x11FECA5Eull;
constexpr uint64_t kLiveFaultStream = 0x11FEFA17ull;

/// The case's workload, drawn up front so arrival order (and so TxnId
/// assignment) is fixed.
std::vector<LiveArrival> DrawWorkload(const LiveChaosCase& c) {
  Rng rng(c.workload_seed);
  std::vector<LiveArrival> tasks(c.num_tasks);
  double at = 0.0;
  for (size_t i = 0; i < c.num_tasks; ++i) {
    LiveArrival& t = tasks[i];
    at += ExpDraw(rng, c.mean_interarrival);
    t.arrival = at;
    t.duration = std::max(kMinTaskSeconds, ExpDraw(rng, c.mean_duration));
    t.relative_deadline =
        t.duration * (1.0 + c.deadline_slack * rng.NextDouble());
    t.weight = static_cast<double>(rng.NextInRange(1, c.max_weight));
    if (i > 0 && rng.NextDouble() < c.dep_prob) {
      t.depends_on = static_cast<int64_t>(rng.NextInRange(0, i - 1));
    }
    if (rng.NextDouble() < c.timeout_prob) {
      // Half the range undercuts the duration, so some attempts time
      // out and exercise the retry path.
      t.timeout = t.duration * (0.5 + 1.5 * rng.NextDouble());
    }
  }
  return tasks;
}

std::vector<Field<LiveChaosCase>> LiveFields() {
  using C = LiveChaosCase;
  const auto self = [](auto member) { return member; };
  return JoinFields<C>({
      {UnsignedField<C>("workload_seed", &C::workload_seed),
       UnsignedField<C>("num_tasks", &C::num_tasks, 1, kMaxIds),
       DoubleField<C>("mean_interarrival", &C::mean_interarrival, kPositive,
                      kMaxLiveSeconds),
       DoubleField<C>("mean_duration", &C::mean_duration, kPositive,
                      kMaxLiveSeconds),
       DoubleField<C>("deadline_slack", &C::deadline_slack, 0.0),
       UnsignedField<C>("max_weight", &C::max_weight, 1),
       DoubleField<C>("dep_prob", &C::dep_prob, 0.0, 1.0),
       DoubleField<C>("timeout_prob", &C::timeout_prob, 0.0, 1.0),
       UnsignedField<C>("num_workers", &C::num_workers, 1, kMaxServers),
       TextField<C>("policy", &C::policy)},
      ExecutorFaultFields<C, C>(self),
      {AdmissionField<C>("admission", &C::admission),
       UnsignedField<C>("admission_max_ready", &C::admission_max_ready)},
      WatchdogFields<C, C>(self),
  });
}

Result<CaseRun> LiveRun(const LiveChaosCase& c) {
  WEBTX_ASSIGN_OR_RETURN(const LiveChaosRun r, RunLiveChaosCase(c));
  return CaseRun{r.digest,
                 CheckLiveChaosInvariants(r),
                 {{"crashes", r.stats.crashes},
                  {"stalls", r.stats.stalls},
                  {"migrations", r.stats.migrations},
                  {"aborts", r.stats.forced_aborts},
                  {"retries", r.stats.retries_scheduled},
                  {"completed", r.stats.completed}}};
}

}  // namespace

Result<LiveChaosRun> RunLiveChaosCase(const LiveChaosCase& c) {
  WEBTX_ASSIGN_OR_RETURN(auto policy, CreatePolicy(c.policy));
  rt::ExecutorOptions options;
  options.num_workers = c.num_workers;
  options.faults = c.faults;
  options.migration = c.migration;
  WEBTX_ASSIGN_OR_RETURN(
      options.admission,
      rt::AdmissionFor({.admission = c.admission,
                        .max_ready = c.admission_max_ready}));
  options.watchdog = c.watchdog;
  options.watchdog_stall_seconds = c.watchdog_stall_seconds;
  options.retry_max_backoff = c.retry_max_backoff;
  options.retry_budget = c.retry_budget;
  WEBTX_ASSIGN_OR_RETURN(
      rt::ServedRun served,
      rt::ServeArrivals(std::move(policy), std::move(options),
                        {c.retry_max_attempts, c.retry_backoff,
                         c.retry_backoff_multiplier},
                        DrawWorkload(c)));
  const uint64_t digest = rt::LiveTraceDigest(served.trace);
  return LiveChaosRun{std::move(served), digest};
}

Status CheckLiveChaosInvariants(const LiveChaosRun& run) {
  return ViolationStatus(
      "live invariant",
      rt::ValidateLiveTrace(run.trace, run.tasks, run.outcomes, run.stats,
                            run.validator_options)
          .violations);
}

LiveChaosCase RandomLiveChaosCase(uint64_t master_seed, uint64_t index) {
  Rng rng(DeriveSeed(master_seed, kLiveCaseStream, index));
  // Transaction-level policies only: the live executor schedules
  // open-ended submissions, which workflow-level ASETS* cannot plan.
  static const std::array<const char*, 6> kPolicies = {
      "FCFS", "EDF", "SRPT", "HDF", "ASETS", "ASETS-BA(count=0.05)"};
  LiveChaosCase c;
  FaultPlanConfig& fault = c.faults.plan;
  c.policy = kPolicies[rng.NextInRange(0, kPolicies.size() - 1)];
  c.workload_seed = rng.Next();
  c.num_tasks = rng.NextInRange(30, 120);
  c.num_workers = rng.NextInRange(1, 4);
  c.mean_duration = 0.02 + 0.18 * rng.NextDouble();
  const double utilization = 0.3 + 1.2 * rng.NextDouble();
  c.mean_interarrival =
      c.mean_duration / (static_cast<double>(c.num_workers) * utilization);
  c.deadline_slack = 0.5 + 4.0 * rng.NextDouble();
  c.max_weight = rng.NextDouble() < 0.5 ? 1 : 10;
  c.dep_prob = rng.NextDouble() < 0.5 ? 0.0 : 0.4 * rng.NextDouble();
  c.timeout_prob = rng.NextDouble() < 0.7 ? 0.0 : 0.3 * rng.NextDouble();
  // Crash streams are the point of this harness: most cases get one.
  // The virtual horizon is a few seconds, so hazard rates run much
  // hotter than the sim campaign's.
  if (rng.NextDouble() < 0.85) {
    fault.crash_rate = 0.05 + 0.45 * rng.NextDouble();
    fault.mean_repair_duration = 0.2 + 1.8 * rng.NextDouble();
    c.migration = rng.NextDouble() < 0.5 ? MigrationPolicy::kWarm
                                         : MigrationPolicy::kCold;
    if (rng.NextDouble() < 0.4) {
      fault.correlated_crash_prob = 0.1 + 0.8 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.5) {
    fault.outage_rate = 0.03 + 0.27 * rng.NextDouble();
    fault.mean_outage_duration = 0.2 + 1.3 * rng.NextDouble();
    if (rng.NextDouble() < 0.6) {
      c.watchdog = true;
      c.watchdog_stall_seconds = 0.05 + 0.3 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.5) {
    fault.abort_rate = 0.05 + 0.45 * rng.NextDouble();
  }
  if (rng.NextDouble() < 0.5) {
    c.faults.latency_spike_prob = 0.1 + 0.3 * rng.NextDouble();
    c.faults.mean_latency_spike = 0.01 + 0.09 * rng.NextDouble();
  }
  fault.seed = DeriveSeed(master_seed, kLiveFaultStream, index);
  c.retry_max_attempts = static_cast<uint32_t>(rng.NextInRange(1, 4));
  c.retry_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.01 + 0.2 * rng.NextDouble();
  c.retry_backoff_multiplier = 1.5 + 1.5 * rng.NextDouble();
  c.retry_max_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.05 + 0.45 * rng.NextDouble();
  c.retry_budget = rng.NextDouble() < 0.5 ? 0 : rng.NextInRange(4, 32);
  const double admission_draw = rng.NextDouble();
  if (admission_draw < 0.5) {
    c.admission = LiveChaosCase::Admission::kNone;
  } else if (admission_draw < 0.8) {
    c.admission = LiveChaosCase::Admission::kQueueDepth;
    c.admission_max_ready = rng.NextInRange(8, 64);
  } else {
    c.admission = LiveChaosCase::Admission::kBrownout;
  }
  return c;
}

const CaseProfile<LiveChaosCase>& LiveChaosProfile() {
  static const CaseProfile<LiveChaosCase> profile = [] {
    using C = LiveChaosCase;
    CaseProfile<C> p;
    p.name = "live";
    p.header = "webtx-live-chaos-replay v1";
    p.fields = LiveFields();
    p.random = RandomLiveChaosCase;
    p.run = LiveRun;
    // Halve the workload first: every later probe re-runs the case.
    const ShrinkStep<C> halve =
        Repeat<C>([](const C& x) { return x.num_tasks > 1; },
                  [](C& x) { x.num_tasks /= 2; });
    p.shrink = {
        halve,
        // Drop whole fault dimensions, least-suspect first, so the
        // surviving config names the mechanism that matters.
        p.Reset({"latency_spike_prob", "mean_latency_spike"}),
        p.Reset({"abort_rate"}),
        p.Reset({"watchdog", "watchdog_stall_seconds"}),
        p.Reset({"outage_rate", "mean_outage_duration"}),
        p.Reset({"correlated_crash_prob"}),
        p.Reset(
            {"crash_rate", "mean_repair_duration", "correlated_crash_prob"}),
        // Disable the reactive machinery.
        p.Reset({"admission", "admission_max_ready"}),
        p.Reset({"retry_max_attempts", "retry_backoff",
                 "retry_backoff_multiplier", "retry_max_backoff",
                 "retry_budget"}),
        // Level the workload shape.
        p.Reset({"timeout_prob"}),
        p.Reset({"dep_prob"}),
        p.Reset({"max_weight"}),
        Repeat<C>([](const C& x) { return x.num_workers > 1; },
                  [](C& x) { --x.num_workers; }),
        // The dropped dimensions may have freed slack for more halving.
        halve,
    };
    // Failover off a dead slot is the deepest live path: zombie attempt,
    // slot detach, uncharged re-dispatch.
    p.mint = [](const C&, const CaseRun& run) {
      return CounterOf(run.counters, "migrations") >= 1;
    };
    return p;
  }();
  return profile;
}

// -- twin --------------------------------------------------------------

namespace {

// DeriveSeed coordinates of the twin case streams (arbitrary but fixed,
// distinct from the other profiles'; reproducers depend on them).
constexpr uint64_t kTwinCaseStream = 0x7714CA5Eull;
constexpr uint64_t kTwinFaultStream = 0x7714FA17ull;
constexpr uint64_t kTwinForecastStream = 0x7714F05Eull;

// "<policy> <admission> <max_ready> <capacity_slo>" lines, one per
// candidate in table order.
Field<TwinChaosCase> CandidateField() {
  using T = rt::TwinCandidate;
  static const std::vector<Field<T>> parts = {
      TextField<T>("policy", &T::policy),
      AdmissionField<T>("admission", &T::admission),
      UnsignedField<T>("max_ready", &T::max_ready),
      DoubleField<T>("capacity_slo", &T::capacity_slo, 0.0, 1.0)};
  const auto write = [](const TwinChaosCase& c) {
    std::vector<std::string> lines;
    for (const T& cand : c.controller.candidates) {
      std::string line;
      for (const Field<T>& part : parts) {
        line += (line.empty() ? "" : " ") + part.write(cand)[0];
      }
      lines.push_back(line);
    }
    return lines;
  };
  const auto read = [](TwinChaosCase& c, const std::string& value) {
    std::istringstream tokens(value);
    std::string token;
    T cand;
    for (const Field<T>& part : parts) {
      if (!(tokens >> token) || !part.read(cand, token).empty()) {
        return std::string("bad ") + part.key;
      }
    }
    if (tokens >> token) return std::string("trailing '" + token + "'");
    c.controller.candidates.push_back(std::move(cand));
    return std::string();
  };
  return {"candidate", write, read};
}

std::vector<Field<TwinChaosCase>> TwinFields() {
  using C = TwinChaosCase;
  using W = LiveArrivalOptions;
  using T = rt::TwinOptions;
  const auto w = [](auto member) { return Member(&C::workload, member); };
  const auto t = [](auto member) { return Member(&C::controller, member); };
  return JoinFields<C>({
      {NamedField<C>("shape", w(&W::shape),
                     std::vector<std::pair<const char*, LiveArrivalShape>>{
                         {"poisson", LiveArrivalShape::kPoisson},
                         {"onoff", LiveArrivalShape::kOnOff},
                         {"flash", LiveArrivalShape::kFlashCrowd}}),
       UnsignedField<C>("workload_seed", w(&W::seed)),
       UnsignedField<C>("num_tasks", w(&W::num_tasks), 1, kMaxIds),
       DoubleField<C>("rate", w(&W::rate), 1.0 / kMaxLiveSeconds),
       DoubleField<C>("burstiness", w(&W::burstiness), 0.0, kBelowOne),
       DoubleField<C>("on_off_mean_cycle", w(&W::on_off_mean_cycle), kPositive),
       DoubleField<C>("spike_factor", w(&W::spike_factor), 1.0),
       DoubleField<C>("spike_start", w(&W::spike_start), 0.0),
       DoubleField<C>("spike_duration", w(&W::spike_duration), 0.0),
       DoubleField<C>("mean_duration", w(&W::mean_duration), kPositive,
                      kMaxLiveSeconds),
       DoubleField<C>("deadline_slack", w(&W::deadline_slack), 0.0),
       UnsignedField<C>("max_weight", w(&W::max_weight), 1),
       CandidateField(),
       UnsignedField<C>("static_index", t(&T::static_index)),
       BoolField<C>("controller_enabled", t(&T::controller_enabled)),
       DoubleField<C>("control_interval", t(&T::control_interval), kPositive),
       DoubleField<C>("forecast_horizon", t(&T::forecast_horizon), kPositive),
       DoubleField<C>("switch_margin", t(&T::switch_margin)),
       UnsignedField<C>("dwell_ticks", t(&T::dwell_ticks)),
       DoubleField<C>("shed_penalty", t(&T::shed_penalty)),
       DoubleField<C>("divergence_tolerance", t(&T::divergence_tolerance)),
       DoubleField<C>("divergence_abs_floor", t(&T::divergence_abs_floor)),
       DoubleField<C>("shed_divergence", t(&T::shed_divergence)),
       UnsignedField<C>("guard_strikes", t(&T::guard_strikes)),
       UnsignedField<C>("guard_cooldown_ticks", t(&T::guard_cooldown_ticks)),
       UnsignedField<C>("forecast_seed", t(&T::forecast_seed)),
       DoubleField<C>("snapshot_corruption", t(&T::snapshot_corruption),
                      kPositive),
       UnsignedField<C>("forecast_threads", t(&T::forecast_threads), 0,
                        kMaxForecastThreads),
       UnsignedField<C>("num_workers", t(&T::num_workers), 1, kMaxServers)},
      ExecutorFaultFields<C, T>(t),
      WatchdogFields<C, T>(t),
  });
}

Result<CaseRun> TwinRun(const TwinChaosCase& c) {
  WEBTX_ASSIGN_OR_RETURN(const rt::TwinReport r, RunTwinChaosCase(c));
  return CaseRun{r.digest,
                 CheckTwinChaosInvariants(c, r),
                 {{"decisions", r.decisions.size()},
                  {"switches", r.switches},
                  {"fallbacks", r.fallbacks},
                  {"crashes", r.stats.crashes},
                  {"migrations", r.stats.migrations},
                  {"completed", r.stats.completed}}};
}

}  // namespace

Result<rt::TwinReport> RunTwinChaosCase(const TwinChaosCase& c) {
  rt::Twin twin(c.controller);
  return twin.Run(GenerateLiveArrivals(c.workload));
}

Status CheckTwinChaosInvariants(const TwinChaosCase& c,
                                const rt::TwinReport& report) {
  const rt::TwinOptions& ctl = c.controller;
  std::vector<std::string> violations =
      rt::ValidateLiveTrace(report.trace, report.tasks, report.outcomes,
                            report.stats, report.validator_options)
          .violations;
  // Controller contract.
  if (!ctl.controller_enabled && !report.decisions.empty()) {
    violations.push_back("decisions recorded with the controller disabled");
  }
  double prev_time = 0.0;
  size_t pending_cooldown = 0;
  size_t fallbacks = 0;
  for (size_t i = 0; i < report.decisions.size(); ++i) {
    const rt::TwinDecision& d = report.decisions[i];
    std::ostringstream at;
    at << "decision " << i << " (t=" << d.time << "): ";
    const auto flag = [&](const char* what) {
      violations.push_back(at.str() + what);
    };
    if (!(d.time > prev_time)) flag("tick times not strictly increasing");
    prev_time = d.time;
    if (d.applied >= ctl.candidates.size() || d.best >= ctl.candidates.size()) {
      flag("candidate index out of range");
      continue;
    }
    switch (d.kind) {
      case rt::TwinDecision::Kind::kFallback:
        ++fallbacks;
        if (d.applied != ctl.static_index) {
          flag("fallback did not pin the static config");
        }
        pending_cooldown = ctl.guard_cooldown_ticks;
        break;
      case rt::TwinDecision::Kind::kCooldown:
      case rt::TwinDecision::Kind::kReenable:
        if (pending_cooldown == 0) {
          flag("cooldown tick without a fallback");
          break;
        }
        --pending_cooldown;
        if ((pending_cooldown == 0) !=
            (d.kind == rt::TwinDecision::Kind::kReenable)) {
          flag("cooldown/reenable out of order");
        }
        if (d.applied != ctl.static_index) flag("left static during cooldown");
        break;
      case rt::TwinDecision::Kind::kHold:
      case rt::TwinDecision::Kind::kSwitch:
        if (pending_cooldown != 0) flag("forecast tick during cooldown");
        break;
    }
  }
  if (fallbacks != report.fallbacks) {
    violations.push_back("fallback counter disagrees with the decision log");
  }
  return ViolationStatus("twin invariant", violations);
}

TwinChaosCase RandomTwinChaosCase(uint64_t master_seed, uint64_t index) {
  Rng rng(DeriveSeed(master_seed, kTwinCaseStream, index));
  TwinChaosCase c;
  rt::TwinOptions& ctl = c.controller;
  FaultPlanConfig& fault = ctl.faults.plan;
  c.workload.seed = rng.Next();
  c.workload.num_tasks = rng.NextInRange(40, 140);
  ctl.num_workers = rng.NextInRange(1, 4);
  c.workload.mean_duration = 0.02 + 0.10 * rng.NextDouble();
  // Base load between 40% and 120% of capacity; the spike pushes far
  // beyond it — overload transitions are where the controller earns its
  // keep (and where a corrupted model visibly diverges).
  const double utilization = 0.4 + 0.8 * rng.NextDouble();
  c.workload.rate = static_cast<double>(ctl.num_workers) * utilization /
                    c.workload.mean_duration;
  const double shape_draw = rng.NextDouble();
  if (shape_draw < 0.5) {
    c.workload.shape = LiveArrivalShape::kFlashCrowd;
    c.workload.spike_factor = 3.0 + 9.0 * rng.NextDouble();
    c.workload.spike_start = 0.2 + 0.6 * rng.NextDouble();
    c.workload.spike_duration = 0.2 + 0.8 * rng.NextDouble();
  } else if (shape_draw < 0.8) {
    c.workload.shape = LiveArrivalShape::kOnOff;
    c.workload.burstiness = 0.3 + 0.6 * rng.NextDouble();
    c.workload.on_off_mean_cycle = 0.5 + 1.5 * rng.NextDouble();
  } else {
    c.workload.shape = LiveArrivalShape::kPoisson;
  }
  c.workload.deadline_slack = 0.5 + 3.0 * rng.NextDouble();
  c.workload.max_weight = rng.NextDouble() < 0.5 ? 1 : 10;

  // Candidate table: static FCFS plus 1-3 alternatives.
  static const std::array<const char*, 4> kAltPolicies = {"EDF", "SRPT",
                                                          "HDF", "ASETS"};
  rt::TwinCandidate static_cand;
  static_cand.policy = "FCFS";
  ctl.candidates = {static_cand};
  const size_t num_alts = rng.NextInRange(1, 3);
  for (size_t i = 0; i < num_alts; ++i) {
    rt::TwinCandidate cand;
    cand.policy = kAltPolicies[rng.NextInRange(0, kAltPolicies.size() - 1)];
    const double admission_draw = rng.NextDouble();
    if (admission_draw < 0.4) {
      cand.admission = rt::TwinCandidate::Admission::kQueueDepth;
      cand.max_ready = rng.NextInRange(8, 48);
    } else if (admission_draw < 0.7) {
      cand.admission = rt::TwinCandidate::Admission::kBrownout;
      cand.capacity_slo =
          rng.NextDouble() < 0.5 ? 0.0 : 0.25 + 0.5 * rng.NextDouble();
    }
    ctl.candidates.push_back(std::move(cand));
  }
  ctl.static_index = 0;
  ctl.controller_enabled = rng.NextDouble() < 0.9;
  ctl.control_interval = 0.1 + 0.3 * rng.NextDouble();
  ctl.forecast_horizon = ctl.control_interval * (1.0 + 3.0 * rng.NextDouble());
  ctl.switch_margin = 0.05 + 0.2 * rng.NextDouble();
  ctl.dwell_ticks = rng.NextInRange(1, 3);
  ctl.shed_penalty = 0.5 + 2.0 * rng.NextDouble();
  ctl.guard_strikes = rng.NextInRange(1, 3);
  ctl.guard_cooldown_ticks = rng.NextInRange(1, 5);
  ctl.forecast_seed = DeriveSeed(master_seed, kTwinForecastStream, index);
  // A corrupted shadow model in a fifth of the cases: the guard must
  // catch it (and the validator must hold either way).
  const double corruption_draw = rng.NextDouble();
  if (corruption_draw < 0.1) {
    ctl.snapshot_corruption = 0.05 + 0.1 * rng.NextDouble();
  } else if (corruption_draw < 0.2) {
    ctl.snapshot_corruption = 4.0 + 8.0 * rng.NextDouble();
  }

  if (rng.NextDouble() < 0.6) {
    fault.crash_rate = 0.05 + 0.35 * rng.NextDouble();
    fault.mean_repair_duration = 0.2 + 1.3 * rng.NextDouble();
    ctl.migration = rng.NextDouble() < 0.5 ? MigrationPolicy::kWarm
                                           : MigrationPolicy::kCold;
    if (rng.NextDouble() < 0.3) {
      fault.correlated_crash_prob = 0.1 + 0.6 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.4) {
    fault.outage_rate = 0.03 + 0.2 * rng.NextDouble();
    fault.mean_outage_duration = 0.2 + 1.0 * rng.NextDouble();
    if (rng.NextDouble() < 0.6) {
      ctl.watchdog = true;
      ctl.watchdog_stall_seconds = 0.05 + 0.3 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.4) {
    fault.abort_rate = 0.05 + 0.3 * rng.NextDouble();
  }
  if (rng.NextDouble() < 0.4) {
    ctl.faults.latency_spike_prob = 0.1 + 0.3 * rng.NextDouble();
    ctl.faults.mean_latency_spike = 0.01 + 0.05 * rng.NextDouble();
  }
  fault.seed = DeriveSeed(master_seed, kTwinFaultStream, index);
  ctl.retry_max_attempts = static_cast<uint32_t>(rng.NextInRange(1, 3));
  ctl.retry_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.01 + 0.1 * rng.NextDouble();
  ctl.retry_backoff_multiplier = 1.5 + 1.5 * rng.NextDouble();
  ctl.retry_max_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.05 + 0.3 * rng.NextDouble();
  ctl.retry_budget = rng.NextDouble() < 0.5 ? 0 : rng.NextInRange(4, 24);
  // Forecast-execution dimensions, drawn last so the population above
  // is unchanged; digest-neutral by contract (the neutral variants).
  const double threads_draw = rng.NextDouble();
  ctl.forecast_threads = threads_draw < 0.5 ? 1 : (threads_draw < 0.8 ? 2 : 8);
  return c;
}

const CaseProfile<TwinChaosCase>& TwinChaosProfile() {
  static const CaseProfile<TwinChaosCase> profile = [] {
    using C = TwinChaosCase;
    CaseProfile<C> p;
    p.name = "twin";
    p.header = "webtx-twin-replay v1";
    p.default_cases = 25;
    p.fields = TwinFields();
    p.random = RandomTwinChaosCase;
    p.run = TwinRun;
    // Halve the workload first: every later probe re-runs the case.
    const ShrinkStep<C> halve =
        Repeat<C>([](const C& x) { return x.workload.num_tasks > 1; },
                  [](C& x) { x.workload.num_tasks /= 2; });
    p.shrink = {
        halve,
        // Drop fault dimensions, least-suspect first.
        p.Reset({"latency_spike_prob", "mean_latency_spike"}),
        p.Reset({"abort_rate"}),
        p.Reset({"watchdog", "watchdog_stall_seconds"}),
        p.Reset({"outage_rate", "mean_outage_duration"}),
        p.Reset(
            {"crash_rate", "mean_repair_duration", "correlated_crash_prob"}),
        p.Reset({"retry_max_attempts", "retry_backoff",
                 "retry_backoff_multiplier", "retry_max_backoff",
                 "retry_budget"}),
        // Make the model honest and the workload plain.
        p.Reset({"snapshot_corruption"}),
        Once<C>([](C& x) { x.workload.shape = LiveArrivalShape::kPoisson; }),
        p.Reset({"max_weight"}),
        // Shrink the candidate table from the back (never dropping the
        // static config); with one candidate left, try disabling the
        // controller outright.
        Repeat<C>([](const C& x) { return x.controller.candidates.size() > 1; },
                  [](C& x) {
                    std::vector<rt::TwinCandidate>& table =
                        x.controller.candidates;
                    size_t& fixed = x.controller.static_index;
                    if (table.size() - 1 == fixed) {
                      std::swap(table[fixed], table[fixed == 0 ? 1 : 0]);
                      fixed = fixed == 0 ? 1 : 0;
                    }
                    table.pop_back();
                    if (fixed >= table.size()) fixed = 0;
                  }),
        Once<C>([](C& x) { x.controller.controller_enabled = false; }),
        // Remove workers one at a time, then retry the workload halving.
        Repeat<C>([](const C& x) { return x.controller.num_workers > 1; },
                  [](C& x) { --x.controller.num_workers; }),
        halve,
    };
    p.neutral = [](const C& c) {
      std::vector<NeutralVariant<C>> variants;
      if (!c.controller.controller_enabled) return variants;
      for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        if (threads == c.controller.forecast_threads) continue;
        NeutralVariant<C> v{"forecast_threads=" + std::to_string(threads), c};
        v.c.controller.forecast_threads = threads;
        variants.push_back(std::move(v));
      }
      return variants;
    };
    // A flash crowd served by an enabled controller whose snapshots are
    // corrupted: the replay pins serving, forecasting, reconfiguration,
    // the divergence guard and its cooldown.
    p.mint_setup = [](C c) {
      c.workload.shape = LiveArrivalShape::kFlashCrowd;
      c.controller.controller_enabled = true;
      double& corruption = c.controller.snapshot_corruption;
      if (corruption == 1.0) corruption = 8.0;
      return c;
    };
    p.mint = [](const C&, const CaseRun& run) {
      return CounterOf(run.counters, "fallbacks") >= 1;
    };
    return p;
  }();
  return profile;
}

}  // namespace webtx
