// twin_flash: the ext_twin flash crowd served by rt::Twin (controller
// on), plus the per-tick TwinForecastEngine::Forecast() cost on the
// snapshots that flash crowd produces. See README.md.

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>

#include "common/check.h"
#include "percentile.h"
#include "rt/clock.h"
#include "rt/live_validator.h"
#include "sched/policy_factory.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace rt = webtx::rt;

constexpr size_t kWorkers = 2;
constexpr size_t kTasks = 600;
/// Flash crowds (independent arrival seeds) per run.
constexpr size_t kCrowds = 24;
constexpr double kBaseRate = 28.0;  // ext_twin's 56/s halved for 2 workers
constexpr double kSpikeFactor = 6.0;
constexpr double kSpikeStart = 1.0;
constexpr double kSpikeDuration = 1.0;
constexpr double kMeanDuration = 0.05;
constexpr int kSetupReps = 3;
/// p99 response limit for max_load_at_slo, in virtual seconds.
constexpr double kResponseLimit = 2.0;

/// One control tick of a captured flash crowd: the quiescent snapshot
/// and the arrival window that closed at it.
struct Tick {
  rt::ExecutorSnapshot snap;
  rt::TwinArrivalWindow window;
  uint64_t tick = 0;
};

/// Replays `arrivals` on a static executor (the twin's candidate 0 with
/// its fault plan) and snapshots it at every control interval, exactly
/// where Twin::Run would tick. Adds the SnapshotAtQuiescence wall time
/// to `snapshot_s`.
std::vector<Tick> CaptureTicks(const std::vector<webtx::LiveArrival>& arrivals,
                               const rt::TwinOptions& options,
                               double* snapshot_s, SpanLog* spans) {
  auto clock = std::make_shared<rt::VirtualClock>();
  auto policy = webtx::CreatePolicy(options.candidates[0].policy);
  WEBTX_CHECK(policy.ok()) << policy.status().ToString();
  rt::ExecutorOptions exec_options;
  exec_options.num_workers = options.num_workers;
  exec_options.clock = clock;
  exec_options.faults = options.faults;
  exec_options.retry_max_backoff = options.retry_max_backoff;
  rt::Executor exec(std::move(policy).ValueOrDie(), exec_options);

  std::vector<Tick> ticks;
  rt::TwinArrivalWindow window;
  double next_tick = options.control_interval;
  size_t next = 0;
  clock->RegisterParticipant();
  while (next < arrivals.size() || exec.finished_count() < arrivals.size()) {
    const double due =
        next < arrivals.size() ? arrivals[next].arrival : rt::kNeverSeconds;
    if (due > next_tick) {
      clock->SleepUntil(next_tick, nullptr);
      Tick tick;
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan span(spans, "SnapshotAtQuiescence");
        exec.SnapshotAtQuiescence(&tick.snap);
      }
      *snapshot_s += SecondsSince(start);
      tick.window = window;
      tick.tick = ticks.size();
      window.Reset();
      ticks.push_back(std::move(tick));
      next_tick += options.control_interval;
      continue;
    }
    clock->SleepUntil(due, nullptr);
    const webtx::LiveArrival& a = arrivals[next++];
    rt::TaskSpec spec;
    spec.relative_deadline = a.relative_deadline;
    spec.weight = a.weight;
    spec.estimated_cost = a.duration;
    spec.simulated_duration = a.duration;
    WEBTX_CHECK(exec.Submit(std::move(spec)).ok());
    window.Observe(a);
  }
  exec.Drain();
  exec.Shutdown();
  clock->DeregisterParticipant();
  return ticks;
}

uint64_t TableDigest(uint64_t h, const std::vector<rt::TwinForecast>& table) {
  for (const rt::TwinForecast& f : table) {
    h = Fnv(h, Bits(f.score));
    h = Fnv(h, Bits(f.tardiness));
    h = Fnv(h, Bits(f.shed_ratio));
  }
  return h;
}

struct TwinTotals {
  uint64_t passes = 0;
  double seconds = 0.0;
  std::vector<std::vector<double>> crowd_s;  // [pass][crowd]
  rt::ExecutorStats stats;  // summed counters
  rt::TwinDecisionStats decision;
  uint64_t ticks = 0, switches = 0, fallbacks = 0;
};

/// One pass of Twin::Run over every crowd, each report's digest checked
/// against the check pass. Returns the pass's wall seconds.
double TwinPass(const std::vector<std::vector<webtx::LiveArrival>>& crowds,
                const std::vector<uint64_t>& expected, SpanLog* spans,
                Result& result, TwinTotals& t) {
  const rt::TwinOptions options = TwinFlashOptions();
  const Clock::time_point start = Clock::now();
  std::vector<double>& crowd_s = t.crowd_s.emplace_back();
  for (size_t i = 0; i < crowds.size(); ++i) {
    const Clock::time_point run_start = Clock::now();
    webtx::Result<rt::TwinReport> report = [&] {
      ScopedSpan span(spans, "Twin::Run");
      return rt::Twin(options).Run(crowds[i]);
    }();
    crowd_s.push_back(SecondsSince(run_start));
    t.seconds += crowd_s.back();
    WEBTX_CHECK(report.ok()) << report.status().ToString();
    const rt::TwinReport& r = report.ValueOrDie();
    result.Check(r.digest == expected[i],
                 "twin_flash: twin digest differs from the check pass");
    t.stats.submitted += r.stats.submitted;
    t.stats.attempts += r.stats.attempts;
    t.stats.completed += r.stats.completed;
    t.stats.migrations += r.stats.migrations;
    t.stats.retries_scheduled += r.stats.retries_scheduled;
    t.stats.shed_admission += r.stats.shed_admission;
    t.decision.decision_ms += r.decision_stats.decision_ms;
    t.decision.forecast_events += r.decision_stats.forecast_events;
    t.decision.forecasts_run += r.decision_stats.forecasts_run;
    t.decision.forecasts_pruned += r.decision_stats.forecasts_pruned;
    t.ticks += r.decisions.size();
    t.switches += r.switches;
    t.fallbacks += r.fallbacks;
  }
  ++t.passes;
  return SecondsSince(start);
}

struct ForecastTotals {
  uint64_t passes = 0;
  uint64_t events = 0;  // per pass
  std::vector<std::vector<double>> tick_ms;  // [pass][tick]
};

/// One pass of Forecast() over every captured tick; every pass must rank
/// identically. Returns the pass's wall seconds.
double ForecastPass(rt::TwinForecastEngine& engine,
                    const std::vector<Tick>& ticks, uint64_t expected,
                    SpanLog* spans, Result& result, ForecastTotals& t) {
  PinnedToCpu pin(t.passes);
  const Clock::time_point start = Clock::now();
  uint64_t digest = kFnvBasis;
  const uint64_t events_before = engine.stats().forecast_events;
  std::vector<double>& tick_ms = t.tick_ms.emplace_back();
  for (const Tick& tick : ticks) {
    const Clock::time_point call = Clock::now();
    const std::vector<rt::TwinForecast>* table;
    {
      ScopedSpan span(spans, "Forecast");
      table = &engine.Forecast(tick.snap, tick.window, tick.tick, 0);
    }
    const double ms = static_cast<double>(NanosSince(call)) * 1e-6;
    tick_ms.push_back(ms);
    digest = TableDigest(digest, *table);
  }
  t.events = engine.stats().forecast_events - events_before;
  result.Check(digest == expected,
               "twin_flash: forecast tables differ across passes");
  ++t.passes;
  return SecondsSince(start);
}

/// Alternates Twin::Run and Forecast() passes for `budget` seconds (at
/// least one of each), giving each half the time, so a slow spell of the
/// host falls on both and the per-unit lower deciles filter it.
void RunInterleaved(const std::vector<std::vector<webtx::LiveArrival>>& crowds,
                    const std::vector<uint64_t>& expected,
                    rt::TwinForecastEngine& engine,
                    const std::vector<Tick>& ticks, uint64_t tables,
                    double budget, SpanLog* spans, Result& result,
                    TwinTotals& twins, ForecastTotals& forecasts) {
  double twin_s = 0.0, forecast_s = 0.0;
  const Clock::time_point start = Clock::now();
  while (twins.passes == 0 || forecasts.passes == 0 ||
         SecondsSince(start) < budget) {
    if (twin_s <= forecast_s) {
      twin_s += TwinPass(crowds, expected, spans, result, twins);
    } else {
      forecast_s +=
          ForecastPass(engine, ticks, tables, spans, result, forecasts);
    }
  }
}

struct CheckPass {
  std::vector<uint64_t> digests;  // per crowd
  OutcomeSummary summary;
  /// Responses (lost = kLost) by the load of the phase a task arrived in:
  /// the base rate or the spike.
  std::map<double, std::vector<double>> responses_by_load;
};

CheckPass CheckCrowds(
    const std::vector<std::vector<webtx::LiveArrival>>& crowds,
    Result& result) {
  const double base_load = kBaseRate * kMeanDuration / kWorkers;
  const double spike_load = base_load * kSpikeFactor;
  CheckPass pass;
  for (const auto& arrivals : crowds) {
    auto report = rt::Twin(TwinFlashOptions()).Run(arrivals);
    WEBTX_CHECK(report.ok()) << report.status().ToString();
    const rt::TwinReport& r = report.ValueOrDie();
    const rt::LiveValidationResult verdict = rt::ValidateLiveTrace(
        r.trace, r.tasks, r.outcomes, r.stats, r.validator_options);
    result.Check(verdict.ok(),
                 verdict.ok() ? "" : "twin_flash: " + verdict.violations[0]);
    pass.digests.push_back(r.digest);
    for (size_t i = 0; i < r.outcomes.size(); ++i) {
      const rt::TaskOutcome& o = r.outcomes[i];
      const double submit = r.tasks[i].submit_seconds;
      const bool spike =
          submit >= kSpikeStart && submit < kSpikeStart + kSpikeDuration;
      std::vector<double>& responses =
          pass.responses_by_load[spike ? spike_load : base_load];
      if (o.result != rt::TaskResult::kCompleted) {
        pass.summary.Lost();
        responses.push_back(kLost);
        continue;
      }
      const double response = o.finish_seconds - o.submit_seconds;
      pass.summary.Completed(response, o.tardiness_seconds,
                             o.tardiness_seconds * arrivals[i].weight,
                             o.tardiness_seconds == 0.0);
      responses.push_back(response);
    }
  }
  return pass;
}

}  // namespace

std::vector<webtx::LiveArrival> TwinFlashArrivals(uint64_t seed) {
  webtx::LiveArrivalOptions options;
  options.shape = webtx::LiveArrivalShape::kFlashCrowd;
  options.seed = seed;
  options.num_tasks = kTasks;
  options.rate = kBaseRate;
  options.spike_factor = kSpikeFactor;
  options.spike_start = kSpikeStart;
  options.spike_duration = kSpikeDuration;
  options.mean_duration = kMeanDuration;
  options.deadline_slack = 2.0;
  return webtx::GenerateLiveArrivals(options);
}

rt::TwinOptions TwinFlashOptions() {
  rt::TwinOptions options;  // default forecast-execution knobs
  options.num_workers = kWorkers;
  rt::TwinCandidate fcfs;
  rt::TwinCandidate edf;
  edf.policy = "EDF";
  rt::TwinCandidate srpt_depth;
  srpt_depth.policy = "SRPT";
  srpt_depth.admission = rt::TwinCandidate::Admission::kQueueDepth;
  srpt_depth.max_ready = 6 * kWorkers;
  rt::TwinCandidate edf_brownout;
  edf_brownout.policy = "EDF";
  edf_brownout.admission = rt::TwinCandidate::Admission::kBrownout;
  edf_brownout.capacity_slo = 0.5;
  options.candidates = {fcfs, edf, srpt_depth, edf_brownout};
  options.static_index = 0;
  options.control_interval = 0.25;
  options.forecast_horizon = 0.75;
  options.switch_margin = 0.1;
  options.dwell_ticks = 1;
  options.shed_penalty = 1.0;
  options.forecast_seed = 2009;
  options.faults.plan.crash_rate = 0.02;
  options.faults.plan.mean_repair_duration = 1.0;
  options.faults.plan.seed = 11;
  options.retry_max_backoff = 0.2;
  return options;
}

Result RunTwinFlash(const Args& args, SpanLog* spans) {
  // 2 workers + the executor's pump thread + the control thread.
  RequireThreads("twin_flash", kWorkers + 2);
  Result result;
  const rt::TwinOptions options = TwinFlashOptions();

  // Setup: arrival generation and snapshot capture.
  std::vector<std::vector<webtx::LiveArrival>> crowds;
  std::vector<Tick> ticks;
  std::vector<double> setup_s;
  double snapshot_s = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    crowds.clear();
    ticks.clear();
    snapshot_s = 0.0;
    const Clock::time_point start = Clock::now();
    for (size_t c = 0; c < kCrowds; ++c) {
      crowds.push_back(TwinFlashArrivals(SubSeed(args.seed, c)));
      std::vector<Tick> captured =
          CaptureTicks(crowds.back(), options, &snapshot_s, spans);
      std::move(captured.begin(), captured.end(), std::back_inserter(ticks));
    }
    setup_s.push_back(SecondsSince(start));
  }

  // Untimed check passes, one Twin::Run per crowd with its trace
  // audited: the seeded crowds give the digests every timed run must
  // reproduce, the pinned reference crowds the (sim) metrics.
  const std::vector<uint64_t> expected = CheckCrowds(crowds, result).digests;
  CheckPass reference;
  {
    std::vector<std::vector<webtx::LiveArrival>> reference_crowds;
    for (size_t c = 0; c < kCrowds; ++c) {
      reference_crowds.push_back(TwinFlashArrivals(SubSeed(kReferenceSeed, c)));
    }
    reference = CheckCrowds(reference_crowds, result);
  }
  auto engine_or = rt::TwinForecastEngine::Create(options);
  WEBTX_CHECK(engine_or.ok()) << engine_or.status().ToString();
  rt::TwinForecastEngine engine = std::move(engine_or).ValueOrDie();
  uint64_t tables = kFnvBasis;
  for (const Tick& tick : ticks) {
    tables = TableDigest(
        tables, engine.Forecast(tick.snap, tick.window, tick.tick, 0));
  }

  // Timed region: half serving (Twin::Run), half deciding (Forecast).
  TwinTotals twins;
  ForecastTotals forecasts;
  RunInterleaved(crowds, expected, engine, ticks, tables,
                 args.trace ? args.seconds / 2 : args.seconds, nullptr, result,
                 twins, forecasts);
  const double twin_pass_time = FilteredPassTime(twins.crowd_s);
  const double txns_per_s = static_cast<double>(twins.stats.completed) /
                            static_cast<double>(twins.passes) / twin_pass_time;

  if (!args.trace) {
    result.Add("setup_s", LowerQuartile(setup_s), "s");
    result.Add("txns_per_s", txns_per_s, "1/s");
    result.Add("events_per_s",
               static_cast<double>(forecasts.events) /
                   (FilteredPassTime(forecasts.tick_ms) * 1e-3),
               "1/s");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    // Each tick's lower-decile time across passes, then the
    // percentiles across ticks.
    EmitDecisionMs(result, PerUnitLowerDecile(forecasts.tick_ms));
    reference.summary.Emit(result);
    double max_load = 0.0;
    for (auto& [load, responses] : reference.responses_by_load) {
      std::sort(responses.begin(), responses.end());
      if (MeetsLimit(responses, 0.99, kResponseLimit)) {
        max_load = std::max(max_load, load);
      }
    }
    result.Add("max_load_at_slo", max_load, "x");
    return result;
  }

  TwinTotals traced;
  ForecastTotals traced_forecasts;
  RunInterleaved(crowds, expected, engine, ticks, tables, args.seconds / 2,
                 spans, result, traced, traced_forecasts);
  const double n = static_cast<double>(traced.passes);
  std::map<std::string, double> layers;
  layers["rt.exec.submit_calls"] =
      static_cast<double>(traced.stats.submitted) / n;
  layers["rt.exec.host_us_per_task"] =
      traced.seconds * 1e6 / static_cast<double>(traced.stats.submitted);
  layers["rt.exec.attempts"] = static_cast<double>(traced.stats.attempts) / n;
  layers["rt.exec.useful_ratio"] =
      static_cast<double>(traced.stats.completed) /
      static_cast<double>(std::max<size_t>(traced.stats.attempts, 1));
  layers["rt.exec.migrations"] =
      static_cast<double>(traced.stats.migrations) / n;
  layers["rt.exec.retries"] =
      static_cast<double>(traced.stats.retries_scheduled) / n;
  layers["rt.exec.shed_ratio"] =
      static_cast<double>(traced.stats.shed_admission) /
      static_cast<double>(std::max<size_t>(traced.stats.submitted, 1));
  layers["rt.twin.ticks"] = static_cast<double>(traced.ticks) / n;
  layers["rt.twin.forecast_s"] = traced.decision.decision_ms * 1e-3 / n;
  layers["rt.twin.forecast_events"] =
      static_cast<double>(traced.decision.forecast_events) / n;
  layers["rt.twin.forecasts_run"] =
      static_cast<double>(traced.decision.forecasts_run) / n;
  layers["rt.twin.forecasts_pruned"] =
      static_cast<double>(traced.decision.forecasts_pruned) / n;
  layers["rt.twin.snapshot_s"] = snapshot_s;
  layers["rt.twin.decision_share"] =
      traced.decision.decision_ms * 1e-3 / traced.seconds;
  layers["rt.twin.switches"] = static_cast<double>(traced.switches) / n;
  layers["rt.twin.fallbacks"] = static_cast<double>(traced.fallbacks) / n;
  layers["trace.overhead_ratio"] =
      FilteredPassTime(traced.crowd_s) / twin_pass_time;
  EmitLayers(result, layers);
  return result;
}

}  // namespace perfbench
