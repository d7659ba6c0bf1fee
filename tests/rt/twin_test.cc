// Digital-twin serving loop unit tests (rt/twin.h): option validation,
// deterministic end-to-end service, the control-tick grid, and
// decision/counter agreement. Heavier randomized coverage (fallbacks,
// corruption, campaigns) lives in exp/chaos_test.cc.

#include "rt/twin.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "workload/live_arrivals.h"

namespace webtx {
namespace {

std::vector<LiveArrival> FeasiblePoisson(size_t num_tasks = 40) {
  LiveArrivalOptions options;
  options.shape = LiveArrivalShape::kPoisson;
  options.seed = 7;
  options.num_tasks = num_tasks;
  options.rate = 20.0;         // 2 workers x 0.05s mean = 50% utilization
  options.mean_duration = 0.05;
  options.deadline_slack = 3.0;
  return GenerateLiveArrivals(options);
}

rt::TwinOptions TwoCandidateOptions() {
  rt::TwinOptions options;
  options.num_workers = 2;
  rt::TwinCandidate fcfs;
  rt::TwinCandidate edf;
  edf.policy = "EDF";
  options.candidates = {fcfs, edf};
  options.control_interval = 0.2;
  options.forecast_horizon = 0.4;
  return options;
}

TEST(TwinTest, RejectsInvalidOptions) {
  const std::vector<LiveArrival> arrivals = FeasiblePoisson(5);

  rt::TwinOptions no_candidates = TwoCandidateOptions();
  no_candidates.candidates.clear();
  EXPECT_FALSE(rt::Twin(no_candidates).Run(arrivals).ok());

  rt::TwinOptions bad_static = TwoCandidateOptions();
  bad_static.static_index = 2;
  EXPECT_FALSE(rt::Twin(bad_static).Run(arrivals).ok());

  rt::TwinOptions bad_policy = TwoCandidateOptions();
  bad_policy.candidates[1].policy = "NOT_A_POLICY";
  EXPECT_FALSE(rt::Twin(bad_policy).Run(arrivals).ok());

  rt::TwinOptions no_workers = TwoCandidateOptions();
  no_workers.num_workers = 0;
  EXPECT_FALSE(rt::Twin(no_workers).Run(arrivals).ok());

  rt::TwinOptions bad_corruption = TwoCandidateOptions();
  bad_corruption.snapshot_corruption = 0.0;
  EXPECT_FALSE(rt::Twin(bad_corruption).Run(arrivals).ok());

  rt::TwinOptions bad_slo = TwoCandidateOptions();
  bad_slo.candidates[1].admission = rt::TwinCandidate::Admission::kBrownout;
  bad_slo.candidates[1].capacity_slo = 1.5;
  EXPECT_FALSE(rt::Twin(bad_slo).Run(arrivals).ok());

  // NaN passes an ordered "< 0 || > 1" test; BrownoutAdmission would
  // abort on it.
  rt::TwinOptions nan_slo = bad_slo;
  nan_slo.candidates[1].capacity_slo = std::nan("");
  const auto nan_run = rt::Twin(nan_slo).Run(arrivals);
  EXPECT_EQ(nan_run.status().code(), StatusCode::kInvalidArgument);

  // The executor CHECKs these; the twin returns ExecutorOptions'
  // status before building it.
  for (const double bad : {std::nan(""), -1.0}) {
    rt::TwinOptions stall = TwoCandidateOptions();
    stall.watchdog_stall_seconds = bad;
    rt::TwinOptions backoff = TwoCandidateOptions();
    backoff.retry_max_backoff = bad;
    for (const auto& [options, field] :
         {std::pair{stall, "watchdog_stall_seconds"},
          std::pair{backoff, "retry_max_backoff"}}) {
      const Status status = rt::Twin(options).Run(arrivals).status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << field << "=" << bad;
      EXPECT_NE(status.message().find(field), std::string::npos) << status;
    }
  }
}

TEST(TwinTest, ControllerOffServesEverythingDeterministically) {
  const std::vector<LiveArrival> arrivals = FeasiblePoisson();
  rt::TwinOptions options = TwoCandidateOptions();
  options.controller_enabled = false;

  auto first = rt::Twin(options).Run(arrivals);
  auto second = rt::Twin(options).Run(arrivals);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  const rt::TwinReport& report = first.ValueOrDie();
  EXPECT_EQ(report.digest, second.ValueOrDie().digest);
  EXPECT_TRUE(report.decisions.empty());
  EXPECT_EQ(report.switches, 0u);
  EXPECT_EQ(report.fallbacks, 0u);
  EXPECT_EQ(report.final_config, options.static_index);
  // Feasible load, no faults: everything completes.
  EXPECT_EQ(report.stats.completed, arrivals.size());
  EXPECT_DOUBLE_EQ(report.goodput, 1.0);
  EXPECT_DOUBLE_EQ(report.shed_ratio, 0.0);
  const rt::LiveValidationResult verdict =
      rt::ValidateLiveTrace(report.trace, report.tasks, report.outcomes,
                            report.stats, report.validator_options);
  EXPECT_TRUE(verdict.ok()) << verdict.violations.front();
}

TEST(TwinTest, DecisionsLandOnTheControlTickGrid) {
  const std::vector<LiveArrival> arrivals = FeasiblePoisson();
  const rt::TwinOptions options = TwoCandidateOptions();
  auto run = rt::Twin(options).Run(arrivals);
  ASSERT_TRUE(run.ok()) << run.status();
  const rt::TwinReport& report = run.ValueOrDie();
  ASSERT_FALSE(report.decisions.empty());
  double prev = -1.0;
  for (const rt::TwinDecision& d : report.decisions) {
    EXPECT_GT(d.time, prev);
    prev = d.time;
    // Every decision sits on a multiple of the control interval: ticks
    // happen at quiescent points of the exact scheduled instant (the
    // driver freezes the virtual clock while the controller thinks).
    const double ticks = d.time / options.control_interval;
    EXPECT_NEAR(ticks, std::round(ticks), 1e-9) << "at t=" << d.time;
    EXPECT_LT(d.applied, options.candidates.size());
    EXPECT_LT(d.best, options.candidates.size());
  }
}

TEST(TwinTest, DecisionLogAgreesWithTheCounters) {
  LiveArrivalOptions load;
  load.shape = LiveArrivalShape::kFlashCrowd;
  load.seed = 13;
  load.num_tasks = 120;
  load.rate = 30.0;
  load.spike_factor = 8.0;
  load.spike_start = 0.5;
  load.spike_duration = 0.8;
  load.mean_duration = 0.05;
  const std::vector<LiveArrival> arrivals = GenerateLiveArrivals(load);

  rt::TwinOptions options = TwoCandidateOptions();
  options.candidates[1].policy = "SRPT";
  options.dwell_ticks = 1;
  auto run = rt::Twin(options).Run(arrivals);
  ASSERT_TRUE(run.ok()) << run.status();
  const rt::TwinReport& report = run.ValueOrDie();

  size_t switches = 0;
  size_t fallbacks = 0;
  uint32_t applied = static_cast<uint32_t>(options.static_index);
  for (const rt::TwinDecision& d : report.decisions) {
    if (d.kind == rt::TwinDecision::Kind::kSwitch) ++switches;
    if (d.kind == rt::TwinDecision::Kind::kFallback) ++fallbacks;
    applied = d.applied;
  }
  EXPECT_EQ(report.switches, switches);
  EXPECT_EQ(report.fallbacks, fallbacks);
  EXPECT_EQ(report.final_config, applied);
  // Counters cross-check the stats: completed + sheds cover the batch.
  EXPECT_EQ(report.stats.submitted, arrivals.size());
  EXPECT_NEAR(report.goodput + report.shed_ratio, 1.0, 1e-12);
}

// ---------------------------------------------------------------------
// TwinForecastEngine: the decision-loop cost knob (parallel fan-out)
// must be digest-neutral — same decisions, same trace, byte-identical
// report.

std::vector<LiveArrival> FlashCrowdArrivals() {
  LiveArrivalOptions load;
  load.shape = LiveArrivalShape::kFlashCrowd;
  load.seed = 13;
  load.num_tasks = 120;
  load.rate = 30.0;
  load.spike_factor = 8.0;
  load.spike_start = 0.5;
  load.spike_duration = 0.8;
  load.mean_duration = 0.05;
  return GenerateLiveArrivals(load);
}

/// Four candidates: plain, queue-depth and brownout admission.
rt::TwinOptions FourCandidateOptions() {
  rt::TwinOptions options = TwoCandidateOptions();
  rt::TwinCandidate srpt;
  srpt.policy = "SRPT";
  srpt.admission = rt::TwinCandidate::Admission::kQueueDepth;
  srpt.max_ready = 24;
  rt::TwinCandidate edf_brownout;
  edf_brownout.policy = "EDF";
  edf_brownout.admission = rt::TwinCandidate::Admission::kBrownout;
  edf_brownout.capacity_slo = 0.5;
  options.candidates.push_back(srpt);
  options.candidates.push_back(edf_brownout);
  options.dwell_ticks = 1;
  return options;
}

TEST(TwinForecastEngineTest, CreateRejectsInvalidCandidates) {
  // The engine is a public entry point of its own: a candidate that
  // QueueDepthAdmission or BrownoutAdmission would CHECK on is refused
  // here, before the first Forecast() builds it. In
  // FourCandidateOptions, candidate 2 is SRPT behind queue-depth
  // admission and candidate 3 EDF behind brownout admission.
  struct Row {
    size_t candidate;
    const char* field;
    void (*mutate)(rt::TwinCandidate&);
  };
  const Row rows[] = {
      {3, "capacity_slo", [](rt::TwinCandidate& c) { c.capacity_slo = 1.5; }},
      {3, "capacity_slo", [](rt::TwinCandidate& c) { c.capacity_slo = -1.0; }},
      {3, "capacity_slo",
       [](rt::TwinCandidate& c) { c.capacity_slo = std::nan(""); }},
      {2, "max_ready", [](rt::TwinCandidate& c) { c.max_ready = 0; }},
  };
  for (const Row& row : rows) {
    rt::TwinOptions options = FourCandidateOptions();
    row.mutate(options.candidates[row.candidate]);
    const Status status = rt::TwinForecastEngine::Create(options).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << row.field;
    EXPECT_NE(status.ToString().find(row.field), std::string::npos)
        << status.ToString();
  }
}

TEST(TwinForecastEngineTest, ParallelForecastsAreByteIdentical) {
  const std::vector<LiveArrival> arrivals = FlashCrowdArrivals();
  rt::TwinOptions options = FourCandidateOptions();
  uint64_t serial_digest = 0;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.forecast_threads = threads;
    auto run = rt::Twin(options).Run(arrivals);
    ASSERT_TRUE(run.ok()) << run.status();
    const rt::TwinReport& report = run.ValueOrDie();
    ASSERT_FALSE(report.decisions.empty());
    EXPECT_GT(report.decision_stats.forecasts_run, 0u);
    EXPECT_GT(report.switches + report.fallbacks, 0u)
        << "flash crowd should exercise the controller";
    if (threads == 1) {
      serial_digest = report.digest;
    } else {
      EXPECT_EQ(report.digest, serial_digest) << "threads=" << threads;
    }
  }
}

/// A synthetic executor snapshot for direct engine calls: `num_tasks`
/// unfinished tasks in mixed states, some releasing later, some waiting
/// on an earlier task.
rt::ExecutorSnapshot SyntheticSnapshot(Rng& rng, double now, size_t num_tasks,
                                       size_t num_workers_up) {
  rt::ExecutorSnapshot snap;
  snap.now = now;
  snap.num_workers = 2;
  snap.num_workers_up = num_workers_up;
  for (size_t i = 0; i < num_tasks; ++i) {
    rt::SnapshotTask task;
    task.id = static_cast<TxnId>(3 * i + 1);  // sparse ids: dependency remap
    task.remaining = 0.01 + 0.1 * rng.NextDouble();
    task.release = now + (rng.NextDouble() < 0.2 ? 0.3 * rng.NextDouble() : 0);
    task.deadline = now + 0.5 * rng.NextDouble() - 0.1;
    task.weight = 1.0 + static_cast<double>(i % 3);
    if (i > 0 && rng.NextDouble() < 0.25) {
      task.state = rt::SnapshotTaskState::kWaitingDeps;
      task.unfinished_dependencies.push_back(static_cast<TxnId>(3 * i - 2));
    }
    snap.tasks.push_back(std::move(task));
  }
  return snap;
}

TEST(TwinForecastEngineTest, PooledMatchesRebuiltByteForByte) {
  // The engine keeps one warm simulator + policy per candidate across
  // ticks. A fresh engine per tick rebuilds everything cold, so tick by
  // tick the two must produce the same forecast table — on shrinking
  // and growing snapshots.
  const size_t sizes[] = {40, 3, 0, 75, 12, 75, 1, 30};
  const rt::TwinOptions options = FourCandidateOptions();
  auto pooled = rt::TwinForecastEngine::Create(options);
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  Rng rng(2009);
  uint64_t tick = 0;
  for (const size_t num_tasks : sizes) {
    const rt::ExecutorSnapshot snap = SyntheticSnapshot(
        rng, 0.2 * static_cast<double>(tick), num_tasks, 1 + tick % 2);
    rt::TwinArrivalWindow window;
    for (size_t a = 0; a < (tick * 7) % 11; ++a) {
      LiveArrival arrival;
      arrival.duration = 0.02 + 0.05 * rng.NextDouble();
      arrival.relative_deadline = 0.3 * rng.NextDouble();
      arrival.weight = 1.0;
      window.Observe(arrival);
    }
    const uint32_t incumbent = static_cast<uint32_t>(tick % 4);
    auto rebuilt = rt::TwinForecastEngine::Create(options);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    const std::vector<rt::TwinForecast> cold =
        rebuilt.ValueOrDie().Forecast(snap, window, tick, incumbent);
    const std::vector<rt::TwinForecast>& warm =
        pooled.ValueOrDie().Forecast(snap, window, tick, incumbent);
    ASSERT_EQ(warm.size(), cold.size());
    for (size_t i = 0; i < warm.size(); ++i) {
      EXPECT_EQ(warm[i].tardiness, cold[i].tardiness)
          << "tick=" << tick << " candidate=" << i;
      EXPECT_EQ(warm[i].shed_ratio, cold[i].shed_ratio)
          << "tick=" << tick << " candidate=" << i;
      EXPECT_EQ(warm[i].score, cold[i].score)
          << "tick=" << tick << " candidate=" << i;
    }
    ++tick;
  }
  EXPECT_GT(pooled.ValueOrDie().stats().forecasts_run, 0u);
}

TEST(TwinForecastEngineTest, ReportsDecisionLoopCost) {
  const std::vector<LiveArrival> arrivals = FlashCrowdArrivals();
  rt::TwinOptions options = FourCandidateOptions();
  auto run = rt::Twin(options).Run(arrivals);
  ASSERT_TRUE(run.ok()) << run.status();
  const rt::TwinDecisionStats& stats = run.ValueOrDie().decision_stats;
  // Forecasting ticks ran every candidate at the full horizon.
  EXPECT_GT(stats.forecasts_run, 0u);
  EXPECT_EQ(stats.forecasts_run % options.candidates.size(), 0u);
  EXPECT_EQ(stats.forecasts_pruned, 0u);  // no candidate is ever pruned
  EXPECT_GT(stats.forecast_events, 0u);
  EXPECT_GE(stats.decision_ms, 0.0);

  // The controller-off twin never builds an engine: all-zero stats.
  rt::TwinOptions off = options;
  off.controller_enabled = false;
  auto static_run = rt::Twin(off).Run(arrivals);
  ASSERT_TRUE(static_run.ok()) << static_run.status();
  EXPECT_EQ(static_run.ValueOrDie().decision_stats.forecasts_run, 0u);
  EXPECT_EQ(static_run.ValueOrDie().decision_stats.forecast_events, 0u);
}

}  // namespace
}  // namespace webtx
