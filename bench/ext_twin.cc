// Extension: digital-twin serving loop (rt/twin.h). One seeded flash
// crowd — base load a 4-worker pool handles comfortably, then a 6x rate
// spike — served three ways under the deterministic VirtualClock:
//
//   static      controller off: FCFS, no admission, start to finish
//   controller  shadow-simulator control loop live: per-tick what-if
//               forecasts over {FCFS, EDF, SRPT+depth, EDF+brownout},
//               hysteresis switching at quiescent points
//   divergence  the controller again, but with its snapshot stream
//               corrupted 10x — the guard must notice the model lying,
//               fall back to static, and the run must still validate
//
// Everything is virtual-clock deterministic, so the A-B is exact: same
// arrivals, same fault timeline, and every run's digest (trace +
// decision log) is byte-stable — the bench runs each configuration
// twice and fails on any digest mismatch. It also fails (exit 1) unless
// the controller strictly improves average tardiness or shed ratio over
// static serving, and unless the corrupted run triggers >= 1 fallback
// with zero validator violations — the acceptance gate of the twin.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "rt/live_validator.h"
#include "rt/twin.h"
#include "workload/live_arrivals.h"

namespace webtx {
namespace {

constexpr size_t kNumWorkers = 4;
constexpr size_t kNumTasks = 600;
constexpr uint64_t kWorkloadSeed = 2009;

std::vector<LiveArrival> FlashCrowd() {
  LiveArrivalOptions options;
  options.shape = LiveArrivalShape::kFlashCrowd;
  options.seed = kWorkloadSeed;
  options.num_tasks = kNumTasks;
  // Base load ~70% of the pool; the spike multiplies the rate 6x over
  // one virtual second — far past feasibility, where policy and
  // admission choices dominate.
  options.rate = 56.0;
  options.spike_factor = 6.0;
  options.spike_start = 1.0;
  options.spike_duration = 1.0;
  options.mean_duration = 0.05;
  options.deadline_slack = 2.0;
  return GenerateLiveArrivals(options);
}

rt::TwinOptions BaseOptions() {
  rt::TwinOptions options;
  options.num_workers = kNumWorkers;
  // Candidate 0 is the static configuration: plain FCFS, no admission.
  rt::TwinCandidate fcfs;
  rt::TwinCandidate edf;
  edf.policy = "EDF";
  rt::TwinCandidate srpt_depth;
  srpt_depth.policy = "SRPT";
  srpt_depth.admission = rt::TwinCandidate::Admission::kQueueDepth;
  srpt_depth.max_ready = 6 * kNumWorkers;
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
  options.forecast_seed = kWorkloadSeed;
  // Light crash seasoning, identical across configurations: the
  // brownout candidate's crash-aware signal has something to see.
  options.faults.plan.crash_rate = 0.02;
  options.faults.plan.mean_repair_duration = 1.0;
  options.faults.plan.seed = 11;
  options.retry_max_backoff = 0.2;
  return options;
}

// Candidate roster for the decision-loop cost grid: eight distinct
// policies, then the same eight again behind queue-depth admission.
// Truncated to the requested count, so cand=2 is {FCFS, EDF} and
// cand=16 exercises every slot.
std::vector<rt::TwinCandidate> DecisionCandidates(size_t count) {
  static const char* const kPolicies[] = {"FCFS", "EDF",  "SRPT",  "LS",
                                          "HDF",  "HVF",  "ASETS", "ASETS*"};
  std::vector<rt::TwinCandidate> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    rt::TwinCandidate c;
    c.policy = kPolicies[i % 8];
    if (i >= 8) {
      c.admission = rt::TwinCandidate::Admission::kQueueDepth;
      c.max_ready = 4 * kNumWorkers;
    }
    out.push_back(std::move(c));
  }
  return out;
}

struct RunRow {
  rt::TwinReport report;
  bool deterministic = false;
  size_t violations = 0;
};

// ---------------------------------------------------------------------------
// Decision-loop cost measurement: an isolated TwinForecastEngine driven
// over a fixed hand-built snapshot. Whole-twin wall-clock timing is too
// noisy for a gate (the live executor's worker threads compete with the
// control thread for cores), so cost is measured where it accrues — the
// per-tick Forecast() call — while the digest-neutrality contract is
// still checked on whole twin runs below.

/// A mid-flash-crowd moment: a backlog of ready work plus a busy recent
/// arrival window. Pure data, identical every call.
rt::ExecutorSnapshot DecisionSnapshot() {
  rt::ExecutorSnapshot snap;
  snap.now = 10.0;
  snap.num_workers = kNumWorkers;
  snap.num_workers_up = kNumWorkers;
  for (TxnId id = 0; id < 24; ++id) {
    rt::SnapshotTask task;
    task.id = id;
    task.remaining = 0.05;
    task.release = snap.now;
    task.deadline = snap.now + 0.5 + 0.01 * static_cast<double>(id);
    task.weight = 1.0;
    task.state = rt::SnapshotTaskState::kReady;
    snap.tasks.push_back(task);
  }
  return snap;
}

rt::TwinArrivalWindow DecisionWindow() {
  rt::TwinArrivalWindow window;
  for (int i = 0; i < 14; ++i) {
    LiveArrival a;
    a.duration = 0.05;
    a.relative_deadline = 0.5;
    a.weight = 1.0;
    window.Observe(a);
  }
  return window;
}

struct DecisionLoopResult {
  double ms_per_tick = 0.0;
  /// Forecast winner per measured tick (incumbent fixed at 0) — the
  /// pruning win-rate-preservation comparison keys off these.
  std::vector<uint32_t> winners;
};

DecisionLoopResult MeasureDecisionLoop(const rt::TwinOptions& options) {
  const rt::ExecutorSnapshot snap = DecisionSnapshot();
  const rt::TwinArrivalWindow window = DecisionWindow();
  auto engine = rt::TwinForecastEngine::Create(options);
  WEBTX_CHECK(engine.ok()) << engine.status().ToString();
  rt::TwinForecastEngine& e = engine.ValueOrDie();
  // Several short repetitions of the same tick cycle; the per-tick cost
  // is the best repetition (min-of-k filters scheduler and frequency
  // noise out of a wall-clock microbench; every repetition does
  // identical work). Winners are recorded on the first repetition —
  // forecasts are pure functions of (snapshot, window, tick), so every
  // repetition ranks identically.
  constexpr size_t kWarmup = 3;
  constexpr size_t kReps = 7;
  constexpr size_t kItersPerRep = 78;  // 6 full 13-tick cycles
  for (size_t w = 0; w < kWarmup; ++w) (void)e.Forecast(snap, window, 7, 0);
  DecisionLoopResult out;
  out.winners.reserve(kItersPerRep);
  double best_ms = std::numeric_limits<double>::infinity();
  for (size_t rep = 0; rep < kReps; ++rep) {
    const rt::TwinDecisionStats before = e.stats();
    for (size_t i = 0; i < kItersPerRep; ++i) {
      // Vary the tick so every synthetic-arrival stream in a 13-tick
      // cycle is exercised; the sequence is identical across variants.
      const std::vector<rt::TwinForecast>& table =
          e.Forecast(snap, window, 7 + (i % 13), 0);
      if (rep > 0) continue;
      uint32_t best = 0;
      for (uint32_t c = 1; c < table.size(); ++c) {
        if (table[c].score < table[best].score) best = c;
      }
      out.winners.push_back(best);
    }
    best_ms = std::min(best_ms, e.stats().decision_ms - before.decision_ms);
  }
  out.ms_per_tick = best_ms / static_cast<double>(kItersPerRep);
  return out;
}

/// Digest of one whole twin run (the contract check half of the grid).
uint64_t TwinDigestOf(const rt::TwinOptions& options,
                      const std::vector<LiveArrival>& arrivals) {
  auto report = rt::Twin(options).Run(arrivals);
  WEBTX_CHECK(report.ok()) << report.status().ToString();
  return report.ValueOrDie().digest;
}

RunRow RunConfig(const rt::TwinOptions& options,
                 const std::vector<LiveArrival>& arrivals) {
  RunRow row;
  rt::Twin twin(options);
  auto first = twin.Run(arrivals);
  WEBTX_CHECK(first.ok()) << first.status().ToString();
  auto second = rt::Twin(options).Run(arrivals);
  WEBTX_CHECK(second.ok()) << second.status().ToString();
  row.report = std::move(first).ValueOrDie();
  row.deterministic = row.report.digest == second.ValueOrDie().digest;
  const rt::LiveValidationResult verdict = rt::ValidateLiveTrace(
      row.report.trace, row.report.tasks, row.report.outcomes,
      row.report.stats, row.report.validator_options);
  row.violations = verdict.violations.size();
  return row;
}

}  // namespace
}  // namespace webtx

int main() {
  using namespace webtx;
  const std::vector<LiveArrival> arrivals = FlashCrowd();

  rt::TwinOptions static_options = BaseOptions();
  static_options.controller_enabled = false;
  const RunRow static_run = RunConfig(static_options, arrivals);

  const rt::TwinOptions controller_options = BaseOptions();
  const RunRow controller_run = RunConfig(controller_options, arrivals);

  rt::TwinOptions divergence_options = BaseOptions();
  divergence_options.snapshot_corruption = 10.0;
  const RunRow divergence_run = RunConfig(divergence_options, arrivals);

  std::printf(
      "Digital twin under a flash crowd (%zu tasks, %zu workers, "
      "6x spike, virtual clock):\n\n",
      kNumTasks, static_cast<size_t>(kNumWorkers));
  const std::vector<std::string> header = {"config",   "avg_tardiness",
                                           "shed_ratio", "goodput",
                                           "switches", "fallbacks"};
  Table table(header);
  const auto add = [&table](const std::string& label, const RunRow& row) {
    table.AddNumericRow(label, {row.report.avg_tardiness,
                                row.report.shed_ratio, row.report.goodput,
                                static_cast<double>(row.report.switches),
                                static_cast<double>(row.report.fallbacks)});
  };
  add("static", static_run);
  add("controller", controller_run);
  add("divergence", divergence_run);
  table.Print(std::cout);
  bench::SaveCsv(table, "ext_twin_flash_crowd");

  const auto print_stats = [](const std::string& label, const RunRow& row) {
    const rt::TwinDecisionStats& s = row.report.decision_stats;
    std::printf(
        "%-11s decision_ms %.3f  forecast_events %llu  forecasts_run %llu"
        "  forecasts_pruned %llu\n",
        label.c_str(), s.decision_ms,
        static_cast<unsigned long long>(s.forecast_events),
        static_cast<unsigned long long>(s.forecasts_run),
        static_cast<unsigned long long>(s.forecasts_pruned));
  };
  std::printf("\nDecision-loop cost (whole run, wall clock):\n");
  print_stats("controller", controller_run);
  print_stats("divergence", divergence_run);

  std::printf("\nstatic digest      %016llx  determinism %s\n",
              static_cast<unsigned long long>(static_run.report.digest),
              static_run.deterministic ? "byte-identical" : "DIVERGED");
  std::printf("controller digest  %016llx  determinism %s\n",
              static_cast<unsigned long long>(controller_run.report.digest),
              controller_run.deterministic ? "byte-identical" : "DIVERGED");
  std::printf("divergence digest  %016llx  determinism %s\n",
              static_cast<unsigned long long>(divergence_run.report.digest),
              divergence_run.deterministic ? "byte-identical" : "DIVERGED");

  // Acceptance gate: a strict win on tardiness OR shed ratio, a guard
  // that actually fired on the corrupted model, clean validators, and
  // byte-stable digests everywhere.
  const bool wins = controller_run.report.avg_tardiness <
                        static_run.report.avg_tardiness ||
                    controller_run.report.shed_ratio <
                        static_run.report.shed_ratio;
  const bool guard_fired = divergence_run.report.fallbacks >= 1;
  const size_t total_violations = static_run.violations +
                                  controller_run.violations +
                                  divergence_run.violations;
  const bool deterministic = static_run.deterministic &&
                             controller_run.deterministic &&
                             divergence_run.deterministic;
  std::printf("\ncontroller_wins    %s\n", wins ? "yes" : "NO");
  std::printf("guard_fired        %s (%zu fallback(s))\n",
              guard_fired ? "yes" : "NO", divergence_run.report.fallbacks);
  std::printf("validator          %zu violation(s)\n", total_violations);

  // ------------------------------------------------------------------
  // Decision-loop cost grid: the per-tick forecast fan-out at 2/4/8/16
  // candidates under three forecast-execution configurations, measured
  // on an isolated TwinForecastEngine over a fixed snapshot (stable
  // wall clock — no executor threads competing for cores). The contract
  // half is hard-gated on whole twin runs (serial and threads=8 digests
  // must be byte-identical — execution strategy may only change cost);
  // the cost half is printed. The decision cost a change must hold is
  // the repository benchmark's twin_flash decision_ms_p50/p99
  // (perfbench/), compared across revisions by scripts/bench_ab.sh.
  // Pruning is the one knob allowed to change decisions, so its
  // agreement is REPORTED (per-tick winner match rate + whole-run digest
  // match), not gated.
  std::printf("\nDecision-loop cost grid (ms per control tick):\n\n");
  const std::vector<std::string> grid_header = {
      "candidates",  "pooled_ms",    "prune_ms",
      "threads8_ms", "winner_match", "prune_digest_match"};
  Table grid(grid_header);
  bool decision_digests_ok = true;
  for (const size_t cand : {size_t{2}, size_t{4}, size_t{8}, size_t{16}}) {
    rt::TwinOptions base = BaseOptions();
    base.candidates = DecisionCandidates(cand);

    const rt::TwinOptions pooled = base;  // pooled serial is the default
    rt::TwinOptions prune = base;
    prune.prune = true;
    rt::TwinOptions threads8 = base;
    threads8.forecast_threads = 8;

    // Contract: whole twin runs across the digest-neutral variants.
    const uint64_t pooled_digest = TwinDigestOf(pooled, arrivals);
    const uint64_t threads8_digest = TwinDigestOf(threads8, arrivals);
    if (pooled_digest != threads8_digest) {
      std::fprintf(stderr,
                   "ext_twin: decision digests DIVERGED at %zu candidates "
                   "(pooled %016llx threads8 %016llx)\n",
                   cand, static_cast<unsigned long long>(pooled_digest),
                   static_cast<unsigned long long>(threads8_digest));
      decision_digests_ok = false;
    }
    const bool prune_same = TwinDigestOf(prune, arrivals) == pooled_digest;

    // Cost: the isolated per-tick fan-out.
    const DecisionLoopResult pooled_loop = MeasureDecisionLoop(pooled);
    const DecisionLoopResult prune_loop = MeasureDecisionLoop(prune);
    const DecisionLoopResult threads8_loop = MeasureDecisionLoop(threads8);

    size_t winner_matches = 0;
    for (size_t i = 0; i < pooled_loop.winners.size(); ++i) {
      winner_matches += prune_loop.winners[i] == pooled_loop.winners[i];
    }
    const double winner_match =
        static_cast<double>(winner_matches) /
        static_cast<double>(pooled_loop.winners.size());
    grid.AddNumericRow(
        std::to_string(cand),
        {pooled_loop.ms_per_tick, prune_loop.ms_per_tick,
         threads8_loop.ms_per_tick, winner_match, prune_same ? 1.0 : 0.0});
  }
  grid.Print(std::cout);
  std::printf(
      "(every column is serial except threads8, whose speedup depends on "
      "free cores)\n");
  bench::SaveCsv(grid, "ext_twin_decision_loop");

  if (!wins || !guard_fired || total_violations > 0 || !deterministic ||
      !decision_digests_ok) {
    std::fprintf(stderr, "ext_twin: acceptance gate FAILED\n");
    return 1;
  }
  return 0;
}
