// live_ramp: rt::Executor on a VirtualClock under the ext_live_overload
// ramp (0.8x to 3.2x capacity), 2 workers, EDF, brownout admission,
// stall + crash faults with the watchdog on. See README.md.

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "percentile.h"
#include "rt/clock.h"
#include "rt/live_validator.h"
#include "sched/policy_factory.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace rt = webtx::rt;

constexpr size_t kWorkers = 2;
constexpr size_t kTasksPerStep = 1200;
/// Independent input sets (ramps) per run.
constexpr size_t kRamps = 4;
constexpr double kLoads[] = {0.8, 1.2, 1.6, 2.4, 3.2};
constexpr double kMeanDuration = 0.1;   // virtual seconds
constexpr double kDeadlineSlack = 2.5;  // deadline = duration * slack
constexpr int kSetupReps = 15;
/// p99 response limit for max_load_at_slo, in virtual seconds.
constexpr double kResponseLimit = 3.0;

/// SLA weight draw of ext_live_overload: 70% weight 1, 25% weight 4,
/// 5% weight 16.
double DrawWeight(webtx::Rng& rng) {
  const double u = rng.NextDouble();
  if (u < 0.70) return 1.0;
  if (u < 0.95) return 4.0;
  return 16.0;
}

rt::ExecutorOptions ExecutorOptionsFor(std::shared_ptr<rt::Clock> clock) {
  rt::ExecutorOptions options;
  options.num_workers = kWorkers;
  options.clock = std::move(clock);
  options.faults.plan.outage_rate = 0.05;
  options.faults.plan.mean_outage_duration = 0.5;
  options.faults.plan.crash_rate = 0.02;
  options.faults.plan.mean_repair_duration = 1.0;
  options.faults.plan.seed = 11;
  options.watchdog = true;
  options.watchdog_stall_seconds = 0.1;
  options.retry_max_backoff = 0.2;
  options.admission = webtx::MakeBrownoutAdmission();  // default knobs
  return options;
}

std::vector<rt::LiveTaskRecord> LiveRecordsOf(const LiveStep& step) {
  std::vector<rt::LiveTaskRecord> records;
  records.reserve(step.tasks.size());
  for (const LiveTask& task : step.tasks) {
    rt::LiveTaskRecord record;
    record.submit_seconds = task.arrival;
    record.deadline_seconds = task.arrival + task.duration * kDeadlineSlack;
    record.simulated = true;
    records.push_back(record);
  }
  return records;
}

rt::LiveValidatorOptions LiveValidatorOptionsFor() {
  const rt::ExecutorOptions options = ExecutorOptionsFor(nullptr);
  rt::LiveValidatorOptions v;
  v.watchdog = options.watchdog;
  v.watchdog_stall_seconds = options.watchdog_stall_seconds;
  v.retry_max_backoff = options.retry_max_backoff;
  return v;
}

uint64_t OutcomeDigest(const std::vector<rt::TaskOutcome>& outcomes) {
  uint64_t h = Fnv(kFnvBasis, outcomes.size());
  for (const rt::TaskOutcome& o : outcomes) {
    h = Fnv(h, static_cast<uint64_t>(o.result));
    h = Fnv(h, Bits(o.finish_seconds));
    h = Fnv(h, o.attempts);
    h = Fnv(h, o.migrations);
  }
  return h;
}

/// Totals over the executor runs of one measurement.
struct Totals {
  uint64_t passes = 0;
  double seconds = 0.0;
  std::vector<std::vector<double>> step_s;     // [pass][step]
  std::vector<std::vector<double>> submit_ms;  // [pass][submission]
  double drain_s = 0.0;
  double gen_late_s = 0.0;
  rt::ExecutorStats stats;  // summed counters
};

void Accumulate(const LiveRun& run, Totals& t) {
  t.seconds += run.wall_s;
  t.drain_s += run.drain_s;
  t.gen_late_s += run.gen_late_s;
  t.stats.submitted += run.stats.submitted;
  t.stats.completed += run.stats.completed;
  t.stats.shed_admission += run.stats.shed_admission;
  t.stats.attempts += run.stats.attempts;
  t.stats.migrations += run.stats.migrations;
  t.stats.retries_scheduled += run.stats.retries_scheduled;
}

/// Whole passes over every ramp step for `budget` seconds (at least one),
/// each run checked against the check pass's outcome digest.
Totals RunFor(const std::vector<LiveStep>& steps,
              const std::vector<uint64_t>& expected, double budget,
              SchedCounters* counters, SpanLog* spans, Result& result) {
  Totals t;
  const Clock::time_point start = Clock::now();
  while (t.passes == 0 || SecondsSince(start) < budget) {
    std::vector<double>& submit_ms = t.submit_ms.emplace_back();
    std::vector<double>& step_s = t.step_s.emplace_back();
    for (size_t i = 0; i < steps.size(); ++i) {
      const LiveRun run =
          RunLiveStep(steps[i], false, counters, &submit_ms, spans);
      result.Check(run.outcome_digest == expected[i],
                   "live_ramp: run outcomes differ from the check pass");
      Accumulate(run, t);
      step_s.push_back(run.wall_s);
    }
    ++t.passes;
  }
  return t;
}

struct CheckPass {
  std::vector<uint64_t> digests;  // per step
  OutcomeSummary summary;
  std::map<double, std::vector<double>> responses_by_load;  // lost = kLost
};

CheckPass CheckSteps(const std::vector<LiveStep>& steps, Result& result) {
  CheckPass pass;
  for (const LiveStep& step : steps) {
    const LiveRun run = RunLiveStep(step, true, nullptr, nullptr, nullptr);
    const rt::LiveValidationResult verdict =
        rt::ValidateLiveTrace(run.trace, LiveRecordsOf(step), run.outcomes,
                              run.stats, LiveValidatorOptionsFor());
    result.Check(verdict.ok(),
                 verdict.ok() ? "" : "live_ramp: " + verdict.violations[0]);
    pass.digests.push_back(run.outcome_digest);
    std::vector<double>& responses = pass.responses_by_load[step.load];
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
      const rt::TaskOutcome& o = run.outcomes[i];
      if (o.result != rt::TaskResult::kCompleted) {
        pass.summary.Lost();
        responses.push_back(kLost);
        continue;
      }
      const double response = o.finish_seconds - o.submit_seconds;
      pass.summary.Completed(response, o.tardiness_seconds,
                             o.tardiness_seconds * step.tasks[i].weight,
                             o.tardiness_seconds == 0.0);
      responses.push_back(response);
    }
  }
  return pass;
}

}  // namespace

std::vector<LiveStep> LiveRampInputs(uint64_t seed, size_t tasks_per_step) {
  std::vector<LiveStep> steps;
  for (size_t ramp = 0; ramp < kRamps; ++ramp) {
    for (size_t s = 0; s < std::size(kLoads); ++s) {
      LiveStep step;
      step.load = kLoads[s];
      webtx::Rng rng(SubSeed(seed, ramp * std::size(kLoads) + s));
      const double mean_gap =
          kMeanDuration / (step.load * static_cast<double>(kWorkers));
      double arrival = 0.0;
      step.tasks.reserve(tasks_per_step);
      for (size_t i = 0; i < tasks_per_step; ++i) {
        arrival += webtx::ExponentialDistribution(1.0 / mean_gap).Sample(rng);
        LiveTask task;
        task.arrival = arrival;
        task.duration =
            webtx::ExponentialDistribution(1.0 / kMeanDuration).Sample(rng);
        task.weight = DrawWeight(rng);
        step.tasks.push_back(task);
      }
      steps.push_back(std::move(step));
    }
  }
  return steps;
}

LiveRun RunLiveStep(const LiveStep& step, bool record_trace,
                    SchedCounters* counters, std::vector<double>* submit_ms,
                    SpanLog* spans) {
  auto clock = std::make_shared<rt::VirtualClock>();
  auto created = webtx::CreatePolicy("EDF");
  WEBTX_CHECK(created.ok()) << created.status().ToString();
  std::unique_ptr<webtx::SchedulerPolicy> policy =
      std::move(created).ValueOrDie();
  rt::ExecutorOptions options = ExecutorOptionsFor(clock);
  options.record_trace = record_trace;
  if (counters != nullptr) {
    policy = std::make_unique<TimedPolicy>(std::move(policy), counters);
    options.admission =
        TimedAdmissionFactory(std::move(options.admission), counters);
  }
  LiveRun run;
  const Clock::time_point start = Clock::now();
  {
    rt::Executor exec(std::move(policy), options);
    clock->RegisterParticipant();
    for (const LiveTask& task : step.tasks) {
      clock->SleepUntil(task.arrival, nullptr);
      run.gen_late_s += clock->Now() - task.arrival;
      rt::TaskSpec spec;
      spec.simulated_duration = task.duration;
      spec.estimated_cost = task.duration;
      spec.relative_deadline = task.duration * kDeadlineSlack;
      spec.weight = task.weight;
      const Clock::time_point submit_start = Clock::now();
      {
        ScopedSpan span(spans, "Submit");
        WEBTX_CHECK(exec.Submit(std::move(spec)).ok());
      }
      if (submit_ms != nullptr) {
        submit_ms->push_back(static_cast<double>(NanosSince(submit_start)) *
                             1e-6);
      }
    }
    const Clock::time_point drain_start = Clock::now();
    {
      ScopedSpan span(spans, "Drain");
      exec.Drain();
    }
    run.drain_s = SecondsSince(drain_start);
    exec.Shutdown();
    clock->DeregisterParticipant();
    run.trace = exec.TakeTrace();
    run.outcomes.reserve(step.tasks.size());
    for (webtx::TxnId id = 0; id < step.tasks.size(); ++id) {
      run.outcomes.push_back(exec.OutcomeOf(id));
    }
    run.stats = exec.stats();
  }
  run.wall_s = SecondsSince(start);
  run.outcome_digest = OutcomeDigest(run.outcomes);
  return run;
}

Result RunLiveRamp(const Args& args, SpanLog* spans) {
  // 2 workers + the executor's pump thread + this submitting thread.
  RequireThreads("live_ramp", kWorkers + 2);
  Result result;

  std::vector<LiveStep> steps;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    PinnedToCpu pin(static_cast<size_t>(rep));
    const Clock::time_point start = Clock::now();
    steps = LiveRampInputs(args.seed, kTasksPerStep);
    setup_s.push_back(SecondsSince(start));
  }

  // Untimed check passes, every step once with its trace recorded and
  // audited: the seeded steps give the digests every timed run must
  // reproduce, the pinned reference steps the (sim) metrics.
  const std::vector<uint64_t> expected = CheckSteps(steps, result).digests;
  CheckPass reference =
      CheckSteps(LiveRampInputs(kReferenceSeed, kTasksPerStep), result);

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  const Totals plain =
      RunFor(steps, expected, untraced_budget, nullptr, nullptr, result);
  const double passes = static_cast<double>(plain.passes);
  const double pass_time = FilteredPassTime(plain.step_s);
  const double txns_per_s =
      static_cast<double>(plain.stats.completed) / passes / pass_time;

  if (!args.trace) {
    result.Add("setup_s", LowerQuartile(setup_s), "s");
    result.Add("txns_per_s", txns_per_s, "1/s");
    result.Add("events_per_s",
               // Submissions plus attempt ends: the executor's
               // scheduling points.
               static_cast<double>(plain.stats.submitted +
                                   plain.stats.attempts) /
                   passes / pass_time,
               "1/s");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    // Each submission's lower-decile time across passes, then the
    // percentiles across submissions.
    EmitDecisionMs(result, PerUnitLowerDecile(plain.submit_ms));
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

  SchedCounters sched;
  const Totals traced =
      RunFor(steps, expected, args.seconds / 2, &sched, spans, result);
  const double n = static_cast<double>(traced.passes);
  std::map<std::string, double> layers;
  sched.EmitTo(layers, n);
  double submit_s = 0.0;
  for (const auto& pass : traced.submit_ms) {
    for (const double ms : pass) submit_s += ms * 1e-3;
  }
  layers["rt.exec.submit_calls"] =
      static_cast<double>(traced.stats.submitted) / n;
  layers["rt.exec.submit_s"] = submit_s / n;
  layers["rt.exec.drain_s"] = traced.drain_s / n;
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
  // Virtual seconds the open-loop generator submitted behind schedule.
  layers["rt.exec.gen_late_s"] = traced.gen_late_s / n;
  layers["trace.overhead_ratio"] = FilteredPassTime(traced.step_s) / pass_time;
  EmitLayers(result, layers);
  return result;
}

}  // namespace perfbench
