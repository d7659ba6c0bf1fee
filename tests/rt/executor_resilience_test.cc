// rt::Executor resilience tests under the VirtualClock: deterministic
// replayable timelines, warm/cold crash failover, the stall watchdog,
// retry-storm suppression (backoff clamp + global budget), forced
// aborts, and brownout admission — each scenario audited end to end by
// the live validator against harness-side ground truth.

#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "rt/clock.h"
#include "rt/executor.h"
#include "rt/live_trace.h"
#include "rt/live_validator.h"
#include "sched/admission.h"
#include "sched/policy_factory.h"

namespace webtx::rt {
namespace {

/// One executor run plus the ground truth the validator audits against.
struct RunRecord {
  std::vector<LiveTraceEvent> trace;
  std::vector<LiveTaskRecord> tasks;
  std::vector<TaskOutcome> outcomes;
  ExecutorStats stats;
};

std::unique_ptr<Executor> MakeExecutor(const ExecutorOptions& options,
                                       const std::string& policy = "EDF") {
  auto created = CreatePolicy(policy);
  WEBTX_CHECK(created.ok()) << created.status();
  return std::make_unique<Executor>(std::move(created).ValueOrDie(), options);
}

/// Submits `spec` and mirrors it into the ground-truth record list.
TxnId SubmitTracked(Executor& exec, const Clock& clock,
                    std::vector<LiveTaskRecord>& tasks, const TaskSpec& spec) {
  LiveTaskRecord record;
  record.submit_seconds = clock.Now();
  record.deadline_seconds = record.submit_seconds + spec.relative_deadline;
  record.max_attempts = spec.max_attempts;
  record.retry_backoff = spec.retry_backoff_seconds;
  record.backoff_multiplier = spec.backoff_multiplier;
  record.simulated = spec.simulated_duration > 0.0;
  record.dependencies = spec.dependencies;
  tasks.push_back(record);
  auto id = exec.Submit(spec);
  WEBTX_CHECK(id.ok()) << id.status();
  return id.ValueOrDie();
}

/// Drains the executor to quiescence and collects the run record.
RunRecord FinishRun(Executor& exec, std::vector<LiveTaskRecord> tasks) {
  exec.Drain();
  exec.Shutdown();
  RunRecord run;
  run.trace = exec.TakeTrace();
  run.tasks = std::move(tasks);
  run.outcomes.reserve(run.tasks.size());
  for (TxnId id = 0; id < run.tasks.size(); ++id) {
    run.outcomes.push_back(exec.OutcomeOf(id));
  }
  run.stats = exec.stats();
  return run;
}

void ExpectValid(const RunRecord& run, const ExecutorOptions& options) {
  LiveValidatorOptions validator;
  validator.watchdog = options.watchdog;
  validator.watchdog_stall_seconds = options.watchdog_stall_seconds;
  validator.retry_max_backoff = options.retry_max_backoff;
  const LiveValidationResult result = ValidateLiveTrace(
      run.trace, run.tasks, run.outcomes, run.stats, validator);
  EXPECT_TRUE(result.ok()) << result.violations.front();
}

void ExpectPartition(const RunRecord& run) {
  EXPECT_EQ(run.stats.completed + run.stats.shed_admission +
                run.stats.shed_shutdown + run.stats.dropped_retries +
                run.stats.dropped_dependency,
            run.stats.submitted);
}

TEST(ExecutorResilienceTest, FaultSeasonedTimelineIsDigestStable) {
  // The replayability contract at the executor level: same seed, same
  // submissions, same virtual timeline — twice.
  auto run_once = [] {
    ExecutorOptions options;
    options.num_workers = 3;
    auto clock = std::make_shared<VirtualClock>();
    options.clock = clock;
    options.faults.plan.outage_rate = 0.4;
    options.faults.plan.mean_outage_duration = 0.3;
    options.faults.plan.crash_rate = 0.3;
    options.faults.plan.mean_repair_duration = 0.5;
    options.faults.plan.abort_rate = 0.2;
    options.faults.plan.seed = 17;
    options.faults.latency_spike_prob = 0.3;
    options.faults.mean_latency_spike = 0.05;
    options.watchdog = true;
    options.watchdog_stall_seconds = 0.05;
    options.retry_max_backoff = 0.15;
    options.retry_budget = 4;
    options.record_trace = true;
    auto exec = MakeExecutor(options);

    std::vector<LiveTaskRecord> tasks;
    clock->RegisterParticipant();
    for (size_t i = 0; i < 40; ++i) {
      clock->SleepUntil(0.02 * static_cast<double>(i + 1), nullptr);
      TaskSpec spec;
      spec.simulated_duration = 0.05 + 0.01 * static_cast<double>(i % 5);
      spec.estimated_cost = spec.simulated_duration;
      spec.relative_deadline = 0.4;
      if (i % 4 == 0) spec.timeout_seconds = 0.06;
      spec.max_attempts = 3;
      spec.retry_backoff_seconds = 0.04;
      spec.backoff_multiplier = 2.0;
      SubmitTracked(*exec, *clock, tasks, spec);
    }
    const RunRecord run = FinishRun(*exec, std::move(tasks));
    clock->DeregisterParticipant();
    ExpectValid(run, options);
    ExpectPartition(run);
    return LiveTraceDigest(run.trace);
  };
  const uint64_t first = run_once();
  const uint64_t second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, 0u);
}

/// Shared scenario of the warm/cold comparison: one long simulated task
/// exposed to a crash-heavy timeline on two slots.
RunRecord FailoverRun(MigrationPolicy migration, double* finish_seconds) {
  ExecutorOptions options;
  options.num_workers = 2;
  auto clock = std::make_shared<VirtualClock>();
  options.clock = clock;
  options.faults.plan.crash_rate = 0.4;
  options.faults.plan.mean_repair_duration = 0.5;
  options.faults.plan.seed = 23;
  options.migration = migration;
  options.record_trace = true;
  auto exec = MakeExecutor(options);

  std::vector<LiveTaskRecord> tasks;
  clock->RegisterParticipant();
  TaskSpec spec;
  spec.simulated_duration = 10.0;
  spec.estimated_cost = 10.0;
  spec.relative_deadline = 60.0;
  const TxnId id = SubmitTracked(*exec, *clock, tasks, spec);
  RunRecord run = FinishRun(*exec, std::move(tasks));
  clock->DeregisterParticipant();
  ExpectValid(run, options);
  *finish_seconds = run.outcomes[id].finish_seconds;
  return run;
}

TEST(ExecutorResilienceTest, WarmFailoverRetainsExecutedWork) {
  double warm_finish = 0.0;
  const RunRecord warm = FailoverRun(MigrationPolicy::kWarm, &warm_finish);
  ASSERT_GT(warm.stats.crashes, 0u);
  ASSERT_GT(warm.stats.migrations, 0u);
  EXPECT_EQ(warm.outcomes[0].result, TaskResult::kCompleted);
  // Failovers never charge the attempt budget.
  EXPECT_EQ(warm.outcomes[0].attempts, 1u);
  EXPECT_GT(warm.outcomes[0].migrations, 0u);
  EXPECT_GE(warm_finish, 10.0);

  double cold_finish = 0.0;
  const RunRecord cold = FailoverRun(MigrationPolicy::kCold, &cold_finish);
  ASSERT_GT(cold.stats.migrations, 0u);
  EXPECT_EQ(cold.outcomes[0].result, TaskResult::kCompleted);
  EXPECT_EQ(cold.outcomes[0].attempts, 1u);
  // Cold restarts from zero at every failover; the same crash timeline
  // therefore finishes strictly later than warm's work-retaining runs.
  EXPECT_GT(cold_finish, warm_finish);
}

TEST(ExecutorResilienceTest, WatchdogFailsOverStalledSlots) {
  auto run_with_watchdog = [](bool watchdog) {
    ExecutorOptions options;
    options.num_workers = 2;
    auto clock = std::make_shared<VirtualClock>();
    options.clock = clock;
    options.faults.plan.outage_rate = 0.6;
    options.faults.plan.mean_outage_duration = 0.4;
    options.faults.plan.seed = 29;
    options.watchdog = watchdog;
    options.watchdog_stall_seconds = watchdog ? 0.05 : 0.0;
    options.record_trace = true;
    auto exec = MakeExecutor(options);

    std::vector<LiveTaskRecord> tasks;
    clock->RegisterParticipant();
    for (size_t i = 0; i < 12; ++i) {
      clock->SleepUntil(0.1 * static_cast<double>(i + 1), nullptr);
      TaskSpec spec;
      spec.simulated_duration = 0.3;
      spec.estimated_cost = 0.3;
      spec.relative_deadline = 5.0;
      SubmitTracked(*exec, *clock, tasks, spec);
    }
    RunRecord run = FinishRun(*exec, std::move(tasks));
    clock->DeregisterParticipant();
    ExpectValid(run, options);
    ExpectPartition(run);
    return run;
  };

  const RunRecord with = run_with_watchdog(true);
  ASSERT_GT(with.stats.stalls, 0u);
  EXPECT_GT(with.stats.watchdog_failovers, 0u);
  EXPECT_EQ(with.stats.completed, 12u);

  const RunRecord without = run_with_watchdog(false);
  ASSERT_GT(without.stats.stalls, 0u);
  EXPECT_EQ(without.stats.watchdog_failovers, 0u);
  // No crashes in this plan: with the watchdog off nothing migrates;
  // in-flight attempts ride the stall windows out and still finish.
  EXPECT_EQ(without.stats.migrations, 0u);
  EXPECT_EQ(without.stats.completed, 12u);
}

TEST(ExecutorResilienceTest, RetryStormSuppressionClampsBackoffGrowth) {
  ExecutorOptions options;
  options.num_workers = 2;
  auto clock = std::make_shared<VirtualClock>();
  options.clock = clock;
  options.retry_max_backoff = 0.1;
  options.record_trace = true;
  auto exec = MakeExecutor(options);

  constexpr size_t kTasks = 6;
  std::vector<LiveTaskRecord> tasks;
  clock->RegisterParticipant();
  for (size_t i = 0; i < kTasks; ++i) {
    clock->SleepUntil(0.01 * static_cast<double>(i + 1), nullptr);
    TaskSpec spec;
    // Timeout strictly under the duration: every attempt times out.
    spec.simulated_duration = 0.2;
    spec.estimated_cost = 0.2;
    spec.timeout_seconds = 0.02;
    spec.relative_deadline = 5.0;
    spec.max_attempts = 4;
    spec.retry_backoff_seconds = 0.05;
    spec.backoff_multiplier = 8.0;  // 0.05, 0.4, 3.2 unclamped
    SubmitTracked(*exec, *clock, tasks, spec);
  }
  RunRecord run = FinishRun(*exec, std::move(tasks));
  clock->DeregisterParticipant();
  ExpectValid(run, options);

  // Per task: three retries scheduled, the second and third clamped at
  // the 0.1s ceiling.
  EXPECT_EQ(run.stats.retries_scheduled, kTasks * 3);
  EXPECT_EQ(run.stats.retry_storm_suppressed, kTasks * 2);
  for (const TaskOutcome& outcome : run.outcomes) {
    EXPECT_EQ(outcome.result, TaskResult::kTimedOut);
    EXPECT_EQ(outcome.attempts, 4u);
  }
  EXPECT_EQ(run.stats.dropped_retries, kTasks);
}

TEST(ExecutorResilienceTest, GlobalRetryBudgetShedsOverflowingRetries) {
  ExecutorOptions options;
  options.num_workers = 2;
  auto clock = std::make_shared<VirtualClock>();
  options.clock = clock;
  options.retry_budget = 1;  // a second concurrent backoff is refused
  options.record_trace = true;
  auto exec = MakeExecutor(options);

  constexpr size_t kTasks = 8;
  std::vector<LiveTaskRecord> tasks;
  clock->RegisterParticipant();
  for (size_t i = 0; i < kTasks; ++i) {
    clock->SleepUntil(0.01 * static_cast<double>(i + 1), nullptr);
    TaskSpec spec;
    // Timeout strictly under the duration: every attempt times out.
    spec.simulated_duration = 0.2;
    spec.estimated_cost = 0.2;
    spec.timeout_seconds = 0.02;
    spec.relative_deadline = 5.0;
    spec.max_attempts = 3;
    spec.retry_backoff_seconds = 0.5;  // long: backoffs overlap failures
    SubmitTracked(*exec, *clock, tasks, spec);
  }
  RunRecord run = FinishRun(*exec, std::move(tasks));
  clock->DeregisterParticipant();
  ExpectValid(run, options);
  ExpectPartition(run);

  EXPECT_GT(run.stats.retries_dropped_budget, 0u);
  EXPECT_EQ(run.stats.dropped_retries, kTasks);
  bool saw_truncated = false;
  for (const TaskOutcome& outcome : run.outcomes) {
    EXPECT_EQ(outcome.result, TaskResult::kTimedOut);
    saw_truncated = saw_truncated || outcome.attempts < 3;
  }
  EXPECT_TRUE(saw_truncated) << "budget never cut a retry chain short";
}

TEST(ExecutorResilienceTest, ForcedAbortsAreAbsorbedAndRetried) {
  ExecutorOptions options;
  options.num_workers = 2;
  auto clock = std::make_shared<VirtualClock>();
  options.clock = clock;
  options.faults.plan.abort_rate = 1.0;
  options.faults.plan.seed = 31;
  options.record_trace = true;
  auto exec = MakeExecutor(options);

  constexpr size_t kTasks = 10;
  std::vector<LiveTaskRecord> tasks;
  clock->RegisterParticipant();
  for (size_t i = 0; i < kTasks; ++i) {
    clock->SleepUntil(0.05 * static_cast<double>(i + 1), nullptr);
    TaskSpec spec;
    spec.simulated_duration = 0.5;
    spec.estimated_cost = 0.5;
    spec.relative_deadline = 10.0;
    spec.max_attempts = 5;
    spec.retry_backoff_seconds = 0.02;
    SubmitTracked(*exec, *clock, tasks, spec);
  }
  RunRecord run = FinishRun(*exec, std::move(tasks));
  clock->DeregisterParticipant();
  ExpectValid(run, options);
  ExpectPartition(run);

  ASSERT_GT(run.stats.forced_aborts, 0u);
  uint32_t outcome_aborts = 0;
  for (const TaskOutcome& outcome : run.outcomes) {
    outcome_aborts += outcome.forced_aborts;
  }
  EXPECT_EQ(outcome_aborts, run.stats.forced_aborts);
}

TEST(ExecutorResilienceTest, BrownoutAdmissionShedsUnderSustainedOverload) {
  ExecutorOptions options;
  options.num_workers = 1;
  auto clock = std::make_shared<VirtualClock>();
  options.clock = clock;
  BrownoutAdmissionOptions brownout;
  brownout.tardiness_slo = 0.05;
  brownout.depth_slo = 4.0;
  brownout.ewma_alpha = 0.5;
  brownout.weight_tiers = {2.0, 8.0};
  options.admission = MakeBrownoutAdmission(brownout);
  options.record_trace = true;
  auto exec = MakeExecutor(options);

  // 3x overload on one worker: tardiness and queue depth both blow
  // through their SLOs, so low-weight arrivals get shed while heavy
  // ones keep being admitted.
  constexpr size_t kTasks = 40;
  std::vector<LiveTaskRecord> tasks;
  clock->RegisterParticipant();
  for (size_t i = 0; i < kTasks; ++i) {
    clock->SleepUntil(0.05 * static_cast<double>(i + 1), nullptr);
    TaskSpec spec;
    spec.simulated_duration = 0.15;
    spec.estimated_cost = 0.15;
    spec.relative_deadline = 0.2;
    spec.weight = (i % 2 == 0) ? 1.0 : 16.0;
    SubmitTracked(*exec, *clock, tasks, spec);
  }
  RunRecord run = FinishRun(*exec, std::move(tasks));
  clock->DeregisterParticipant();
  ExpectValid(run, options);
  ExpectPartition(run);

  ASSERT_GT(run.stats.shed_admission, 0u);
  EXPECT_GT(run.stats.completed, 0u);
  EXPECT_GT(run.stats.tardiness_ewma, 0.0);
  // Shedding is weight-ordered: every admission shed hit a light task.
  double shed_light = 0, shed_heavy = 0;
  for (size_t i = 0; i < kTasks; ++i) {
    if (run.outcomes[i].result == TaskResult::kShedAdmission) {
      ((i % 2 == 0) ? shed_light : shed_heavy) += 1;
    }
  }
  EXPECT_GT(shed_light, 0);
  EXPECT_EQ(shed_heavy, 0);
}

}  // namespace
}  // namespace webtx::rt
