// rt::ValidateLiveTrace unit tests. The validator is the chaos
// campaign's judge, so it has to (a) accept a genuine fault-seasoned
// executor run and (b) notice tampering with any of its inputs — a
// validator that cannot flag a corrupted trace would make the 200-case
// campaigns vacuous. Real runs come from the live chaos harness; the
// tamper tests mutate copies of one run.

#include <vector>

#include <gtest/gtest.h>

#include "exp/live_chaos.h"
#include "rt/live_trace.h"
#include "rt/live_validator.h"

namespace webtx {
namespace {

using rt::LiveEventKind;
using rt::LiveTraceEvent;
using rt::LiveValidationResult;
using rt::LiveValidatorOptions;

/// Fault-seasoned scenario: stalls (watchdog traffic), crashes
/// (failovers), forced aborts, timeouts, and retry backoff all active.
LiveChaosCase SeasonedCase() {
  LiveChaosCase c;
  c.workload_seed = 21;
  c.num_tasks = 60;
  c.mean_interarrival = 0.02;
  c.mean_duration = 0.08;
  c.deadline_slack = 2.0;
  c.timeout_prob = 0.2;
  c.num_workers = 3;
  c.policy = "EDF";
  c.faults.plan.outage_rate = 0.8;
  c.faults.plan.mean_outage_duration = 0.3;
  c.faults.plan.crash_rate = 0.6;
  c.faults.plan.mean_repair_duration = 0.4;
  c.faults.plan.abort_rate = 0.3;
  c.faults.plan.seed = 7;
  c.faults.latency_spike_prob = 0.2;
  c.faults.mean_latency_spike = 0.03;
  c.retry_max_attempts = 3;
  c.retry_backoff = 0.05;
  c.retry_backoff_multiplier = 2.0;
  c.retry_max_backoff = 0.1;
  c.watchdog = true;
  c.watchdog_stall_seconds = 0.05;
  return c;
}

LiveValidatorOptions OptionsFor(const LiveChaosCase& c) {
  LiveValidatorOptions options;
  options.watchdog = c.watchdog;
  options.watchdog_stall_seconds = c.watchdog_stall_seconds;
  options.retry_max_backoff = c.retry_max_backoff;
  return options;
}

LiveValidationResult Validate(const LiveChaosRun& run,
                              const LiveValidatorOptions& options) {
  return rt::ValidateLiveTrace(run.trace, run.tasks, run.outcomes, run.stats,
                               options);
}

class LiveValidatorTest : public ::testing::Test {
 protected:
  /// One shared genuine run; each test mutates its own copy.
  static void SetUpTestSuite() {
    auto run = RunLiveChaosCase(SeasonedCase());
    ASSERT_TRUE(run.ok()) << run.status();
    run_ = new LiveChaosRun(std::move(run).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete run_;
    run_ = nullptr;
  }

  static const LiveChaosRun& run() { return *run_; }

 private:
  static LiveChaosRun* run_;
};

LiveChaosRun* LiveValidatorTest::run_ = nullptr;

TEST_F(LiveValidatorTest, GenuineFaultSeasonedRunValidates) {
  // The scenario must actually exercise the machinery the validator
  // judges, or the acceptance below proves nothing.
  ASSERT_GT(run().stats.crashes, 0u);
  ASSERT_GT(run().stats.stalls, 0u);
  ASSERT_GT(run().stats.watchdog_failovers, 0u);
  ASSERT_GT(run().stats.retries_scheduled, 0u);

  const LiveValidationResult result =
      Validate(run(), OptionsFor(SeasonedCase()));
  EXPECT_TRUE(result.ok()) << result.violations.front();
  EXPECT_EQ(run().digest, rt::LiveTraceDigest(run().trace));
}

TEST_F(LiveValidatorTest, MissingTerminalEventIsFlagged) {
  LiveChaosRun tampered = run();
  for (size_t i = tampered.trace.size(); i-- > 0;) {
    if (tampered.trace[i].kind == LiveEventKind::kTerminal) {
      tampered.trace.erase(tampered.trace.begin() +
                           static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  EXPECT_FALSE(Validate(tampered, OptionsFor(SeasonedCase())).ok());
}

TEST_F(LiveValidatorTest, DuplicatedTerminalEventIsFlagged) {
  LiveChaosRun tampered = run();
  for (const LiveTraceEvent& event : run().trace) {
    if (event.kind == LiveEventKind::kTerminal) {
      tampered.trace.push_back(event);
      break;
    }
  }
  ASSERT_GT(tampered.trace.size(), run().trace.size());
  EXPECT_FALSE(Validate(tampered, OptionsFor(SeasonedCase())).ok());
}

TEST_F(LiveValidatorTest, InflatedCompletionCounterIsFlagged) {
  LiveChaosRun tampered = run();
  tampered.stats.completed += 1;
  EXPECT_FALSE(Validate(tampered, OptionsFor(SeasonedCase())).ok());
}

TEST_F(LiveValidatorTest, InflatedAttemptAccountingIsFlagged) {
  LiveChaosRun tampered = run();
  for (rt::TaskOutcome& outcome : tampered.outcomes) {
    if (outcome.finished && outcome.result == rt::TaskResult::kCompleted) {
      outcome.attempts += 1;
      break;
    }
  }
  EXPECT_FALSE(Validate(tampered, OptionsFor(SeasonedCase())).ok());
}

TEST_F(LiveValidatorTest, TamperedTardinessIsFlagged) {
  LiveChaosRun tampered = run();
  for (rt::TaskOutcome& outcome : tampered.outcomes) {
    if (outcome.finished && outcome.result == rt::TaskResult::kCompleted) {
      outcome.tardiness_seconds += 1.0;
      break;
    }
  }
  EXPECT_FALSE(Validate(tampered, OptionsFor(SeasonedCase())).ok());
}

TEST_F(LiveValidatorTest, WatchdogFailoversRequireTheWatchdogOption) {
  // The genuine run contains stall failovers; auditing it under
  // "watchdog disabled" options must reject them.
  ASSERT_GT(run().stats.watchdog_failovers, 0u);
  LiveValidatorOptions options = OptionsFor(SeasonedCase());
  options.watchdog = false;
  EXPECT_FALSE(Validate(run(), options).ok());
}

}  // namespace
}  // namespace webtx
