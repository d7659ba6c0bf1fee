// rt::ServeArrivals, the live front end every executor driver shares:
// the arrival -> task mapping lands each record and outcome at its
// task's TxnId, dependencies and timeouts reach the executor, control
// ticks fire on the accumulated grid with exactly the arrivals since
// the previous tick, and bad inputs come back as InvalidArgument before
// any thread starts.

#include "rt/serve.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/digest.h"
#include "sched/policy_factory.h"

namespace webtx::rt {
namespace {

std::unique_ptr<SchedulerPolicy> Policy(const char* spec = "FCFS") {
  auto created = CreatePolicy(spec);
  WEBTX_CHECK(created.ok()) << created.status();
  return std::move(created).ValueOrDie();
}

LiveArrival Arrival(double at, double duration, double weight = 1.0) {
  LiveArrival a;
  a.arrival = at;
  a.duration = duration;
  a.relative_deadline = 2.0 * duration;
  a.weight = weight;
  return a;
}

ExecutorOptions Workers(size_t n) {
  ExecutorOptions options;
  options.num_workers = n;
  return options;
}

void ExpectValid(const ServedRun& run) {
  const LiveValidationResult verdict = ValidateLiveTrace(
      run.trace, run.tasks, run.outcomes, run.stats, run.validator_options);
  EXPECT_TRUE(verdict.ok()) << verdict.violations.front();
}

TEST(ServeArrivalsTest, RecordsAndOutcomesSitAtTheirTxnId) {
  // Two workers, arrivals with ties and distinct weights, and a retry
  // budget that every record must carry.
  const std::vector<LiveArrival> arrivals = {
      Arrival(0.0, 0.3, 1.0), Arrival(0.05, 0.1, 2.0),
      Arrival(0.05, 0.2, 3.0), Arrival(0.4, 0.05, 4.0),
      Arrival(1.25, 0.1, 5.0)};
  const TaskRetry retry{3, 0.01, 1.5};
  auto served = ServeArrivals(Policy("EDF"), Workers(2), retry, arrivals);
  ASSERT_TRUE(served.ok()) << served.status();
  const ServedRun& run = served.ValueOrDie();
  ASSERT_EQ(run.tasks.size(), arrivals.size());
  ASSERT_EQ(run.outcomes.size(), arrivals.size());
  EXPECT_EQ(run.stats.submitted, arrivals.size());
  EXPECT_EQ(run.stats.completed, arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const LiveArrival& a = arrivals[i];
    const LiveTaskRecord& record = run.tasks[i];
    EXPECT_EQ(record.submit_seconds, a.arrival) << i;
    EXPECT_EQ(record.deadline_seconds, a.arrival + a.relative_deadline) << i;
    EXPECT_EQ(record.max_attempts, retry.max_attempts);
    EXPECT_EQ(record.retry_backoff, retry.backoff);
    EXPECT_EQ(record.backoff_multiplier, retry.backoff_multiplier);
    EXPECT_TRUE(record.simulated);
    EXPECT_TRUE(record.dependencies.empty());
    EXPECT_EQ(run.outcomes[i].submit_seconds, a.arrival) << i;
    EXPECT_EQ(run.outcomes[i].result, TaskResult::kCompleted) << i;
  }
  // The executor's own record of each submission agrees: task i was
  // submitted at its arrival instant with its weight.
  size_t submits = 0;
  for (const LiveTraceEvent& e : run.trace) {
    if (e.kind != LiveEventKind::kSubmit) continue;
    ++submits;
    ASSERT_LT(e.txn, arrivals.size());
    EXPECT_EQ(e.time, arrivals[e.txn].arrival);
    EXPECT_EQ(e.aux, DoubleBits(arrivals[e.txn].weight));
  }
  EXPECT_EQ(submits, arrivals.size());
  ExpectValid(run);
}

TEST(ServeArrivalsTest, DependencyAndTimeoutReachTheExecutor) {
  // Task 0 overruns its timeout on its only attempt, so task 1, which
  // depends on it, cascades. Task 3 depends on task 2 and runs after it.
  std::vector<LiveArrival> arrivals = {Arrival(0.0, 0.2), Arrival(0.01, 0.1),
                                       Arrival(0.02, 0.05),
                                       Arrival(0.03, 0.05)};
  arrivals[0].timeout = 0.05;
  arrivals[1].depends_on = 0;
  arrivals[3].depends_on = 2;
  auto served = ServeArrivals(Policy(), Workers(2), TaskRetry{}, arrivals);
  ASSERT_TRUE(served.ok()) << served.status();
  const ServedRun& run = served.ValueOrDie();
  EXPECT_EQ(run.outcomes[0].result, TaskResult::kTimedOut);
  EXPECT_EQ(run.outcomes[1].result, TaskResult::kDependencyFailed);
  EXPECT_EQ(run.outcomes[2].result, TaskResult::kCompleted);
  EXPECT_EQ(run.outcomes[3].result, TaskResult::kCompleted);
  EXPECT_EQ(run.tasks[1].dependencies, std::vector<TxnId>{0});
  EXPECT_EQ(run.tasks[3].dependencies, std::vector<TxnId>{2});
  // Task 3 started only once task 2 finished (without the dependency a
  // worker frees up for it at 0.05, before task 2 ends at 0.07).
  EXPECT_GE(run.outcomes[3].finish_seconds - run.outcomes[2].finish_seconds,
            arrivals[3].duration - 1e-9);
  EXPECT_EQ(run.stats.dropped_retries, 1u);
  EXPECT_EQ(run.stats.dropped_dependency, 1u);
  ExpectValid(run);
}

TEST(ServeArrivalsTest, TicksFireOnTheGridWithTheArrivalsSinceTheLastTick) {
  // One worker, FCFS. The arrival at 0.25 is due exactly at the first
  // tick and must be submitted before it; the last task runs from 0.6
  // to 1.1, so two ticks see no new arrivals before the run ends.
  const std::vector<LiveArrival> arrivals = {
      Arrival(0.1, 0.05), Arrival(0.25, 0.05), Arrival(0.3, 0.05),
      Arrival(0.6, 0.5)};
  const double interval = 0.25;
  struct Tick {
    double now = 0.0;
    std::vector<double> since_last;
    size_t unfinished = 0;
    size_t submitted = 0;
  };
  std::vector<Tick> ticks;
  ExecutorSnapshot snap;
  const ServeTickHook hook = [&](Executor& exec, size_t first, size_t end) {
    exec.SnapshotAtQuiescence(&snap);
    Tick tick;
    tick.now = snap.now;
    for (size_t i = first; i < end; ++i) {
      tick.since_last.push_back(arrivals[i].arrival);
    }
    tick.unfinished = snap.tasks.size();
    tick.submitted = snap.stats.submitted;
    ticks.push_back(std::move(tick));
  };
  auto served = ServeArrivals(Policy(), Workers(1), TaskRetry{}, arrivals,
                              interval, hook);
  ASSERT_TRUE(served.ok()) << served.status();
  ExpectValid(served.ValueOrDie());

  const std::vector<std::vector<double>> expected_windows = {
      {0.1, 0.25}, {0.3}, {0.6}, {}, {}};
  ASSERT_EQ(ticks.size(), expected_windows.size());
  double at = 0.0;
  size_t submitted = 0;
  for (size_t k = 0; k < ticks.size(); ++k) {
    at += interval;  // the grid accumulates by addition
    EXPECT_EQ(ticks[k].now, at) << "tick " << k;
    EXPECT_EQ(ticks[k].since_last, expected_windows[k]) << "tick " << k;
    submitted += expected_windows[k].size();
    EXPECT_EQ(ticks[k].submitted, submitted) << "tick " << k;
    // Ticks continue while work is unfinished or arrivals remain, and
    // stop at the first tick that finds every task terminal.
    const bool done = submitted == arrivals.size() && ticks[k].unfinished == 0;
    EXPECT_EQ(done, k + 1 == ticks.size()) << "tick " << k;
  }
}

TEST(ServeArrivalsTest, BadInputsAreInvalidArgumentsNamingTheCause) {
  const std::vector<LiveArrival> good = {Arrival(0.0, 0.1), Arrival(0.1, 0.1),
                                         Arrival(0.2, 0.1)};
  struct Row {
    const char* cause;
    std::vector<LiveArrival> arrivals;
    ExecutorOptions options;
    double tick_interval = 0.5;
  };
  std::vector<Row> rows;
  for (const int64_t bad : {int64_t{2}, int64_t{7}, int64_t{-2}}) {
    Row row{"depends_on", good, Workers(2)};
    row.arrivals[2].depends_on = bad;
    rows.push_back(row);
  }
  for (const double bad : {std::nan(""), 0.05,
                           std::numeric_limits<double>::infinity()}) {
    Row row{"arrival instants", good, Workers(2)};
    row.arrivals[2].arrival = bad;  // NaN, backwards, never
    rows.push_back(row);
  }
  {
    Row row{"watchdog_stall_seconds", good, Workers(2)};
    row.options.watchdog = true;
    row.options.watchdog_stall_seconds = std::nan("");
    rows.push_back(row);
  }
  {
    Row row{"mean_latency_spike", good, Workers(2)};
    row.options.faults.latency_spike_prob = 0.5;  // spikes of mean 0
    rows.push_back(row);
  }
  {
    Row row{"crash_rate", good, Workers(2)};
    row.options.faults.plan.crash_rate = std::nan("");
    rows.push_back(row);
  }
  for (const double bad : {0.0, std::numeric_limits<double>::infinity()}) {
    Row row{"tick_interval", good, Workers(2)};
    row.tick_interval = bad;
    rows.push_back(row);
  }
  {
    // Submit refuses a task with no work; the run still drains, shuts
    // down and returns Submit's status.
    Row row{"simulated_duration", good, Workers(2)};
    row.arrivals[1].duration = 0.0;
    rows.push_back(row);
  }
  const ServeTickHook idle = [](Executor&, size_t, size_t) {};
  for (const Row& row : rows) {
    const Status status = ServeArrivals(Policy(), row.options, TaskRetry{},
                                        row.arrivals, row.tick_interval, idle)
                              .status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << row.cause;
    EXPECT_NE(status.message().find(row.cause), std::string::npos)
        << row.cause << ": " << status;
  }
}

}  // namespace
}  // namespace webtx::rt
