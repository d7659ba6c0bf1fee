// Quiescent-point introspection and online reconfiguration
// (Executor::SnapshotAtQuiescence / Executor::Reconfigure): the
// executor-side half of the digital-twin serving loop (rt/twin.h). A
// snapshot must expose every unfinished task with an honest state /
// residual, and a reconfiguration must swap the policy (and admission
// controller) without losing queued or in-flight work.

#include "rt/executor.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sched/admission.h"
#include "sched/policy_factory.h"

namespace webtx::rt {
namespace {

std::unique_ptr<SchedulerPolicy> Policy(const std::string& name) {
  auto policy = CreatePolicy(name);
  EXPECT_TRUE(policy.ok()) << policy.status();
  return std::move(policy).ValueOrDie();
}

TaskSpec Quick(std::function<void()> fn, double deadline = 5.0,
               double weight = 1.0, std::vector<TxnId> deps = {}) {
  TaskSpec task;
  task.relative_deadline = deadline;
  task.weight = weight;
  task.estimated_cost = 0.001;
  task.dependencies = std::move(deps);
  task.fn = std::move(fn);
  return task;
}

/// A task that spins until `gate` opens — holds its slot so the test
/// can inspect / reconfigure around a pinned in-flight attempt.
TaskSpec Blocker(std::atomic<bool>& gate, std::atomic<bool>* started = nullptr,
                 double deadline = 5.0) {
  return Quick(
      [&gate, started] {
        if (started != nullptr) started->store(true);
        while (!gate.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      deadline);
}

TEST(ExecutorReconfigureTest, SnapshotOfIdleExecutorIsEmpty) {
  ExecutorOptions options;
  options.num_workers = 3;
  Executor executor(Policy("EDF"), options);
  ExecutorSnapshot snap;
  executor.SnapshotAtQuiescence(&snap);
  EXPECT_EQ(snap.num_workers, 3u);
  EXPECT_EQ(snap.num_workers_up, 3u);
  EXPECT_TRUE(snap.tasks.empty());
  EXPECT_EQ(snap.stats.submitted, 0u);
  executor.Drain();
}

TEST(ExecutorReconfigureTest, SnapshotSeesEveryUnfinishedTaskState) {
  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  ExecutorOptions options;
  options.num_workers = 1;
  Executor executor(Policy("FCFS"), options);

  auto blocker = executor.Submit(Blocker(gate, &started));
  ASSERT_TRUE(blocker.ok());
  auto queued = executor.Submit(Quick([] {}));
  ASSERT_TRUE(queued.ok());
  auto dependent =
      executor.Submit(Quick([] {}, 5.0, 1.0, {queued.ValueOrDie()}));
  ASSERT_TRUE(dependent.ok());
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ExecutorSnapshot snap;
  executor.SnapshotAtQuiescence(&snap);
  ASSERT_EQ(snap.tasks.size(), 3u);
  // Ascending id, per the contract.
  EXPECT_EQ(snap.tasks[0].id, blocker.ValueOrDie());
  EXPECT_EQ(snap.tasks[0].state, SnapshotTaskState::kInFlight);
  EXPECT_EQ(snap.tasks[1].id, queued.ValueOrDie());
  EXPECT_EQ(snap.tasks[1].state, SnapshotTaskState::kReady);
  EXPECT_EQ(snap.tasks[2].id, dependent.ValueOrDie());
  EXPECT_EQ(snap.tasks[2].state, SnapshotTaskState::kWaitingDeps);
  ASSERT_EQ(snap.tasks[2].unfinished_dependencies.size(), 1u);
  EXPECT_EQ(snap.tasks[2].unfinished_dependencies[0], queued.ValueOrDie());
  // Residuals and deadlines are sane: positive remaining, absolute
  // deadlines at or after the snapshot instant minus nothing (they were
  // submitted with generous relative deadlines).
  for (const SnapshotTask& task : snap.tasks) {
    EXPECT_GT(task.remaining, 0.0);
    EXPECT_GE(task.deadline, snap.now);
    EXPECT_GE(task.release, snap.now);
  }

  gate.store(true);
  executor.Drain();
  // After the drain everything finished: a fresh snapshot is empty.
  executor.SnapshotAtQuiescence(&snap);
  EXPECT_TRUE(snap.tasks.empty());
  executor.Shutdown();
}

TEST(ExecutorReconfigureTest, ReconfigurePolicyReordersQueuedWork) {
  // Under FCFS the three queued tasks would run 1, 2, 3; switching to
  // EDF while they wait must re-rank them by deadline: 2, 3, 1.
  std::vector<int> order;
  std::mutex order_mu;
  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  ExecutorOptions options;
  options.num_workers = 1;
  Executor executor(Policy("FCFS"), options);
  ASSERT_TRUE(executor.Submit(Blocker(gate, &started)).ok());
  const auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  ASSERT_TRUE(executor.Submit(Quick(record(1), /*deadline=*/30.0)).ok());
  ASSERT_TRUE(executor.Submit(Quick(record(2), /*deadline=*/10.0)).ok());
  ASSERT_TRUE(executor.Submit(Quick(record(3), /*deadline=*/20.0)).ok());
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ReconfigureRequest request;
  request.policy = Policy("EDF");
  executor.Reconfigure(std::move(request));

  gate.store(true);
  executor.Drain();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
  executor.Shutdown();
}

TEST(ExecutorReconfigureTest, ReconfigureSwapsTheAdmissionController) {
  // Start with a depth-1 cap: with the worker pinned and one task
  // already queued, the next root arrival is shed at the door. Dropping
  // the controller via Reconfigure re-opens the gate.
  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  ExecutorOptions options;
  options.num_workers = 1;
  QueueDepthAdmissionOptions depth;
  depth.max_ready = 1;
  options.admission = MakeQueueDepthAdmission(depth);
  Executor executor(Policy("FCFS"), options);

  ASSERT_TRUE(executor.Submit(Blocker(gate, &started)).ok());
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto queued = executor.Submit(Quick([] {}));
  ASSERT_TRUE(queued.ok());
  auto shed = executor.Submit(Quick([] {}));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(executor.OutcomeOf(shed.ValueOrDie()).result,
            TaskResult::kShedAdmission);

  ReconfigureRequest request;
  request.replace_admission = true;  // null admission: admit everything
  executor.Reconfigure(std::move(request));
  auto admitted = executor.Submit(Quick([] {}));
  ASSERT_TRUE(admitted.ok());

  gate.store(true);
  executor.Drain();
  EXPECT_EQ(executor.OutcomeOf(queued.ValueOrDie()).result,
            TaskResult::kCompleted);
  EXPECT_EQ(executor.OutcomeOf(admitted.ValueOrDie()).result,
            TaskResult::kCompleted);
  executor.Shutdown();
}

TEST(ExecutorReconfigureTest, ReconfigureKeepsInFlightWorkAndOutcomes) {
  // The pinned attempt rides through a policy swap untouched and still
  // completes; nothing is double-counted.
  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  ExecutorOptions options;
  options.num_workers = 2;
  Executor executor(Policy("SRPT"), options);
  auto blocker = executor.Submit(Blocker(gate, &started));
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ReconfigureRequest request;
  request.policy = Policy("HDF");
  executor.Reconfigure(std::move(request));

  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(executor.Submit(Quick([&] { ++counter; })).ok());
  }
  gate.store(true);
  executor.Drain();
  EXPECT_EQ(counter.load(), 10);
  EXPECT_EQ(executor.finished_count(), 11u);
  EXPECT_EQ(executor.OutcomeOf(blocker.ValueOrDie()).result,
            TaskResult::kCompleted);
  EXPECT_EQ(executor.OutcomeOf(blocker.ValueOrDie()).attempts, 1u);
  executor.Shutdown();
}

}  // namespace
}  // namespace webtx::rt
