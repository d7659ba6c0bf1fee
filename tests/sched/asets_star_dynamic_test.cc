// Dynamic-arrival edge cases for ASETS*: members of a workflow entering
// the system out of dependency order, workflows flickering between
// active and inactive, and representative updates racing migrations.
// These run through the full simulator so event ordering is realistic.

#include <gtest/gtest.h>

#include "sched/policies/asets_star.h"
#include "sim/schedule_validator.h"
#include "sim/simulator.h"
#include "testing/fake_view.h"

namespace webtx {
namespace {

using testing::FakeView;
using testing::Txn;

RunResult Simulate(std::vector<TransactionSpec> txns) {
  SimOptions options;
  options.record_schedule = true;
  auto sim = Simulator::Create(std::move(txns), options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  AsetsStarPolicy policy;
  return sim.ValueOrDie().Run(policy);
}

TEST(AsetsStarDynamicTest, DependentArrivingBeforePredecessor) {
  // T1 (dependent) arrives at 0, its predecessor T0 only at 10. The
  // workflow has no ready member until then; an unrelated transaction
  // keeps the server busy.
  const std::vector<TransactionSpec> txns = {
      Txn(0, 10, 3, 20),             // predecessor, late arrival
      Txn(1, 0, 2, 16, 1.0, {0}),    // dependent, early arrival
      Txn(2, 0, 4, 30),              // filler
  };
  const RunResult r = Simulate(txns);
  EXPECT_TRUE(ValidateSchedule(txns, r, 1).ok());
  // T2 starts first (only ready work); T0 preempts or follows at 10 and
  // T1 runs right after T0 (its workflow rep is the most urgent).
  EXPECT_GE(r.outcomes[1].finish, r.outcomes[0].finish + 2.0 - 1e-9);
  EXPECT_EQ(r.outcomes[0].finish, 13.0);  // T0 runs [10,13]
  EXPECT_EQ(r.outcomes[1].finish, 15.0);
}

TEST(AsetsStarDynamicTest, WorkflowReactivatesAsMembersArrive) {
  // A three-member chain arriving in reverse dependency order with gaps.
  const std::vector<TransactionSpec> txns = {
      Txn(0, 8, 2, 40),              // leaf arrives last
      Txn(1, 4, 2, 30, 1.0, {0}),
      Txn(2, 0, 2, 20, 1.0, {1}),
  };
  const RunResult r = Simulate(txns);
  EXPECT_TRUE(ValidateSchedule(txns, r, 1).ok());
  EXPECT_EQ(r.outcomes[0].finish, 10.0);
  EXPECT_EQ(r.outcomes[1].finish, 12.0);
  EXPECT_EQ(r.outcomes[2].finish, 14.0);
}

TEST(AsetsStarDynamicTest, UrgentLateArrivalBoostsSharedLeaf) {
  // The shared leaf T0 feeds a relaxed root T1 and (arriving later) a
  // very urgent root T2. Before T2 arrives, the filler T3 outranks the
  // workflow; T2's arrival must flip the decision toward T0 via the
  // representative deadline.
  const std::vector<TransactionSpec> txns = {
      Txn(0, 0, 6, 50),
      Txn(1, 0, 4, 60, 1.0, {0}),
      Txn(2, 2, 1, 12, 1.0, {0}),   // urgent dependent arrives at 2
      Txn(3, 0, 5, 20),             // filler, earliest own deadline at t=0
  };
  const RunResult r = Simulate(txns);
  EXPECT_TRUE(ValidateSchedule(txns, r, 1).ok());
  // With the boost, T0 must displace the filler soon after t=2 so that
  // T2 can meet (or nearly meet) its deadline of 12.
  EXPECT_LE(r.outcomes[2].finish, 12.0 + 1e-9);
}

TEST(AsetsStarDynamicTest, TardyWorkflowStillDrainsInDensityOrder) {
  // Two single-member workflows, both hopeless; higher density first.
  const std::vector<TransactionSpec> txns = {
      Txn(0, 0, 8, 1, 1.0),   // density 1/8
      Txn(1, 0, 4, 1, 4.0),   // density 1
  };
  const RunResult r = Simulate(txns);
  EXPECT_EQ(r.outcomes[1].finish, 4.0);
  EXPECT_EQ(r.outcomes[0].finish, 12.0);
}

TEST(AsetsStarDynamicTest, CompletedWorkflowLeavesNoResidue) {
  // After a workflow fully completes, later arrivals must schedule
  // normally (no stale list entries). The chain completes before the
  // second batch arrives.
  const std::vector<TransactionSpec> txns = {
      Txn(0, 0, 1, 5),
      Txn(1, 0, 1, 6, 1.0, {0}),
      Txn(2, 10, 2, 14),
      Txn(3, 10, 1, 13),
  };
  const RunResult r = Simulate(txns);
  EXPECT_TRUE(ValidateSchedule(txns, r, 1).ok());
  EXPECT_EQ(r.outcomes[0].finish, 1.0);
  EXPECT_EQ(r.outcomes[1].finish, 2.0);
  // Second batch: both can meet their deadlines; EDF order runs T3 first.
  EXPECT_EQ(r.outcomes[3].finish, 11.0);
  EXPECT_EQ(r.outcomes[2].finish, 13.0);
}

TEST(AsetsStarDynamicTest, SnapshotTracksArrivalsIncrementally) {
  // Direct policy-level check that arrivals refresh representatives.
  FakeView view({Txn(0, 0, 5, 40), Txn(1, 0, 2, 9, 6.0, {0})});
  view.Arrive(0);
  AsetsStarPolicy policy;
  policy.Bind(view);
  policy.OnArrival(0, 0.0);
  policy.OnReady(0, 0.0);
  auto before = policy.SnapshotOf(0);
  EXPECT_EQ(before.rep_deadline, 40.0);
  EXPECT_EQ(before.rep_weight, 1.0);

  view.Arrive(1);
  policy.OnArrival(1, 1.0);
  auto after = policy.SnapshotOf(0);
  EXPECT_EQ(after.rep_deadline, 9.0);
  EXPECT_EQ(after.rep_weight, 6.0);
  EXPECT_EQ(after.rep_remaining, 2.0);
  EXPECT_EQ(after.head, 0u);
}

}  // namespace
}  // namespace webtx
