#include "sched/policies/asets_star.h"

#include <gtest/gtest.h>

#include "testing/fake_view.h"

namespace webtx {
namespace {

using testing::FakeView;
using testing::Txn;

// One chain workflow T0 -> T1 -> T2 with contrasting parameters:
//   T0: r=4, d=30, w=1 (leaf/head)
//   T1: r=2, d=8,  w=5 (urgent, valuable, waiting)
//   T2: r=6, d=40, w=2 (root, waiting)
std::vector<TransactionSpec> Chain() {
  return {Txn(0, 0, 4, 30, 1.0), Txn(1, 0, 2, 8, 5.0, {0}),
          Txn(2, 0, 6, 40, 2.0, {1})};
}

TEST(AsetsStarTest, RepresentativeAggregatesPerDefinition9) {
  FakeView view(Chain());
  view.ArriveAll();
  AsetsStarPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnArrival(id, 0.0);
  policy.OnReady(0, 0.0);

  const auto snap = policy.SnapshotOf(0);
  EXPECT_TRUE(snap.active);
  EXPECT_EQ(snap.head, 0u);             // the only ready member
  EXPECT_EQ(snap.rep_deadline, 8.0);    // min deadline (T1)
  EXPECT_EQ(snap.rep_remaining, 2.0);   // min remaining (T1)
  EXPECT_EQ(snap.rep_weight, 5.0);      // max weight (T1)
}

TEST(AsetsStarTest, RepresentativeExcludesFinishedMembers) {
  FakeView view(Chain());
  view.ArriveAll();
  AsetsStarPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnArrival(id, 0.0);
  policy.OnReady(0, 0.0);

  view.Finish(0);
  policy.OnCompletion(0, 4.0);
  policy.OnReady(1, 4.0);
  view.Finish(1);
  policy.OnCompletion(1, 6.0);
  policy.OnReady(2, 6.0);

  const auto snap = policy.SnapshotOf(0);
  EXPECT_EQ(snap.head, 2u);
  EXPECT_EQ(snap.rep_deadline, 40.0);
  EXPECT_EQ(snap.rep_remaining, 6.0);
  EXPECT_EQ(snap.rep_weight, 2.0);
}

TEST(AsetsStarTest, RepresentativeExcludesUnarrivedMembers) {
  FakeView view(Chain());
  view.Arrive(0);  // T1, T2 not in the system yet
  AsetsStarPolicy policy;
  policy.Bind(view);
  policy.OnArrival(0, 0.0);
  policy.OnReady(0, 0.0);

  const auto snap = policy.SnapshotOf(0);
  EXPECT_EQ(snap.rep_deadline, 30.0);
  EXPECT_EQ(snap.rep_remaining, 4.0);
  EXPECT_EQ(snap.rep_weight, 1.0);
}

TEST(AsetsStarTest, WorkflowWithNoReadyMemberIsInactive) {
  // Only the dependent members arrived; the workflow cannot run.
  FakeView view(Chain());
  view.Arrive(1);
  view.Arrive(2);
  AsetsStarPolicy policy;
  policy.Bind(view);
  policy.OnArrival(1, 0.0);
  policy.OnArrival(2, 0.0);

  EXPECT_FALSE(policy.SnapshotOf(0).active);
  EXPECT_EQ(policy.PickNext(0.0), kInvalidTxn);
}

TEST(AsetsStarTest, UrgentDependentBoostsHeadIntoHdfList) {
  // The workflow's representative (T1: r=2, d=8) can still make it at t=0
  // (0+2 <= 8) -> EDF-List despite the head's own loose deadline.
  FakeView view(Chain());
  view.ArriveAll();
  AsetsStarPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnArrival(id, 0.0);
  policy.OnReady(0, 0.0);
  EXPECT_EQ(policy.edf_list_size(), 1u);

  // By t=7 the representative is doomed (7+2 > 8): migrate to HDF-List.
  EXPECT_EQ(policy.PickNext(7.0), 0u);
  EXPECT_EQ(policy.edf_list_size(), 0u);
  EXPECT_EQ(policy.hdf_list_size(), 1u);
}

TEST(AsetsStarTest, PaperExample4WorkflowDecision) {
  // Example 4 (Fig. 6) by its formula: impact(K_A) = r_head,A - s_rep,B,
  // impact(K_B) = r_head,B - s_rep,A with s_rep,A = 0.
  // K_A (EDF side): head r=2; rep can exactly meet its deadline (slack 0).
  //   T0 head: r=2, d=2 (slack 0 at t=0); T1 dependent: r=4, d=20, so the
  //   rep is (d=2, r=2) -> slack 0, in EDF-List.
  // K_B (SRPT side): head r=3, tardy rep -> in HDF-List.
  //   T2 head: r=3, d=1 (tardy); T3 dependent: r=5, d=30.
  // impact(K_A) = 2 - 0 = 2 (B's rep slack clamps to 0);
  // impact(K_B) = 3 - 0 = 3 -> K_A's head (T0) runs, as in the paper.
  FakeView view({Txn(0, 0, 2, 2), Txn(1, 0, 4, 20, 1.0, {0}),
                 Txn(2, 0, 3, 1), Txn(3, 0, 5, 30, 1.0, {2})});
  view.ArriveAll();
  AsetsStarPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 4; ++id) policy.OnArrival(id, 0.0);
  policy.OnReady(0, 0.0);
  policy.OnReady(2, 0.0);
  EXPECT_EQ(policy.edf_list_size(), 1u);
  EXPECT_EQ(policy.hdf_list_size(), 1u);
  EXPECT_EQ(policy.PickNext(0.0), 0u);
}

TEST(AsetsStarTest, WeightedImpactFollowsFigure7) {
  // EDF-side workflow has weight 1; HDF-side carries weight 10 via its
  // dependent. impact(EDF) = r_head,EDF * w_HDF = 2 * 10 = 20;
  // impact(HDF) = (r_head,HDF - s_rep,EDF) * w_EDF = (4 - 1) * 1 = 3
  // -> run the HDF head.
  FakeView view({Txn(0, 0, 2, 3, 1.0),                 // EDF wf, slack 1
                 Txn(1, 0, 4, 1, 1.0),                 // HDF head, tardy
                 Txn(2, 0, 3, 2, 10.0, {1})});         // heavy dependent
  view.ArriveAll();
  AsetsStarPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnArrival(id, 0.0);
  policy.OnReady(0, 0.0);
  policy.OnReady(1, 0.0);
  // HDF workflow: rep_remaining = min(4,3) = 3, rep_deadline = 1 -> tardy.
  EXPECT_EQ(policy.PickNext(0.0), 1u);
}

TEST(AsetsStarTest, HeadSelectionRules) {
  // Two independent roots merged... simpler: one workflow, two ready
  // members via a diamond: T0, T1 ready; T2 depends on both.
  const std::vector<TransactionSpec> txns = {
      Txn(0, 0, 6, 50),       // later deadline, longer
      Txn(1, 2, 3, 20),       // earlier deadline, shorter, later arrival
      Txn(2, 0, 2, 60, 1.0, {0, 1})};
  {
    FakeView view(txns);
    view.ArriveAll();
    AsetsStarPolicy policy;  // default: earliest deadline
    policy.Bind(view);
    for (TxnId id = 0; id < 3; ++id) policy.OnArrival(id, 0.0);
    EXPECT_EQ(policy.SnapshotOf(0).head, 1u);
  }
  {
    FakeView view(txns);
    view.ArriveAll();
    AsetsStarOptions options;
    options.head_rule = HeadSelectionRule::kShortestRemaining;
    AsetsStarPolicy policy(options);
    policy.Bind(view);
    for (TxnId id = 0; id < 3; ++id) policy.OnArrival(id, 0.0);
    EXPECT_EQ(policy.SnapshotOf(0).head, 1u);  // r=3 < r=6
  }
  {
    FakeView view(txns);
    view.ArriveAll();
    AsetsStarOptions options;
    options.head_rule = HeadSelectionRule::kFifoArrival;
    AsetsStarPolicy policy(options);
    policy.Bind(view);
    for (TxnId id = 0; id < 3; ++id) policy.OnArrival(id, 0.0);
    EXPECT_EQ(policy.SnapshotOf(0).head, 0u);  // arrived first
  }
}

TEST(AsetsStarTest, SingletonWorkflowsMatchTransactionLevelAsets) {
  // With independent transactions ASETS* must make the same decision as
  // transaction-level ASETS (Sec. III-C: it reduces to ASETS).
  const std::vector<TransactionSpec> txns = {
      Txn(0, 0, 5, 7), Txn(1, 0, 3, 2), Txn(2, 0, 2, 30), Txn(3, 0, 9, 4)};
  FakeView view(txns);
  view.ArriveAll();

  AsetsPolicy asets;
  asets.Bind(view);
  AsetsStarPolicy star;
  star.Bind(view);
  for (TxnId id = 0; id < 4; ++id) {
    asets.OnReady(id, 0.0);
    star.OnArrival(id, 0.0);
    star.OnReady(id, 0.0);
  }
  EXPECT_EQ(asets.PickNext(0.0), star.PickNext(0.0));
}

TEST(AsetsStarTest, SharedTransactionBelongsToBothWorkflows) {
  // Fig. 1 shape: leaf T0 feeds two roots.
  FakeView view({Txn(0, 0, 2, 4), Txn(1, 0, 3, 6, 1.0, {0}),
                 Txn(2, 0, 5, 50, 1.0, {0})});
  view.ArriveAll();
  AsetsStarPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnArrival(id, 0.0);
  policy.OnReady(0, 0.0);
  // Both workflows are active with head T0.
  EXPECT_EQ(policy.SnapshotOf(0).head, 0u);
  EXPECT_EQ(policy.SnapshotOf(1).head, 0u);
  EXPECT_EQ(policy.PickNext(0.0), 0u);
}

TEST(AsetsStarTest, IdlesWhenNothingArrived) {
  FakeView view(Chain());
  AsetsStarPolicy policy;
  policy.Bind(view);
  EXPECT_EQ(policy.PickNext(0.0), kInvalidTxn);
}

}  // namespace
}  // namespace webtx
