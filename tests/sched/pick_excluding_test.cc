// Direct unit coverage of the multi-server PickNextExcluding hook: the
// policies must return their best admissible candidate and leave their
// internal queues exactly as they were.

#include <algorithm>
#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "sched/policies/asets.h"
#include "sched/policies/asets_star.h"
#include "sched/policies/balance_aware.h"
#include "sched/policies/single_queue_policies.h"
#include "testing/fake_view.h"

namespace webtx {
namespace {

using testing::FakeView;
using testing::Txn;

TEST(PickExcludingTest, SingleQueueSkipsExcludedTops) {
  FakeView view({Txn(0, 0, 2, 10), Txn(1, 0, 2, 20), Txn(2, 0, 2, 30)});
  view.ArriveAll();
  EdfPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnReady(id, 0.0);

  EXPECT_EQ(policy.PickNextExcluding(0.0, {}), 0u);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0}), 1u);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0, 1}), 2u);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0, 1, 2}), kInvalidTxn);
  // Queue restored: the unexcluded pick is unchanged and sized right.
  EXPECT_EQ(policy.PickNext(0.0), 0u);
  EXPECT_EQ(policy.queue_size(), 3u);
}

TEST(PickExcludingTest, AsetsSkipsAcrossBothLists) {
  // T0 meets its deadline (EDF-List); T1 and T2 are tardy (HDF-List).
  FakeView view({Txn(0, 0, 2, 30), Txn(1, 0, 3, 1), Txn(2, 0, 5, 1)});
  view.ArriveAll();
  AsetsPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnReady(id, 0.0);
  const size_t edf_before = policy.edf_list_size();
  const size_t hdf_before = policy.hdf_list_size();

  const TxnId first = policy.PickNext(0.0);
  const TxnId second = policy.PickNextExcluding(0.0, {first});
  const TxnId third = policy.PickNextExcluding(0.0, {first, second});
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_NE(first, third);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {first, second, third}),
            kInvalidTxn);
  // Lists restored.
  EXPECT_EQ(policy.edf_list_size(), edf_before);
  EXPECT_EQ(policy.hdf_list_size(), hdf_before);
  EXPECT_EQ(policy.PickNext(0.0), first);
}

TEST(PickExcludingTest, AsetsStarFallsBackToNextReadyMember) {
  // Diamond: T0 and T1 both ready in the workflow rooted at T2. With the
  // preferred head excluded, the other ready member must be offered.
  FakeView view({Txn(0, 0, 4, 10), Txn(1, 0, 4, 20),
                 Txn(2, 0, 2, 30, 1.0, {0, 1})});
  view.ArriveAll();
  AsetsStarPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) {
    policy.OnArrival(id, 0.0);
    if (view.IsReady(id)) policy.OnReady(id, 0.0);
  }
  EXPECT_EQ(policy.PickNext(0.0), 0u);  // earliest-deadline head
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0}), 1u);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0, 1}), kInvalidTxn);
  // State restored: the preferred head is back.
  EXPECT_EQ(policy.PickNext(0.0), 0u);
  EXPECT_EQ(policy.SnapshotOf(0).head, 0u);
}

TEST(PickExcludingTest, AsetsStarPrefersOtherWorkflowOverWorseMember) {
  // Two workflows; excluding the top workflow's head should offer the
  // *other workflow's* head when it beats the top workflow's remaining
  // ready members — here each workflow has one ready member, so the
  // second pick must come from the other workflow.
  FakeView view({Txn(0, 0, 3, 10), Txn(1, 0, 3, 20)});
  view.ArriveAll();
  AsetsStarPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 2; ++id) {
    policy.OnArrival(id, 0.0);
    policy.OnReady(id, 0.0);
  }
  EXPECT_EQ(policy.PickNext(0.0), 0u);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {0}), 1u);
}

// The greedy chain, literally: what the PickBatch contract pins a
// round to.
std::vector<TxnId> GreedyChain(SchedulerPolicy& policy, SimTime now,
                               size_t k) {
  std::vector<TxnId> picks;
  for (size_t slot = 0; slot < k; ++slot) {
    const TxnId pick = policy.PickNextExcluding(now, picks);
    if (pick == kInvalidTxn) break;
    picks.push_back(pick);
  }
  return picks;
}

// The batched round must equal the greedy PickNextExcluding chain pick
// for pick — the byte-identity contract the simulator's multi-server
// path leans on (sched/scheduler_policy.h).
TEST(PickBatchTest, SingleQueueBatchMatchesGreedyChainEveryK) {
  // Duplicate keys force the (key, id) tiebreak through both paths.
  FakeView view({Txn(0, 0, 2, 20), Txn(1, 0, 2, 10), Txn(2, 0, 2, 10),
                 Txn(3, 0, 2, 30), Txn(4, 0, 2, 20), Txn(5, 0, 2, 5)});
  view.ArriveAll();
  for (size_t k = 0; k <= 8; ++k) {
    EdfPolicy policy;
    policy.Bind(view);
    for (TxnId id = 0; id < 6; ++id) policy.OnReady(id, 0.0);

    const std::vector<TxnId> greedy = GreedyChain(policy, 0.0, k);
    std::vector<TxnId> batch;
    policy.PickBatch(0.0, k, batch);
    EXPECT_EQ(batch, greedy) << "k=" << k;
    // Queues restored bit for bit: the next round starts from scratch.
    EXPECT_EQ(policy.queue_size(), 6u);
    EXPECT_EQ(policy.PickNext(0.0), 5u);
  }
}

TEST(PickBatchTest, AsetsBatchMatchesGreedyChainAcrossBothLists) {
  // T0 meets its deadline (EDF-List); T1 and T2 are tardy (HDF-List),
  // so the batch's two-pointer walk must interleave the lists exactly
  // as the erase/re-push chain does.
  FakeView view({Txn(0, 0, 2, 30), Txn(1, 0, 3, 1), Txn(2, 0, 5, 1)});
  view.ArriveAll();
  AsetsPolicy policy;
  policy.Bind(view);
  for (TxnId id = 0; id < 3; ++id) policy.OnReady(id, 0.0);
  const size_t edf_before = policy.edf_list_size();
  const size_t hdf_before = policy.hdf_list_size();
  const std::vector<TxnId> expected = GreedyChain(policy, 0.0, 3);
  ASSERT_EQ(expected.size(), 3u);
  std::vector<TxnId> batch;
  policy.PickBatch(0.0, 4, batch);  // k past the ready count stops early
  EXPECT_EQ(batch, expected);
  // The read-only walk left both lists untouched.
  EXPECT_EQ(policy.edf_list_size(), edf_before);
  EXPECT_EQ(policy.hdf_list_size(), hdf_before);
}

TEST(PickBatchTest, DefaultBatchDrivesOverriddenPickNextExcluding) {
  // BalanceAwarePolicy overrides PickNextExcluding but not PickBatch, so
  // its rounds run the default — the greedy chain, call by call — and
  // the forced T_old activation and the inner ASETS* picks both land
  // where an explicit chain puts them. T3 is the overdue heavy
  // transaction the activation rescues.
  FakeView view({Txn(0, 0, 4, 10), Txn(1, 0, 4, 30),
                 Txn(2, 0, 2, 30, 1.0, {0, 1}), Txn(3, 0, 3, 5, 5.0)});
  view.ArriveAll();
  BalanceAwareOptions options;
  options.rate = 0.1;  // due once 10 time units have passed
  const auto make = [&view, &options](
                        std::unique_ptr<BalanceAwarePolicy>& policy) {
    policy = std::make_unique<BalanceAwarePolicy>(
        std::make_unique<AsetsStarPolicy>(), options);
    policy->Bind(view);
    for (TxnId id = 0; id < 4; ++id) {
      policy->OnArrival(id, 0.0);
      if (view.IsReady(id)) policy->OnReady(id, 0.0);
    }
  };
  std::unique_ptr<BalanceAwarePolicy> chain_policy;
  std::unique_ptr<BalanceAwarePolicy> batch_policy;
  make(chain_policy);
  make(batch_policy);
  const std::vector<TxnId> expected = GreedyChain(*chain_policy, 20.0, 4);
  std::vector<TxnId> batch;
  batch_policy->PickBatch(20.0, 4, batch);
  EXPECT_EQ(batch, expected);
  ASSERT_EQ(expected.size(), 3u);  // T2 waits on T0 and T1
  EXPECT_EQ(expected[0], 3u);
  EXPECT_EQ(batch_policy->activation_count(), 1u);
  EXPECT_EQ(chain_policy->activation_count(), 1u);
}

// ASETS* overrides PickBatch with an incremental round (each pick
// excluded once, one restore flush at the end). It must reproduce the
// greedy chain's picks AND leave the policy exactly as the chain does —
// the next round reads that state.
// Seeded random FakeView states cover what the proof leans on:
// overlapping workflows (T0 heads the workflows rooted at T1 and T2),
// workflows on both lists, key ties (deadlines, lengths and weights from
// small sets), every head rule, k = 0..8 past the ready count, and
// remaining times charged without a callback, as the simulator does to
// an outage-preempted transaction.
TEST(PickBatchTest, AsetsStarBatchMatchesGreedyChain) {
  constexpr size_t kTxns = 14;
  constexpr HeadSelectionRule kRules[] = {
      HeadSelectionRule::kEarliestDeadline,
      HeadSelectionRule::kShortestRemaining,
      HeadSelectionRule::kFifoArrival};
  size_t rounds_with_both_lists = 0;
  size_t rounds_past_ready = 0;
  size_t rounds_with_shared_head = 0;
  for (uint32_t seed = 1; seed <= 60; ++seed) {
    for (const HeadSelectionRule rule : kRules) {
      std::mt19937 rng(seed);
      const auto draw = [&rng](uint32_t n) {
        return static_cast<uint32_t>(rng() % n);
      };
      std::vector<TransactionSpec> specs;
      for (TxnId id = 0; id < kTxns; ++id) {
        std::vector<TxnId> deps;
        if (id == 1 || id == 2) deps = {0};
        if (id >= 4 && draw(2) == 0) {
          // Never on T1/T2, so both stay roots sharing member T0.
          const TxnId dep = draw(3) == 0 ? 0 : 3 + draw(id - 3);
          deps.push_back(dep);
        }
        specs.push_back(Txn(id, draw(3), 1 + draw(4), 4 + 2 * draw(8),
                            1.0 + draw(3), deps));
      }
      FakeView view(specs);
      AsetsStarOptions options;
      options.head_rule = rule;
      AsetsStarPolicy chain(options);
      AsetsStarPolicy batch(options);
      chain.Bind(view);
      batch.Bind(view);
      const auto both = [&chain, &batch](auto&& callback) {
        callback(chain);
        callback(batch);
      };
      for (TxnId id = 0; id < kTxns; ++id) {
        if (id != 0 && draw(5) == 0) continue;  // not arrived yet
        view.Arrive(id);
        both([id](AsetsStarPolicy& p) { p.OnArrival(id, 0.0); });
      }
      for (const TxnId id : view.ready_transactions()) {
        both([id](AsetsStarPolicy& p) { p.OnReady(id, 0.0); });
      }

      for (int round = 0; round < 4; ++round) {
        const SimTime now = 2.0 * round;
        if (round > 0) {
          const std::vector<TxnId> ready = view.ready_transactions();
          for (const TxnId id : ready) {
            const uint32_t action = draw(6);
            if (action == 0) {
              view.Finish(id);
              both([id, now](AsetsStarPolicy& p) { p.OnCompletion(id, now); });
            } else if (action <= 2 && view.remaining(id) > 1.0) {
              view.SetRemaining(id, view.remaining(id) - 1.0);
              if (action == 2) {  // action 1 charges without a callback
                both([id, now](AsetsStarPolicy& p) {
                  p.OnRemainingUpdated(id, now);
                });
              }
            }
          }
          for (const TxnId id : view.ready_transactions()) {
            if (std::find(ready.begin(), ready.end(), id) == ready.end()) {
              both([id, now](AsetsStarPolicy& p) { p.OnReady(id, now); });
            }
          }
        }
        const size_t k = draw(9);
        const std::vector<TxnId> expected = GreedyChain(chain, now, k);
        std::vector<TxnId> picks;
        batch.PickBatch(now, k, picks);
        ASSERT_EQ(picks, expected)
            << "seed " << seed << " round " << round << " k=" << k;

        const size_t num_ready = view.ready_transactions().size();
        if (k > num_ready) ++rounds_past_ready;
        if (chain.edf_list_size() > 0 && chain.hdf_list_size() > 0) {
          ++rounds_with_both_lists;
        }
        EXPECT_EQ(batch.edf_list_size(), chain.edf_list_size());
        EXPECT_EQ(batch.hdf_list_size(), chain.hdf_list_size());
        std::vector<TxnId> heads;
        for (WorkflowId wid = 0; wid < view.workflows().num_workflows();
             ++wid) {
          const auto a = chain.SnapshotOf(wid);
          const auto b = batch.SnapshotOf(wid);
          if (a.active) heads.push_back(a.head);
          EXPECT_EQ(b.active, a.active) << "wf " << wid;
          EXPECT_EQ(b.head, a.head) << "wf " << wid;
          EXPECT_EQ(b.rep_deadline, a.rep_deadline) << "wf " << wid;
          EXPECT_EQ(b.rep_remaining, a.rep_remaining) << "wf " << wid;
          EXPECT_EQ(b.rep_weight, a.rep_weight) << "wf " << wid;
        }
        std::sort(heads.begin(), heads.end());
        if (std::adjacent_find(heads.begin(), heads.end()) != heads.end()) {
          ++rounds_with_shared_head;
        }
        EXPECT_EQ(batch.PickNext(now), chain.PickNext(now));
      }
    }
  }
  // The random states reached every shape the test claims to cover.
  EXPECT_GT(rounds_with_both_lists, 0u);
  EXPECT_GT(rounds_past_ready, 0u);
  EXPECT_GT(rounds_with_shared_head, 0u);
}

TEST(PickBatchTest, RemainingUpdateInterestMatchesKeySensitivity) {
  // FCFS/EDF/HVF keys ignore remaining time, so the simulator may skip
  // their OnRemainingUpdated calls; SRPT/LS/HDF need them.
  EXPECT_FALSE(FcfsPolicy().WantsRemainingUpdates());
  EXPECT_FALSE(EdfPolicy().WantsRemainingUpdates());
  EXPECT_FALSE(HvfPolicy().WantsRemainingUpdates());
  EXPECT_TRUE(SrptPolicy().WantsRemainingUpdates());
  EXPECT_TRUE(LsPolicy().WantsRemainingUpdates());
  EXPECT_TRUE(HdfPolicy().WantsRemainingUpdates());
  EXPECT_TRUE(AsetsPolicy().WantsRemainingUpdates());
}

TEST(PickExcludingDeathTest, BaseImplementationRejectsExclusion) {
  // A policy that does not override the hook only supports k = 1.
  class MinimalPolicy final : public SchedulerPolicy {
   public:
    std::string name() const override { return "Minimal"; }
    void OnReady(TxnId, SimTime) override {}
    void OnCompletion(TxnId, SimTime) override {}
    TxnId PickNext(SimTime) override { return kInvalidTxn; }

   protected:
    void Reset() override {}
  };
  FakeView view({Txn(0, 0, 1, 10)});
  view.ArriveAll();
  MinimalPolicy policy;
  policy.Bind(view);
  EXPECT_EQ(policy.PickNextExcluding(0.0, {}), kInvalidTxn);
  EXPECT_DEATH((void)policy.PickNextExcluding(0.0, {0}),
               "does not support multi-server");
}

}  // namespace
}  // namespace webtx
