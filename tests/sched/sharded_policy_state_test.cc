// Unit tests for the sharded policy state: factory spec wiring, decision
// parity between a sharded policy and its global-state twin on a
// hand-driven view, and the steal bookkeeping of OnPlaced. The full
// simulator-level byte-identity matrix lives in
// tests/sim/sharded_differential_test.cc.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sched/policies/asets_star.h"
#include "sched/policies/single_queue_policies.h"
#include "sched/policy_factory.h"
#include "testing/fake_view.h"

namespace webtx {
namespace {

using testing::FakeView;
using testing::Txn;

TEST(ShardedPolicyStateTest, FactoryCreatesShardedVariants) {
  for (const char* base :
       {"FCFS", "EDF", "SRPT", "LS", "HDF", "HVF", "ASETS*"}) {
    const std::string spec = std::string(base) + "-sharded";
    auto policy = CreatePolicy(spec);
    ASSERT_TRUE(policy.ok()) << spec << ": " << policy.status();
    EXPECT_EQ(policy.ValueOrDie()->name(), spec);
    EXPECT_NE(policy.ValueOrDie()->AsShardedState(), nullptr) << spec;
  }
}

TEST(ShardedPolicyStateTest, PlainPoliciesHaveNoShardedState) {
  for (const char* base : {"FCFS", "SRPT", "ASETS*", "ASETS", "Ready"}) {
    auto policy = CreatePolicy(base);
    ASSERT_TRUE(policy.ok()) << base << ": " << policy.status();
    EXPECT_EQ(policy.ValueOrDie()->AsShardedState(), nullptr) << base;
  }
}

TEST(ShardedPolicyStateTest, UnsupportedBasesAreNotFound) {
  // Ready extends AsetsPolicy, ASETS keeps global batch state, MIX wraps
  // two queues — none has a sharded-state variant. A retired spec name
  // is unknown, plain or sharded.
  for (const char* spec :
       {"Ready-sharded", "ASETS-sharded", "MIX-sharded", "MIX(0.25)-sharded",
        "Nope-sharded", "ASETS*-lazy", "ASETS*-lazy-sharded"}) {
    auto policy = CreatePolicy(spec);
    ASSERT_FALSE(policy.ok()) << spec;
    EXPECT_EQ(policy.status().code(), StatusCode::kNotFound) << spec;
  }
}

std::vector<TransactionSpec> IndependentSpecs() {
  return {Txn(0, 0.0, 5.0, 20.0, 2.0), Txn(1, 0.0, 3.0, 15.0),
          Txn(2, 0.0, 8.0, 30.0, 3.0), Txn(3, 0.0, 2.0, 10.0),
          Txn(4, 0.0, 6.0, 25.0, 1.5),  Txn(5, 0.0, 4.0, 12.0),
          Txn(6, 0.0, 7.0, 40.0, 4.0),  Txn(7, 0.0, 1.0, 9.0)};
}

// A sharded single-queue policy must reproduce the global pick order —
// including the excluding walk a k-server round performs — before and
// after cross-shard steals.
TEST(ShardedPolicyStateTest, SingleQueuePickParityAcrossSteals) {
  FakeView view(IndependentSpecs());
  view.ArriveAll();

  SrptPolicy global;
  global.Bind(view);
  SrptPolicy sharded;
  sharded.EnableSharded();
  sharded.Bind(view);
  ShardedPolicyState* state = sharded.AsShardedState();
  ASSERT_NE(state, nullptr);
  state->BindShards(4);

  for (const TxnId id : view.ready_transactions()) {
    global.OnReady(id, 0.0);
    sharded.OnReady(id, 0.0);
  }
  EXPECT_EQ(sharded.queue_size(), view.ready_transactions().size());

  // Full excluding walk: the greedy k-server placement order.
  std::vector<TxnId> exclude;
  for (size_t k = 0; k <= view.specs().size(); ++k) {
    const TxnId want = global.PickNextExcluding(0.0, exclude);
    EXPECT_EQ(sharded.PickNextExcluding(0.0, exclude), want) << "slot " << k;
    if (want == kInvalidTxn) break;
    exclude.push_back(want);
  }

  // Steal the top pick into a shard that does not own it; the pick order
  // must not change (picks never read ownership).
  const TxnId top = global.PickNext(0.0);
  ASSERT_NE(top, kInvalidTxn);
  const uint64_t before = state->steal_count();
  state->OnPlaced(top, (static_cast<uint32_t>(top) + 1) % 4, 0.0);
  EXPECT_EQ(state->steal_count(), before + 1);
  EXPECT_EQ(sharded.PickNext(0.0), top);

  // Re-placing on the now-owning shard is a no-op, not another steal.
  state->OnPlaced(top, (static_cast<uint32_t>(top) + 1) % 4, 0.0);
  EXPECT_EQ(state->steal_count(), before + 1);

  // Drain both policies completely; every pick must agree.
  while (true) {
    const TxnId want = global.PickNext(0.0);
    EXPECT_EQ(sharded.PickNext(0.0), want);
    if (want == kInvalidTxn) break;
    view.Finish(want);
    global.OnCompletion(want, 1.0);
    sharded.OnCompletion(want, 1.0);
  }
  EXPECT_EQ(sharded.queue_size(), 0u);
}

TEST(ShardedPolicyStateTest, BindShardsClampsToOne) {
  FakeView view(IndependentSpecs());
  view.ArriveAll();
  SrptPolicy sharded;
  sharded.EnableSharded();
  sharded.Bind(view);
  sharded.AsShardedState()->BindShards(0);
  for (const TxnId id : view.ready_transactions()) sharded.OnReady(id, 0.0);
  // One shard owns everything; placements never steal.
  sharded.AsShardedState()->OnPlaced(sharded.PickNext(0.0), 7, 0.0);
  EXPECT_EQ(sharded.AsShardedState()->steal_count(), 0u);
}

std::vector<TransactionSpec> WorkflowSpecs() {
  // Two chains plus loose transactions, so ASETS* tracks live workflow
  // representatives with distinct owners under 4 shards.
  return {Txn(0, 0.0, 4.0, 18.0, 2.0),
          Txn(1, 0.0, 3.0, 22.0, 1.0, {0}),
          Txn(2, 0.0, 6.0, 28.0, 3.0),
          Txn(3, 0.0, 2.0, 30.0, 1.0, {2}),
          Txn(4, 0.0, 5.0, 16.0, 1.5),
          Txn(5, 0.0, 3.5, 14.0, 2.5),
          Txn(6, 0.0, 1.5, 35.0, 1.0, {4})};
}

TEST(ShardedPolicyStateTest, AsetsStarPickParityAcrossSteals) {
  FakeView view(WorkflowSpecs());
  view.ArriveAll();

  AsetsStarPolicy global;
  global.Bind(view);
  AsetsStarPolicy sharded;
  sharded.EnableSharded();
  sharded.Bind(view);
  ShardedPolicyState* state = sharded.AsShardedState();
  ASSERT_NE(state, nullptr);
  state->BindShards(4);

  for (const auto& spec : view.specs()) {
    global.OnArrival(spec.id, 0.0);
    sharded.OnArrival(spec.id, 0.0);
  }
  for (const TxnId id : view.ready_transactions()) {
    global.OnReady(id, 0.0);
    sharded.OnReady(id, 0.0);
  }

  std::vector<TxnId> exclude;
  for (size_t k = 0; k < 4; ++k) {
    const TxnId want = global.PickNextExcluding(0.0, exclude);
    EXPECT_EQ(sharded.PickNextExcluding(0.0, exclude), want) << "slot " << k;
    if (want == kInvalidTxn) break;
    exclude.push_back(want);
  }

  // Steal every placed head into rotated shards, then re-run the walk:
  // decisions must be unchanged and the steals accounted.
  const uint64_t before = state->steal_count();
  for (size_t k = 0; k < exclude.size(); ++k) {
    state->OnPlaced(exclude[k], static_cast<uint32_t>((k + 1) % 4), 0.0);
  }
  EXPECT_GT(state->steal_count(), before);

  std::vector<TxnId> replay;
  for (size_t k = 0; k < exclude.size(); ++k) {
    const TxnId want = global.PickNextExcluding(0.0, replay);
    EXPECT_EQ(sharded.PickNextExcluding(0.0, replay), want)
        << "post-steal slot " << k;
    if (want == kInvalidTxn) break;
    replay.push_back(want);
  }
}

}  // namespace
}  // namespace webtx
