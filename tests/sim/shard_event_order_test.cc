// Regression tests for CROSS-SHARD same-instant ties in the sharded
// event loop, mirroring tests/sim/event_order_test.cc's exact-double
// construction: a completion on one shard colliding with a fault
// transition on another, a crash's migration handoff colliding with a
// fresh arrival, and one correlated crash instant felling several
// shards. Covers both the internal comparator (internal::EventBefore)
// and the whole loop, and pins each scenario to the pre-shard reference
// digest.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/chaos.h"
#include "sched/scheduler_policy.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "testing/fake_view.h"
#include "testing/reference_simulator.h"

namespace webtx {
namespace {

using testing::Txn;

// ---------------------------------------------------------------------------
// The comparator itself.

using internal::EventBefore;
using internal::ShardEvent;
using internal::ShardEventClass;

TEST(ShardEventBeforeTest, TimeDominatesClassAndShard) {
  const ShardEvent early{1.0, ShardEventClass::kArrival, 9};
  const ShardEvent late{2.0, ShardEventClass::kCompletion, 0};
  EXPECT_TRUE(EventBefore(early, late));
  EXPECT_FALSE(EventBefore(late, early));
}

TEST(ShardEventBeforeTest, ClassPriorityBreaksTimeTies) {
  // completion < outage < crash < abort < pending < arrival — the
  // failure-semantics contract order — regardless of shard index.
  const ShardEvent completion{3.0, ShardEventClass::kCompletion, 7};
  const ShardEvent outage{3.0, ShardEventClass::kOutage, 0};
  const ShardEvent crash{3.0, ShardEventClass::kCrash, 1};
  const ShardEvent abort_ev{3.0, ShardEventClass::kAbort, 2};
  const ShardEvent pend{3.0, ShardEventClass::kPending, 3};
  const ShardEvent arrival{3.0, ShardEventClass::kArrival, 4};
  EXPECT_TRUE(EventBefore(completion, outage));
  EXPECT_TRUE(EventBefore(outage, crash));
  EXPECT_TRUE(EventBefore(crash, abort_ev));
  EXPECT_TRUE(EventBefore(abort_ev, pend));
  EXPECT_TRUE(EventBefore(pend, arrival));
  EXPECT_FALSE(EventBefore(arrival, completion));
}

TEST(ShardEventBeforeTest, LowerShardBreaksRemainingTies) {
  const ShardEvent a{3.0, ShardEventClass::kCrash, 1};
  const ShardEvent b{3.0, ShardEventClass::kCrash, 5};
  EXPECT_TRUE(EventBefore(a, b));
  EXPECT_FALSE(EventBefore(b, a));
  EXPECT_FALSE(EventBefore(a, a));  // strict order
}

TEST(ShardEventBeforeTest, SortRecoversContractOrder) {
  std::vector<ShardEvent> events = {
      {2.0, ShardEventClass::kCompletion, 0},
      {1.0, ShardEventClass::kArrival, 3},
      {1.0, ShardEventClass::kOutage, 2},
      {1.0, ShardEventClass::kOutage, 1},
      {1.0, ShardEventClass::kCompletion, 4},
  };
  std::sort(events.begin(), events.end(), EventBefore);
  EXPECT_EQ(events[0].cls, ShardEventClass::kCompletion);
  EXPECT_EQ(events[0].shard, 4u);
  EXPECT_EQ(events[1].shard, 1u);  // lower shard of the two outages
  EXPECT_EQ(events[2].shard, 2u);
  EXPECT_EQ(events[3].cls, ShardEventClass::kArrival);
  EXPECT_EQ(events[4].time, 2.0);
}

// ---------------------------------------------------------------------------
// Whole-loop cross-shard coincidences.

/// One policy callback, as observed by RecordingPolicy.
struct Event {
  std::string kind;  // "arrival" | "ready" | "completion" | "dropped"
  TxnId id = kInvalidTxn;
  SimTime time = 0.0;
};

/// Lowest-ready-id policy with multi-server support that logs every
/// lifecycle callback; the log is the assertion surface.
class RecordingPolicy final : public SchedulerPolicy {
 public:
  std::string name() const override { return "Recording"; }

  void OnArrival(TxnId id, SimTime now) override {
    log_.push_back({"arrival", id, now});
  }
  void OnReady(TxnId id, SimTime now) override {
    log_.push_back({"ready", id, now});
  }
  void OnCompletion(TxnId id, SimTime now) override {
    log_.push_back({"completion", id, now});
  }
  void OnDropped(TxnId id, SimTime now) override {
    log_.push_back({"dropped", id, now});
  }

  TxnId PickNext(SimTime now) override { return PickNextExcluding(now, {}); }

  TxnId PickNextExcluding(SimTime,
                          const std::vector<TxnId>& exclude) override {
    TxnId best = kInvalidTxn;
    for (const TxnId id : view().ready_transactions()) {
      if (std::find(exclude.begin(), exclude.end(), id) != exclude.end()) {
        continue;
      }
      if (best == kInvalidTxn || id < best) best = id;
    }
    return best;
  }

  const std::vector<Event>& log() const { return log_; }

 protected:
  void Reset() override { log_.clear(); }

 private:
  std::vector<Event> log_;
};

size_t IndexOf(const std::vector<Event>& log, const std::string& kind,
               TxnId id) {
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].kind == kind && log[i].id == id) return i;
  }
  return std::string::npos;
}

RunResult RunWith(const std::vector<TransactionSpec>& txns,
                  SchedulerPolicy& policy, SimOptions options) {
  options.record_outcomes = true;
  options.record_schedule = true;
  auto sim = Simulator::Create(txns, options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  RunResult r = sim.ValueOrDie().Run(policy);
  // Every coincidence scenario must also match the pre-shard reference
  // bit for bit (a second policy instance keeps the logs separate).
  auto ref = testing::ReferenceSimulator::Create(txns, options);
  EXPECT_TRUE(ref.ok()) << ref.status();
  RecordingPolicy ref_policy;
  EXPECT_EQ(ScheduleDigest(r), ScheduleDigest(ref.ValueOrDie().Run(ref_policy)))
      << "sharded run diverged from the pre-shard reference";
  return r;
}

TEST(ShardEventOrderTest, CompletionOnHighShardBeatsOutageOnLowShard) {
  // Server 0's first outage begins at the exact instant T1 — running on
  // server 1 — completes: the completion (class 0, shard 1) must beat
  // the outage (class 1, shard 0) even though its shard index is
  // higher. T1 finishes untouched at that double; the outage then
  // preempts T0 on server 0.
  FaultPlanConfig config;
  config.outage_rate = 0.05;
  config.mean_outage_duration = 3.0;
  // Pick a seed whose server-0 outage strictly precedes server 1's, so
  // nothing disturbs T1 on server 1 before the coincidence instant.
  SimTime outage_start = kNeverTime;
  for (uint64_t seed = 1; seed < 200; ++seed) {
    config.seed = seed;
    auto probe = FaultPlan::Create(config);
    ASSERT_TRUE(probe.ok()) << probe.status();
    const SimTime s0 = probe.ValueOrDie().StreamFor(0).next_transition();
    const SimTime s1 = probe.ValueOrDie().StreamFor(1).next_transition();
    if (s0 < s1) {
      outage_start = s0;
      break;
    }
  }
  ASSERT_LT(outage_start, kNeverTime);
  auto plan = FaultPlan::Create(config);
  ASSERT_TRUE(plan.ok()) << plan.status();

  SimOptions options;
  options.num_servers = 2;
  options.fault_plan = plan.ValueOrDie();
  RecordingPolicy policy;
  // T0 (lowest id) lands on server 0 and outlives the outage; T1 lands
  // on server 1 with length == outage_start, so dispatch at 0 completes
  // at the exact double 0 + outage_start.
  const RunResult r =
      RunWith({Txn(0, 0.0, 1.5 * outage_start, 100.0 * outage_start),
               Txn(1, 0.0, outage_start, 100.0 * outage_start)},
              policy, options);
  EXPECT_EQ(r.outcomes[1].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[1].finish, outage_start);
  EXPECT_GE(r.num_outage_preemptions, 1u);  // T0, by the same-instant outage
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  // The cross-shard handoff: T0's server-0 segment ends at the outage
  // instant, and — the completion having freed server 1 first — its
  // next segment starts at the same double on server 1.
  bool preempted_at_instant = false;
  bool handed_off = false;
  for (const ScheduleSegment& seg : r.schedule) {
    if (seg.txn == 0 && seg.server == 0 && seg.end == outage_start) {
      preempted_at_instant = true;
    }
    if (seg.txn == 0 && seg.server == 1 && seg.start == outage_start) {
      handed_off = true;
    }
  }
  EXPECT_TRUE(preempted_at_instant);
  EXPECT_TRUE(handed_off);
}

TEST(ShardEventOrderTest, CompletionOnLowShardBeatsCrashOnHighShard) {
  // T0 on server 0 completes at the exact instant server 1 crashes
  // under T1. The completion (class 0) is processed first, then the
  // crash migrates T1 (warm) into the ready set, and the same-instant
  // scheduling round re-places it on the now-free server 0.
  FaultPlanConfig config;
  config.crash_rate = 0.05;
  config.mean_repair_duration = 5.0;
  config.seed = 3;
  auto plan = FaultPlan::Create(config);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const SimTime crash_time =
      plan.ValueOrDie().StreamFor(1).next_crash_transition();
  const SimTime other_crash =
      plan.ValueOrDie().StreamFor(0).next_crash_transition();
  ASSERT_LT(crash_time, kNeverTime);
  ASSERT_LT(crash_time, other_crash);  // server 1 crashes first

  SimOptions options;
  options.num_servers = 2;
  options.fault_plan = plan.ValueOrDie();
  RecordingPolicy policy;
  const RunResult r = RunWith({Txn(0, 0.0, crash_time, 10.0 * crash_time),
                               Txn(1, 0.0, 1.25 * crash_time,
                                   10.0 * crash_time)},
                              policy, options);
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[0].finish, crash_time);
  EXPECT_EQ(r.num_migrations, 1u);
  EXPECT_EQ(r.outcomes[1].migrations, 1u);
  EXPECT_EQ(r.outcomes[1].fate, TxnFate::kCompleted);
  // The migrated T1 resumed on server 0 at the crash instant (warm
  // failover retains the work, so its post-crash segment starts there).
  bool resumed_on_server0 = false;
  for (const ScheduleSegment& seg : r.schedule) {
    if (seg.txn == 1 && seg.server == 0 && seg.start == crash_time) {
      resumed_on_server0 = true;
    }
  }
  EXPECT_TRUE(resumed_on_server0);
}

TEST(ShardEventOrderTest, ColdMigrationHandoffBeforeFreshArrivalAtEqualTime) {
  // Server 1 crashes at the exact instant T2 arrives. Cold migration
  // re-announces the victim (OnCompletion dequeue + OnReady re-entry at
  // the crash instant); the crash (class 2) beats the arrival (class
  // 5), so the victim's handoff callbacks must precede T2's OnArrival.
  FaultPlanConfig config;
  config.crash_rate = 0.05;
  config.mean_repair_duration = 5.0;
  config.migration = MigrationPolicy::kCold;
  config.seed = 3;
  auto plan = FaultPlan::Create(config);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const SimTime crash_time =
      plan.ValueOrDie().StreamFor(1).next_crash_transition();
  ASSERT_LT(crash_time, plan.ValueOrDie().StreamFor(0).next_crash_transition());

  SimOptions options;
  options.num_servers = 2;
  options.fault_plan = plan.ValueOrDie();
  RecordingPolicy policy;
  RunWith({Txn(0, 0.0, 3.0 * crash_time, 100.0 * crash_time),
           Txn(1, 0.0, 2.0 * crash_time, 100.0 * crash_time),
           Txn(2, crash_time, 0.5, 100.0 * crash_time)},
          policy, options);
  const auto& log = policy.log();
  const size_t dequeue1 = IndexOf(log, "completion", 1);
  const size_t arrive2 = IndexOf(log, "arrival", 2);
  ASSERT_NE(dequeue1, std::string::npos);
  ASSERT_NE(arrive2, std::string::npos);
  EXPECT_LT(dequeue1, arrive2);
  EXPECT_EQ(log[dequeue1].time, crash_time);
  EXPECT_EQ(log[arrive2].time, crash_time);
}

TEST(ShardEventOrderTest, CorrelatedCrashFellsVictimShardsInAscendingOrder) {
  // correlated_crash_prob = 1: the first natural crash instant fells
  // every other shard at the same double. The crash handler migrates
  // the origin's own transaction first, then fells the victims
  // ascending, so the recorded windows are (origin, victim_low,
  // victim_high) all sharing the start instant.
  FaultPlanConfig config;
  config.crash_rate = 0.04;
  config.mean_repair_duration = 4.0;
  config.correlated_crash_prob = 1.0;
  config.seed = 13;
  auto plan = FaultPlan::Create(config);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const size_t kServers = 3;
  uint32_t origin = 0;
  SimTime first_crash = kNeverTime;
  for (uint32_t s = 0; s < kServers; ++s) {
    const SimTime t = plan.ValueOrDie().StreamFor(s).next_crash_transition();
    if (t < first_crash) {
      first_crash = t;
      origin = s;
    }
  }
  ASSERT_LT(first_crash, kNeverTime);

  SimOptions options;
  options.num_servers = kServers;
  options.fault_plan = plan.ValueOrDie();
  RecordingPolicy policy;
  const RunResult r = RunWith({Txn(0, 0.0, 2.0 * first_crash, 1e6)}, policy,
                              options);
  ASSERT_GE(r.crashes.size(), kServers);
  EXPECT_EQ(r.crashes[0].server, origin);
  EXPECT_EQ(r.crashes[0].start, first_crash);
  // Victims follow in ascending server order at the same instant.
  uint32_t prev = 0;
  bool first_victim = true;
  for (size_t i = 1; i < kServers; ++i) {
    EXPECT_NE(r.crashes[i].server, origin);
    EXPECT_EQ(r.crashes[i].start, first_crash);
    if (!first_victim) {
      EXPECT_GT(r.crashes[i].server, prev);
    }
    prev = r.crashes[i].server;
    first_victim = false;
  }
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
}

}  // namespace
}  // namespace webtx
