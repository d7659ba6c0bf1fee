#include "sched/admission.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/chaos.h"
#include "sched/policies/single_queue_policies.h"
#include "sched/policy_factory.h"
#include "sim/simulator.h"
#include "testing/fake_view.h"
#include "workload/generator.h"

namespace webtx {
namespace {

using testing::Txn;

RunResult RunAdmitted(std::vector<TransactionSpec> txns,
                      AdmissionFactory admission) {
  SimOptions options;
  options.admission = std::move(admission);
  auto sim = Simulator::Create(std::move(txns), options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  FcfsPolicy policy;
  return sim.ValueOrDie().Run(policy);
}

TEST(QueueDepthAdmissionTest, RejectsArrivalsOverTheCap) {
  QueueDepthAdmissionOptions depth;
  depth.max_ready = 2;
  // Five simultaneous arrivals: the first two fill the queue, the rest
  // are shed at the door.
  const RunResult r = RunAdmitted(
      {Txn(0, 0, 3, 100), Txn(1, 0, 3, 100), Txn(2, 0, 3, 100),
       Txn(3, 0, 3, 100), Txn(4, 0, 3, 100)},
      MakeQueueDepthAdmission(depth));
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[1].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[2].fate, TxnFate::kShedAdmission);
  EXPECT_EQ(r.outcomes[3].fate, TxnFate::kShedAdmission);
  EXPECT_EQ(r.outcomes[4].fate, TxnFate::kShedAdmission);
  EXPECT_EQ(r.num_shed, 3u);
  EXPECT_DOUBLE_EQ(r.goodput, 0.4);
  // Shed transactions count as misses but never as tardiness samples.
  EXPECT_DOUBLE_EQ(r.miss_ratio, 0.6);
  EXPECT_EQ(r.outcomes[2].tardiness, 0.0);
}

TEST(QueueDepthAdmissionTest, DeferredArrivalIsAdmittedOnceLoadClears) {
  QueueDepthAdmissionOptions depth;
  depth.max_ready = 1;
  depth.defer_delay = 10.0;
  depth.max_defers = 2;
  const RunResult r = RunAdmitted({Txn(0, 0, 5, 100), Txn(1, 0, 5, 100)},
                                  MakeQueueDepthAdmission(depth));
  // T1 is deferred at t=0; at t=10 T0 has finished (t=5) and the queue
  // is empty, so T1 is admitted and runs 10..15.
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[1].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[0].finish, 5.0);
  EXPECT_EQ(r.outcomes[1].finish, 15.0);
  EXPECT_EQ(r.num_deferrals, 1u);
  EXPECT_EQ(r.num_shed, 0u);
}

TEST(QueueDepthAdmissionTest, RejectsAfterTheDeferBudget) {
  QueueDepthAdmissionOptions depth;
  depth.max_ready = 1;
  depth.defer_delay = 3.0;
  depth.max_defers = 1;
  // T0 occupies the queue past both decision points for T1.
  const RunResult r = RunAdmitted({Txn(0, 0, 100, 200), Txn(1, 0, 5, 50)},
                                  MakeQueueDepthAdmission(depth));
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[1].fate, TxnFate::kShedAdmission);
  EXPECT_EQ(r.outcomes[1].finish, 3.0);  // rejected at the re-arrival
  EXPECT_EQ(r.num_deferrals, 1u);
  EXPECT_EQ(r.num_shed, 1u);
}

TEST(QueueDepthAdmissionTest, MidWorkflowTransactionsAreNeverShed) {
  QueueDepthAdmissionOptions depth;
  depth.max_ready = 1;
  // T1 arrives over-cap but depends on T0: rejecting it would waste
  // T0's work, so it is always admitted.
  const RunResult r =
      RunAdmitted({Txn(0, 0, 5, 100), Txn(1, 1, 2, 100, 1.0, {0})},
                  MakeQueueDepthAdmission(depth));
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[1].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[1].finish, 7.0);
}

TEST(QueueDepthAdmissionTest, ShedRootDropsItsDependents) {
  QueueDepthAdmissionOptions depth;
  depth.max_ready = 1;
  const RunResult r =
      RunAdmitted({Txn(0, 0, 5, 100), Txn(1, 0, 5, 100),
                   Txn(2, 3, 2, 100, 1.0, {1})},
                  MakeQueueDepthAdmission(depth));
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[1].fate, TxnFate::kShedAdmission);
  EXPECT_EQ(r.outcomes[2].fate, TxnFate::kDroppedDependency);
  // The dependent is resolved at the shed instant, before it arrives.
  EXPECT_EQ(r.outcomes[2].finish, 0.0);
  EXPECT_EQ(r.num_shed, 1u);
  EXPECT_EQ(r.num_dropped_dependency, 1u);
}

// Property: the defer budget is an exact boundary. A transaction
// deferred `max_defers` times MUST be decided — admitted or rejected —
// at its next presentation; a (max_defers+1)-th deferral is a bug that
// would let an arrival ping-pong forever.
TEST(QueueDepthAdmissionTest, DeferBudgetBoundaryIsExact) {
  for (const uint32_t budget : {0u, 1u, 2u, 3u, 4u, 7u}) {
    QueueDepthAdmissionOptions depth;
    depth.max_ready = 1;
    depth.defer_delay = 2.0;
    depth.max_defers = budget;
    // A full ready queue that never clears: every presentation of T2 is
    // over-cap, so the controller's only degrees of freedom are defer
    // and reject.
    testing::FakeView view(
        {Txn(0, 0, 5, 100), Txn(1, 0, 5, 100), Txn(2, 0, 5, 100)});
    view.Arrive(0);
    view.Arrive(1);
    QueueDepthAdmission controller(depth);
    controller.Bind(view);
    for (uint32_t presentation = 0; presentation < budget; ++presentation) {
      const AdmissionDecision d =
          controller.Decide(2, 2.0 * presentation);
      EXPECT_EQ(d.action, AdmissionDecision::Action::kDefer)
          << "budget " << budget << ", presentation " << presentation;
    }
    // Presentation number `budget` exhausts the budget: decided now and
    // on every later presentation, never deferred again.
    for (uint32_t beyond = 0; beyond < 3; ++beyond) {
      const AdmissionDecision d =
          controller.Decide(2, 2.0 * (budget + beyond));
      EXPECT_NE(d.action, AdmissionDecision::Action::kDefer)
          << "budget " << budget << ", presentation " << (budget + beyond);
    }
  }
}

// The same boundary observed end-to-end: under a never-clearing queue
// the simulator grants exactly max_defers deferrals and resolves the
// victim at the final re-arrival.
TEST(QueueDepthAdmissionTest, SimulatorGrantsExactlyTheDeferBudget) {
  for (const uint32_t budget : {0u, 1u, 3u, 5u}) {
    QueueDepthAdmissionOptions depth;
    depth.max_ready = 1;
    depth.defer_delay = 2.0;
    depth.max_defers = budget;
    const RunResult r =
        RunAdmitted({Txn(0, 0, 1000, 2000), Txn(1, 0, 5, 50)},
                    MakeQueueDepthAdmission(depth));
    EXPECT_EQ(r.outcomes[1].fate, TxnFate::kShedAdmission) << budget;
    EXPECT_EQ(r.num_deferrals, static_cast<size_t>(budget)) << budget;
    // Shed at the re-arrival that exhausted the budget.
    EXPECT_EQ(r.outcomes[1].finish, 2.0 * budget) << budget;
  }
}

TEST(FeasibilityAdmissionTest, RejectsHopelesslyLateArrivals) {
  FeasibilityAdmissionOptions feasibility;  // bound 0: must be on time
  // T0 (length 10) is ready when T1 arrives; T1's predicted finish is
  // 15, far past its deadline of 8.
  const RunResult r =
      RunAdmitted({Txn(0, 0, 10, 100), Txn(1, 0, 5, 8)},
                  MakeFeasibilityAdmission(feasibility));
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[1].fate, TxnFate::kShedAdmission);
}

TEST(FeasibilityAdmissionTest, AdmitsWithinTheTardinessBound) {
  FeasibilityAdmissionOptions feasibility;
  feasibility.tardiness_bound = 10.0;  // predicted tardiness 7 is fine
  const RunResult r =
      RunAdmitted({Txn(0, 0, 10, 100), Txn(1, 0, 5, 8)},
                  MakeFeasibilityAdmission(feasibility));
  EXPECT_EQ(r.outcomes[0].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.outcomes[1].fate, TxnFate::kCompleted);
  EXPECT_EQ(r.num_shed, 0u);
}

TEST(AdmissionControllerTest, NamesDescribeTheConfiguration) {
  EXPECT_EQ(QueueDepthAdmission().name(), "queue-depth(64)");
  QueueDepthAdmissionOptions depth;
  depth.max_ready = 7;
  EXPECT_EQ(QueueDepthAdmission(depth).name(), "queue-depth(7)");
  EXPECT_EQ(FeasibilityAdmission().name(), "feasibility(0)");
}

TEST(AdmissionControllerTest, NullFactoryAdmitsEverything) {
  const RunResult r = RunAdmitted(
      {Txn(0, 0, 3, 100), Txn(1, 0, 3, 100)}, nullptr);
  EXPECT_EQ(r.num_shed, 0u);
  EXPECT_EQ(r.goodput, 1.0);
}

// ---------------------------------------------------------------------------
// BrownoutAdmission: adaptive shedding from OBSERVED tardiness/depth
// (the live executor feeds ObserveCompletion; these tests drive the
// signals by hand). ewma_alpha = 1.0 makes each EWMA equal the latest
// sample, so severity is exactly controllable.

BrownoutAdmissionOptions ResponsiveBrownout() {
  BrownoutAdmissionOptions options;
  options.tardiness_slo = 0.5;
  options.depth_slo = 16.0;
  options.ewma_alpha = 1.0;
  options.weight_tiers = {1.0, 4.0, 16.0};
  options.breaker_trip_severity = 4.0;
  options.breaker_cooldown = 5.0;
  return options;
}

/// Roots of every weight tier plus one dependent; nothing ready, so the
/// depth signal stays zero and tardiness alone sets the severity.
testing::FakeView BrownoutView() {
  std::vector<TransactionSpec> txns = {
      Txn(0, 0, 1, 100, /*weight=*/0.5),  Txn(1, 0, 1, 100, /*weight=*/2.0),
      Txn(2, 0, 1, 100, /*weight=*/16.0), Txn(3, 0, 1, 100, /*weight=*/0.5,
                                              /*deps=*/{0}),
  };
  return testing::FakeView(std::move(txns));
}

TEST(BrownoutAdmissionTest, HealthyAdmitsEveryWeight) {
  auto view = BrownoutView();
  BrownoutAdmission brownout(ResponsiveBrownout());
  brownout.Bind(view);
  for (TxnId id = 0; id < 3; ++id) {
    EXPECT_EQ(brownout.Decide(id, 0.0).action,
              AdmissionDecision::Action::kAdmit)
        << "T" << id;
  }
  EXPECT_EQ(brownout.breaker_state(),
            BrownoutAdmission::BreakerState::kClosed);
}

TEST(BrownoutAdmissionTest, BrownoutShedsByWeightTier) {
  auto view = BrownoutView();
  BrownoutAdmission brownout(ResponsiveBrownout());
  brownout.Bind(view);

  // severity 1.5: one unit of overload -> floor = tier 0 (weight 1.0).
  brownout.ObserveCompletion(0, /*tardiness=*/0.75, 1.0);
  EXPECT_EQ(brownout.Decide(0, 1.0).action,
            AdmissionDecision::Action::kReject);  // weight 0.5 < 1.0
  EXPECT_EQ(brownout.Decide(1, 1.0).action,
            AdmissionDecision::Action::kAdmit);  // weight 2.0 >= 1.0

  // severity 2.5: deeper overload -> floor = tier 1 (weight 4.0).
  brownout.ObserveCompletion(0, /*tardiness=*/1.25, 2.0);
  EXPECT_EQ(brownout.Decide(1, 2.0).action,
            AdmissionDecision::Action::kReject);  // weight 2.0 < 4.0
  EXPECT_EQ(brownout.Decide(2, 2.0).action,
            AdmissionDecision::Action::kAdmit);  // weight 16.0 >= 4.0
}

TEST(BrownoutAdmissionTest, MidWorkflowArrivalsRideTheBrownoutOut) {
  auto view = BrownoutView();
  BrownoutAdmission brownout(ResponsiveBrownout());
  brownout.Bind(view);
  brownout.ObserveCompletion(0, /*tardiness=*/1.25, 1.0);  // severity 2.5
  // T3 depends on T0: shedding it would waste finished predecessor work.
  EXPECT_EQ(brownout.Decide(3, 1.0).action,
            AdmissionDecision::Action::kAdmit);
}

TEST(BrownoutAdmissionTest, BreakerTripsAndRecoversThroughAProbe) {
  auto view = BrownoutView();
  BrownoutAdmission brownout(ResponsiveBrownout());
  brownout.Bind(view);

  // severity 4.0 >= trip: the breaker opens; only top tier passes.
  brownout.ObserveCompletion(0, /*tardiness=*/2.0, 1.0);
  EXPECT_EQ(brownout.Decide(1, 1.0).action,
            AdmissionDecision::Action::kReject);
  EXPECT_EQ(brownout.breaker_state(), BrownoutAdmission::BreakerState::kOpen);
  EXPECT_EQ(brownout.Decide(2, 1.5).action,
            AdmissionDecision::Action::kAdmit);  // top tier rides through

  // Cooldown elapsed: the next root is admitted as the half-open probe
  // regardless of weight; contemporaries still face the top-tier bar.
  EXPECT_EQ(brownout.Decide(0, 7.0).action,
            AdmissionDecision::Action::kAdmit);
  EXPECT_EQ(brownout.breaker_state(),
            BrownoutAdmission::BreakerState::kHalfOpen);
  EXPECT_EQ(brownout.Decide(1, 7.0).action,
            AdmissionDecision::Action::kReject);

  // The probe meets the SLO: the breaker closes and (with the tardiness
  // signal now healthy) low weights are admitted again.
  brownout.ObserveCompletion(0, /*tardiness=*/0.0, 8.0);
  EXPECT_EQ(brownout.breaker_state(),
            BrownoutAdmission::BreakerState::kClosed);
  EXPECT_EQ(brownout.Decide(0, 8.0).action,
            AdmissionDecision::Action::kAdmit);
}

TEST(BrownoutAdmissionTest, TardyProbeReopensTheBreaker) {
  auto view = BrownoutView();
  BrownoutAdmission brownout(ResponsiveBrownout());
  brownout.Bind(view);
  brownout.ObserveCompletion(0, /*tardiness=*/2.0, 1.0);
  (void)brownout.Decide(1, 1.0);  // trips the breaker open
  (void)brownout.Decide(0, 7.0);  // half-open probe
  brownout.ObserveCompletion(0, /*tardiness=*/1.0, 7.5);  // probe misses SLO
  EXPECT_EQ(brownout.breaker_state(), BrownoutAdmission::BreakerState::kOpen);
  // Re-opened for another full cooldown from the probe's completion.
  EXPECT_EQ(brownout.Decide(0, 10.0).action,
            AdmissionDecision::Action::kReject);
}

TEST(BrownoutAdmissionTest, DepthSignalAloneCanBrownout) {
  // 20 ready roots on 1 server vs depth_slo 8: severity 2.5 from depth
  // with zero observed tardiness.
  std::vector<TransactionSpec> txns;
  for (TxnId id = 0; id < 20; ++id) {
    txns.push_back(Txn(id, 0, 1, 100, /*weight=*/2.0));
  }
  txns.push_back(Txn(20, 0, 1, 100, /*weight=*/8.0));
  testing::FakeView view(std::move(txns));
  view.ArriveAll();

  BrownoutAdmissionOptions options = ResponsiveBrownout();
  options.depth_slo = 8.0;
  BrownoutAdmission brownout(options);
  brownout.Bind(view);
  EXPECT_EQ(brownout.Decide(0, 0.0).action,
            AdmissionDecision::Action::kReject);  // weight 2.0 < tier-1 4.0
  EXPECT_EQ(brownout.Decide(20, 0.0).action,
            AdmissionDecision::Action::kAdmit);  // weight 8.0 >= 4.0
  EXPECT_GT(brownout.depth_ewma(), options.depth_slo);
}

/// FakeView with a controllable server pool, for the crash-aware
/// severity signal (FakeView itself is final, so delegate).
class CrashyView final : public SimView {
 public:
  explicit CrashyView(std::vector<TransactionSpec> txns)
      : inner_(std::move(txns)) {}

  void SetServers(size_t total, size_t up) {
    total_ = total;
    up_ = up;
  }

  const std::vector<TransactionSpec>& specs() const override {
    return inner_.specs();
  }
  const DependencyGraph& graph() const override { return inner_.graph(); }
  const WorkflowRegistry& workflows() const override {
    return inner_.workflows();
  }
  SimTime remaining(TxnId id) const override { return inner_.remaining(id); }
  bool IsArrived(TxnId id) const override { return inner_.IsArrived(id); }
  bool IsFinished(TxnId id) const override { return inner_.IsFinished(id); }
  bool IsReady(TxnId id) const override { return inner_.IsReady(id); }
  const std::vector<TxnId>& ready_transactions() const override {
    return inner_.ready_transactions();
  }
  size_t num_servers() const override { return total_; }
  size_t num_servers_up() const override { return up_; }

 private:
  testing::FakeView inner_;
  size_t total_ = 1;
  size_t up_ = 1;
};

TEST(BrownoutAdmissionTest, CrashAwareSeverityShedsWhenWorkersDie) {
  // Zero tardiness, zero depth: only the crash signal can brown out.
  CrashyView view({Txn(0, 0, 1, 100, /*weight=*/0.5),
                   Txn(1, 0, 1, 100, /*weight=*/2.0)});
  view.SetServers(4, 4);
  BrownoutAdmissionOptions options = ResponsiveBrownout();
  options.capacity_slo = 0.5;  // half the farm down = "at capacity"
  BrownoutAdmission brownout(options);
  brownout.Bind(view);

  // Full pool: healthy, everything admitted.
  EXPECT_EQ(brownout.Decide(0, 0.0).action,
            AdmissionDecision::Action::kAdmit);

  // 3 of 4 down: down_fraction 0.75 / slo 0.5 = severity 1.5 -> floor
  // tier 0 (weight 1.0) purely from lost capacity, before any backlog
  // symptom shows up in tardiness or depth.
  view.SetServers(4, 1);
  EXPECT_EQ(brownout.Decide(0, 1.0).action,
            AdmissionDecision::Action::kReject);  // weight 0.5 < 1.0
  EXPECT_EQ(brownout.Decide(1, 1.0).action,
            AdmissionDecision::Action::kAdmit);  // weight 2.0 >= 1.0

  // The signal is instantaneous, not an EWMA: repairs restore admission
  // at the very next arrival.
  view.SetServers(4, 4);
  EXPECT_EQ(brownout.Decide(0, 2.0).action,
            AdmissionDecision::Action::kAdmit);
}

TEST(BrownoutAdmissionTest, CapacitySloZeroDisablesTheCrashSignal) {
  CrashyView view({Txn(0, 0, 1, 100, /*weight=*/0.5)});
  view.SetServers(4, 0);  // the whole farm is down
  BrownoutAdmission brownout(ResponsiveBrownout());  // capacity_slo = 0
  brownout.Bind(view);
  EXPECT_EQ(brownout.Decide(0, 0.0).action,
            AdmissionDecision::Action::kAdmit);
}

// ---------------------------------------------------------------------------
// A Simulator builds its controller once and re-binds it on every run, so
// Reset must restore the constructed state: runs back to back on one
// simulator, under different policies, match runs on fresh simulators.
// The overloaded input makes every controller act (defer budgets spent,
// the brownout breaker tripped and left half-open), so any state that
// survived Bind would show up in the next run's digest.

TEST(AdmissionControllerTest, ReusedControllerRunsMatchFreshSimulators) {
  WorkloadSpec spec;
  spec.num_transactions = 300;
  spec.utilization = 2.5;
  spec.max_weight = 20;
  spec.max_workflow_length = 3;
  auto generator = WorkloadGenerator::Create(spec);
  ASSERT_TRUE(generator.ok()) << generator.status();
  const std::vector<TransactionSpec> txns =
      generator.ValueOrDie().Generate(/*seed=*/17);

  QueueDepthAdmissionOptions depth;
  depth.max_ready = 6;
  depth.defer_delay = 1.5;
  depth.max_defers = 2;
  BrownoutAdmissionOptions brownout;
  brownout.depth_slo = 1.5;
  const std::pair<std::string, AdmissionFactory> controllers[] = {
      {"queue-depth", MakeQueueDepthAdmission(depth)},
      {"brownout", MakeBrownoutAdmission(brownout)},
      {"feasibility", MakeFeasibilityAdmission()},
  };
  const char* const policies[] = {"EDF", "SRPT", "ASETS*", "FCFS", "EDF"};
  for (const size_t servers : {1u, 2u}) {
    for (const auto& [name, factory] : controllers) {
      SimOptions options;
      options.num_servers = servers;
      options.record_schedule = true;
      options.admission = factory;
      auto reused = Simulator::Create(txns, options);
      ASSERT_TRUE(reused.ok()) << reused.status();
      size_t acted = 0;
      for (const char* policy_spec : policies) {
        SCOPED_TRACE(name + " servers=" + std::to_string(servers) +
                     " policy=" + policy_spec);
        auto policy = CreatePolicy(policy_spec);
        ASSERT_TRUE(policy.ok()) << policy.status();
        const RunResult got = reused.ValueOrDie().Run(*policy.ValueOrDie());
        auto fresh = Simulator::Create(txns, options);
        ASSERT_TRUE(fresh.ok()) << fresh.status();
        const RunResult want = fresh.ValueOrDie().Run(*policy.ValueOrDie());
        EXPECT_EQ(ScheduleDigest(got), ScheduleDigest(want));
        EXPECT_EQ(got.num_shed, want.num_shed);
        EXPECT_EQ(got.num_deferrals, want.num_deferrals);
        acted += got.num_shed + got.num_deferrals;
      }
      EXPECT_GT(acted, 0u) << name << " never acted on the overloaded input";
    }
  }
}

}  // namespace
}  // namespace webtx
