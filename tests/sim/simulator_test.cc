#include "sim/simulator.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "sched/policies/single_queue_policies.h"
#include "testing/fake_view.h"

namespace webtx {
namespace {

using testing::Txn;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Create's error message, or "ok".
std::string CreateError(std::vector<TransactionSpec> txns) {
  auto sim = Simulator::Create(std::move(txns));
  return sim.ok() ? "ok" : sim.status().message();
}

RunResult RunWith(std::vector<TransactionSpec> txns, SchedulerPolicy& policy,
                  SimOptions options = {}) {
  auto sim = Simulator::Create(std::move(txns), options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  return sim.ValueOrDie().Run(policy);
}

TEST(SimulatorTest, SingleTransactionRunsImmediately) {
  FcfsPolicy policy;
  const RunResult r = RunWith({Txn(0, 2.0, 5.0, 10.0)}, policy);
  EXPECT_EQ(r.outcomes[0].finish, 7.0);
  EXPECT_EQ(r.outcomes[0].tardiness, 0.0);
  EXPECT_EQ(r.outcomes[0].response, 5.0);
  EXPECT_FALSE(r.outcomes[0].missed_deadline);
  EXPECT_EQ(r.makespan, 7.0);
}

TEST(SimulatorTest, TardinessRecordedWhenLate) {
  FcfsPolicy policy;
  const RunResult r = RunWith({Txn(0, 0.0, 5.0, 3.0, 2.0)}, policy);
  EXPECT_EQ(r.outcomes[0].finish, 5.0);
  EXPECT_EQ(r.outcomes[0].tardiness, 2.0);
  EXPECT_EQ(r.outcomes[0].weighted_tardiness, 4.0);
  EXPECT_TRUE(r.outcomes[0].missed_deadline);
}

TEST(SimulatorTest, FcfsRunsInArrivalOrder) {
  FcfsPolicy policy;
  const RunResult r = RunWith(
      {Txn(0, 0, 4, 100), Txn(1, 1, 2, 100), Txn(2, 2, 3, 100)}, policy);
  EXPECT_EQ(r.outcomes[0].finish, 4.0);
  EXPECT_EQ(r.outcomes[1].finish, 6.0);
  EXPECT_EQ(r.outcomes[2].finish, 9.0);
  EXPECT_EQ(r.num_preemptions, 0u);
}

TEST(SimulatorTest, SrptPreemptsOnShorterArrival) {
  SrptPolicy policy;
  // T0 (len 10) starts at 0; T1 (len 2) arrives at 3 and preempts.
  const RunResult r = RunWith({Txn(0, 0, 10, 100), Txn(1, 3, 2, 100)}, policy);
  EXPECT_EQ(r.outcomes[1].finish, 5.0);
  EXPECT_EQ(r.outcomes[0].finish, 12.0);
  EXPECT_EQ(r.num_preemptions, 1u);
}

TEST(SimulatorTest, LongArrivalDoesNotPreemptSrpt) {
  SrptPolicy policy;
  const RunResult r = RunWith({Txn(0, 0, 5, 100), Txn(1, 1, 9, 100)}, policy);
  EXPECT_EQ(r.outcomes[0].finish, 5.0);
  EXPECT_EQ(r.outcomes[1].finish, 14.0);
  EXPECT_EQ(r.num_preemptions, 0u);
}

TEST(SimulatorTest, DependenciesGateExecution) {
  // T1 depends on T0 but has an earlier deadline and arrives first; it
  // still cannot start before T0 finishes.
  EdfPolicy policy;
  const RunResult r =
      RunWith({Txn(0, 5, 4, 100), Txn(1, 0, 2, 10, 1.0, {0})}, policy);
  EXPECT_EQ(r.outcomes[0].finish, 9.0);
  EXPECT_EQ(r.outcomes[1].finish, 11.0);
  EXPECT_TRUE(r.outcomes[1].missed_deadline);
}

TEST(SimulatorTest, DiamondDependencyOrder) {
  FcfsPolicy policy;
  const RunResult r = RunWith(
      {Txn(0, 0, 2, 100), Txn(1, 0, 3, 100, 1.0, {0}),
       Txn(2, 0, 4, 100, 1.0, {0}), Txn(3, 0, 1, 100, 1.0, {1, 2})},
      policy);
  EXPECT_EQ(r.outcomes[0].finish, 2.0);
  // T1 and T2 became ready when T0 finished; FCFS ties by arrival then id.
  EXPECT_EQ(r.outcomes[1].finish, 5.0);
  EXPECT_EQ(r.outcomes[2].finish, 9.0);
  EXPECT_EQ(r.outcomes[3].finish, 10.0);
}

TEST(SimulatorTest, IdleGapBetweenArrivals) {
  FcfsPolicy policy;
  const RunResult r = RunWith({Txn(0, 0, 1, 10), Txn(1, 50, 1, 60)}, policy);
  EXPECT_EQ(r.outcomes[0].finish, 1.0);
  EXPECT_EQ(r.outcomes[1].finish, 51.0);
  EXPECT_GT(r.num_idle_decisions, 0u);
}

TEST(SimulatorTest, SimultaneousArrivalsAllProcessed) {
  SrptPolicy policy;
  const RunResult r = RunWith(
      {Txn(0, 1, 3, 100), Txn(1, 1, 1, 100), Txn(2, 1, 2, 100)}, policy);
  EXPECT_EQ(r.outcomes[1].finish, 2.0);
  EXPECT_EQ(r.outcomes[2].finish, 4.0);
  EXPECT_EQ(r.outcomes[0].finish, 7.0);
}

TEST(SimulatorTest, CompletionProcessedBeforeSimultaneousArrival) {
  // T0 completes exactly when T1 arrives; the server must not "see" T1
  // before T0's completion is accounted (no preemption counted).
  FcfsPolicy policy;
  const RunResult r = RunWith({Txn(0, 0, 5, 100), Txn(1, 5, 1, 100)}, policy);
  EXPECT_EQ(r.outcomes[0].finish, 5.0);
  EXPECT_EQ(r.outcomes[1].finish, 6.0);
  EXPECT_EQ(r.num_preemptions, 0u);
}

TEST(SimulatorTest, ContextSwitchCostDelaysDispatch) {
  SimOptions options;
  options.context_switch_cost = 0.5;
  SrptPolicy policy;
  const RunResult r =
      RunWith({Txn(0, 0, 10, 100), Txn(1, 3, 2, 100)}, policy, options);
  // Dispatch at t=0 costs 0.5 (cold start), so T0 runs [0.5, ...); T1
  // arrives at 3, preempts (0.5 switch), runs [3.5, 5.5); T0 resumes with
  // another 0.5 switch.
  EXPECT_EQ(r.outcomes[1].finish, 5.5);
  EXPECT_EQ(r.outcomes[0].finish, 13.5);
}

TEST(SimulatorTest, RunIsRepeatableAndReusable) {
  auto sim = Simulator::Create(
      {Txn(0, 0, 4, 6), Txn(1, 1, 2, 5), Txn(2, 2, 3, 20)});
  ASSERT_TRUE(sim.ok());
  EdfPolicy edf;
  SrptPolicy srpt;
  const RunResult a1 = sim.ValueOrDie().Run(edf);
  const RunResult b = sim.ValueOrDie().Run(srpt);
  const RunResult a2 = sim.ValueOrDie().Run(edf);
  ASSERT_EQ(a1.outcomes.size(), a2.outcomes.size());
  for (size_t i = 0; i < a1.outcomes.size(); ++i) {
    EXPECT_EQ(a1.outcomes[i].finish, a2.outcomes[i].finish);
  }
  EXPECT_EQ(a1.policy_name, "EDF");
  EXPECT_EQ(b.policy_name, "SRPT");
}

TEST(SimulatorTest, RecordOutcomesOffDropsPerTxnData) {
  SimOptions options;
  options.record_outcomes = false;
  FcfsPolicy policy;
  const RunResult r = RunWith({Txn(0, 0, 1, 10)}, policy, options);
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.makespan, 1.0);  // aggregates still computed
}

TEST(SimulatorTest, SchedulingPointsCounted) {
  FcfsPolicy policy;
  const RunResult r = RunWith({Txn(0, 0, 1, 10), Txn(1, 0.5, 1, 10)}, policy);
  // Events: arrival(T0), arrival(T1), completion(T0), completion(T1).
  EXPECT_EQ(r.num_scheduling_points, 4u);
}

TEST(SimulatorTest, EstimatesSteerThePolicyButTruthDrivesCompletions) {
  // SRPT plans with estimates: T0 looks short (est 1, truly 10), T1 looks
  // long (est 10, truly 1). SRPT must run T0 first — and T0 still takes
  // its TRUE 10 time units.
  std::vector<TransactionSpec> txns = {Txn(0, 0, 10, 100),
                                       Txn(1, 0, 1, 100)};
  txns[0].length_estimate = 1.0;
  txns[1].length_estimate = 10.0;
  SrptPolicy policy;
  const RunResult r = RunWith(txns, policy);
  EXPECT_EQ(r.outcomes[0].finish, 10.0);
  EXPECT_EQ(r.outcomes[1].finish, 11.0);
}

TEST(SimulatorTest, ExactEstimateIsDefault) {
  // Unset estimate behaves exactly like the pre-estimate model.
  std::vector<TransactionSpec> plain = {Txn(0, 0, 10, 100),
                                        Txn(1, 0, 1, 100)};
  auto with_estimates = plain;
  with_estimates[0].length_estimate = 10.0;
  with_estimates[1].length_estimate = 1.0;
  SrptPolicy policy;
  const RunResult a = RunWith(plain, policy);
  const RunResult b = RunWith(with_estimates, policy);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.outcomes[i].finish, b.outcomes[i].finish);
  }
}

TEST(SimulatorTest, UnderestimatedTransactionKeepsRunningToTrueLength) {
  // A transaction that overruns its estimate must still complete after
  // its true length; the policy-visible remaining time floors near zero
  // instead of going negative.
  std::vector<TransactionSpec> txns = {Txn(0, 0, 10, 100), Txn(1, 4, 2, 6)};
  txns[0].length_estimate = 2.0;  // wildly optimistic
  SrptPolicy policy;
  const RunResult r = RunWith(txns, policy);
  // T1 arrives at 4; T0's estimated remaining is floored tiny, so SRPT
  // keeps T0... T0 actually finishes at 10 (true length).
  EXPECT_EQ(r.outcomes[0].finish, 10.0);
  EXPECT_EQ(r.outcomes[1].finish, 12.0);
}

TEST(SimulatorTest, CreateRejectsNegativeEstimate) {
  std::vector<TransactionSpec> txns = {Txn(0, 0, 1, 10)};
  txns[0].length_estimate = -1.0;
  EXPECT_FALSE(Simulator::Create(txns).ok());
  txns[0].length_estimate = kNaN;
  EXPECT_EQ(CreateError(txns), "T0 has non-finite length estimate");
  txns[0].length_estimate = kInf;
  EXPECT_EQ(CreateError(txns), "T0 has non-finite length estimate");
}

TEST(SimulatorTest, CreateRejectsBadWorkloads) {
  EXPECT_FALSE(Simulator::Create({Txn(0, 0, 0, 10)}).ok());    // zero length
  EXPECT_FALSE(Simulator::Create({Txn(0, -1, 1, 10)}).ok());   // negative a
  EXPECT_FALSE(
      Simulator::Create({Txn(0, 0, 1, 10, 0.0)}).ok());        // zero weight
  EXPECT_FALSE(
      Simulator::Create({Txn(0, 0, 1, 10, 1.0, {0})}).ok());   // self dep
  EXPECT_FALSE(Simulator::Create({Txn(3, 0, 1, 10)}).ok());    // bad id
  // Non-finite numbers. NaN passes every range check above; a NaN length
  // never finishes, a NaN arrival breaks the arrival-order sort, an
  // infinite arrival stalls the run, and NaN weights and deadlines
  // poison or hide the tardiness metrics.
  EXPECT_EQ(CreateError({Txn(0, 0, kNaN, 10), Txn(1, 0, 1, 10)}),
            "T0 has non-finite length");
  EXPECT_EQ(CreateError({Txn(0, 0, kInf, 10)}), "T0 has non-finite length");
  EXPECT_EQ(
      CreateError({Txn(0, 0, 1, 10), Txn(1, kNaN, 1, 10), Txn(2, 0, 1, 10)}),
      "T1 has non-finite arrival time");
  EXPECT_EQ(CreateError({Txn(0, 0, 1, 10), Txn(1, kInf, 1, 10)}),
            "T1 has non-finite arrival time");
  EXPECT_EQ(CreateError({Txn(0, 0, 1, 10, kNaN), Txn(1, 0, 1, 10)}),
            "T0 has non-finite weight");
  EXPECT_EQ(CreateError({Txn(0, 0, 1, 10, kInf)}), "T0 has non-finite weight");
  EXPECT_EQ(CreateError({Txn(0, 0, 1, 10), Txn(1, 0, 1, kNaN)}),
            "T1 has NaN deadline");
  // An infinite deadline is legal: the transaction is never late.
  EXPECT_EQ(CreateError({Txn(0, 0, 1, kInf)}), "ok");
}

TEST(SimulatorTest, EmptyWorkloadFinishesImmediately) {
  auto sim = Simulator::Create({});
  ASSERT_TRUE(sim.ok());
  FcfsPolicy policy;
  const RunResult r = sim.ValueOrDie().Run(policy);
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.num_scheduling_points, 0u);
}

TEST(SimulatorTest, ExposesSimViewState) {
  auto sim = Simulator::Create({Txn(0, 0, 2, 10), Txn(1, 0, 3, 10, 1.0, {0})});
  ASSERT_TRUE(sim.ok());
  const Simulator& view = sim.ValueOrDie();
  EXPECT_EQ(view.specs().size(), 2u);
  EXPECT_EQ(view.graph().num_edges(), 1u);
  EXPECT_EQ(view.workflows().num_workflows(), 1u);
}

}  // namespace
}  // namespace webtx
