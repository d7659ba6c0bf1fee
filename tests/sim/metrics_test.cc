#include "sim/metrics.h"

#include <gtest/gtest.h>

#include "testing/fake_view.h"

namespace webtx {
namespace {

using testing::Txn;

TEST(MetricsTest, EmptyOutcomes) {
  const RunResult r = RunResult::FromOutcomes("X", {}, {});
  EXPECT_EQ(r.policy_name, "X");
  EXPECT_EQ(r.avg_tardiness, 0.0);
  EXPECT_EQ(r.miss_ratio, 0.0);
  EXPECT_TRUE(r.outcomes.empty());
}

TEST(MetricsTest, AggregatesMatchDefinitions) {
  // Definitions 4 and 5: averages over ALL N transactions (tardy or not).
  const std::vector<TransactionSpec> specs = {
      Txn(0, 0, 1, 10, 2.0), Txn(1, 0, 1, 10, 3.0), Txn(2, 0, 1, 10, 1.0)};
  std::vector<TxnOutcome> outcomes(3);
  outcomes[0] = {.finish = 12.0,
                 .tardiness = 2.0,
                 .weighted_tardiness = 4.0,
                 .response = 12.0,
                 .missed_deadline = true};
  outcomes[1] = {.finish = 8.0,
                 .tardiness = 0.0,
                 .weighted_tardiness = 0.0,
                 .response = 8.0,
                 .missed_deadline = false};
  outcomes[2] = {.finish = 16.0,
                 .tardiness = 6.0,
                 .weighted_tardiness = 6.0,
                 .response = 16.0,
                 .missed_deadline = true};

  const RunResult r = RunResult::FromOutcomes("P", specs, outcomes);
  EXPECT_NEAR(r.avg_tardiness, 8.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.avg_weighted_tardiness, 10.0 / 3.0, 1e-12);
  EXPECT_EQ(r.max_tardiness, 6.0);
  EXPECT_EQ(r.max_weighted_tardiness, 6.0);
  EXPECT_NEAR(r.miss_ratio, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.avg_response, 12.0, 1e-12);
  EXPECT_EQ(r.makespan, 16.0);
  EXPECT_EQ(r.outcomes.size(), 3u);
}

TEST(MetricsTest, MaxWeightedTardinessCanComeFromLowTardiness) {
  // A small tardiness with huge weight dominates the weighted maximum.
  const std::vector<TransactionSpec> specs = {Txn(0, 0, 1, 10, 10.0),
                                              Txn(1, 0, 1, 10, 1.0)};
  std::vector<TxnOutcome> outcomes(2);
  outcomes[0] = {.finish = 11.0,
                 .tardiness = 1.0,
                 .weighted_tardiness = 10.0,
                 .response = 11.0,
                 .missed_deadline = true};
  outcomes[1] = {.finish = 15.0,
                 .tardiness = 5.0,
                 .weighted_tardiness = 5.0,
                 .response = 15.0,
                 .missed_deadline = true};
  const RunResult r = RunResult::FromOutcomes("P", specs, outcomes);
  EXPECT_EQ(r.max_tardiness, 5.0);
  EXPECT_EQ(r.max_weighted_tardiness, 10.0);
}

TEST(MetricsTest, ResolvedMaskKeepsUnresolvedOutOfTheAggregates) {
  // A horizon-bounded run leaves its unresolved transactions with
  // default outcomes: fate kCompleted and zero tardiness. Through the
  // mask they count against goodput and the miss ratio, and stay out of
  // the completed count and the tardiness and response aggregates.
  const std::vector<TransactionSpec> specs = {
      Txn(0, 0, 1, 10), Txn(1, 0, 1, 10), Txn(2, 0, 1, 10), Txn(3, 0, 1, 10),
      Txn(4, 0, 1, 10)};
  std::vector<TxnOutcome> outcomes(5);
  outcomes[0] = {.finish = 12.0,
                 .tardiness = 2.0,
                 .weighted_tardiness = 2.0,
                 .response = 12.0,
                 .missed_deadline = true};
  outcomes[1] = {.finish = 6.0,
                 .tardiness = 0.0,
                 .weighted_tardiness = 0.0,
                 .response = 6.0,
                 .missed_deadline = false};
  outcomes[2].aborts = 1;  // aborted once, still in flight at the cutoff
  outcomes[4] = {.finish = 1.0,
                 .missed_deadline = true,
                 .fate = TxnFate::kShedAdmission};
  const std::vector<char> resolved = {1, 1, 0, 0, 1};
  const RunResult r =
      RunResult::FromOutcomesView("P", specs, outcomes, &resolved);
  EXPECT_EQ(r.num_completed, 2u);
  EXPECT_EQ(r.num_shed, 1u);
  EXPECT_EQ(r.num_aborts, 1u);  // per-event counters count in flight too
  EXPECT_DOUBLE_EQ(r.goodput, 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(r.miss_ratio, 4.0 / 5.0);  // T0 tardy, T2, T3, T4
  EXPECT_DOUBLE_EQ(r.avg_tardiness, 1.0);     // over T0 and T1 only
  EXPECT_DOUBLE_EQ(r.avg_weighted_tardiness, 1.0);
  EXPECT_DOUBLE_EQ(r.avg_response, 9.0);
  EXPECT_EQ(r.max_tardiness, 2.0);
  EXPECT_EQ(r.makespan, 12.0);
  EXPECT_TRUE(r.outcomes.empty());

  // Unmasked, the same outcomes read as four zero-tardiness completions.
  const RunResult unmasked = RunResult::FromOutcomesView("P", specs, outcomes);
  EXPECT_EQ(unmasked.num_completed, 4u);
  EXPECT_DOUBLE_EQ(unmasked.avg_tardiness, 0.5);
}

TEST(MetricsDeathTest, SizeMismatchAborts) {
  const std::vector<TransactionSpec> specs = {Txn(0, 0, 1, 10)};
  EXPECT_DEATH(RunResult::FromOutcomes("P", specs, {}), "CHECK failed");
  const std::vector<TxnOutcome> outcomes(1);
  const std::vector<char> resolved;
  EXPECT_DEATH(RunResult::FromOutcomesView("P", specs, outcomes, &resolved),
               "CHECK failed");
}

}  // namespace
}  // namespace webtx
