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

TEST(MetricsTest, FromOutcomesViewMatchesFromOutcomesAndKeepsNoOutcomes) {
  // The record_outcomes = false fold: the same aggregates, bit for bit,
  // with the outcomes left with the caller. Covers every fate and the
  // per-event counters.
  const std::vector<TransactionSpec> specs = {
      Txn(0, 0, 1, 10, 2.0), Txn(1, 0, 1, 10), Txn(2, 0, 1, 10),
      Txn(3, 0, 1, 10), Txn(4, 0, 1, 10)};
  std::vector<TxnOutcome> outcomes(5);
  outcomes[0] = {.finish = 12.0,
                 .tardiness = 2.0,
                 .weighted_tardiness = 4.0,
                 .response = 12.0,
                 .missed_deadline = true,
                 .aborts = 1};
  outcomes[1] = {.finish = 6.0,
                 .tardiness = 0.0,
                 .weighted_tardiness = 0.0,
                 .response = 6.0,
                 .missed_deadline = false,
                 .migrations = 2};
  outcomes[2] = {.missed_deadline = true, .fate = TxnFate::kShedAdmission};
  outcomes[3] = {.missed_deadline = true, .fate = TxnFate::kDroppedRetries};
  outcomes[4] = {.missed_deadline = true,
                 .fate = TxnFate::kDroppedDependency};
  const RunResult view = RunResult::FromOutcomesView("P", specs, outcomes);
  const RunResult owned = RunResult::FromOutcomes("P", specs, outcomes);
  EXPECT_TRUE(view.outcomes.empty());
  EXPECT_EQ(owned.outcomes.size(), outcomes.size());
  EXPECT_EQ(view.policy_name, owned.policy_name);
  EXPECT_EQ(view.num_completed, 2u);
  EXPECT_EQ(view.num_completed, owned.num_completed);
  EXPECT_EQ(view.num_shed, owned.num_shed);
  EXPECT_EQ(view.num_dropped_retries, owned.num_dropped_retries);
  EXPECT_EQ(view.num_dropped_dependency, owned.num_dropped_dependency);
  EXPECT_EQ(view.num_aborts, owned.num_aborts);
  EXPECT_EQ(view.num_migrations, owned.num_migrations);
  EXPECT_EQ(view.avg_tardiness, owned.avg_tardiness);
  EXPECT_EQ(view.avg_weighted_tardiness, owned.avg_weighted_tardiness);
  EXPECT_EQ(view.avg_response, owned.avg_response);
  EXPECT_EQ(view.max_tardiness, owned.max_tardiness);
  EXPECT_EQ(view.max_weighted_tardiness, owned.max_weighted_tardiness);
  EXPECT_EQ(view.miss_ratio, owned.miss_ratio);
  EXPECT_EQ(view.goodput, owned.goodput);
  EXPECT_EQ(view.makespan, owned.makespan);
}

TEST(MetricsDeathTest, SizeMismatchAborts) {
  const std::vector<TransactionSpec> specs = {Txn(0, 0, 1, 10)};
  EXPECT_DEATH(RunResult::FromOutcomes("P", specs, {}), "CHECK failed");
  const std::vector<TxnOutcome> outcomes(2);
  EXPECT_DEATH(RunResult::FromOutcomesView("P", specs, outcomes),
               "CHECK failed");
}

}  // namespace
}  // namespace webtx
