// End-to-end: backend database -> page templates -> request server ->
// transaction workload -> simulator -> per-fragment outcomes -> profiler.

#include <gtest/gtest.h>

#include "sched/policies/asets_star.h"
#include "sched/policies/single_queue_policies.h"
#include "sim/simulator.h"
#include "testing/id_ranges.h"
#include "webdb/database.h"
#include "webdb/page.h"
#include "webdb/profiler.h"
#include "webdb/server.h"

namespace webtx::webdb {
namespace {

class WebdbPipelineTest : public ::testing::Test {
 protected:
  WebdbPipelineTest() {
    EXPECT_TRUE(db_.CreateTable("stocks", {{"symbol", ColumnType::kText},
                                           {"price", ColumnType::kNumber},
                                           {"change", ColumnType::kNumber}})
                    .ok());
    EXPECT_TRUE(db_.CreateTable("portfolio",
                                {{"user", ColumnType::kText},
                                 {"symbol", ColumnType::kText}})
                    .ok());
    auto stocks = db_.GetTable("stocks").ValueOrDie();
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(stocks
                      ->Insert({"S" + std::to_string(i), 10.0 + i,
                                static_cast<double>(i % 13) - 6.0})
                      .ok());
    }
    auto portfolio = db_.GetTable("portfolio").ValueOrDie();
    for (int i = 0; i < 15; ++i) {
      EXPECT_TRUE(
          portfolio->Insert({std::string("u"), "S" + std::to_string(i * 7)})
              .ok());
    }
  }

  PageTemplate Page() const {
    PageTemplate page;
    page.name = "dash";
    FragmentTemplate prices;
    prices.name = "prices";
    prices.query.name = "q_prices";
    prices.query.table = "stocks";
    prices.sla_offset = 8.0;
    page.fragments.push_back(prices);

    FragmentTemplate mine;
    mine.name = "mine";
    mine.query.name = "q_mine";
    mine.query.table = "stocks";
    mine.query.join_table = "portfolio";
    mine.query.join_left_column = "symbol";
    mine.query.join_right_column = "symbol";
    mine.sla_offset = 6.0;
    mine.base_weight = 2.0;
    mine.depends_on = {0};
    page.fragments.push_back(mine);

    FragmentTemplate alerts;
    alerts.name = "alerts";
    alerts.query = mine.query;
    alerts.query.name = "q_alerts";
    alerts.query.filters = {{"change", CompareOp::kGe, Value{5.0}}};
    alerts.sla_offset = 3.0;
    alerts.base_weight = 3.0;
    alerts.depends_on = {1};
    page.fragments.push_back(alerts);
    return page;
  }

  InMemoryDatabase db_;
  Profiler profiler_;
};

TEST_F(WebdbPipelineTest, FullPipelineRunsUnderEveryPolicy) {
  PageRequestServer server(&db_, &profiler_);
  for (int i = 0; i < 10; ++i) {
    const auto tier = static_cast<SubscriptionTier>(i % 3);
    ASSERT_TRUE(server.Submit(Page(), tier, i * 1.5).ok());
  }
  ASSERT_EQ(server.workload().size(), 30u);

  auto sim = Simulator::Create(server.workload());
  ASSERT_TRUE(sim.ok()) << sim.status();

  EdfPolicy edf;
  AsetsStarPolicy star;
  const RunResult r_edf = sim.ValueOrDie().Run(edf);
  const RunResult r_star = sim.ValueOrDie().Run(star);
  EXPECT_EQ(r_edf.outcomes.size(), 30u);
  EXPECT_EQ(r_star.outcomes.size(), 30u);

  // Dependencies hold: within a request, the join fragment finishes after
  // the prices fragment, and alerts after the join.
  for (size_t req = 0; req < 10; ++req) {
    const size_t base = req * 3;
    EXPECT_GT(r_star.outcomes[base + 1].finish,
              r_star.outcomes[base].finish);
    EXPECT_GT(r_star.outcomes[base + 2].finish,
              r_star.outcomes[base + 1].finish);
  }
}

TEST_F(WebdbPipelineTest, WorkflowsMatchRequests) {
  PageRequestServer server(&db_, &profiler_);
  ASSERT_TRUE(server.Submit(Page(), SubscriptionTier::kGold, 0.0).ok());
  ASSERT_TRUE(server.Submit(Page(), SubscriptionTier::kBronze, 2.0).ok());
  auto sim = Simulator::Create(server.workload());
  ASSERT_TRUE(sim.ok());
  // Each request is one chain: prices -> mine -> alerts, so one workflow
  // rooted at the alerts transaction.
  const auto& registry = sim.ValueOrDie().workflows();
  ASSERT_EQ(registry.num_workflows(), 2u);
  EXPECT_EQ(testing::ToVector(registry.workflow(0).members),
            (std::vector<TxnId>{0, 1, 2}));
  EXPECT_EQ(testing::ToVector(registry.workflow(1).members),
            (std::vector<TxnId>{3, 4, 5}));
}

TEST_F(WebdbPipelineTest, ProfilerLearningChangesSubsequentLengths) {
  PageRequestServer server(&db_, &profiler_);
  ASSERT_TRUE(server.Submit(Page(), SubscriptionTier::kGold, 0.0).ok());
  const double first_length = server.workload()[0].length;
  ASSERT_TRUE(server.MaterializeAll().ok());
  // Grow the table: the modeled cost of the scan rises, and after another
  // materialization the profile shifts.
  auto stocks = db_.GetTable("stocks").ValueOrDie();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(stocks->Insert({"X" + std::to_string(i), 1.0, 0.0}).ok());
  }
  for (int pass = 0; pass < 20; ++pass) {
    ASSERT_TRUE(server.MaterializeAll().ok());
  }
  ASSERT_TRUE(server.Submit(Page(), SubscriptionTier::kGold, 10.0).ok());
  const double later_length = server.workload()[3].length;
  EXPECT_GT(later_length, first_length);
}

TEST_F(WebdbPipelineTest, MaterializedContentMatchesQuerySemantics) {
  PageRequestServer server(&db_, &profiler_);
  ASSERT_TRUE(server.Submit(Page(), SubscriptionTier::kGold, 0.0).ok());
  auto prices = server.Materialize(0);
  ASSERT_TRUE(prices.ok());
  EXPECT_EQ(prices.ValueOrDie().rows.size(), 200u);
  auto mine = server.Materialize(1);
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine.ValueOrDie().rows.size(), 15u);
  auto alerts = server.Materialize(2);
  ASSERT_TRUE(alerts.ok());
  EXPECT_LE(alerts.ValueOrDie().rows.size(), 15u);
}

}  // namespace
}  // namespace webtx::webdb
