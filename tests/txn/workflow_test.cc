#include "txn/workflow.h"

#include <gtest/gtest.h>

#include "testing/fake_view.h"
#include "testing/id_ranges.h"
#include "txn/dependency_graph.h"

namespace webtx {
namespace {

using testing::ToVector;
using testing::Txn;

WorkflowRegistry BuildRegistry(const std::vector<TransactionSpec>& txns) {
  auto g = DependencyGraph::Build(txns);
  EXPECT_TRUE(g.ok()) << g.status();
  return WorkflowRegistry::Build(g.ValueOrDie());
}

TEST(WorkflowTest, IndependentTransactionsAreSingletonWorkflows) {
  const auto registry =
      BuildRegistry({Txn(0, 0, 1, 1), Txn(1, 0, 1, 1), Txn(2, 0, 1, 1)});
  ASSERT_EQ(registry.num_workflows(), 3u);
  for (WorkflowId w = 0; w < 3; ++w) {
    EXPECT_EQ(ToVector(registry.workflow(w).members), std::vector<TxnId>{w});
    EXPECT_EQ(registry.workflow(w).root, w);
  }
  EXPECT_EQ(registry.max_workflow_size(), 1u);
}

TEST(WorkflowTest, ChainFormsSingleWorkflow) {
  // T0 -> T1 -> T2: one root (T2), one workflow with all three.
  const auto registry = BuildRegistry(
      {Txn(0, 0, 1, 1), Txn(1, 0, 1, 1, 1.0, {0}), Txn(2, 0, 1, 1, 1.0, {1})});
  ASSERT_EQ(registry.num_workflows(), 1u);
  const Workflow& wf = registry.workflow(0);
  EXPECT_EQ(wf.root, 2u);
  EXPECT_EQ(ToVector(wf.members), (std::vector<TxnId>{0, 1, 2}));
  EXPECT_EQ(registry.max_workflow_size(), 3u);
}

TEST(WorkflowTest, PaperFigure1Structure) {
  // The paper's Fig. 1: two workflows sharing leaf T1:
  //   <T1, Tm, Tn, To> and <T1, Ti, Tj, Tk>.
  // Ids: T1=0, Tm=1, Tn=2, To=3, Ti=4, Tj=5, Tk=6.
  const auto registry = BuildRegistry({
      Txn(0, 0, 1, 1),
      Txn(1, 0, 1, 1, 1.0, {0}),
      Txn(2, 0, 1, 1, 1.0, {1}),
      Txn(3, 0, 1, 1, 1.0, {2}),  // root To
      Txn(4, 0, 1, 1, 1.0, {0}),
      Txn(5, 0, 1, 1, 1.0, {4}),
      Txn(6, 0, 1, 1, 1.0, {5}),  // root Tk
  });
  ASSERT_EQ(registry.num_workflows(), 2u);
  EXPECT_EQ(registry.workflow(0).root, 3u);
  EXPECT_EQ(ToVector(registry.workflow(0).members),
            (std::vector<TxnId>{0, 1, 2, 3}));
  EXPECT_EQ(registry.workflow(1).root, 6u);
  EXPECT_EQ(ToVector(registry.workflow(1).members),
            (std::vector<TxnId>{0, 4, 5, 6}));

  // The shared leaf T1 (id 0) belongs to both workflows.
  EXPECT_EQ(ToVector(registry.WorkflowsOf(0)), (std::vector<WorkflowId>{0, 1}));
  EXPECT_EQ(ToVector(registry.WorkflowsOf(3)), std::vector<WorkflowId>{0});
  EXPECT_EQ(ToVector(registry.WorkflowsOf(6)), std::vector<WorkflowId>{1});
}

TEST(WorkflowTest, TransitiveDependencyIncluded) {
  // T0 -> T1 -> T2 plus direct T0 -> T2: members must not duplicate.
  const auto registry = BuildRegistry({Txn(0, 0, 1, 1),
                                       Txn(1, 0, 1, 1, 1.0, {0}),
                                       Txn(2, 0, 1, 1, 1.0, {0, 1})});
  ASSERT_EQ(registry.num_workflows(), 1u);
  EXPECT_EQ(ToVector(registry.workflow(0).members),
            (std::vector<TxnId>{0, 1, 2}));
}

TEST(WorkflowTest, DiamondIsOneWorkflow) {
  const auto registry = BuildRegistry(
      {Txn(0, 0, 1, 1), Txn(1, 0, 1, 1, 1.0, {0}), Txn(2, 0, 1, 1, 1.0, {0}),
       Txn(3, 0, 1, 1, 1.0, {1, 2})});
  ASSERT_EQ(registry.num_workflows(), 1u);
  EXPECT_EQ(ToVector(registry.workflow(0).members),
            (std::vector<TxnId>{0, 1, 2, 3}));
  EXPECT_EQ(registry.workflow(0).root, 3u);
}

TEST(WorkflowTest, EveryTransactionBelongsToAtLeastOneWorkflow) {
  const auto registry = BuildRegistry(
      {Txn(0, 0, 1, 1), Txn(1, 0, 1, 1, 1.0, {0}), Txn(2, 0, 1, 1),
       Txn(3, 0, 1, 1, 1.0, {1, 2})});
  for (TxnId id = 0; id < 4; ++id) {
    EXPECT_FALSE(registry.WorkflowsOf(id).empty()) << "T" << id;
  }
}

TEST(WorkflowTest, EmptyRegistry) {
  const auto registry = BuildRegistry({});
  EXPECT_EQ(registry.num_workflows(), 0u);
  EXPECT_EQ(registry.max_workflow_size(), 0u);
}

}  // namespace
}  // namespace webtx
