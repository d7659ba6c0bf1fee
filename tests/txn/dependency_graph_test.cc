#include "txn/dependency_graph.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "testing/fake_view.h"
#include "testing/id_ranges.h"

namespace webtx {
namespace {

using testing::ToVector;
using testing::Txn;

std::vector<TransactionSpec> Chain3() {
  // T0 -> T1 -> T2
  return {Txn(0, 0, 1, 10), Txn(1, 0, 1, 10, 1.0, {0}),
          Txn(2, 0, 1, 10, 1.0, {1})};
}

TEST(DependencyGraphTest, BuildsChain) {
  auto g = DependencyGraph::Build(Chain3());
  ASSERT_TRUE(g.ok());
  const DependencyGraph& graph = g.ValueOrDie();
  EXPECT_EQ(graph.num_transactions(), 3u);
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_TRUE(graph.IsIndependent(0));
  EXPECT_FALSE(graph.IsIndependent(1));
  EXPECT_TRUE(graph.IsRoot(2));
  EXPECT_FALSE(graph.IsRoot(0));
  EXPECT_EQ(ToVector(graph.successors(0)), std::vector<TxnId>{1});
  EXPECT_EQ(ToVector(graph.predecessors(2)), std::vector<TxnId>{1});
}

TEST(DependencyGraphTest, RootsOfForest) {
  // Two independent transactions and a chain.
  std::vector<TransactionSpec> txns = {Txn(0, 0, 1, 1), Txn(1, 0, 1, 1),
                                       Txn(2, 0, 1, 1, 1.0, {0})};
  auto g = DependencyGraph::Build(txns);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.ValueOrDie().Roots(), (std::vector<TxnId>{1, 2}));
}

TEST(DependencyGraphTest, DiamondTopologicalOrder) {
  // T0 -> {T1, T2} -> T3.
  std::vector<TransactionSpec> txns = {
      Txn(0, 0, 1, 1), Txn(1, 0, 1, 1, 1.0, {0}), Txn(2, 0, 1, 1, 1.0, {0}),
      Txn(3, 0, 1, 1, 1.0, {1, 2})};
  auto g = DependencyGraph::Build(txns);
  ASSERT_TRUE(g.ok());
  const auto& topo = g.ValueOrDie().TopologicalOrder();
  ASSERT_EQ(topo.size(), 4u);
  const auto pos = [&](TxnId id) {
    return std::find(topo.begin(), topo.end(), id) - topo.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
}

TEST(DependencyGraphTest, RejectsCycle) {
  std::vector<TransactionSpec> txns = {Txn(0, 0, 1, 1, 1.0, {1}),
                                       Txn(1, 0, 1, 1, 1.0, {0})};
  auto g = DependencyGraph::Build(txns);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("cycle"), std::string::npos);
}

TEST(DependencyGraphTest, RejectsLongerCycle) {
  std::vector<TransactionSpec> txns = {Txn(0, 0, 1, 1, 1.0, {2}),
                                       Txn(1, 0, 1, 1, 1.0, {0}),
                                       Txn(2, 0, 1, 1, 1.0, {1})};
  EXPECT_FALSE(DependencyGraph::Build(txns).ok());
}

TEST(DependencyGraphTest, RejectsSelfDependency) {
  std::vector<TransactionSpec> txns = {Txn(0, 0, 1, 1, 1.0, {0})};
  auto g = DependencyGraph::Build(txns);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("itself"), std::string::npos);
}

TEST(DependencyGraphTest, RejectsUnknownDependency) {
  std::vector<TransactionSpec> txns = {Txn(0, 0, 1, 1, 1.0, {5})};
  auto g = DependencyGraph::Build(txns);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("unknown"), std::string::npos);
}

TEST(DependencyGraphTest, RejectsDuplicateDependency) {
  std::vector<TransactionSpec> txns = {Txn(0, 0, 1, 1),
                                       Txn(1, 0, 1, 1, 1.0, {0, 0})};
  auto g = DependencyGraph::Build(txns);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("duplicate"), std::string::npos);
}

TEST(DependencyGraphTest, RejectsNonDenseIds) {
  std::vector<TransactionSpec> txns = {Txn(0, 0, 1, 1), Txn(2, 0, 1, 1)};
  auto g = DependencyGraph::Build(txns);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("dense"), std::string::npos);
}

TEST(DependencyGraphTest, EmptyGraph) {
  auto g = DependencyGraph::Build({});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.ValueOrDie().num_transactions(), 0u);
  EXPECT_TRUE(g.ValueOrDie().Roots().empty());
}

TEST(DependencyGraphTest, SuccessorsAreSorted) {
  std::vector<TransactionSpec> txns = {
      Txn(0, 0, 1, 1), Txn(1, 0, 1, 1, 1.0, {0}), Txn(2, 0, 1, 1, 1.0, {0}),
      Txn(3, 0, 1, 1, 1.0, {0})};
  auto g = DependencyGraph::Build(txns);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(ToVector(g.ValueOrDie().successors(0)),
            (std::vector<TxnId>{1, 2, 3}));
}

}  // namespace
}  // namespace webtx
