#include "txn/dependency_graph.h"

#include <string>
#include <vector>

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

// A set whose dependencies all name lower ids skips the cycle check;
// any dependency on a higher id sends the set through Kahn's pass. The
// diamond T0 -> {T1, T2} -> T3 renumbered back to front has only such
// dependencies: it must build, warm as well as fresh, with the
// diamond's rows. The diamond with its root made to depend on its sink
// closes a cycle through one dependency on a higher id and must fail.
TEST(DependencyGraphTest, BackwardEdgesAreCheckedForCycles) {
  // T3 -> {T2, T1} -> T0.
  const std::vector<TransactionSpec> reversed = {
      Txn(0, 0, 1, 1, 1.0, {2, 1}), Txn(1, 0, 1, 1, 1.0, {3}),
      Txn(2, 0, 1, 1, 1.0, {3}), Txn(3, 0, 1, 1)};
  // T0 -> {T1, T2} -> T3 -> T0.
  const std::vector<TransactionSpec> cycle = {
      Txn(0, 0, 1, 1, 1.0, {3}), Txn(1, 0, 1, 1, 1.0, {0}),
      Txn(2, 0, 1, 1, 1.0, {0}), Txn(3, 0, 1, 1, 1.0, {1, 2})};

  auto fresh = DependencyGraph::Build(reversed);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const DependencyGraph& want = fresh.ValueOrDie();
  EXPECT_EQ(ToVector(want.predecessors(0)), (std::vector<TxnId>{1, 2}));
  EXPECT_EQ(ToVector(want.successors(3)), (std::vector<TxnId>{1, 2}));
  EXPECT_EQ(want.Roots(), std::vector<TxnId>{0});

  auto cyclic = DependencyGraph::Build(cycle);
  ASSERT_FALSE(cyclic.ok());
  EXPECT_NE(cyclic.status().message().find("cycle"), std::string::npos);

  // Warm: an id-ordered set, the cycle, then the renumbered diamond,
  // all in one graph.
  DependencyGraph graph;
  ASSERT_TRUE(graph.Rebuild(Chain3()).ok());
  EXPECT_FALSE(graph.Rebuild(cycle).ok());
  ASSERT_TRUE(graph.Rebuild(reversed).ok());
  ASSERT_EQ(graph.num_transactions(), want.num_transactions());
  EXPECT_EQ(graph.num_edges(), want.num_edges());
  for (TxnId id = 0; id < 4; ++id) {
    EXPECT_EQ(ToVector(graph.predecessors(id)),
              ToVector(want.predecessors(id)))
        << "T" << id;
    EXPECT_EQ(ToVector(graph.successors(id)), ToVector(want.successors(id)))
        << "T" << id;
  }
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
