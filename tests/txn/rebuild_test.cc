// In-place Rebuild equals a fresh Build. The digital twin rebuilds one
// shared SimWorkload every control tick, so DependencyGraph,
// WorkflowRegistry and SimWorkload are each rebuilt in place through a
// seeded sequence of transaction sets that grow, shrink and change
// shape, and after every rebuild each accessor must match an object
// built fresh from the same specs. Stale rows of the flat (offsets plus
// ids) layout from an earlier, larger or differently shaped set are
// what this catches. Invalid sets in the sequence must fail with
// Build's error and leave the objects rebuildable.
#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/sim_workload.h"
#include "testing/fake_view.h"
#include "testing/id_ranges.h"
#include "txn/dependency_graph.h"
#include "txn/workflow.h"
#include "workload/generator.h"

namespace webtx {
namespace {

using testing::ToVector;
using testing::Txn;

enum class Shape {
  kEmpty,
  kSingletons,
  kChains,
  kDiamonds,
  kSharedTails,  // the generator's chains, 2 per transaction
  kRandomDag,
  kCycle,      // invalid: T0 and T1 depend on each other
  kUnknownId,  // invalid: the last transaction names an id >= n
};

bool IsValid(Shape shape) {
  return shape != Shape::kCycle && shape != Shape::kUnknownId;
}

const char* ShapeName(Shape shape) {
  static const char* const kNames[] = {
      "empty",        "singletons", "chains", "diamonds",
      "shared tails", "random DAG", "cycle",  "unknown id"};
  return kNames[static_cast<int>(shape)];
}

/// A transaction with a random arrival on a coarse grid (so arrival ties
/// are common) and the given dependency list, in the order given.
TransactionSpec RandomTxn(TxnId id, std::vector<TxnId> deps, Rng& rng) {
  const auto arrival = static_cast<SimTime>(rng.NextInRange(0, 20));
  const auto length = static_cast<SimTime>(rng.NextInRange(1, 9));
  return Txn(id, arrival, length, arrival + 3 * length,
             static_cast<double>(rng.NextInRange(1, 5)), std::move(deps));
}

/// Lists `deps` in a random order, so Rebuild's sorting is exercised.
std::vector<TxnId> Shuffled(std::vector<TxnId> deps, Rng& rng) {
  for (size_t i = deps.size(); i > 1; --i) {
    std::swap(deps[i - 1], deps[rng.NextInRange(0, i - 1)]);
  }
  return deps;
}

std::vector<TransactionSpec> MakeSet(Shape shape, size_t n, Rng& rng) {
  if (shape == Shape::kEmpty) return {};
  if (shape == Shape::kSharedTails) {
    WorkloadSpec spec;
    spec.num_transactions = n;
    spec.max_workflow_length = 4;
    spec.max_workflows_per_txn = 2;
    auto generator = WorkloadGenerator::Create(spec);
    WEBTX_CHECK(generator.ok()) << generator.status();
    return generator.ValueOrDie().Generate(rng.Next());
  }
  std::vector<TransactionSpec> txns;
  txns.reserve(n);
  size_t chain_left = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto id = static_cast<TxnId>(i);
    std::vector<TxnId> deps;
    switch (shape) {
      case Shape::kChains:
        // Chains of 1..6 transactions, each depending on the previous.
        if (chain_left == 0) {
          chain_left = rng.NextInRange(1, 6);
        } else {
          deps = {id - 1};
        }
        --chain_left;
        break;
      case Shape::kDiamonds:
        // a -> {b, c} -> d, four ids per diamond.
        if (i % 4 == 1 || i % 4 == 2) deps = {id - 1 - (i % 4 == 2)};
        if (i % 4 == 3) deps = Shuffled({id - 1, id - 2}, rng);
        break;
      case Shape::kRandomDag:
      case Shape::kCycle:
      case Shape::kUnknownId:
        // Up to three distinct earlier transactions.
        for (uint64_t k = rng.NextInRange(0, 3); k > 0 && i > 0; --k) {
          const auto dep = static_cast<TxnId>(rng.NextInRange(0, i - 1));
          bool seen = false;
          for (const TxnId d : deps) seen = seen || d == dep;
          if (!seen) deps.push_back(dep);
        }
        break;
      default:
        break;
    }
    txns.push_back(RandomTxn(id, std::move(deps), rng));
  }
  if (shape == Shape::kCycle) {
    txns[0].dependencies = {1};
    txns[1].dependencies = {0};
  }
  if (shape == Shape::kUnknownId) {
    txns.back().dependencies.push_back(static_cast<TxnId>(n + 5));
  }
  return txns;
}

void ExpectAscending(IdRange<TxnId> ids, const std::string& what) {
  for (size_t k = 1; k < ids.size(); ++k) {
    EXPECT_LT(ids[k - 1], ids[k]) << what;
  }
}

void ExpectSameGraph(const DependencyGraph& got,
                     const DependencyGraph& want) {
  ASSERT_EQ(got.num_transactions(), want.num_transactions());
  EXPECT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.Roots(), want.Roots());
  for (size_t i = 0; i < want.num_transactions(); ++i) {
    const auto id = static_cast<TxnId>(i);
    EXPECT_EQ(ToVector(got.predecessors(id)),
              ToVector(want.predecessors(id)))
        << "T" << id;
    EXPECT_EQ(ToVector(got.successors(id)), ToVector(want.successors(id)))
        << "T" << id;
    EXPECT_EQ(got.IsRoot(id), want.IsRoot(id)) << "T" << id;
    EXPECT_EQ(got.IsIndependent(id), want.IsIndependent(id)) << "T" << id;
    ExpectAscending(got.predecessors(id), "predecessors");
    ExpectAscending(got.successors(id), "successors");
  }
}

void ExpectSameRegistry(const WorkflowRegistry& got,
                        const WorkflowRegistry& want, size_t n) {
  ASSERT_EQ(got.num_workflows(), want.num_workflows());
  EXPECT_EQ(got.max_workflow_size(), want.max_workflow_size());
  for (WorkflowId w = 0; w < want.num_workflows(); ++w) {
    const Workflow g = got.workflow(w);
    const Workflow f = want.workflow(w);
    EXPECT_EQ(g.id, w);
    EXPECT_EQ(g.root, f.root) << "workflow " << w;
    EXPECT_EQ(ToVector(g.members), ToVector(f.members)) << "workflow " << w;
    ExpectAscending(g.members, "members");
  }
  for (size_t i = 0; i < n; ++i) {
    const auto id = static_cast<TxnId>(i);
    EXPECT_EQ(ToVector(got.WorkflowsOf(id)),
              ToVector(want.WorkflowsOf(id)))
        << "T" << id;
    ExpectAscending(got.WorkflowsOf(id), "WorkflowsOf");
  }
}

TEST(InPlaceRebuildTest, MatchesFreshBuild) {
  // A fixed prefix covering every shape, growth, shrinkage and the two
  // invalid sets (each followed by a valid one), then random steps.
  std::vector<std::pair<Shape, size_t>> steps = {
      {Shape::kRandomDag, 300}, {Shape::kEmpty, 0},
      {Shape::kSingletons, 40}, {Shape::kChains, 500},
      {Shape::kDiamonds, 60},   {Shape::kSharedTails, 700},
      {Shape::kSingletons, 1},  {Shape::kCycle, 200},
      {Shape::kChains, 90},     {Shape::kDiamonds, 800},
      {Shape::kUnknownId, 400}, {Shape::kSharedTails, 100},
      {Shape::kEmpty, 0},       {Shape::kRandomDag, 1000},
  };
  Rng rng(2009);
  const Shape kShapes[] = {Shape::kEmpty,       Shape::kSingletons,
                           Shape::kChains,      Shape::kDiamonds,
                           Shape::kSharedTails, Shape::kRandomDag,
                           Shape::kCycle,       Shape::kUnknownId};
  for (int i = 0; i < 40; ++i) {
    steps.emplace_back(kShapes[rng.NextInRange(0, std::size(kShapes) - 1)],
                       rng.NextInRange(2, 900));
  }

  DependencyGraph graph;
  WorkflowRegistry registry;
  SimWorkload workload;
  size_t valid = 0;
  size_t invalid = 0;
  for (size_t s = 0; s < steps.size(); ++s) {
    const auto [shape, n] = steps[s];
    SCOPED_TRACE("step " + std::to_string(s) + ": " + ShapeName(shape) +
                 ", n = " + std::to_string(n));
    const std::vector<TransactionSpec> txns = MakeSet(shape, n, rng);
    auto fresh_graph = DependencyGraph::Build(txns);
    std::vector<TransactionSpec> staging = txns;
    auto fresh_workload = SimWorkload::Build(txns);
    const Status graph_status = graph.Rebuild(txns);
    const Status workload_status = workload.Rebuild(staging);
    if (!IsValid(shape)) {
      ++invalid;
      ASSERT_FALSE(fresh_graph.ok());
      EXPECT_EQ(graph_status.message(), fresh_graph.status().message());
      ASSERT_FALSE(fresh_workload.ok());
      EXPECT_EQ(workload_status.message(),
                fresh_workload.status().message());
      continue;
    }
    ++valid;
    ASSERT_TRUE(fresh_graph.ok()) << fresh_graph.status();
    ASSERT_TRUE(graph_status.ok()) << graph_status;
    EXPECT_EQ(graph.num_transactions(), txns.size());
    ASSERT_TRUE(fresh_workload.ok()) << fresh_workload.status();
    ASSERT_TRUE(workload_status.ok()) << workload_status;
    registry.Rebuild(graph);
    const WorkflowRegistry fresh_registry =
        WorkflowRegistry::Build(fresh_graph.ValueOrDie());

    ExpectSameGraph(graph, fresh_graph.ValueOrDie());
    ExpectSameRegistry(registry, fresh_registry, txns.size());

    const SimWorkload& fresh = fresh_workload.ValueOrDie();
    ASSERT_EQ(workload.size(), txns.size());
    for (size_t i = 0; i < txns.size(); ++i) {
      EXPECT_EQ(workload.specs()[i].DebugString(), txns[i].DebugString());
    }
    ExpectSameGraph(workload.graph(), fresh.graph());
    ExpectSameRegistry(workload.workflows(), fresh.workflows(), txns.size());
    EXPECT_EQ(workload.arrival_order(), fresh.arrival_order());
  }
  EXPECT_GE(invalid, 2u);
  EXPECT_GT(valid, 20u);
}

// Rebuild swaps the staging buffer with the previous build's specs and
// hands it back empty, keeping that build's capacity, even when the new
// set is invalid: a caller that refills one buffer every tick, as the
// twin does, never sees the old specs.
TEST(InPlaceRebuildTest, HandsBackAnEmptyBufferWithThePreviousCapacity) {
  Rng rng(31);
  SimWorkload workload;
  std::vector<TransactionSpec> staging = MakeSet(Shape::kChains, 50, rng);
  ASSERT_TRUE(workload.Rebuild(staging).ok());
  EXPECT_TRUE(staging.empty());
  staging = MakeSet(Shape::kDiamonds, 20, rng);
  ASSERT_TRUE(workload.Rebuild(staging).ok());
  EXPECT_EQ(workload.size(), 20u);
  EXPECT_TRUE(staging.empty());
  EXPECT_GE(staging.capacity(), 50u);
  staging = MakeSet(Shape::kCycle, 10, rng);
  EXPECT_FALSE(workload.Rebuild(staging).ok());
  EXPECT_TRUE(staging.empty());
  EXPECT_GE(staging.capacity(), 20u);
}

// The arrival order is a stable sort of the ids by arrival, whether the
// arrivals already ascend by id, ascend with ties, or are out of order:
// a single inversion at either end, a long reversed run (past the
// insertion pass's move budget, so std::sort finishes it) and a
// generated set with batched workflow arrivals (members a few places
// ahead of their ids). Rebuilt in place through the rows, so an order
// left by an earlier row cannot leak into a later one.
TEST(InPlaceRebuildTest, ArrivalOrderIsAStableSortByArrival) {
  Rng rng(28);
  std::vector<std::pair<std::string, std::vector<SimTime>>> rows = {
      {"empty", {}},
      {"single", {3.0}},
      {"ascending", {0.0, 0.5, 1.0, 2.5, 4.0, 7.0}},
      {"ascending with ties", {0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 5.0, 5.0}},
      {"all tied", {2.0, 2.0, 2.0, 2.0}},
      {"last out of order", {0.0, 1.0, 2.0, 3.0, 4.0, 0.5}},
      {"first out of order", {9.0, 1.0, 2.0, 3.0, 4.0, 5.0}},
      {"descending", {6.0, 5.0, 5.0, 3.0, 1.0, 0.0}},
  };
  for (int i = 0; i < 6; ++i) {
    std::vector<SimTime> arrivals(rng.NextInRange(2, 400));
    for (SimTime& a : arrivals) {
      a = static_cast<SimTime>(rng.NextInRange(0, 30));
    }
    if (i % 2 == 0) std::sort(arrivals.begin(), arrivals.end());
    rows.emplace_back(i % 2 == 0 ? "random, sorted" : "random", arrivals);
  }
  std::vector<SimTime> reversed(3000);
  for (size_t id = 0; id < reversed.size(); ++id) {
    reversed[id] = static_cast<SimTime>((reversed.size() - id) / 4);
  }
  rows.emplace_back("reversed", reversed);
  WorkloadSpec spec;
  spec.num_transactions = 10000;
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  ASSERT_TRUE(spec.batch_workflow_arrivals);
  auto generator = WorkloadGenerator::Create(spec);
  ASSERT_TRUE(generator.ok()) << generator.status();
  std::vector<SimTime> generated;
  for (const TransactionSpec& t : generator.ValueOrDie().Generate(29)) {
    generated.push_back(t.arrival);
  }
  ASSERT_FALSE(std::is_sorted(generated.begin(), generated.end()));
  rows.emplace_back("generated, batched workflows", generated);
  SimWorkload workload;
  for (const auto& [name, arrivals] : rows) {
    SCOPED_TRACE(name);
    std::vector<TransactionSpec> txns;
    for (size_t id = 0; id < arrivals.size(); ++id) {
      txns.push_back(Txn(static_cast<TxnId>(id), arrivals[id], 1.0, 100.0));
    }
    std::vector<TxnId> want(txns.size());
    for (size_t id = 0; id < want.size(); ++id) {
      want[id] = static_cast<TxnId>(id);
    }
    std::stable_sort(want.begin(), want.end(), [&](TxnId a, TxnId b) {
      return arrivals[a] < arrivals[b];
    });
    auto fresh = SimWorkload::Build(txns);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(fresh.ValueOrDie().arrival_order(), want);
    ASSERT_TRUE(workload.Rebuild(txns).ok());
    EXPECT_EQ(workload.arrival_order(), want);
  }
}

}  // namespace
}  // namespace webtx
