#include "workload/generator.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/digest.h"
#include "txn/dependency_graph.h"
#include "txn/workflow.h"

namespace webtx {
namespace {

std::vector<TransactionSpec> Generate(const WorkloadSpec& spec,
                                      uint64_t seed) {
  auto generator = WorkloadGenerator::Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status();
  return generator.ValueOrDie().Generate(seed);
}

TEST(GeneratorTest, RejectsInvalidSpec) {
  WorkloadSpec spec;
  spec.num_transactions = 0;
  EXPECT_FALSE(WorkloadGenerator::Create(spec).ok());
}

TEST(GeneratorTest, ProducesRequestedCount) {
  WorkloadSpec spec;
  spec.num_transactions = 250;
  EXPECT_EQ(Generate(spec, 1).size(), 250u);
}

TEST(GeneratorTest, IdsAreDenseAndOrdered) {
  const auto txns = Generate(WorkloadSpec{}, 2);
  for (size_t i = 0; i < txns.size(); ++i) {
    EXPECT_EQ(txns[i].id, static_cast<TxnId>(i));
  }
}

TEST(GeneratorTest, LengthsAreIntegersInRange) {
  const auto txns = Generate(WorkloadSpec{}, 3);
  for (const auto& t : txns) {
    EXPECT_GE(t.length, 1.0);
    EXPECT_LE(t.length, 50.0);
    EXPECT_EQ(t.length, std::floor(t.length)) << "integer time units";
  }
}

TEST(GeneratorTest, ArrivalsAreNonDecreasing) {
  const auto txns = Generate(WorkloadSpec{}, 4);
  for (size_t i = 1; i < txns.size(); ++i) {
    EXPECT_GE(txns[i].arrival, txns[i - 1].arrival);
  }
}

TEST(GeneratorTest, DeadlineFormulaBounds) {
  // d_i = a_i + l_i + k_i * l_i with k_i in [0, k_max].
  WorkloadSpec spec;
  spec.k_max = 2.0;
  const auto txns = Generate(spec, 5);
  for (const auto& t : txns) {
    EXPECT_GE(t.deadline, t.arrival + t.length - 1e-9);
    EXPECT_LE(t.deadline, t.arrival + t.length * (1.0 + spec.k_max) + 1e-9);
  }
}

TEST(GeneratorTest, ZeroKmaxMeansZeroInitialSlack) {
  WorkloadSpec spec;
  spec.k_max = 0.0;
  const auto txns = Generate(spec, 6);
  for (const auto& t : txns) {
    EXPECT_NEAR(t.deadline, t.arrival + t.length, 1e-9);
  }
}

TEST(GeneratorTest, WeightsAreIntegersInRange) {
  WorkloadSpec spec;
  spec.min_weight = 1;
  spec.max_weight = 10;
  const auto txns = Generate(spec, 7);
  bool saw_above_five = false;
  for (const auto& t : txns) {
    EXPECT_GE(t.weight, 1.0);
    EXPECT_LE(t.weight, 10.0);
    EXPECT_EQ(t.weight, std::floor(t.weight));
    saw_above_five |= t.weight > 5.0;
  }
  EXPECT_TRUE(saw_above_five);
}

TEST(GeneratorTest, DefaultSpecHasNoDependencies) {
  const auto txns = Generate(WorkloadSpec{}, 8);
  for (const auto& t : txns) EXPECT_TRUE(t.dependencies.empty());
}

TEST(GeneratorTest, DeterministicPerSeed) {
  WorkloadSpec spec;
  spec.max_workflow_length = 5;
  spec.max_workflows_per_txn = 3;
  spec.max_weight = 10;
  const auto a = Generate(spec, 42);
  const auto b = Generate(spec, 42);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].deadline, b[i].deadline);
    EXPECT_EQ(a[i].weight, b[i].weight);
    EXPECT_EQ(a[i].dependencies, b[i].dependencies);
  }
}

/// Order-sensitive digest of every field of a generated workload, bit
/// for bit.
uint64_t WorkloadDigest(const std::vector<TransactionSpec>& txns) {
  uint64_t h = Fnv1a(kFnvOffsetBasis, txns.size());
  for (const TransactionSpec& t : txns) {
    h = Fnv1a(h, t.id);
    h = Fnv1a(h, DoubleBits(t.arrival));
    h = Fnv1a(h, DoubleBits(t.length));
    h = Fnv1a(h, DoubleBits(t.length_estimate));
    h = Fnv1a(h, DoubleBits(t.deadline));
    h = Fnv1a(h, DoubleBits(t.weight));
    h = Fnv1a(h, t.dependencies.size());
    for (const TxnId dep : t.dependencies) h = Fnv1a(h, dep);
  }
  return h;
}

WorkloadSpec MatrixSpec(size_t n, size_t chain_length, size_t chains) {
  WorkloadSpec spec;
  spec.num_transactions = n;
  spec.max_workflow_length = chain_length;
  spec.max_workflows_per_txn = chains;
  return spec;
}

// Generate is the one implementation of the paper's recipe, and every
// workload, digest and figure depends on its exact draws. These golden
// digests pin it over a spec x seed matrix: workflows on and off,
// batched and unbatched arrivals, both deadline models, estimate error,
// burstiness and utilization extremes.
TEST(GeneratorTest, GoldenDigestsOverTheSpecMatrix) {
  WorkloadSpec unbatched = MatrixSpec(400, 5, 3);
  unbatched.batch_workflow_arrivals = false;
  WorkloadSpec own_length = MatrixSpec(300, 3, 2);
  own_length.deadline_model = DeadlineModel::kOwnLength;
  WorkloadSpec estimates = MatrixSpec(300, 1, 1);
  estimates.estimate_error = 0.2;
  WorkloadSpec estimates_workflows = MatrixSpec(300, 4, 2);
  estimates_workflows.estimate_error = 0.2;
  WorkloadSpec bursty = MatrixSpec(300, 1, 1);
  bursty.burstiness = 0.6;
  WorkloadSpec bursty_mixed = MatrixSpec(300, 3, 2);
  bursty_mixed.burstiness = 0.6;
  bursty_mixed.estimate_error = 0.1;
  WorkloadSpec heavy = MatrixSpec(500, 4, 2);
  heavy.utilization = 0.9;
  heavy.max_weight = 10;
  heavy.estimate_error = 0.2;
  std::vector<WorkloadSpec> utilization(3, MatrixSpec(250, 1, 1));
  utilization[0].utilization = 0.1;
  utilization[1].utilization = 0.9;
  utilization[2].utilization = 1.0;
  for (WorkloadSpec& spec : utilization) spec.max_weight = 10;

  struct Case {
    const char* label;
    WorkloadSpec spec;
    uint64_t seed;
    uint64_t digest;
  };
  const Case cases[] = {
      {"base", WorkloadSpec{}, 1, 0xe1664c129b6b0e48ULL},
      {"base", WorkloadSpec{}, 42, 0xa8134ecc703c4585ULL},
      {"base", WorkloadSpec{}, 2009, 0x5eeefa3dd6d90c6fULL},
      {"workflows", MatrixSpec(400, 4, 2), 7, 0x56b54f88cdca6cbaULL},
      {"workflows", MatrixSpec(400, 4, 2), 99, 0x0c8ebf90b7274553ULL},
      {"workflows", MatrixSpec(400, 4, 2), 31337, 0xa070843019efd000ULL},
      {"unbatched", unbatched, 3, 0x78f71bdc4c90759eULL},
      {"unbatched", unbatched, 11, 0xd2ac93f4e0e729c6ULL},
      {"own-length", own_length, 5, 0xa8ffe0ab5c042ec9ULL},
      {"estimates", estimates, 23, 0x004232e56f70d238ULL},
      {"estimates+workflows", estimates_workflows, 23, 0x93eabbca03ff8b69ULL},
      {"bursty", bursty, 77, 0x6af3723c7cdeadf9ULL},
      {"bursty+workflows+estimates", bursty_mixed, 77, 0xf8bf5578a481d834ULL},
      {"util=0.1", utilization[0], 13, 0x7e2ca4258c036326ULL},
      {"util=0.9", utilization[1], 13, 0x41f702d84b0d371eULL},
      {"util=1.0", utilization[2], 13, 0x55b50365b7795918ULL},
      {"heavy", heavy, 1, 0xf0e69bff38134b2aULL},
      {"heavy", heavy, 2, 0x22374638226cfea6ULL},
      {"heavy", heavy, 3, 0x7c1e5c36bc572ec0ULL},
      {"heavy", heavy, 4, 0xb9732639f6a24120ULL},
  };
  for (const Case& c : cases) {
    const uint64_t digest = WorkloadDigest(Generate(c.spec, c.seed));
    EXPECT_EQ(digest, c.digest)
        << c.label << " seed " << c.seed << ": 0x" << std::hex << digest;
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const auto a = Generate(WorkloadSpec{}, 1);
  const auto b = Generate(WorkloadSpec{}, 2);
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].length != b[i].length || a[i].arrival != b[i].arrival;
  }
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorTest, EmpiricalUtilizationTracksTarget) {
  WorkloadSpec spec;
  spec.num_transactions = 20000;
  spec.utilization = 0.5;
  const auto txns = Generate(spec, 9);
  double total_work = 0.0;
  for (const auto& t : txns) total_work += t.length;
  const double horizon = txns.back().arrival;
  EXPECT_NEAR(total_work / horizon, 0.5, 0.05);
}

TEST(GeneratorTest, WorkflowDependenciesFormDag) {
  WorkloadSpec spec;
  spec.max_workflow_length = 8;
  spec.max_workflows_per_txn = 4;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const auto txns = Generate(spec, seed);
    auto graph = DependencyGraph::Build(txns);
    ASSERT_TRUE(graph.ok()) << "seed " << seed << ": " << graph.status();
    EXPECT_GT(graph.ValueOrDie().num_edges(), 0u);
  }
}

TEST(GeneratorTest, DependenciesPointBackwards) {
  WorkloadSpec spec;
  spec.max_workflow_length = 5;
  const auto txns = Generate(spec, 10);
  for (const auto& t : txns) {
    for (const TxnId dep : t.dependencies) {
      EXPECT_LT(dep, t.id);
      // Predecessors arrive no later (generated in arrival order).
      EXPECT_LE(txns[dep].arrival, t.arrival);
    }
  }
}

TEST(GeneratorTest, DependencyCountBoundedByChainsPerTxn) {
  WorkloadSpec spec;
  spec.max_workflow_length = 6;
  spec.max_workflows_per_txn = 3;
  const auto txns = Generate(spec, 11);
  for (const auto& t : txns) {
    EXPECT_LE(t.dependencies.size(), 3u);
  }
}

TEST(GeneratorTest, ChainLengthOneKeepsTransactionsIndependent) {
  WorkloadSpec spec;
  spec.max_workflow_length = 1;
  spec.max_workflows_per_txn = 5;
  const auto txns = Generate(spec, 12);
  for (const auto& t : txns) EXPECT_TRUE(t.dependencies.empty());
}

TEST(GeneratorTest, WorkflowsHaveBoundedDepthForChains) {
  // With one chain per transaction, derived workflows are exactly the
  // generated chains: their size cannot exceed max_workflow_length.
  WorkloadSpec spec;
  spec.max_workflow_length = 5;
  spec.max_workflows_per_txn = 1;
  const auto txns = Generate(spec, 13);
  auto graph = DependencyGraph::Build(txns);
  ASSERT_TRUE(graph.ok());
  const auto registry = WorkflowRegistry::Build(graph.ValueOrDie());
  EXPECT_LE(registry.max_workflow_size(), 5u);
  EXPECT_GT(registry.max_workflow_size(), 1u);
}

TEST(GeneratorTest, EstimateErrorBoundsAndIndependence) {
  WorkloadSpec spec;
  spec.estimate_error = 0.5;
  const auto noisy = Generate(spec, 30);
  bool any_off = false;
  for (const auto& t : noisy) {
    ASSERT_GT(t.length_estimate, 0.0);
    EXPECT_GE(t.length_estimate, std::min(0.1, t.length * 0.5) - 1e-9);
    EXPECT_LE(t.length_estimate, t.length * 1.5 + 1e-9);
    any_off |= t.length_estimate != t.length;
  }
  EXPECT_TRUE(any_off);

  // The base workload is bit-identical with estimation off.
  WorkloadSpec exact = spec;
  exact.estimate_error = 0.0;
  const auto clean = Generate(exact, 30);
  ASSERT_EQ(clean.size(), noisy.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].length, noisy[i].length);
    EXPECT_EQ(clean[i].arrival, noisy[i].arrival);
    EXPECT_EQ(clean[i].deadline, noisy[i].deadline);
    EXPECT_EQ(clean[i].length_estimate, 0.0);
  }
}

TEST(GeneratorTest, EstimateErrorValidation) {
  WorkloadSpec spec;
  spec.estimate_error = 1.0;
  EXPECT_FALSE(WorkloadGenerator::Create(spec).ok());
  spec.estimate_error = -0.1;
  EXPECT_FALSE(WorkloadGenerator::Create(spec).ok());
}

TEST(GeneratorTest, BatchArrivalsShareThePageRequestInstant) {
  // With one chain per transaction and batch arrivals (default), every
  // member of a chain arrives when the chain's first member arrives.
  WorkloadSpec spec;
  spec.max_workflow_length = 5;
  const auto txns = Generate(spec, 20);
  for (const auto& t : txns) {
    for (const TxnId dep : t.dependencies) {
      EXPECT_EQ(t.arrival, txns[dep].arrival)
          << "T" << t.id << " and its predecessor T" << dep;
    }
  }
}

TEST(GeneratorTest, UnbatchedArrivalsKeepPoissonSpacing) {
  WorkloadSpec spec;
  spec.max_workflow_length = 5;
  spec.batch_workflow_arrivals = false;
  const auto txns = Generate(spec, 20);
  size_t strictly_later = 0;
  for (const auto& t : txns) {
    for (const TxnId dep : t.dependencies) {
      EXPECT_GE(t.arrival, txns[dep].arrival);
      if (t.arrival > txns[dep].arrival) ++strictly_later;
    }
  }
  EXPECT_GT(strictly_later, 0u);
}

TEST(GeneratorTest, PathAwareDeadlinesAreChainFeasible) {
  // Default deadline model: d_i >= earliest possible finish of T_i, so a
  // lone chain on an idle server can always meet every deadline.
  WorkloadSpec spec;
  spec.max_workflow_length = 8;
  const auto txns = Generate(spec, 21);
  // Recompute earliest finishes by dynamic programming over dependencies
  // (ids are topologically ordered by construction).
  std::vector<double> earliest(txns.size());
  for (const auto& t : txns) {
    double start = t.arrival;
    for (const TxnId dep : t.dependencies) {
      start = std::max(start, earliest[dep]);
    }
    earliest[t.id] = start + t.length;
    EXPECT_GE(t.deadline, earliest[t.id] - 1e-9) << "T" << t.id;
    EXPECT_LE(t.deadline,
              earliest[t.id] + spec.k_max * t.length + 1e-9);
  }
}

TEST(GeneratorTest, OwnLengthDeadlinesFollowLiteralTableI) {
  WorkloadSpec spec;
  spec.max_workflow_length = 8;
  spec.deadline_model = DeadlineModel::kOwnLength;
  const auto txns = Generate(spec, 22);
  for (const auto& t : txns) {
    EXPECT_GE(t.deadline, t.arrival + t.length - 1e-9);
    EXPECT_LE(t.deadline,
              t.arrival + t.length * (1.0 + spec.k_max) + 1e-9);
  }
}

TEST(GeneratorTest, DeadlineModelsAgreeForIndependentTransactions) {
  WorkloadSpec path_spec;  // defaults: independent
  WorkloadSpec own_spec;
  own_spec.deadline_model = DeadlineModel::kOwnLength;
  const auto a = Generate(path_spec, 23);
  const auto b = Generate(own_spec, 23);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].deadline, b[i].deadline);
  }
}

TEST(GeneratorTest, PrecedenceDeadlineConflictsExist) {
  // The Sec. II-B conflict: some dependent is due before a predecessor.
  WorkloadSpec spec;
  spec.max_workflow_length = 5;
  const auto txns = Generate(spec, 24);
  size_t conflicts = 0;
  for (const auto& t : txns) {
    for (const TxnId dep : t.dependencies) {
      if (t.deadline < txns[dep].deadline) ++conflicts;
    }
  }
  EXPECT_GT(conflicts, 0u);
}

TEST(GeneratorTest, ZipfSkewShowsInLengthHistogram) {
  WorkloadSpec spec;
  spec.num_transactions = 20000;
  const auto txns = Generate(spec, 14);
  size_t short_count = 0;
  size_t long_count = 0;
  for (const auto& t : txns) {
    if (t.length <= 25.0) ++short_count;
    if (t.length > 25.0) ++long_count;
  }
  EXPECT_GT(short_count, long_count);
}

}  // namespace
}  // namespace webtx
