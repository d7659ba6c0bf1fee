// StreamingWorkloadGenerator is a cursor over WorkloadGenerator::Generate:
// for any (spec, seed), the sequence of Next() calls must hand out the
// Generate() vector field for field — arrival doubles, Zipf lengths,
// deadlines, weights, estimates, and the exact dependency lists. These
// tests sweep the spec matrix (workflows on/off, batched arrivals,
// burstiness, estimate error, both deadline models, utilization
// extremes) across multiple seeds, plus validation. Generate itself is
// pinned over the same matrix by golden digests
// (GeneratorTest.GoldenDigestsOverTheSpecMatrix).

#include "workload/streaming_generator.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "workload/generator.h"
#include "workload/spec.h"

namespace webtx {
namespace {

/// Asserts that the cursor over (spec, seed) hands out Generate(seed)
/// exactly, field for field.
void ExpectStreamMatchesBatch(const WorkloadSpec& spec, uint64_t seed,
                              const std::string& label) {
  auto batch_gen = WorkloadGenerator::Create(spec);
  ASSERT_TRUE(batch_gen.ok()) << label << ": " << batch_gen.status();
  const std::vector<TransactionSpec> batch =
      batch_gen.ValueOrDie().Generate(seed);

  auto stream_gen = StreamingWorkloadGenerator::Create(spec, seed);
  ASSERT_TRUE(stream_gen.ok()) << label << ": " << stream_gen.status();
  StreamingWorkloadGenerator stream = std::move(stream_gen).ValueOrDie();

  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_FALSE(stream.Done()) << label << " txn " << i;
    const TransactionSpec t = stream.Next();
    const TransactionSpec& b = batch[i];
    ASSERT_EQ(t.id, b.id) << label << " txn " << i;
    // Bit-identity: exact double equality, no tolerance.
    ASSERT_EQ(t.arrival, b.arrival) << label << " txn " << i;
    ASSERT_EQ(t.length, b.length) << label << " txn " << i;
    ASSERT_EQ(t.deadline, b.deadline) << label << " txn " << i;
    ASSERT_EQ(t.weight, b.weight) << label << " txn " << i;
    ASSERT_EQ(t.length_estimate, b.length_estimate) << label << " txn " << i;
    ASSERT_EQ(t.dependencies, b.dependencies) << label << " txn " << i;
  }
  EXPECT_TRUE(stream.Done()) << label;
}

TEST(StreamingGeneratorTest, MatchesBatchOnPaperBaseSpec) {
  WorkloadSpec spec;  // paper defaults: independent txns, no estimates
  for (uint64_t seed : {1ull, 42ull, 2009ull}) {
    ExpectStreamMatchesBatch(spec, seed, "base");
  }
}

TEST(StreamingGeneratorTest, MatchesBatchWithWorkflows) {
  WorkloadSpec spec;
  spec.num_transactions = 400;
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  for (uint64_t seed : {7ull, 99ull, 31337ull}) {
    ExpectStreamMatchesBatch(spec, seed, "workflows");
  }
}

TEST(StreamingGeneratorTest, MatchesBatchWithUnbatchedWorkflowArrivals) {
  WorkloadSpec spec;
  spec.num_transactions = 400;
  spec.max_workflow_length = 5;
  spec.max_workflows_per_txn = 3;
  spec.batch_workflow_arrivals = false;
  for (uint64_t seed : {3ull, 11ull}) {
    ExpectStreamMatchesBatch(spec, seed, "unbatched-arrivals");
  }
}

TEST(StreamingGeneratorTest, MatchesBatchWithOwnLengthDeadlines) {
  WorkloadSpec spec;
  spec.num_transactions = 300;
  spec.max_workflow_length = 3;
  spec.max_workflows_per_txn = 2;
  spec.deadline_model = DeadlineModel::kOwnLength;
  ExpectStreamMatchesBatch(spec, 5, "own-length");
}

TEST(StreamingGeneratorTest, MatchesBatchWithEstimateError) {
  WorkloadSpec spec;
  spec.num_transactions = 300;
  spec.estimate_error = 0.2;
  ExpectStreamMatchesBatch(spec, 23, "estimates");
  // And combined with workflows.
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  ExpectStreamMatchesBatch(spec, 23, "estimates+workflows");
}

TEST(StreamingGeneratorTest, MatchesBatchWithBurstyArrivals) {
  WorkloadSpec spec;
  spec.num_transactions = 300;
  spec.burstiness = 0.6;
  ExpectStreamMatchesBatch(spec, 77, "bursty");
  spec.max_workflow_length = 3;
  spec.max_workflows_per_txn = 2;
  spec.estimate_error = 0.1;
  ExpectStreamMatchesBatch(spec, 77, "bursty+workflows+estimates");
}

TEST(StreamingGeneratorTest, MatchesBatchAcrossUtilizationExtremes) {
  for (double utilization : {0.1, 0.9, 1.0}) {
    WorkloadSpec spec;
    spec.num_transactions = 250;
    spec.utilization = utilization;
    spec.max_weight = 10;
    ExpectStreamMatchesBatch(spec, 13, "util=" + std::to_string(utilization));
  }
}

TEST(StreamingGeneratorTest, MatchesBatchOnWeightedHeavyTailSpec) {
  // The sharded differential suite's workload shape: weights 1-10,
  // estimate error, dense workflows — the spec the huge-structures
  // matrix runs under.
  WorkloadSpec spec;
  spec.num_transactions = 500;
  spec.utilization = 0.9;
  spec.max_weight = 10;
  spec.estimate_error = 0.2;
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ExpectStreamMatchesBatch(spec, seed, "heavy");
  }
}

TEST(StreamingGeneratorTest, RejectsInvalidSpec) {
  WorkloadSpec spec;
  spec.utilization = -1.0;
  auto gen = StreamingWorkloadGenerator::Create(spec, 1);
  EXPECT_FALSE(gen.ok());
}

}  // namespace
}  // namespace webtx
