// Microbenchmarks for the Sec. III-A2 complexity claim: "We can use the
// standard balanced binary search tree as the priority queue, which
// requires only a time of O(log N) ... ASETS* scales in a similar manner
// as EDF and SRPT."
//
// Benchmarks the full simulation cost per scheduling event as the number
// of concurrently queued transactions grows, per policy and at 1, 2 and
// 4 servers, plus raw IndexedPriorityQueue operations and the in-place
// rebuild of a simulator workload.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sched/indexed_priority_queue.h"
#include "sched/policy_factory.h"
#include "sim/sim_workload.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace webtx {
namespace {

// A heavily overloaded open workload: with utilization 4.0 the queue
// grows to O(N) concurrent transactions, so per-event costs expose the
// O(log N) (or worse) scaling of the policy's data structures.
std::vector<TransactionSpec> OverloadWorkload(size_t n) {
  WorkloadSpec spec;
  spec.num_transactions = n;
  spec.utilization = 4.0;
  spec.max_weight = 10;
  auto generator = WorkloadGenerator::Create(spec);
  WEBTX_CHECK(generator.ok());
  return generator.ValueOrDie().Generate(/*seed=*/5);
}

// `servers` > 1 runs the k-server round: one PickBatch plus the matching
// of picks to servers per scheduling event.
void BM_PolicyEventCost(benchmark::State& state,
                        const std::string& policy_name, size_t servers = 1) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto txns = OverloadWorkload(n);
  SimOptions options;
  options.record_outcomes = false;
  options.num_servers = servers;
  auto sim = Simulator::Create(txns, options);
  WEBTX_CHECK(sim.ok());
  auto policy = CreatePolicy(policy_name);
  WEBTX_CHECK(policy.ok());

  size_t events = 0;
  for (auto _ : state) {
    const RunResult r = sim.ValueOrDie().Run(*policy.ValueOrDie());
    events += r.num_scheduling_points;
    benchmark::DoNotOptimize(r.avg_tardiness);
  }
  // items_per_second reports scheduling events per second; an O(log N)
  // policy shows a slow (logarithmic) decay as N grows.
  state.SetItemsProcessed(static_cast<int64_t>(events));
}

BENCHMARK_CAPTURE(BM_PolicyEventCost, EDF, "EDF")
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, SRPT, "SRPT")
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, HDF, "HDF")
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, ASETS, "ASETS")
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, ASETS_STAR, "ASETS*")
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, EDF_2_servers, "EDF", 2)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, EDF_4_servers, "EDF", 4)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, ASETS_STAR_2_servers, "ASETS*", 2)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, ASETS_STAR_4_servers, "ASETS*", 4)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);

void BM_IndexedPqPushPop(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> keys(n);
  for (auto& k : keys) k = rng.NextDouble();
  for (auto _ : state) {
    IndexedPriorityQueue q(n);
    for (uint32_t id = 0; id < n; ++id) q.Push(id, keys[id]);
    while (!q.empty()) benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_IndexedPqPushPop)->RangeMultiplier(8)->Range(64, 262144);

void BM_IndexedPqUpdate(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  IndexedPriorityQueue q(n);
  for (uint32_t id = 0; id < n; ++id) q.Push(id, rng.NextDouble());
  uint32_t id = 0;
  for (auto _ : state) {
    q.Update(id, rng.NextDouble());
    id = (id + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedPqUpdate)->RangeMultiplier(8)->Range(64, 262144);

// Re-keying an entry with its current key: UpdateKeyIfChanged detects the
// no-op and skips the sift entirely — the case ASETS* hits on every
// OnRemainingUpdated storm where only one workflow's key really moved.
void BM_IndexedPqUpdateUnchanged(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::vector<double> keys(n);
  for (auto& k : keys) k = rng.NextDouble();
  IndexedPriorityQueue q(n);
  for (uint32_t id = 0; id < n; ++id) q.Push(id, keys[id]);
  uint32_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.UpdateKeyIfChanged(id, keys[id]));
    id = (id + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedPqUpdateUnchanged)->RangeMultiplier(8)->Range(64, 262144);

// Rebuilding a queue from scratch: Floyd heapify (O(n)) vs. the n Push
// calls (O(n log n)) that BM_IndexedPqPushPop's fill phase performs.
void BM_IndexedPqBulkLoad(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::pair<uint32_t, double>> items(n);
  for (uint32_t id = 0; id < n; ++id) items[id] = {id, rng.NextDouble()};
  IndexedPriorityQueue q;
  for (auto _ : state) {
    q.ReserveAndBulkLoad(items);
    benchmark::DoNotOptimize(q.Top());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_IndexedPqBulkLoad)->RangeMultiplier(8)->Range(64, 262144);

// The read-only top-k walk behind every single-queue PickBatch: one
// k-server round's picks off an n-entry heap, which stays untouched.
void BM_IndexedPqTopK(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto k = static_cast<size_t>(state.range(1));
  Rng rng(13);
  IndexedPriorityQueue q(n);
  for (uint32_t id = 0; id < n; ++id) q.Push(id, rng.NextDouble());
  IndexedPriorityQueue::TopKScratch frontier;
  std::vector<uint32_t> out;
  out.reserve(k);
  for (auto _ : state) {
    out.clear();
    q.AppendTopK(k, out, frontier);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedPqTopK)
    ->ArgNames({"n", "k"})
    ->ArgsProduct({{64, 4096}, {1, 2, 4, 8, 32, 64}});

// One in-place SimWorkload::Rebuild of 10^4 generated transactions with
// batched workflow arrivals (validation, dependency graph, workflow
// registry, arrival order), through one staging buffer refilled
// untimed before each call, as the twin rebuilds every tick.
// `reversed` hands the same set its arrivals in reverse id order,
// which sends the arrival order past the insertion pass's budget to
// std::sort.
void BM_SimWorkloadRebuild(benchmark::State& state, bool reversed) {
  WorkloadSpec spec;
  spec.num_transactions = 10000;
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  auto generator = WorkloadGenerator::Create(spec);
  WEBTX_CHECK(generator.ok());
  std::vector<TransactionSpec> txns = generator.ValueOrDie().Generate(29);
  if (reversed) {
    const size_t n = txns.size();
    for (size_t i = 0; i < n / 2; ++i) {
      std::swap(txns[i].arrival, txns[n - 1 - i].arrival);
    }
  }
  SimWorkload workload;
  std::vector<TransactionSpec> staging = txns;
  WEBTX_CHECK(workload.Rebuild(staging).ok());
  for (auto _ : state) {
    state.PauseTiming();
    staging = txns;
    state.ResumeTiming();
    benchmark::DoNotOptimize(workload.Rebuild(staging).ok());
    benchmark::DoNotOptimize(workload.arrival_order().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(txns.size()));
}
BENCHMARK_CAPTURE(BM_SimWorkloadRebuild, batched, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SimWorkloadRebuild, reversed, true)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace webtx

BENCHMARK_MAIN();
