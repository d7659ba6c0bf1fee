// Allocation accounting for the hot path. This binary replaces the
// global operator new/delete with counting versions (which is why it is
// its own test executable) and pins two contracts:
//
//  1. Re-binding ASETS* to a view it has seen before performs ZERO heap
//     allocations: states, the flat live-member arena, the dirty set,
//     and all three priority queues reuse their capacity.
//  2. Simulator::Create allocates a fixed number of blocks whatever the
//     transaction count: the dependency graph and workflow registry are
//     flat arrays, not one list per transaction or workflow.
//  3. The simulator's event loop proper is allocation-free: once a
//     Simulator + policy pair is warm, the number of allocations in a
//     run does not depend on how many events the run processes. Two
//     workloads with identical shape (n, servers, record options) but
//     wildly different event counts (sparse vs. saturated abort/retry
//     process) must allocate EXACTLY the same number of times — any
//     per-event allocation shows up as a difference proportional to the
//     event-count gap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "rt/twin.h"
#include "sched/indexed_priority_queue.h"
#include "sched/policies/asets_star.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "testing/fake_view.h"
#include "workload/generator.h"
#include "workload/live_arrivals.h"

// Sanitizer builds own the global allocator (ASan pairs its intercepted
// operator new with its own free and flags the malloc-based replacement
// below as an alloc-dealloc mismatch), so the counting machinery is
// compiled out and the tests skip — the contract is pinned by the plain
// preset, which CI always runs.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WEBTX_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define WEBTX_ALLOC_COUNTING 0
#endif
#endif
#ifndef WEBTX_ALLOC_COUNTING
#define WEBTX_ALLOC_COUNTING 1
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#if WEBTX_ALLOC_COUNTING

// GCC's -Wmismatched-new-delete sees `free` inside these replacements at
// caller inline sites and flags new/free pairing; pairing free with the
// malloc in the matching replacement below is exactly the design.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpragmas"
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

#endif  // WEBTX_ALLOC_COUNTING

namespace webtx {
namespace {

uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::vector<TransactionSpec> WorkflowWorkload(uint64_t seed,
                                              size_t num_transactions = 60) {
  WorkloadSpec spec;
  spec.num_transactions = num_transactions;
  spec.utilization = 0.9;
  spec.max_weight = 10;
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  auto generator = WorkloadGenerator::Create(spec);
  WEBTX_CHECK(generator.ok()) << generator.status();
  return generator.ValueOrDie().Generate(seed);
}

TEST(AllocationTest, RebindAllocatesNothing) {
  if (!WEBTX_ALLOC_COUNTING) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  testing::FakeView view(WorkflowWorkload(5));
  AsetsStarPolicy policy;
  policy.Bind(view);  // cold: sizes every container
  // Exercise the policy so any lazily-grown structure reaches capacity.
  view.ArriveAll();
  for (TxnId id = 0; id < 60; ++id) policy.OnArrival(id, 0.0);
  (void)policy.PickNext(0.0);

  const uint64_t before = AllocationCount();
  policy.Bind(view);
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "re-Bind must reuse the arena, dirty set, and queue capacity";
}

uint64_t CreateAllocations(size_t num_transactions) {
  std::vector<TransactionSpec> txns = WorkflowWorkload(3, num_transactions);
  const uint64_t before = AllocationCount();
  auto sim = Simulator::Create(std::move(txns));
  const uint64_t allocations = AllocationCount() - before;
  WEBTX_CHECK(sim.ok()) << sim.status();
  return allocations;
}

TEST(AllocationTest, CreateDoesNotAllocatePerTransaction) {
  if (!WEBTX_ALLOC_COUNTING) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  // Ten times the transactions may cost a few more doublings of the
  // flat arrays, never a block per transaction or per workflow.
  const uint64_t small = CreateAllocations(600);
  const uint64_t large = CreateAllocations(6000);
  EXPECT_LT(large, small + 64)
      << "Create allocated " << small << " times for 600 transactions and "
      << large << " times for 6000";
}

SimOptions AbortOptions(double abort_rate) {
  SimOptions options;
  options.num_servers = 2;
  FaultPlanConfig fault;
  fault.seed = 31;
  fault.abort_rate = abort_rate;
  auto plan = FaultPlan::Create(fault);
  WEBTX_CHECK(plan.ok()) << plan.status();
  options.fault_plan = plan.ValueOrDie();
  options.retry.max_attempts = 4;
  options.retry.backoff = 0.5;
  return options;
}

/// Warm allocations of one Run on an already-exercised (sim, policy)
/// pair.
uint64_t WarmRunAllocations(Simulator& sim, AsetsStarPolicy& policy) {
  (void)sim.Run(policy);  // warm 1: grows every lazy capacity
  (void)sim.Run(policy);  // warm 2: settles allocator reuse
  const uint64_t before = AllocationCount();
  (void)sim.Run(policy);
  return AllocationCount() - before;
}

TEST(AllocationTest, EventLoopIsAllocationFree) {
  if (!WEBTX_ALLOC_COUNTING) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const std::vector<TransactionSpec> txns = WorkflowWorkload(9);

  auto sparse = Simulator::Create(txns, AbortOptions(/*abort_rate=*/0.02));
  ASSERT_TRUE(sparse.ok()) << sparse.status();
  auto dense = Simulator::Create(txns, AbortOptions(/*abort_rate=*/1.0));
  ASSERT_TRUE(dense.ok()) << dense.status();

  AsetsStarPolicy sparse_policy;
  AsetsStarPolicy dense_policy;
  const uint64_t sparse_allocs =
      WarmRunAllocations(sparse.ValueOrDie(), sparse_policy);
  const uint64_t dense_allocs =
      WarmRunAllocations(dense.ValueOrDie(), dense_policy);

  // Sanity: the saturated abort process really does run far more events.
  const RunResult sparse_run = sparse.ValueOrDie().Run(sparse_policy);
  const RunResult dense_run = dense.ValueOrDie().Run(dense_policy);
  ASSERT_GT(dense_run.num_scheduling_points,
            2 * sparse_run.num_scheduling_points);

  EXPECT_EQ(sparse_allocs, dense_allocs)
      << "warm-run allocation count must not scale with event count "
         "(sparse run: "
      << sparse_run.num_scheduling_points
      << " scheduling points, dense run: "
      << dense_run.num_scheduling_points << ")";
}

// A pre-reserved priority structure must absorb a 262k push/pop storm
// with ZERO heap allocations — the huge-scale contract: at 10^6+
// transactions, any per-push growth shows up as allocator traffic in
// the hottest loop. Regression for the sizing constructor, which
// historically sized only the position index and let the first pushes
// after construction grow the heap vector.
TEST(AllocationTest, PreReservedIndexedQueueStormAllocatesNothing) {
  if (!WEBTX_ALLOC_COUNTING) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  constexpr uint32_t kN = 262144;
  IndexedPriorityQueue q(kN);
  Rng rng(77);
  const uint64_t before = AllocationCount();
  // Interleaved storm: fill half, drain a quarter, fill the rest, drain
  // everything — never exceeding the reserved population.
  for (uint32_t id = 0; id < kN / 2; ++id) {
    q.Push(id, static_cast<double>(rng.NextInRange(0, 1u << 20)));
  }
  for (uint32_t i = 0; i < kN / 4; ++i) (void)q.Pop();
  for (uint32_t id = kN / 2; id < kN; ++id) {
    q.Push(id, static_cast<double>(rng.NextInRange(0, 1u << 20)));
  }
  while (!q.empty()) (void)q.Pop();
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "a pre-reserved 262k storm must not touch the allocator";
}

// The twin's forecast hot path: once the engine is warm (buffers,
// shared workload arenas, per-candidate simulator scratch all at
// capacity), a steady-state control tick performs ZERO allocations in
// the serial configuration. Admission-free candidates only: the
// admission factories construct a fresh controller per shadow run by
// design, and the parallel fan-out pays one packaged_task per helper —
// both are outside the zero-alloc contract.
TEST(AllocationTest, TwinForecastSteadyStateAllocatesNothing) {
  if (!WEBTX_ALLOC_COUNTING) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  rt::TwinOptions options;
  rt::TwinCandidate fcfs;
  rt::TwinCandidate edf;
  edf.policy = "EDF";
  rt::TwinCandidate srpt;
  srpt.policy = "SRPT";
  options.candidates = {fcfs, edf, srpt};
  options.control_interval = 0.25;
  options.forecast_horizon = 0.5;
  auto engine = rt::TwinForecastEngine::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  rt::TwinForecastEngine& e = engine.ValueOrDie();

  // A fixed mid-run snapshot: 16 ready tasks plus a traffic window that
  // synthesizes future arrivals. The tick is held constant so every
  // Forecast() call sees identical spec-buffer sizes (the synthetic
  // count is a per-tick Poisson draw).
  rt::ExecutorSnapshot snap;
  snap.now = 10.0;
  snap.num_workers = 2;
  snap.num_workers_up = 2;
  for (TxnId id = 0; id < 16; ++id) {
    rt::SnapshotTask task;
    task.id = id;
    task.remaining = 0.05;
    task.release = snap.now;
    task.deadline = snap.now + 0.5 + 0.01 * static_cast<double>(id);
    task.weight = 1.0;
    task.state = rt::SnapshotTaskState::kReady;
    snap.tasks.push_back(task);
  }
  rt::TwinArrivalWindow window;
  for (int i = 0; i < 8; ++i) {
    LiveArrival arrival;
    arrival.duration = 0.05;
    arrival.relative_deadline = 0.5;
    arrival.weight = 1.0;
    window.Observe(arrival);
  }

  (void)e.Forecast(snap, window, /*tick=*/7, 0);  // cold: grows buffers
  (void)e.Forecast(snap, window, /*tick=*/7, 0);  // settles reuse
  const uint64_t before = AllocationCount();
  (void)e.Forecast(snap, window, /*tick=*/7, 0);
  (void)e.Forecast(snap, window, /*tick=*/7, 0);
  EXPECT_EQ(AllocationCount() - before, 0u)
      << "steady-state forecast ticks must reuse the spec buffers, the "
         "shared workload, and every shadow simulator's scratch";
}

}  // namespace
}  // namespace webtx
