// Extension: scaling out the back end. The paper assumes a single server
// (Sec. II-A) and notes ASETS* "could be applied in any Real-Time system
// with soft-deadlines" (Sec. VI). With a fixed arrival stream sized to
// saturate several workers, this harness grows the worker pool and
// checks that (a) tardiness collapses as capacity catches up with load
// and (b) ASETS*'s advantage over the baselines survives parallelism.
//
// A second section benchmarks the sharded event loop itself: a
// num_servers sweep of wall-clock against the frozen pre-shard
// simulator (tests/testing/reference_simulator.h). Sharding must never
// change results, so every cell is fingerprint-checked against the
// reference run before its time is reported. A third section times
// ASETS*-sharded against the global-state ASETS* in interleaved pairs.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sched/policies/asets_star.h"
#include "sim/simulator.h"
#include "tests/testing/reference_simulator.h"
#include "workload/generator.h"

namespace webtx {
namespace {

void RunForServers(size_t servers, Table& table) {
  WorkloadSpec spec;
  spec.max_weight = 10;
  spec.max_workflow_length = 5;
  // Arrival rate sized for ~3 busy workers; 1-2 servers are overloaded,
  // 4 servers comfortable, 8 idle-heavy.
  spec.utilization = 3.0;

  const auto policies =
      bench::SpecFactories({"FCFS", "EDF", "HDF", "Ready", "ASETS*"});
  SimOptions options;
  options.num_servers = servers;
  const auto m =
      bench::RunPoint(spec, policies, bench::PaperSeeds(), options);

  std::vector<double> row;
  for (const bench::PolicyMetrics& metrics : m) {
    row.push_back(metrics.avg_weighted_tardiness);
  }
  table.AddNumericRow(std::to_string(servers), row);
}

// ---------------------------------------------------------------------------
// Sharded event-loop timing: production Simulator vs the pre-shard
// reference, across num_servers.

using Clock = std::chrono::steady_clock;

constexpr int kShardReps = 5;

// Reps for the interleaved serial global-vs-sharded pair. More than
// kShardReps because this difference (a few percent) is the quantity
// the bench gate consumes, so it gets the extra samples (each rep is
// only a few ms; the tardiness sweep dominates the binary's runtime).
constexpr int kShardPairedReps = 15;

// Cheap equality fingerprint of a run (full byte-identity is pinned by
// tests/sim/sharded_differential_test.cc; the bench only needs to prove
// it timed the same schedule it claims to have timed).
struct RunFingerprint {
  double makespan = 0.0;
  double avg_weighted_tardiness = 0.0;
  size_t scheduling_points = 0;
  size_t aborts = 0;
  size_t outages = 0;

  static RunFingerprint Of(const RunResult& r) {
    return RunFingerprint{r.makespan, r.avg_weighted_tardiness,
                          r.num_scheduling_points, r.num_aborts,
                          r.num_outages};
  }
  bool operator==(const RunFingerprint& o) const {
    return makespan == o.makespan &&
           avg_weighted_tardiness == o.avg_weighted_tardiness &&
           scheduling_points == o.scheduling_points && aborts == o.aborts &&
           outages == o.outages;
  }
};

std::vector<TransactionSpec> ShardWorkload(size_t servers) {
  WorkloadSpec spec;
  spec.num_transactions = 4000;
  spec.max_weight = 10;
  spec.max_workflow_length = 5;
  // Keep every worker ~75% busy so each shard carries real event traffic
  // at every pool size (a fixed rate would leave 8-server runs idle).
  spec.utilization = 0.75 * static_cast<double>(servers);
  auto gen = WorkloadGenerator::Create(spec);
  WEBTX_CHECK(gen.ok()) << gen.status().ToString();
  return gen.ValueOrDie().Generate(1);
}

SimOptions ShardOptions(size_t servers) {
  SimOptions options;
  options.num_servers = servers;
  // Fault-dense: every shard carries outage and abort traffic.
  FaultPlanConfig fault;
  fault.outage_rate = 0.02;
  fault.mean_outage_duration = 5.0;
  fault.abort_rate = 0.2;
  fault.seed = 2009;
  auto plan = FaultPlan::Create(fault);
  WEBTX_CHECK(plan.ok()) << plan.status().ToString();
  options.fault_plan = std::move(plan).ValueOrDie();
  options.retry.max_attempts = 3;
  options.retry.backoff = 1.0;
  return options;
}

// Best-of-kShardReps wall-clock of sim.Run (one warmup first).
template <typename Sim>
double BestRunMs(Sim& sim, SchedulerPolicy& policy,
                 RunFingerprint* fingerprint) {
  (void)sim.Run(policy);  // warmup
  double best_ms = 0.0;
  for (int rep = 0; rep < kShardReps; ++rep) {
    const auto t0 = Clock::now();
    const RunResult r = sim.Run(policy);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (rep == 0 || ms < best_ms) {
      best_ms = ms;
      *fingerprint = RunFingerprint::Of(r);
    }
  }
  return best_ms;
}

void RunShardSweep(std::vector<bench::BenchRow>& rows, Table& table) {
  for (const size_t servers : {1u, 2u, 4u, 8u, 32u}) {
    const auto txns = ShardWorkload(servers);

    // Pre-shard baseline: same workload, same fault plan.
    auto ref =
        testing::ReferenceSimulator::Create(txns, ShardOptions(servers));
    WEBTX_CHECK(ref.ok()) << ref.status().ToString();
    AsetsStarPolicy ref_policy;
    RunFingerprint ref_fp;
    const double ref_ms = BestRunMs(ref.ValueOrDie(), ref_policy, &ref_fp);
    const std::string servers_cfg = "servers=" + std::to_string(servers);
    rows.push_back({"ext_multi_server", servers_cfg, "reference_wall_ms",
                    ref_ms, "ms"});

    auto sim = Simulator::Create(txns, ShardOptions(servers));
    WEBTX_CHECK(sim.ok()) << sim.status().ToString();
    AsetsStarPolicy policy;
    RunFingerprint fp;
    const double ms = BestRunMs(sim.ValueOrDie(), policy, &fp);
    WEBTX_CHECK(fp == ref_fp)
        << "sharded run diverged from the reference at servers=" << servers;
    // "threads=1" keeps the row keys of the committed trajectory.
    const std::string cfg = servers_cfg + " threads=1";
    rows.push_back({"ext_multi_server", cfg, "wall_ms", ms, "ms"});
    rows.push_back({"ext_multi_server", cfg, "speedup_vs_reference",
                    ref_ms / ms, "x"});
    table.AddNumericRow(std::to_string(servers), {ref_ms, ms, ref_ms / ms});
  }
}

// ---------------------------------------------------------------------------
// Sharded policy state: ASETS*-sharded (per-server workflow ownership +
// deterministic steal accounting) vs the global-state ASETS*, across
// num_servers. The sharded run is fingerprint-checked against the global
// run first — ownership must never change the schedule — and its steal
// count is the ownership moves the run performed.

void RunShardedPolicySweep(std::vector<bench::BenchRow>& rows, Table& table) {
  for (const size_t servers : {1u, 2u, 4u, 8u}) {
    const auto txns = ShardWorkload(servers);
    const std::string servers_cfg = "servers=" + std::to_string(servers);

    // Global-state baseline vs the sharded run, measured INTERLEAVED
    // (one rep of each per loop pass, best-of). This pair is the
    // no-regression gate; sequential best-of-N blocks drift apart by
    // several percent on a loaded host, while alternating reps sees the
    // same host state.
    auto gsim = Simulator::Create(txns, ShardOptions(servers));
    WEBTX_CHECK(gsim.ok()) << gsim.status().ToString();
    auto ssim = Simulator::Create(txns, ShardOptions(servers));
    WEBTX_CHECK(ssim.ok()) << ssim.status().ToString();
    AsetsStarPolicy global;
    AsetsStarPolicy sharded;
    sharded.EnableSharded();
    RunFingerprint g_fp;
    RunFingerprint s_fp;
    double global_ms = 0.0;
    double sharded_ms = 0.0;
    std::vector<double> pair_ratios;
    pair_ratios.reserve(kShardPairedReps);
    (void)gsim.ValueOrDie().Run(global);  // warmups
    (void)ssim.ValueOrDie().Run(sharded);
    for (int rep = 0; rep < kShardPairedReps; ++rep) {
      auto t0 = Clock::now();
      const RunResult gr = gsim.ValueOrDie().Run(global);
      const double g_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      if (rep == 0 || g_ms < global_ms) {
        global_ms = g_ms;
        g_fp = RunFingerprint::Of(gr);
      }
      t0 = Clock::now();
      const RunResult sr = ssim.ValueOrDie().Run(sharded);
      const double s_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      if (rep == 0 || s_ms < sharded_ms) {
        sharded_ms = s_ms;
        s_fp = RunFingerprint::Of(sr);
      }
      pair_ratios.push_back(g_ms / s_ms);
    }
    WEBTX_CHECK(s_fp == g_fp)
        << "sharded policy diverged from the global state at servers="
        << servers;
    // The gated ratio is the MEDIAN of per-pair ratios: the two reps of
    // a pair run back to back under the same host state, so their ratio
    // cancels drift that a best-of-each quotient (whose numerator and
    // denominator come from different moments) keeps.
    std::sort(pair_ratios.begin(), pair_ratios.end());
    const double ratio = pair_ratios[pair_ratios.size() / 2];
    const double steals =
        static_cast<double>(sharded.AsShardedState()->steal_count());
    rows.push_back({"ext_multi_server", servers_cfg + " policy=global",
                    "wall_ms", global_ms, "ms"});
    // "threads=1" keeps the row keys of the committed trajectory.
    const std::string cfg = servers_cfg + " threads=1 policy=sharded";
    rows.push_back({"ext_multi_server", cfg, "wall_ms", sharded_ms, "ms"});
    rows.push_back(
        {"ext_multi_server", cfg, "sharded_vs_global", ratio, "x"});
    rows.push_back({"ext_multi_server", cfg, "steal_count", steals, "steals"});
    table.AddNumericRow(std::to_string(servers),
                        {global_ms, sharded_ms, ratio, steals});
  }
}

}  // namespace
}  // namespace webtx

int main() {
  std::cout << "Extension — back-end worker pool scaling (avg weighted "
               "tardiness; arrival rate sized for ~3 busy workers; "
               "weights 1-10, workflows <= 5, 5 seeds):\n\n";
  webtx::Table table({"servers", "FCFS", "EDF", "HDF", "Ready", "ASETS*"});
  for (const size_t servers : {1u, 2u, 3u, 4u, 6u, 8u}) {
    webtx::RunForServers(servers, table);
  }
  table.Print(std::cout);
  webtx::bench::SaveCsv(table, "ext_multi_server");
  std::cout << "\nTardiness collapses once capacity covers the offered "
               "load (~3 workers);\nthe adaptive workflow-aware policy "
               "keeps its lead at every pool size.\n";

  std::cout << "\nSharded event loop — wall-clock vs the frozen pre-shard "
               "reference (ASETS*,\n4000 txns at 75% per-worker load, "
               "outage+abort plan, best of "
            << webtx::kShardReps << " reps):\n\n";
  std::vector<webtx::bench::BenchRow> rows;
  webtx::Table shard_table({"servers", "ref ms", "sim ms", "speedup"});
  webtx::RunShardSweep(rows, shard_table);
  shard_table.Print(std::cout);
  webtx::bench::SaveCsv(shard_table, "ext_multi_server_sharded");

  std::cout << "\nSharded policy state — ASETS*-sharded (per-server "
               "workflow ownership,\ndeterministic steal accounting) vs "
               "the global-state ASETS* on the production\nloop (timed "
               "interleaved, best of "
            << webtx::kShardPairedReps
            << " paired reps; ratio = median per-pair\nglobal/sharded; "
               "every sharded run fingerprint-checked against the global "
               "run):\n\n";
  webtx::Table policy_table(
      {"servers", "global ms", "sharded ms", "ratio", "steals"});
  webtx::RunShardedPolicySweep(rows, policy_table);
  policy_table.Print(std::cout);
  webtx::bench::SaveCsv(policy_table, "ext_multi_server_sharded_policy");
  webtx::bench::WriteBenchRows(rows);
  return 0;
}
