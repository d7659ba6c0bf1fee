// chaos — randomized crash-failover campaign runner and replay tool.
//
// Campaign mode (default): runs N randomized (policy, fault plan, seed)
// cases through the simulator and the independent schedule validator;
// on the first invariant violation the failing case is shrunk to a
// local minimum and serialized as a replay file.
//
//   chaos [--cases N] [--seed S] [--out reproducer.chaos] [--verbose]
//
// Replay mode: re-runs a serialized case and reports the schedule
// digest plus the validator verdict. Byte-identical replays print the
// same digest on every machine.
//
//   chaos --replay reproducer.chaos
//
// Mint mode: when a campaign finds no violations (the healthy state),
// this produces a regression reproducer anyway — it takes the first
// randomized case exhibiting cold-failover migrations and shrinks it
// against the behavioral predicate "still migrates work off a crashed
// server", then writes the minimal case as a replay file. The replay
// integration test pins such a file plus its schedule digest.
//
//   chaos --mint FILE [--seed S]
//
// Live mode: the same campaign idea pointed at the LIVE executor
// (rt::Executor) under a VirtualClock — seeded fault injection (worker
// crashes, stall windows, forced aborts, latency spikes), retry storms,
// admission control, and the stall watchdog, audited by the live trace
// validator. Every case runs twice and must produce byte-identical
// trace digests (the determinism contract).
//
//   chaos --live [--cases N] [--seed S] [--out reproducer.chaos] [--verbose]
//
// Live replays share the --replay flag: the file header says which
// harness the case belongs to.
//
//   chaos --mint-live FILE [--seed S]   mint a live regression replay
//
// Twin mode: the digital-twin campaign (rt::Twin via exp/twin_chaos.h):
// seeded open-loop workloads (flash crowds, bursty ON/OFF) served live
// while the shadow-simulator controller forecasts, switches, and falls
// back behind its divergence guard. Every case runs twice and must
// produce byte-identical digests covering the trace AND the decision
// log; the first run is audited by the live validator plus the
// controller contract. Controller-enabled cases additionally re-run
// across forecast_threads 1/2/8 — the forecast fan-out must be
// digest-neutral.
//
//   chaos --twin [--cases N] [--seed S] [--out reproducer.chaos] [--verbose]
//   chaos --mint-twin FILE [--seed S]   mint a guard-exercising replay
//
// Twin replays also route through --replay (by file header).
//
// Huge mode: scale campaign for large populations. Each case is a
// crash/abort/retry scenario of --txns transactions (default 10^5),
// audited by the independent schedule validator.
//
//   chaos --huge [--cases N] [--seed S] [--txns T]
//
// Steal mode: campaign for the sharded policy state. Each case is a
// multi-server, workflow-heavy, overloaded scenario run once with a
// global-state policy and once with its "-sharded" variant (per-shard
// ready structures + deterministic work stealing; see
// sched/scheduler_policy.h). The sharded run is audited by the
// schedule validator and its digest must be byte-identical to the
// global run — the steal protocol must never change a decision.
//
//   chaos --steal [--cases N] [--seed S]
//
// Exit status: 0 when every case passed (or the replay validates),
// 1 on invariant violations (or a steal-mode digest divergence),
// 2 on usage/IO errors.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "exp/chaos.h"
#include "exp/live_chaos.h"
#include "exp/twin_chaos.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--live|--twin] [--cases N] [--seed S] [--out FILE] "
               "[--verbose]\n"
               "       %s --replay FILE\n"
               "       %s --mint FILE [--seed S]\n"
               "       %s --mint-live FILE [--seed S]\n"
               "       %s --mint-twin FILE [--seed S]\n"
               "       %s --huge [--cases N] [--seed S] [--txns T]\n"
               "       %s --steal [--cases N] [--seed S]\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

// One case of the huge-scale campaign: a dense fault cocktail at
// population `num_txns`, derived deterministically from (seed, index).
webtx::ChaosCase HugeChaosCase(uint64_t master_seed, uint64_t index,
                               size_t num_txns) {
  webtx::ChaosCase c = webtx::RandomChaosCase(master_seed, index);
  // Keep the randomized policy/fault/retry draw, scale the population,
  // and make sure every structure carries load: aborts + retries feed
  // the pending queue, workflows feed the dependency graph.
  c.num_transactions = num_txns;
  c.utilization = 0.9;
  c.max_workflow_length = 4;
  c.max_workflows_per_txn = 2;
  if (c.fault.abort_rate == 0.0) c.fault.abort_rate = 0.01;
  if (c.retry.max_attempts < 2) c.retry.max_attempts = 3;
  if (c.retry.backoff == 0.0) c.retry.backoff = 1.0;
  return c;
}

int RunHugeCampaign(uint64_t master_seed, size_t num_cases, size_t num_txns) {
  int failures = 0;
  for (uint64_t i = 0; i < num_cases; ++i) {
    const webtx::ChaosCase c = HugeChaosCase(master_seed, i, num_txns);
    auto run = webtx::RunChaosCase(c);
    if (!run.ok()) {
      std::fprintf(stderr, "chaos: huge case %llu: %s\n",
                   static_cast<unsigned long long>(i),
                   run.status().ToString().c_str());
      return 2;
    }
    const webtx::RunResult result = std::move(run).ValueOrDie();
    const webtx::Status verdict = webtx::CheckChaosInvariants(c, result);
    const uint64_t digest = webtx::ScheduleDigest(result);
    std::printf(
        "case %llu policy=%-22s txns=%zu crashes=%zu migrations=%zu "
        "aborts=%zu digest=%016llx validator=%s\n",
        static_cast<unsigned long long>(i), c.policy.c_str(),
        c.num_transactions, result.num_crashes, result.num_migrations,
        result.num_aborts, static_cast<unsigned long long>(digest),
        verdict.ok() ? "ok" : verdict.ToString().c_str());
    if (!verdict.ok()) ++failures;
  }
  std::printf("huge cases        %zu\n", num_cases);
  std::printf("failures          %d\n", failures);
  return failures > 0 ? 1 : 0;
}

// One case of the steal campaign: multi-server, workflow-heavy and
// overloaded (every round places k heads, so cross-shard steals are
// dense), with the randomized policy mapped onto a base that has a
// sharded-state variant.
webtx::ChaosCase StealChaosCase(uint64_t master_seed, uint64_t index) {
  webtx::ChaosCase c = webtx::RandomChaosCase(master_seed, index);
  c.num_servers = 1u << (1 + index % 3);  // 2, 4, 8
  if (c.utilization < 2.0) c.utilization = 2.0;
  if (c.max_workflow_length < 3) c.max_workflow_length = 3;
  if (c.max_workflows_per_txn < 2) c.max_workflows_per_txn = 2;
  static const char* const kShardedBases[] = {"FCFS", "EDF", "SRPT", "LS",
                                              "HDF",  "HVF", "ASETS*"};
  for (const char* base : kShardedBases) {
    if (c.policy == base) return c;
  }
  c.policy = kShardedBases[index % std::size(kShardedBases)];
  return c;
}

int RunStealCampaign(uint64_t master_seed, size_t num_cases) {
  int failures = 0;
  for (uint64_t i = 0; i < num_cases; ++i) {
    const webtx::ChaosCase global = StealChaosCase(master_seed, i);
    auto global_run = webtx::RunChaosCase(global);
    if (!global_run.ok()) {
      std::fprintf(stderr, "chaos: steal case %llu (global): %s\n",
                   static_cast<unsigned long long>(i),
                   global_run.status().ToString().c_str());
      return 2;
    }
    const uint64_t global_digest =
        webtx::ScheduleDigest(global_run.ValueOrDie());

    webtx::ChaosCase sharded = global;
    sharded.policy = global.policy + "-sharded";
    auto run = webtx::RunChaosCase(sharded);
    if (!run.ok()) {
      std::fprintf(stderr, "chaos: steal case %llu (sharded): %s\n",
                   static_cast<unsigned long long>(i),
                   run.status().ToString().c_str());
      return 2;
    }
    const webtx::RunResult result = std::move(run).ValueOrDie();
    const webtx::Status verdict =
        webtx::CheckChaosInvariants(sharded, result);
    const uint64_t digest = webtx::ScheduleDigest(result);
    const bool diverged = digest != global_digest;
    std::printf(
        "case %llu policy=%-22s servers=%zu crashes=%zu migrations=%zu "
        "aborts=%zu digest=%016llx validator=%s steal=%s\n",
        static_cast<unsigned long long>(i), sharded.policy.c_str(),
        sharded.num_servers, result.num_crashes, result.num_migrations,
        result.num_aborts, static_cast<unsigned long long>(digest),
        verdict.ok() ? "ok" : verdict.ToString().c_str(),
        diverged ? "DIVERGED" : "byte-identical");
    if (!verdict.ok() || diverged) ++failures;
  }
  std::printf("steal cases       %zu\n", num_cases);
  std::printf("failures          %d\n", failures);
  return failures > 0 ? 1 : 0;
}

// Re-runs a live replay twice: prints the trace digest, the determinism
// verdict (the two digests must match), and the live validator verdict.
int RunLiveReplay(const webtx::LiveChaosCase& c) {
  auto first = webtx::RunLiveChaosCase(c);
  if (!first.ok()) {
    std::fprintf(stderr, "chaos: %s\n", first.status().ToString().c_str());
    return 2;
  }
  auto second = webtx::RunLiveChaosCase(c);
  if (!second.ok()) {
    std::fprintf(stderr, "chaos: %s\n", second.status().ToString().c_str());
    return 2;
  }
  const webtx::LiveChaosRun run = std::move(first).ValueOrDie();
  const bool deterministic = run.digest == second.ValueOrDie().digest;
  std::printf("mode              live\n");
  std::printf("policy            %s\n", c.policy.c_str());
  std::printf("tasks             %zu\n", c.num_tasks);
  std::printf("workers           %zu\n", c.num_workers);
  std::printf("crashes           %zu\n", run.stats.crashes);
  std::printf("stalls            %zu\n", run.stats.stalls);
  std::printf("migrations        %zu\n", run.stats.migrations);
  std::printf("forced_aborts     %zu\n", run.stats.forced_aborts);
  std::printf("completed         %zu\n", run.stats.completed);
  std::printf("trace_digest      %016llx\n",
              static_cast<unsigned long long>(run.digest));
  std::printf("determinism       %s\n",
              deterministic ? "byte-identical" : "DIVERGED");
  const webtx::Status verdict = webtx::CheckLiveChaosInvariants(c, run);
  std::printf("validator         %s\n", verdict.ToString().c_str());
  return verdict.ok() && deterministic ? 0 : 1;
}

int RunLiveCampaign(const webtx::ChaosCampaignOptions& sim_options,
                    bool verbose) {
  webtx::LiveChaosCampaignOptions options;
  options.master_seed = sim_options.master_seed;
  options.num_cases = sim_options.num_cases;
  options.reproducer_path = sim_options.reproducer_path;
  if (verbose) {
    options.progress = [](size_t index, const std::string& violation) {
      if (violation.empty()) {
        std::fprintf(stderr, "live case %zu ok\n", index);
      } else {
        std::fprintf(stderr, "live case %zu VIOLATION: %s\n", index,
                     violation.c_str());
      }
    };
  }
  auto campaign = webtx::RunLiveChaosCampaign(options);
  if (!campaign.ok()) {
    std::fprintf(stderr, "chaos: %s\n",
                 campaign.status().ToString().c_str());
    return 2;
  }
  const webtx::LiveChaosCampaignResult r = std::move(campaign).ValueOrDie();
  std::printf("live cases        %zu\n", r.cases_run);
  std::printf("violations        %zu\n", r.violations);
  std::printf("nondeterministic  %zu\n", r.determinism_mismatches);
  std::printf("total_crashes     %zu\n", r.total_crashes);
  std::printf("total_stalls      %zu\n", r.total_stalls);
  std::printf("total_migrations  %zu\n", r.total_migrations);
  std::printf("total_aborts      %zu\n", r.total_forced_aborts);
  std::printf("total_retries     %zu\n", r.total_retries);
  if (r.violations > 0) {
    std::printf("first violation: %s\n", r.first_violation.c_str());
    if (!options.reproducer_path.empty()) {
      std::printf("shrunken reproducer written to %s\n",
                  options.reproducer_path.c_str());
    } else {
      std::printf("shrunken reproducer:\n%s",
                  webtx::SerializeLiveChaosCase(r.first_reproducer).c_str());
    }
    return 1;
  }
  return 0;
}

int RunMintLive(const std::string& path, uint64_t master_seed) {
  // Behavioral predicate: the case is deterministic, validates, and
  // still fails work over off a dead slot — the deepest live path
  // (zombie attempt, slot detach, uncharged re-dispatch).
  const webtx::LiveChaosPredicate migrates =
      [](const webtx::LiveChaosCase& c) {
        auto first = webtx::RunLiveChaosCase(c);
        if (!first.ok()) return false;
        auto second = webtx::RunLiveChaosCase(c);
        if (!second.ok()) return false;
        const webtx::LiveChaosRun& run = first.ValueOrDie();
        return run.digest == second.ValueOrDie().digest &&
               run.stats.migrations >= 1 &&
               webtx::CheckLiveChaosInvariants(c, run).ok();
      };
  for (uint64_t i = 0; i < 10000; ++i) {
    webtx::LiveChaosCase c = webtx::RandomLiveChaosCase(master_seed, i);
    if (!migrates(c)) continue;
    c = webtx::ShrinkLiveChaosCase(c, migrates);
    std::ofstream file(path);
    file << webtx::SerializeLiveChaosCase(c);
    if (!file.good()) {
      std::fprintf(stderr, "chaos: cannot write %s\n", path.c_str());
      return 2;
    }
    const webtx::LiveChaosRun run =
        webtx::RunLiveChaosCase(c).ValueOrDie();
    std::printf("minted %s (live case %llu of seed %llu)\n", path.c_str(),
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(master_seed));
    std::printf("tasks             %zu\n", c.num_tasks);
    std::printf("migrations        %zu\n", run.stats.migrations);
    std::printf("trace_digest      %016llx\n",
                static_cast<unsigned long long>(run.digest));
    return 0;
  }
  std::fprintf(stderr, "chaos: no live migration case found\n");
  return 2;
}

// Re-runs a twin replay twice: prints the combined digest (trace +
// decision log), the determinism verdict, and the invariant verdict.
int RunTwinReplay(const webtx::TwinChaosCase& c) {
  auto first = webtx::RunTwinChaosCase(c);
  if (!first.ok()) {
    std::fprintf(stderr, "chaos: %s\n", first.status().ToString().c_str());
    return 2;
  }
  auto second = webtx::RunTwinChaosCase(c);
  if (!second.ok()) {
    std::fprintf(stderr, "chaos: %s\n", second.status().ToString().c_str());
    return 2;
  }
  const webtx::rt::TwinReport report = std::move(first).ValueOrDie();
  const bool deterministic = report.digest == second.ValueOrDie().digest;
  std::printf("mode              twin\n");
  std::printf("shape             %s\n", webtx::LiveArrivalShapeName(c.shape));
  std::printf("tasks             %zu\n", c.num_tasks);
  std::printf("workers           %zu\n", c.num_workers);
  std::printf("candidates        %zu\n", c.candidates.size());
  std::printf("controller        %s\n", c.controller_enabled ? "on" : "off");
  std::printf("decisions         %zu\n", report.decisions.size());
  std::printf("switches          %zu\n", report.switches);
  std::printf("fallbacks         %zu\n", report.fallbacks);
  std::printf("completed         %zu\n", report.stats.completed);
  std::printf("avg_tardiness     %.6f\n", report.avg_tardiness);
  std::printf("shed_ratio        %.4f\n", report.shed_ratio);
  std::printf("twin_digest       %016llx\n",
              static_cast<unsigned long long>(report.digest));
  std::printf("determinism       %s\n",
              deterministic ? "byte-identical" : "DIVERGED");
  const webtx::Status verdict = webtx::CheckTwinChaosInvariants(c, report);
  std::printf("validator         %s\n", verdict.ToString().c_str());
  return verdict.ok() && deterministic ? 0 : 1;
}

int RunTwinCampaign(const webtx::ChaosCampaignOptions& sim_options,
                    bool verbose) {
  webtx::TwinChaosCampaignOptions options;
  options.master_seed = sim_options.master_seed;
  // Each twin case runs the live loop twice plus a simulator fleet per
  // control tick; trim the sim campaign's default.
  options.num_cases =
      sim_options.num_cases == 200 ? 25 : sim_options.num_cases;
  options.reproducer_path = sim_options.reproducer_path;
  if (verbose) {
    options.progress = [](size_t index, const std::string& violation) {
      if (violation.empty()) {
        std::fprintf(stderr, "twin case %zu ok\n", index);
      } else {
        std::fprintf(stderr, "twin case %zu VIOLATION: %s\n", index,
                     violation.c_str());
      }
    };
  }
  auto campaign = webtx::RunTwinChaosCampaign(options);
  if (!campaign.ok()) {
    std::fprintf(stderr, "chaos: %s\n",
                 campaign.status().ToString().c_str());
    return 2;
  }
  const webtx::TwinChaosCampaignResult r = std::move(campaign).ValueOrDie();
  std::printf("twin cases        %zu\n", r.cases_run);
  std::printf("violations        %zu\n", r.violations);
  std::printf("nondeterministic  %zu\n", r.determinism_mismatches);
  std::printf("thread_mismatch   %zu\n", r.neutrality_mismatches);
  std::printf("total_decisions   %zu\n", r.total_decisions);
  std::printf("total_switches    %zu\n", r.total_switches);
  std::printf("total_fallbacks   %zu\n", r.total_fallbacks);
  std::printf("total_crashes     %zu\n", r.total_crashes);
  std::printf("total_migrations  %zu\n", r.total_migrations);
  if (r.violations > 0) {
    std::printf("first violation: %s\n", r.first_violation.c_str());
    if (!options.reproducer_path.empty()) {
      std::printf("shrunken reproducer written to %s\n",
                  options.reproducer_path.c_str());
    } else {
      std::printf("shrunken reproducer:\n%s",
                  webtx::SerializeTwinChaosCase(r.first_reproducer).c_str());
    }
    return 1;
  }
  return 0;
}

int RunMintTwin(const std::string& path, uint64_t master_seed) {
  // Behavioral predicate: the case is deterministic, passes every
  // invariant, and the divergence guard actually fired — the controller
  // noticed its shadow model lying and fell back. The pinned replay
  // regression-tests the whole loop: live serving, forecasting,
  // reconfiguration, guard, cooldown.
  const webtx::TwinChaosPredicate guard_fired =
      [](const webtx::TwinChaosCase& c) {
        auto first = webtx::RunTwinChaosCase(c);
        if (!first.ok()) return false;
        auto second = webtx::RunTwinChaosCase(c);
        if (!second.ok()) return false;
        const webtx::rt::TwinReport& report = first.ValueOrDie();
        return report.digest == second.ValueOrDie().digest &&
               report.fallbacks >= 1 &&
               webtx::CheckTwinChaosInvariants(c, report).ok();
      };
  for (uint64_t i = 0; i < 10000; ++i) {
    webtx::TwinChaosCase c = webtx::RandomTwinChaosCase(master_seed, i);
    // Pin the acceptance scenario: a flash crowd served by an enabled
    // controller whose snapshot stream is corrupted.
    c.shape = webtx::LiveArrivalShape::kFlashCrowd;
    c.controller_enabled = true;
    if (c.snapshot_corruption == 1.0) c.snapshot_corruption = 8.0;
    if (!guard_fired(c)) continue;
    c = webtx::ShrinkTwinChaosCase(c, guard_fired);
    std::ofstream file(path);
    file << webtx::SerializeTwinChaosCase(c);
    if (!file.good()) {
      std::fprintf(stderr, "chaos: cannot write %s\n", path.c_str());
      return 2;
    }
    const webtx::rt::TwinReport report =
        webtx::RunTwinChaosCase(c).ValueOrDie();
    std::printf("minted %s (twin case %llu of seed %llu)\n", path.c_str(),
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(master_seed));
    std::printf("tasks             %zu\n", c.num_tasks);
    std::printf("fallbacks         %zu\n", report.fallbacks);
    std::printf("twin_digest       %016llx\n",
                static_cast<unsigned long long>(report.digest));
    return 0;
  }
  std::fprintf(stderr, "chaos: no guard-exercising twin case found\n");
  return 2;
}

int RunReplay(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "chaos: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << file.rdbuf();
  // The header names the harness; try the live parser first (it rejects
  // sim replays on the header line alone).
  auto live = webtx::ParseLiveChaosReplay(text.str());
  if (live.ok()) return RunLiveReplay(live.ValueOrDie());
  const std::string live_error = live.status().ToString();
  if (live_error.find("not a live chaos replay file") == std::string::npos) {
    // Right header, malformed body: report the live parser's error
    // instead of confusing the user with the sim parser's.
    std::fprintf(stderr, "chaos: %s\n", live_error.c_str());
    return 2;
  }
  auto twin = webtx::ParseTwinChaosReplay(text.str());
  if (twin.ok()) return RunTwinReplay(twin.ValueOrDie());
  const std::string twin_error = twin.status().ToString();
  if (twin_error.find("not a twin replay file") == std::string::npos) {
    std::fprintf(stderr, "chaos: %s\n", twin_error.c_str());
    return 2;
  }
  auto parsed = webtx::ParseChaosReplay(text.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "chaos: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const webtx::ChaosCase c = std::move(parsed).ValueOrDie();
  auto run = webtx::RunChaosCase(c);
  if (!run.ok()) {
    std::fprintf(stderr, "chaos: %s\n", run.status().ToString().c_str());
    return 2;
  }
  const webtx::RunResult result = std::move(run).ValueOrDie();
  std::printf("policy            %s\n", c.policy.c_str());
  std::printf("transactions      %zu\n", c.num_transactions);
  std::printf("servers           %zu\n", c.num_servers);
  std::printf("crashes           %zu\n", result.num_crashes);
  std::printf("migrations        %zu\n", result.num_migrations);
  std::printf("aborts            %zu\n", result.num_aborts);
  std::printf("goodput           %.4f\n", result.goodput);
  std::printf("schedule_digest   %016llx\n",
              static_cast<unsigned long long>(webtx::ScheduleDigest(result)));
  const webtx::Status verdict = webtx::CheckChaosInvariants(c, result);
  std::printf("validator         %s\n", verdict.ToString().c_str());
  return verdict.ok() ? 0 : 1;
}

int RunMint(const std::string& path, uint64_t master_seed) {
  // Behavioral predicate: the case runs, validates, and still migrates
  // at least one transaction off a crashed server under cold failover —
  // the deepest code path (attempt bump, work zeroed, no retry charge).
  const webtx::ChaosPredicate cold_migrates = [](const webtx::ChaosCase& c) {
    if (c.fault.migration != webtx::MigrationPolicy::kCold) return false;
    auto run = webtx::RunChaosCase(c);
    if (!run.ok()) return false;
    const webtx::RunResult& result = run.ValueOrDie();
    return result.num_migrations >= 1 &&
           webtx::CheckChaosInvariants(c, result).ok();
  };
  for (uint64_t i = 0; i < 10000; ++i) {
    webtx::ChaosCase c = webtx::RandomChaosCase(master_seed, i);
    if (!cold_migrates(c)) continue;
    c = webtx::ShrinkChaosCase(c, cold_migrates);
    std::ofstream file(path);
    file << webtx::SerializeChaosCase(c);
    if (!file.good()) {
      std::fprintf(stderr, "chaos: cannot write %s\n", path.c_str());
      return 2;
    }
    const webtx::RunResult result =
        webtx::RunChaosCase(c).ValueOrDie();
    std::printf("minted %s (case %llu of seed %llu)\n", path.c_str(),
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(master_seed));
    std::printf("transactions      %zu\n", c.num_transactions);
    std::printf("migrations        %zu\n", result.num_migrations);
    std::printf("schedule_digest   %016llx\n",
                static_cast<unsigned long long>(
                    webtx::ScheduleDigest(result)));
    return 0;
  }
  std::fprintf(stderr, "chaos: no cold-migration case found\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  webtx::ChaosCampaignOptions options;
  bool verbose = false;
  bool huge = false;
  bool live = false;
  bool steal = false;
  bool twin = false;
  size_t huge_txns = 100000;
  std::string replay_path;
  std::string mint_path;
  std::string mint_live_path;
  std::string mint_twin_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--cases") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.num_cases = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.master_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.reproducer_path = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      replay_path = v;
    } else if (arg == "--mint") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      mint_path = v;
    } else if (arg == "--mint-live") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      mint_live_path = v;
    } else if (arg == "--mint-twin") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      mint_twin_path = v;
    } else if (arg == "--live") {
      live = true;
    } else if (arg == "--twin") {
      twin = true;
    } else if (arg == "--huge") {
      huge = true;
    } else if (arg == "--steal") {
      steal = true;
    } else if (arg == "--txns") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      huge_txns = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (!replay_path.empty()) return RunReplay(replay_path);
  if (!mint_path.empty()) return RunMint(mint_path, options.master_seed);
  if (!mint_live_path.empty()) {
    return RunMintLive(mint_live_path, options.master_seed);
  }
  if (!mint_twin_path.empty()) {
    return RunMintTwin(mint_twin_path, options.master_seed);
  }
  if (live) return RunLiveCampaign(options, verbose);
  if (twin) return RunTwinCampaign(options, verbose);
  if (huge) {
    // The default 200 campaign cases would be excessive at 10^5 txns.
    const size_t cases = options.num_cases == 200 ? 5 : options.num_cases;
    return RunHugeCampaign(options.master_seed, cases, huge_txns);
  }
  if (steal) {
    // Each steal case runs twice (global + sharded); trim the default.
    const size_t cases = options.num_cases == 200 ? 25 : options.num_cases;
    return RunStealCampaign(options.master_seed, cases);
  }

  if (verbose) {
    options.progress = [](size_t index, const std::string& violation) {
      if (violation.empty()) {
        std::fprintf(stderr, "case %zu ok\n", index);
      } else {
        std::fprintf(stderr, "case %zu VIOLATION: %s\n", index,
                     violation.c_str());
      }
    };
  }
  auto campaign = webtx::RunChaosCampaign(options);
  if (!campaign.ok()) {
    std::fprintf(stderr, "chaos: %s\n",
                 campaign.status().ToString().c_str());
    return 2;
  }
  const webtx::ChaosCampaignResult r = std::move(campaign).ValueOrDie();
  std::printf("cases             %zu\n", r.cases_run);
  std::printf("violations        %zu\n", r.violations);
  std::printf("total_crashes     %zu\n", r.total_crashes);
  std::printf("total_migrations  %zu\n", r.total_migrations);
  std::printf("total_aborts      %zu\n", r.total_aborts);
  std::printf("total_outages     %zu\n", r.total_outages);
  if (r.violations > 0) {
    std::printf("first violation: %s\n", r.first_violation.c_str());
    if (!options.reproducer_path.empty()) {
      std::printf("shrunken reproducer written to %s\n",
                  options.reproducer_path.c_str());
    } else {
      std::printf("shrunken reproducer:\n%s",
                  webtx::SerializeChaosCase(r.first_reproducer).c_str());
    }
    return 1;
  }
  return 0;
}
