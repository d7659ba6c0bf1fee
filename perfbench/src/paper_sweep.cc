// paper_sweep: the paper's own experiments (fig08 and fig15 grids)
// through RunSweep at one thread. See README.md.

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "exp/chaos.h"
#include "percentile.h"
#include "sched/policy_factory.h"
#include "sim/schedule_validator.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using webtx::RunResult;
using webtx::SweepConfig;

/// Sweep seeds per run (the paper averages five per cell).
constexpr size_t kSweepSeeds = 8;
constexpr int kSetupReps = 9;
/// p99 response limit for max_load_at_slo, in simulated time units.
constexpr double kResponseLimit = 400.0;

/// The fig08 grid: FCFS/LS/EDF/SRPT/ASETS on unweighted singletons.
SweepConfig Fig08Config(const std::vector<uint64_t>& seeds) {
  SweepConfig config;  // Table I defaults, N = 1000, one server
  config.utilizations = webtx::PaperUtilizationGrid();
  config.policies = {"FCFS", "LS", "EDF", "SRPT", "ASETS"};
  config.seeds = seeds;
  config.num_threads = 1;
  return config;
}

/// The (utilization, replication) instances RunSweep generates.
std::vector<webtx::WorkloadInstance> InstancesOf(const SweepConfig& config) {
  std::vector<webtx::WorkloadInstance> instances;
  for (size_t u = 0; u < config.utilizations.size(); ++u) {
    for (size_t r = 0; r < config.seeds.size(); ++r) {
      webtx::WorkloadInstance instance;
      instance.spec = config.base;
      instance.spec.utilization = config.utilizations[u];
      instance.seed = webtx::DeriveSeed(config.seeds[r], u, r);
      instances.push_back(std::move(instance));
    }
  }
  return instances;
}

struct Grid {
  SweepConfig config;
  std::vector<webtx::WorkloadInstance> instances;
  std::vector<webtx::PolicyFactory> factories;
};

/// Digest of a run's aggregates: equal for traced and untraced runs and
/// for runs with and without recorded outcomes.
uint64_t AggregateDigest(const RunResult& r) {
  uint64_t h = kFnvBasis;
  for (const double v : {r.avg_tardiness, r.avg_weighted_tardiness,
                         r.max_tardiness, r.miss_ratio, r.avg_response,
                         r.goodput}) {
    h = Fnv(h, Bits(v));
  }
  for (const size_t v : {r.num_scheduling_points, r.num_preemptions,
                         r.num_idle_decisions, r.num_completed}) {
    h = Fnv(h, v);
  }
  return h;
}

uint64_t CellsDigest(const std::vector<webtx::SweepCell>& cells) {
  uint64_t h = kFnvBasis;
  for (const webtx::SweepCell& c : cells) {
    for (const double v : {c.utilization, c.avg_tardiness,
                           c.avg_weighted_tardiness, c.max_tardiness,
                           c.miss_ratio, c.avg_response, c.goodput}) {
      h = Fnv(h, Bits(v));
    }
  }
  return h;
}

/// Everything the untimed check pass learns about the grids.
struct CheckPass {
  OutcomeSummary summary;
  /// p99 responses (lost = kLost) per utilization index, pooled.
  std::vector<std::vector<double>> responses_by_u;
  /// AggregateDigest per (grid, instance, policy), in run order.
  std::vector<uint64_t> digests;
  uint64_t events = 0;       // scheduling points per pass of both grids
  uint64_t transactions = 0;  // completed transactions per pass
  std::vector<double> utilizations;
};

void CheckGrid(const Grid& grid,
               const std::vector<webtx::Simulator*>& sims, CheckPass& pass,
               Result& result) {
  for (size_t i = 0; i < grid.instances.size(); ++i) {
    webtx::Simulator& sim = *sims[i];
    const size_t u = i / grid.config.seeds.size();
    for (const webtx::PolicyFactory& factory : grid.factories) {
      const std::unique_ptr<webtx::SchedulerPolicy> policy = factory();
      const RunResult run = sim.Run(*policy);
      const webtx::Status valid =
          webtx::ValidateSchedule(sim.specs(), run, size_t{1});
      result.Check(valid.ok(), "paper_sweep: " + valid.ToString());
      pass.digests.push_back(AggregateDigest(run));
      pass.events += run.num_scheduling_points;
      pass.transactions += run.num_completed;
      for (size_t t = 0; t < run.outcomes.size(); ++t) {
        const webtx::TxnOutcome& o = run.outcomes[t];
        if (o.fate != webtx::TxnFate::kCompleted) {
          pass.summary.Lost();
          pass.responses_by_u[u].push_back(kLost);
          continue;
        }
        pass.summary.Completed(o.response, o.tardiness, o.weighted_tardiness,
                               !o.missed_deadline);
        pass.responses_by_u[u].push_back(o.response);
      }
    }
  }
}

/// Setup: the grids, their instances, and one generated workload plus
/// Simulator per instance for the check pass.
struct Setup {
  Grid grids[2];
  std::vector<std::unique_ptr<webtx::Simulator>> sims[2];
};

void BuildSetup(const std::vector<uint64_t>& seeds, Setup& s) {
  s.grids[0].config = Fig08Config(seeds);
  s.grids[1].config = Fig15Config(seeds);
  for (int g = 0; g < 2; ++g) {
    Grid& grid = s.grids[g];
    grid.instances = InstancesOf(grid.config);
    auto factories = webtx::MakePolicyFactories(grid.config.policies);
    WEBTX_CHECK(factories.ok()) << factories.status().ToString();
    grid.factories = std::move(factories).ValueOrDie();
    webtx::SimOptions options;
    options.record_schedule = true;  // for ValidateSchedule
    s.sims[g].clear();
    for (const webtx::WorkloadInstance& instance : grid.instances) {
      auto gen = webtx::WorkloadGenerator::Create(instance.spec);
      WEBTX_CHECK(gen.ok()) << gen.status().ToString();
      auto sim = webtx::Simulator::Create(
          gen.ValueOrDie().Generate(instance.seed), options);
      WEBTX_CHECK(sim.ok()) << sim.status().ToString();
      s.sims[g].push_back(
          std::make_unique<webtx::Simulator>(std::move(sim).ValueOrDie()));
    }
  }
}

/// Validates every (instance, policy) run of `s`, then frees its
/// simulators.
CheckPass RunCheckPass(Setup& s, Result& result) {
  CheckPass pass;
  pass.utilizations = s.grids[0].config.utilizations;
  pass.responses_by_u.resize(pass.utilizations.size());
  for (int g = 0; g < 2; ++g) {
    std::vector<webtx::Simulator*> sims;
    for (auto& sim : s.sims[g]) sims.push_back(sim.get());
    CheckGrid(s.grids[g], sims, pass, result);
    s.sims[g].clear();
  }
  return pass;
}

/// One timed pass: RunSweep over both grids. Appends one wall-time sample
/// per instance to `instance_ms` (the sweep's progress callback fires
/// inline after each instance at one thread).
uint64_t SweepPass(Setup& s, std::vector<double>* instance_ms, SpanLog* spans,
                   size_t threads = 1) {
  uint64_t digest = kFnvBasis;
  for (Grid& grid : s.grids) {
    SweepConfig config = grid.config;
    config.num_threads = threads;
    Clock::time_point last = Clock::now();
    if (instance_ms != nullptr) {
      config.progress = [instance_ms, &last](size_t, size_t) {
        const Clock::time_point now = Clock::now();
        instance_ms->push_back(
            std::chrono::duration<double, std::milli>(now - last).count());
        last = now;
      };
    }
    ScopedSpan span(spans, "RunSweep");
    auto cells = webtx::RunSweep(config);
    WEBTX_CHECK(cells.ok()) << cells.status().ToString();
    digest = Fnv(digest, CellsDigest(cells.ValueOrDie()));
  }
  return digest;
}

/// The traced instance path: RunInstances' inline loop (generate,
/// Create, one Run per policy) with each call timed from outside and
/// every policy wrapped in TimedPolicy.
struct TracedPass {
  SchedCounters sched;
  Timer gen, create, run;
  uint64_t generated_txns = 0;
  uint64_t events = 0, preemptions = 0, idle = 0, pending = 0, aborts = 0;
};

std::vector<uint64_t> RunTracedInstances(Setup& s, TracedPass& t,
                                         SpanLog* spans) {
  std::vector<uint64_t> digests;
  for (Grid& grid : s.grids) {
    webtx::SimOptions options;
    options.record_outcomes = false;  // as RunSweep runs them
    for (const webtx::WorkloadInstance& instance : grid.instances) {
      std::vector<webtx::TransactionSpec> specs;
      {
        ScopedSpan span(spans, "Generate");
        ScopedTimer timer(t.gen);
        auto gen = webtx::WorkloadGenerator::Create(instance.spec);
        WEBTX_CHECK(gen.ok()) << gen.status().ToString();
        specs = gen.ValueOrDie().Generate(instance.seed);
      }
      t.generated_txns += specs.size();
      std::unique_ptr<webtx::Simulator> sim;
      {
        ScopedSpan span(spans, "Create");
        ScopedTimer timer(t.create);
        auto created = webtx::Simulator::Create(std::move(specs), options);
        WEBTX_CHECK(created.ok()) << created.status().ToString();
        sim = std::make_unique<webtx::Simulator>(
            std::move(created).ValueOrDie());
      }
      for (const webtx::PolicyFactory& factory : grid.factories) {
        TimedPolicy policy(factory(), &t.sched);
        ScopedSpan span(spans, "Run");
        ScopedTimer timer(t.run);
        const RunResult r = sim->Run(policy);
        digests.push_back(AggregateDigest(r));
        t.events += r.num_scheduling_points;
        t.preemptions += r.num_preemptions;
        t.idle += r.num_idle_decisions;
        t.pending += r.num_retries + r.num_deferrals;
        t.aborts += r.num_aborts;
      }
    }
  }
  return digests;
}

}  // namespace

SweepConfig Fig15Config(const std::vector<uint64_t>& seeds) {
  SweepConfig config = Fig08Config(seeds);
  config.base.max_weight = 10;
  config.base.max_workflow_length = 5;
  config.policies = {"EDF", "HDF", "ASETS*"};
  return config;
}

Result RunPaperSweep(const Args& args, SpanLog* spans) {
  RequireThreads("paper_sweep", 1);
  Result result;
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < kSweepSeeds; ++i) {
    seeds.push_back(SubSeed(args.seed, i));
  }

  Setup setup;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    PinnedToCpu pin(static_cast<size_t>(rep));
    const Clock::time_point start = Clock::now();
    BuildSetup(seeds, setup);
    setup_s.push_back(SecondsSince(start));
  }

  // Untimed check passes, every (instance, policy) run validated: the
  // seeded inputs give the digests the timed passes must reproduce, the
  // pinned reference inputs give the (sim) metrics.
  CheckPass check = RunCheckPass(setup, result);
  CheckPass reference;
  {
    std::vector<uint64_t> reference_seeds;
    for (size_t i = 0; i < kSweepSeeds; ++i) {
      reference_seeds.push_back(SubSeed(kReferenceSeed, i));
    }
    Setup reference_setup;
    BuildSetup(reference_seeds, reference_setup);
    reference = RunCheckPass(reference_setup, result);
  }
  const uint64_t instances_per_pass =
      setup.grids[0].instances.size() + setup.grids[1].instances.size();

  // Timed region (untraced; the first half of a traced run).
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<std::vector<double>> instance_ms;  // [pass][instance]
  uint64_t first_digest = 0;
  const Clock::time_point start = Clock::now();
  while (instance_ms.empty() || SecondsSince(start) < untraced_budget) {
    PinnedToCpu pin(instance_ms.size());
    const uint64_t digest =
        SweepPass(setup, &instance_ms.emplace_back(), nullptr);
    if (instance_ms.size() == 1) first_digest = digest;
    result.Check(digest == first_digest, "paper_sweep: sweep digest changed");
  }
  const double pass_time = FilteredPassTime(instance_ms) * 1e-3;
  const double txns_per_s = static_cast<double>(check.transactions) / pass_time;

  if (!args.trace) {
    result.Add("setup_s", LowerQuartile(setup_s), "s");
    result.Add("txns_per_s", txns_per_s, "1/s");
    result.Add("events_per_s", static_cast<double>(check.events) / pass_time,
               "1/s");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    std::vector<double> samples;
    for (const auto& pass : instance_ms) {
      samples.insert(samples.end(), pass.begin(), pass.end());
    }
    EmitDecisionMs(result, std::move(samples));
    reference.summary.Emit(result);
    double max_load = 0.0;
    for (size_t u = 0; u < reference.utilizations.size(); ++u) {
      std::vector<double>& r = reference.responses_by_u[u];
      std::sort(r.begin(), r.end());
      if (MeetsLimit(r, 0.99, kResponseLimit)) {
        max_load = std::max(max_load, reference.utilizations[u]);
      }
    }
    result.Add("max_load_at_slo", max_load, "x");
    return result;
  }

  // Traced half: alternate RunSweep passes timed by SweepTiming (exp)
  // with the instance path timed call by call (workload, sim, sched).
  std::map<std::string, double> layers;
  TracedPass traced;
  double exp_run_s = 0.0, exp_merge_s = 0.0;
  std::vector<double> traced_pass_s;
  uint64_t traced_passes = 0;
  const Clock::time_point traced_start = Clock::now();
  while (traced_passes == 0 ||
         SecondsSince(traced_start) < args.seconds / 2) {
    PinnedToCpu pin(traced_passes);
    webtx::SweepTiming timing;
    for (Grid& grid : setup.grids) {
      SweepConfig config = grid.config;
      config.timing = &timing;
      ScopedSpan span(spans, "RunSweep");
      auto cells = webtx::RunSweep(config);
      WEBTX_CHECK(cells.ok()) << cells.status().ToString();
      exp_run_s += timing.run_ms * 1e-3;
      exp_merge_s += timing.merge_ms * 1e-3;
    }
    const Clock::time_point pass_start = Clock::now();
    const std::vector<uint64_t> digests =
        RunTracedInstances(setup, traced, spans);
    traced_pass_s.push_back(SecondsSince(pass_start));
    result.Check(digests == check.digests,
                 "paper_sweep: traced run digests differ from untraced");
    ++traced_passes;
  }
  const double n = static_cast<double>(traced_passes);
  traced.sched.EmitTo(layers, n);
  const double run_s = traced.run.seconds();
  const double self_s =
      run_s - static_cast<double>(traced.sched.total_ns()) * 1e-9;
  layers["sim.run_s"] = run_s / n;
  layers["sim.self_s"] = self_s / n;
  layers["sim.self_ns_per_event"] =
      traced.events ? self_s * 1e9 / static_cast<double>(traced.events) : 0.0;
  layers["sim.events"] = static_cast<double>(traced.events) / n;
  layers["sim.preemptions"] = static_cast<double>(traced.preemptions) / n;
  layers["sim.idle_ratio"] =
      traced.events ? static_cast<double>(traced.idle) /
                          static_cast<double>(traced.events)
                    : 0.0;
  layers["sim.pending_pushes"] = static_cast<double>(traced.pending) / n;
  layers["sim.aborts"] = static_cast<double>(traced.aborts) / n;
  layers["sim.create_calls"] = static_cast<double>(traced.create.calls) / n;
  layers["sim.create_s"] = traced.create.seconds() / n;
  layers["workload.gen_calls"] = static_cast<double>(traced.gen.calls) / n;
  layers["workload.gen_s"] = traced.gen.seconds() / n;
  layers["workload.gen_ns_per_txn"] =
      traced.gen.seconds() * 1e9 /
      static_cast<double>(std::max<uint64_t>(traced.generated_txns, 1));
  layers["exp.run_s"] = exp_run_s / n;
  layers["exp.merge_s"] = exp_merge_s / n;
  layers["exp.instances"] = static_cast<double>(instances_per_pass);
  // The same grids at two threads against one, median of three pairs;
  // skipped (0) when the host has a single CPU.
  if (NumCpus() >= 2) {
    std::vector<double> ratios;
    for (int rep = 0; rep < 3; ++rep) {
      Clock::time_point t0 = Clock::now();
      const uint64_t d1 = SweepPass(setup, nullptr, spans, 1);
      const double t1 = SecondsSince(t0);
      t0 = Clock::now();
      const uint64_t d2 = SweepPass(setup, nullptr, spans, 2);
      const double t2 = SecondsSince(t0);
      result.Check(d1 == first_digest && d2 == first_digest,
                   "paper_sweep: sweep digest differs across thread counts");
      ratios.push_back(t1 / t2);
    }
    layers["exp.speedup_t2"] = Median(ratios);
  }
  const double traced_txns_per_s =
      static_cast<double>(check.transactions) / LowerQuartile(traced_pass_s);
  layers["trace.overhead_ratio"] = txns_per_s / traced_txns_per_s;
  EmitLayers(result, layers);
  return result;
}

}  // namespace perfbench
