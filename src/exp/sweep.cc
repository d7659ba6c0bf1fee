#include "exp/sweep.h"

#include <chrono>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "sched/policy_factory.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace webtx {

std::vector<double> PaperUtilizationGrid() {
  std::vector<double> grid;
  for (int i = 1; i <= 10; ++i) grid.push_back(0.1 * i);
  return grid;
}

Result<RunResult> RunOne(const WorkloadSpec& spec, uint64_t seed,
                         const std::string& policy_spec) {
  WEBTX_ASSIGN_OR_RETURN(auto generator, WorkloadGenerator::Create(spec));
  WEBTX_ASSIGN_OR_RETURN(auto policy, CreatePolicy(policy_spec));
  WEBTX_ASSIGN_OR_RETURN(auto sim, Simulator::Create(generator.Generate(seed)));
  return sim.Run(*policy);
}

Result<std::vector<PolicyFactory>> MakePolicyFactories(
    const std::vector<std::string>& specs) {
  std::vector<PolicyFactory> factories;
  factories.reserve(specs.size());
  for (const std::string& spec : specs) {
    // Validate now so workers can assume success.
    WEBTX_ASSIGN_OR_RETURN(auto probe, CreatePolicy(spec));
    (void)probe;
    factories.push_back([spec]() {
      auto policy = CreatePolicy(spec);
      WEBTX_CHECK(policy.ok()) << policy.status().ToString();
      return std::move(policy).ValueOrDie();
    });
  }
  return factories;
}

namespace {

/// Runs instance `i` to completion under every factory, filling
/// `results[i]`. Everything touched here is private to the call: a fresh
/// generator, simulator, and policy set per instance.
Status RunOneInstance(const WorkloadInstance& instance,
                      const std::vector<PolicyFactory>& factories,
                      const SimOptions& sim_options,
                      std::vector<RunResult>& out) {
  WEBTX_ASSIGN_OR_RETURN(auto generator,
                         WorkloadGenerator::Create(instance.spec));
  SimOptions instance_options = sim_options;
  if (instance_options.fault_plan.enabled()) {
    // Re-key the fault streams per instance so every (utilization,
    // replication) pair sees an independent timeline; the derived seed
    // is a pure function of the instance, not of worker assignment.
    instance_options.fault_plan =
        instance_options.fault_plan.WithDerivedSeed(instance.seed);
  }
  WEBTX_ASSIGN_OR_RETURN(
      auto sim,
      Simulator::Create(generator.Generate(instance.seed), instance_options));
  out.resize(factories.size());
  for (size_t p = 0; p < factories.size(); ++p) {
    const std::unique_ptr<SchedulerPolicy> policy = factories[p]();
    out[p] = sim.Run(*policy);
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<std::vector<RunResult>>> RunInstances(
    const std::vector<WorkloadInstance>& instances,
    const std::vector<PolicyFactory>& factories,
    const ParallelRunOptions& options) {
  for (const PolicyFactory& factory : factories) {
    if (factory == nullptr) {
      return Status::InvalidArgument("null policy factory");
    }
  }

  const size_t total = instances.size();
  std::vector<std::vector<RunResult>> results(total);
  std::vector<Status> statuses(total, Status::OK());

  const size_t num_threads = options.num_threads == 0
                                 ? ThreadPool::DefaultConcurrency()
                                 : options.num_threads;
  if (num_threads == 1) {
    // Inline reference path: identical per-instance code, same
    // positional merge, no pool.
    for (size_t i = 0; i < total; ++i) {
      statuses[i] =
          RunOneInstance(instances[i], factories, options.sim, results[i]);
      if (!statuses[i].ok()) return statuses[i];
      if (options.progress) options.progress(i + 1, total);
    }
    return results;
  }

  {
    std::mutex progress_mu;
    size_t completed = 0;
    ThreadPool pool(num_threads);
    for (size_t i = 0; i < total; ++i) {
      pool.Submit([&, i] {
        statuses[i] =
            RunOneInstance(instances[i], factories, options.sim, results[i]);
        if (options.progress) {
          std::lock_guard<std::mutex> lock(progress_mu);
          options.progress(++completed, total);
        }
      });
    }
    pool.Wait();
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return results;
}

Result<std::vector<SweepCell>> RunSweep(const SweepConfig& config) {
  if (config.utilizations.empty()) {
    return Status::InvalidArgument("sweep has no utilization points");
  }
  if (config.policies.empty()) {
    return Status::InvalidArgument("sweep has no policies");
  }
  if (config.seeds.empty()) {
    return Status::InvalidArgument("sweep has no seeds");
  }
  WEBTX_ASSIGN_OR_RETURN(auto factories, MakePolicyFactories(config.policies));

  // One workload instance per (utilization, replication), each with its
  // own DeriveSeed stream; instance index = u * num_seeds + r.
  const size_t num_seeds = config.seeds.size();
  std::vector<WorkloadInstance> instances;
  instances.reserve(config.utilizations.size() * num_seeds);
  for (size_t u = 0; u < config.utilizations.size(); ++u) {
    for (size_t r = 0; r < num_seeds; ++r) {
      WorkloadInstance instance;
      instance.spec = config.base;
      instance.spec.utilization = config.utilizations[u];
      instance.seed = DeriveSeed(config.seeds[r], u, r);
      instances.push_back(std::move(instance));
    }
  }

  ParallelRunOptions options;
  options.sim = config.sim;
  options.sim.record_outcomes = false;
  options.num_threads = config.num_threads;
  options.progress = config.progress;
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  const auto run_start = Clock::now();
  WEBTX_ASSIGN_OR_RETURN(auto runs, RunInstances(instances, factories,
                                                 options));
  if (config.timing) config.timing->run_ms = ms_since(run_start);

  // Batched merge in (utilization, policy) order. Per cell, the per-seed
  // summaries are first gathered into contiguous SoA sample buffers and
  // then reduced — tardiness means/stddevs via pairwise Welford combines
  // (PairwiseStats), the plain averages via a sequential fold in
  // replication order. Every reduction consumes samples in a fixed order
  // that depends only on the instance index, so the cells stay
  // bit-identical no matter which worker produced each RunResult.
  const auto merge_start = Clock::now();
  const size_t num_policies = config.policies.size();
  std::vector<SweepCell> cells;
  cells.reserve(config.utilizations.size() * num_policies);
  std::vector<double> tardiness(num_seeds);
  std::vector<double> weighted(num_seeds);
  std::vector<double> max_tardiness(num_seeds);
  std::vector<double> max_weighted(num_seeds);
  std::vector<double> miss(num_seeds);
  std::vector<double> response(num_seeds);
  std::vector<double> goodput(num_seeds);
  std::vector<double> shed(num_seeds);
  std::vector<double> drop(num_seeds);
  const auto mean_of = [num_seeds](const std::vector<double>& samples) {
    double sum = 0.0;
    for (const double s : samples) sum += s;
    return sum / static_cast<double>(num_seeds);
  };
  for (size_t u = 0; u < config.utilizations.size(); ++u) {
    for (size_t p = 0; p < num_policies; ++p) {
      for (size_t r = 0; r < num_seeds; ++r) {
        const RunResult& run = runs[u * num_seeds + r][p];
        tardiness[r] = run.avg_tardiness;
        weighted[r] = run.avg_weighted_tardiness;
        max_tardiness[r] = run.max_tardiness;
        max_weighted[r] = run.max_weighted_tardiness;
        miss[r] = run.miss_ratio;
        response[r] = run.avg_response;
        const auto total = static_cast<double>(
            run.num_completed + run.num_shed + run.num_dropped_retries +
            run.num_dropped_dependency);
        if (total > 0.0) {
          goodput[r] = run.goodput;
          shed[r] = static_cast<double>(run.num_shed) / total;
          drop[r] = static_cast<double>(run.num_dropped_retries +
                                        run.num_dropped_dependency) /
                    total;
        } else {
          goodput[r] = 1.0;  // empty run: vacuously all completed
          shed[r] = 0.0;
          drop[r] = 0.0;
        }
      }
      SweepCell cell;
      cell.utilization = config.utilizations[u];
      cell.policy = config.policies[p];
      const StreamingStats tardiness_stats =
          PairwiseStats(tardiness.data(), num_seeds);
      const StreamingStats weighted_stats =
          PairwiseStats(weighted.data(), num_seeds);
      cell.avg_tardiness = tardiness_stats.mean();
      cell.avg_tardiness_stddev = tardiness_stats.stddev();
      cell.avg_weighted_tardiness = weighted_stats.mean();
      cell.avg_weighted_tardiness_stddev = weighted_stats.stddev();
      cell.max_tardiness = mean_of(max_tardiness);
      cell.max_weighted_tardiness = mean_of(max_weighted);
      cell.miss_ratio = mean_of(miss);
      cell.avg_response = mean_of(response);
      cell.goodput = mean_of(goodput);
      cell.shed_ratio = mean_of(shed);
      cell.drop_ratio = mean_of(drop);
      cells.push_back(std::move(cell));
    }
  }
  if (config.timing) config.timing->merge_ms = ms_since(merge_start);
  return cells;
}

}  // namespace webtx
