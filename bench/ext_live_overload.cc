// Extension: live overload control. The brownout/circuit-breaker
// admission controller consumes OBSERVED executor signals (completion
// tardiness + ready-depth EWMAs) where the static queue-depth cap sees
// only an instantaneous count and "none" admits everything. This
// harness ramps a seeded task stream from light load to 4x overload
// against the live rt::Executor under the deterministic VirtualClock —
// same arrivals, same fault timeline (stalls + crashes + watchdog),
// same seeds for every admission mode — and reports goodput, weighted
// goodput, completed-task tardiness, and survival of the heavy SLA
// tier. The story the brownout column tells: under overload it sheds
// LIGHT tasks early (observed tardiness trips tier floors), so the
// weighted goodput and the heavy tier hold up long after "none"
// collapses into uniform lateness and "depth" sheds blindly. Every run
// is served through rt::ServeArrivals and its trace audited by the live
// validator; a violation goes to stderr and fails the bench (exit 1).

#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "rt/live_validator.h"
#include "rt/serve.h"
#include "sched/admission.h"
#include "sched/policy_factory.h"

namespace webtx {
namespace {

constexpr size_t kNumWorkers = 4;
constexpr size_t kNumTasks = 1200;
constexpr double kMeanDuration = 0.1;    // virtual seconds
constexpr double kDeadlineSlack = 2.5;   // deadline = duration * slack
constexpr uint64_t kWorkloadSeed = 101;

enum class Mode { kNone, kDepth, kBrownout };
constexpr Mode kModes[] = {Mode::kNone, Mode::kDepth, Mode::kBrownout};

struct RunMetrics {
  double goodput = 0.0;           // completed / submitted
  double weighted_goodput = 0.0;  // completed weight / submitted weight
  double avg_tardiness = 0.0;     // completed tasks only
  double heavy_survival = 0.0;    // completion rate of the top SLA tier
  std::vector<std::string> violations;  // live validator findings
};

/// SLA weight draw: 70% weight 1, 25% weight 4, 5% weight 16 — the
/// tiers the brownout controller's weight floor walks.
double DrawWeight(Rng& rng) {
  const double u = rng.NextDouble();
  if (u < 0.70) return 1.0;
  if (u < 0.95) return 4.0;
  return 16.0;
}

rt::ExecutorOptions OptionsFor(Mode mode) {
  rt::ExecutorOptions options;
  options.num_workers = kNumWorkers;
  // Moderate fault seasoning, identical across modes: stall windows
  // (watchdog fails over), occasional crashes (warm failover).
  options.faults.plan.outage_rate = 0.05;
  options.faults.plan.mean_outage_duration = 0.5;
  options.faults.plan.crash_rate = 0.02;
  options.faults.plan.mean_repair_duration = 1.0;
  options.faults.plan.seed = 11;
  options.watchdog = true;
  options.watchdog_stall_seconds = 0.1;
  options.retry_max_backoff = 0.2;
  switch (mode) {
    case Mode::kNone:
      break;
    case Mode::kDepth: {
      QueueDepthAdmissionOptions depth;
      depth.max_ready = 4 * kNumWorkers;
      options.admission = MakeQueueDepthAdmission(depth);
      break;
    }
    case Mode::kBrownout: {
      BrownoutAdmissionOptions brownout;
      brownout.tardiness_slo = kMeanDuration;          // one mean task late
      brownout.depth_slo = 4.0;                        // per up-worker
      brownout.ewma_alpha = 0.2;
      brownout.weight_tiers = {4.0, 16.0};
      brownout.breaker_trip_severity = 6.0;
      brownout.breaker_cooldown = 2.0;
      options.admission = MakeBrownoutAdmission(brownout);
      break;
    }
  }
  return options;
}

/// Serves one ramp step and audits its trace with the live validator.
RunMetrics RunOne(Mode mode, double utilization) {
  // Same seed for every mode: identical arrivals, durations, weights.
  Rng rng(kWorkloadSeed);
  const double mean_gap =
      kMeanDuration / (utilization * static_cast<double>(kNumWorkers));
  std::vector<LiveArrival> arrivals(kNumTasks);
  double arrival = 0.0;
  for (LiveArrival& a : arrivals) {
    arrival += ExponentialDistribution(1.0 / mean_gap).Sample(rng);
    a.arrival = arrival;
    a.duration = ExponentialDistribution(1.0 / kMeanDuration).Sample(rng);
    a.relative_deadline = a.duration * kDeadlineSlack;
    a.weight = DrawWeight(rng);
  }
  auto policy = CreatePolicy("EDF");
  WEBTX_CHECK(policy.ok()) << policy.status().ToString();
  auto served = rt::ServeArrivals(std::move(policy).ValueOrDie(),
                                  OptionsFor(mode), rt::TaskRetry{}, arrivals);
  WEBTX_CHECK(served.ok()) << served.status().ToString();
  const rt::ServedRun& run = served.ValueOrDie();

  RunMetrics metrics;
  metrics.violations =
      rt::ValidateLiveTrace(run.trace, run.tasks, run.outcomes, run.stats,
                            run.validator_options)
          .violations;
  double weight_total = 0.0, weight_done = 0.0, tardiness = 0.0;
  size_t completed = 0, heavy = 0, heavy_done = 0;
  for (TxnId id = 0; id < kNumTasks; ++id) {
    const rt::TaskOutcome& outcome = run.outcomes[id];
    const double weight = arrivals[id].weight;
    weight_total += weight;
    const bool done = outcome.result == rt::TaskResult::kCompleted;
    if (done) {
      ++completed;
      weight_done += weight;
      tardiness += outcome.tardiness_seconds;
    }
    if (weight == 16.0) {
      ++heavy;
      if (done) ++heavy_done;
    }
  }
  metrics.goodput = static_cast<double>(completed) / kNumTasks;
  metrics.weighted_goodput = weight_done / weight_total;
  metrics.avg_tardiness =
      completed > 0 ? tardiness / static_cast<double>(completed) : 0.0;
  metrics.heavy_survival =
      heavy > 0 ? static_cast<double>(heavy_done) / heavy : 0.0;
  return metrics;
}

}  // namespace
}  // namespace webtx

int main() {
  using namespace webtx;
  const std::vector<double> utilizations = {0.8, 1.2, 1.6, 2.4, 3.2};
  const std::vector<std::string> header = {"utilization", "none", "depth",
                                           "brownout"};
  Table goodput(header);
  Table weighted(header);
  Table tardiness(header);
  Table heavy(header);
  size_t violations = 0;

  std::cout << "Live overload control: rt::Executor under a utilization "
            << "ramp (virtual clock,\n"
            << kNumWorkers << " workers, " << kNumTasks
            << " tasks, stall+crash fault plan, EDF).\n"
            << "Modes: no admission, static queue-depth cap, adaptive "
            << "brownout.\n\n";

  for (const double utilization : utilizations) {
    const std::string label = FormatFixed(utilization, 1);
    std::vector<double> g, w, t, h;
    for (size_t m = 0; m < std::size(kModes); ++m) {
      const RunMetrics metrics = RunOne(kModes[m], utilization);
      g.push_back(metrics.goodput);
      w.push_back(metrics.weighted_goodput);
      t.push_back(metrics.avg_tardiness);
      h.push_back(metrics.heavy_survival);
      for (const std::string& violation : metrics.violations) {
        std::cerr << "live invariant (" << header[m + 1] << ", utilization "
                  << label << "): " << violation << "\n";
      }
      violations += metrics.violations.size();
    }
    goodput.AddNumericRow(label, g);
    weighted.AddNumericRow(label, w);
    tardiness.AddNumericRow(label, t);
    heavy.AddNumericRow(label, h);
  }

  std::cout << "Goodput (completed / submitted):\n";
  goodput.Print(std::cout);
  bench::SaveCsv(goodput, "ext_live_overload_goodput");
  std::cout << "\nWeighted goodput (completed weight / submitted weight):\n";
  weighted.Print(std::cout);
  bench::SaveCsv(weighted, "ext_live_overload_weighted_goodput");
  std::cout << "\nAvg tardiness of completed tasks (virtual seconds):\n";
  tardiness.Print(std::cout);
  bench::SaveCsv(tardiness, "ext_live_overload_tardiness");
  std::cout << "\nHeavy-tier (weight 16) completion rate:\n";
  heavy.Print(std::cout);
  bench::SaveCsv(heavy, "ext_live_overload_heavy_tier");
  // Every run is audited; a violation fails the bench.
  return violations == 0 ? 0 : 1;
}
