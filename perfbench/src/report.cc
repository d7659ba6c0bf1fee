#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "percentile.h"

namespace perfbench {

void Result::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (violations.size() < 8) violations.push_back(what);
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"txns_per_s", "1/s"},
      {"events_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
      {"decision_ms_p50", "ms"},
      {"decision_ms_p99", "ms"},
      {"avg_tardiness_s", "simtime"},
      {"avg_weighted_tardiness_s", "simtime"},
      {"resp_p50_s", "simtime"},
      {"resp_p99_s", "simtime"},
      {"resp_p999_s", "simtime"},
      {"goodput", "ratio"},
      {"slo_attain", "ratio"},
      {"max_load_at_slo", "x"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m;
    for (const char* hook :
         {"arrival", "ready", "completion", "remaining", "drop", "pick",
          "batch", "admit"}) {
      m.emplace_back(std::string("sched.") + hook + "_calls", "count");
      m.emplace_back(std::string("sched.") + hook + "_s", "s");
    }
    m.insert(m.end(), {
        {"sched.pick_idle_ratio", "ratio"},
        {"sched.admit_reject_ratio", "ratio"},
        {"sched.admit_defer_ratio", "ratio"},
        {"sim.run_s", "s"},
        {"sim.self_s", "s"},
        {"sim.self_ns_per_event", "ns"},
        {"sim.events", "count"},
        {"sim.preemptions", "count"},
        {"sim.idle_ratio", "ratio"},
        {"sim.pending_pushes", "count"},
        {"sim.aborts", "count"},
        {"sim.create_calls", "count"},
        {"sim.create_s", "s"},
        {"workload.gen_calls", "count"},
        {"workload.gen_s", "s"},
        {"workload.gen_ns_per_txn", "ns"},
        {"exp.run_s", "s"},
        {"exp.merge_s", "s"},
        {"exp.instances", "count"},
        {"exp.speedup_t2", "x"},
        {"rt.exec.submit_calls", "count"},
        {"rt.exec.submit_s", "s"},
        {"rt.exec.drain_s", "s"},
        {"rt.exec.host_us_per_task", "us"},
        {"rt.exec.attempts", "count"},
        {"rt.exec.useful_ratio", "ratio"},
        {"rt.exec.migrations", "count"},
        {"rt.exec.retries", "count"},
        {"rt.exec.shed_ratio", "ratio"},
        {"rt.exec.gen_late_s", "s"},
        {"rt.twin.ticks", "count"},
        {"rt.twin.forecast_s", "s"},
        {"rt.twin.forecast_events", "count"},
        {"rt.twin.forecasts_run", "count"},
        {"rt.twin.forecasts_pruned", "count"},
        {"rt.twin.snapshot_s", "s"},
        {"rt.twin.decision_share", "ratio"},
        {"rt.twin.switches", "count"},
        {"rt.twin.fallbacks", "count"},
        {"trace.overhead_ratio", "x"},
    });
    return m;
  }();
  return kMetrics;
}

void EmitLayers(Result& result, const std::map<std::string, double>& values) {
  size_t known = 0;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = values.find(name);
    known += it != values.end();
    result.Add(name, it != values.end() ? it->second : 0.0, unit);
  }
  if (known != values.size()) {
    for (const auto& [name, value] : values) {
      bool listed = false;
      for (const auto& entry : PerLayerMetrics()) listed |= entry.first == name;
      if (!listed) {
        std::fprintf(stderr, "unlisted layer metric %s\n", name.c_str());
      }
    }
    std::abort();
  }
}

void OutcomeSummary::Completed(double response, double tardiness,
                               double weighted_tardiness, bool on_time) {
  ++submitted_;
  ++completed_;
  on_time_ += on_time;
  tardiness_sum_ += tardiness;
  weighted_sum_ += weighted_tardiness;
  responses_.push_back(response);
}

void OutcomeSummary::Emit(Result& result) {
  const double completed = static_cast<double>(completed_);
  const double submitted = static_cast<double>(submitted_);
  result.Check(completed_ > 0, "no transaction completed");
  result.Add("avg_tardiness_s", completed_ ? tardiness_sum_ / completed : 0.0,
             "simtime");
  result.Add("avg_weighted_tardiness_s",
             completed_ ? weighted_sum_ / completed : 0.0, "simtime");
  std::sort(responses_.begin(), responses_.end());
  for (const auto& [name, q] :
       {std::pair<const char*, double>{"resp_p50_s", 0.5},
        {"resp_p99_s", 0.99},
        {"resp_p999_s", 0.999}}) {
    const Percentile p = NearestRank(responses_, q);
    result.Check(p.ok, std::string(name) + " refused: " +
                           std::to_string(p.samples) + " samples");
    result.Add(name, p.value, "simtime");
  }
  result.Add("goodput", submitted_ ? completed / submitted : 0.0, "ratio");
  result.Add("slo_attain",
             submitted_ ? static_cast<double>(on_time_) / submitted : 0.0,
             "ratio");
}

void EmitDecisionMs(Result& result, std::vector<double> samples_ms) {
  std::sort(samples_ms.begin(), samples_ms.end());
  const Percentile p50 = NearestRank(samples_ms, 0.5);
  const Percentile p99 = NearestRank(samples_ms, 0.99);
  result.Check(p50.ok && p99.ok, "decision_ms refused: " +
                                     std::to_string(p99.samples) + " samples");
  result.Add("decision_ms_p50", p50.value, "ms");
  result.Add("decision_ms_p99", p99.value, "ms");
}

unsigned NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

PinnedToCpu::PinnedToCpu(size_t i) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  size_t skip = i % static_cast<size_t>(std::max(CPU_COUNT(&saved_), 1));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

PinnedToCpu::~PinnedToCpu() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RequireThreads(const char* workload, unsigned threads) {
  if (threads <= NumCpus()) return;
  std::fprintf(stderr,
               "perfbench: %s needs %u threads but only %u CPUs are "
               "available; refusing to run an oversubscribed measurement\n",
               workload, threads, NumCpus());
  std::exit(2);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double LowerQuartile(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return PercentileOf(values, 0.25, 0).value;
}

std::vector<double> PerUnitLowerDecile(
    const std::vector<std::vector<double>>& by_pass) {
  std::vector<double> out;
  if (by_pass.empty()) return out;
  std::vector<double> unit(by_pass.size());
  for (size_t u = 0; u < by_pass[0].size(); ++u) {
    for (size_t p = 0; p < by_pass.size(); ++p) unit[p] = by_pass[p][u];
    out.push_back(PercentileOf(unit, 0.1, 0).value);
  }
  return out;
}

double FilteredPassTime(const std::vector<std::vector<double>>& by_pass) {
  double total = 0.0;
  for (const double t : PerUnitLowerDecile(by_pass)) total += t;
  return total;
}

uint64_t SubSeed(uint64_t seed, uint64_t i) {
  return webtx::DeriveSeed(seed, 0x9E7Bu, i);
}

}  // namespace perfbench
