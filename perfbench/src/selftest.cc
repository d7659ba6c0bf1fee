// perfbench_selftest: checks the benchmark's own machinery.
//   1. The nearest-rank percentile helper on hand-computed inputs.
//   2. The timing shims are decision-neutral: traced and untraced runs
//      give equal ScheduleDigest (simulator, one and four servers, with
//      and without admission), LiveTraceDigest (executor) and
//      TwinReport::digest (twin).
// Exits 0 when every check passes. Run: perfbench_selftest

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "exp/chaos.h"
#include "percentile.h"
#include "rt/live_trace.h"
#include "sched/policy_factory.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += !ok;
}

void PercentileTests() {
  // n = 20: p50 is rank 10 (value 10), 10 samples beyond it.
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  Percentile p = NearestRank(twenty, 0.5);
  Expect(p.ok && p.value == 10 && p.beyond == 10 && p.samples == 20,
         "p50 of 1..20 is 10 with 10 beyond");
  // p90 of 1..20 is rank 18: only 2 beyond, refused.
  p = NearestRank(twenty, 0.9);
  Expect(!p.ok && p.value == 18 && p.beyond == 2, "p90 of 1..20 refused");
  // n = 1000: p99 is rank 990 exactly (floating point must not make it 991).
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  p = NearestRank(thousand, 0.99);
  Expect(p.ok && p.value == 990 && p.beyond == 10, "p99 of 1..1000 is 990");
  p = NearestRank(thousand, 0.999);
  Expect(!p.ok && p.value == 999, "p999 of 1..1000 refused (1 beyond)");
  // ceil: p50 of 1..21 is rank 11.
  std::vector<double> odd;
  for (int i = 1; i <= 21; ++i) odd.push_back(i);
  Expect(NearestRank(odd, 0.5).value == 11, "p50 of 1..21 is 11");
  // Unsorted input through PercentileOf.
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  Expect(PercentileOf(shuffled, 0.4, 0).value == 2, "p40 of {1..5} is 2");
  // Lost requests count as over every limit: 1000 samples, 15 lost.
  std::vector<double> lossy;
  for (int i = 0; i < 985; ++i) lossy.push_back(1.0);
  for (int i = 0; i < 15; ++i) lossy.push_back(kLost);
  Expect(!MeetsLimit(lossy, 0.99, 2.0), "1.5% lost misses a p99 limit");
  lossy.resize(995);  // 985 ok + 10 lost
  std::sort(lossy.begin(), lossy.end());
  Expect(MeetsLimit(lossy, 0.985, 2.0, 0) && !MeetsLimit(lossy, 0.995, 2.0, 0),
         "lost samples rank above every finite response");
  Expect(!NearestRank({}, 0.5).ok, "empty sample refused");
}

uint64_t SimDigest(const std::vector<webtx::TransactionSpec>& specs,
                   webtx::SimOptions options, const std::string& policy_spec,
                   SchedCounters* counters) {
  options.record_schedule = true;
  if (counters != nullptr) {
    options.admission = TimedAdmissionFactory(options.admission, counters);
  }
  auto sim = webtx::Simulator::Create(specs, options);
  auto created = webtx::CreatePolicy(policy_spec);
  if (!sim.ok() || !created.ok()) return 0;
  std::unique_ptr<webtx::SchedulerPolicy> policy =
      std::move(created).ValueOrDie();
  if (counters != nullptr) {
    policy = std::make_unique<TimedPolicy>(std::move(policy), counters);
  }
  return webtx::ScheduleDigest(sim.ValueOrDie().Run(*policy));
}

void SimulatorShimTests() {
  // paper_sweep shape: one server, k = 1, every fig08/fig15 policy.
  webtx::SweepConfig fig15 = Fig15Config({7});
  webtx::WorkloadSpec spec = fig15.base;
  spec.utilization = 0.9;
  auto gen = webtx::WorkloadGenerator::Create(spec);
  const auto specs = gen.ValueOrDie().Generate(7);
  for (const char* policy : {"FCFS", "LS", "EDF", "SRPT", "ASETS", "HDF",
                             "ASETS*"}) {
    SchedCounters c;
    const uint64_t plain = SimDigest(specs, {}, policy, nullptr);
    const uint64_t traced = SimDigest(specs, {}, policy, &c);
    Expect(plain != 0 && plain == traced && c.pick.calls > 0,
           std::string("one-server ScheduleDigest traced == untraced: ") +
               policy);
  }

  // huge_stream shape at 10^4: four servers (PickBatch), aborts and
  // retries, with and without admission control.
  auto stream_gen = webtx::WorkloadGenerator::Create(HugeStreamSpec(10000));
  const auto stream = stream_gen.ValueOrDie().Generate(11);
  webtx::SimOptions options = HugeStreamOptions();
  webtx::FaultPlanConfig fault;
  fault.seed = 3;
  fault.abort_rate = 0.01;
  options.fault_plan = webtx::FaultPlan::Create(fault).ValueOrDie();
  for (const char* policy : {"ASETS*", "EDF", "SRPT-sharded"}) {
    SchedCounters c;
    const uint64_t plain = SimDigest(stream, options, policy, nullptr);
    const uint64_t traced = SimDigest(stream, options, policy, &c);
    Expect(plain != 0 && plain == traced && c.batch.calls > 0 &&
               c.completion.calls > 0,
           std::string("four-server ScheduleDigest traced == untraced: ") +
               policy);
  }
  webtx::SimOptions admitted = options;
  webtx::QueueDepthAdmissionOptions depth;
  depth.max_ready = 2;
  depth.defer_delay = 2.0;
  admitted.admission = webtx::MakeQueueDepthAdmission(depth);
  SchedCounters c;
  const uint64_t plain = SimDigest(stream, admitted, "ASETS*", nullptr);
  const uint64_t traced = SimDigest(stream, admitted, "ASETS*", &c);
  Expect(plain != 0 && plain == traced && c.admit.calls > 0 &&
             c.admit_reject + c.admit_defer > 0,
         "admission-controlled ScheduleDigest traced == untraced (" +
             std::to_string(c.admit_reject) + " rejected, " +
             std::to_string(c.admit_defer) + " deferred)");
}

void LiveShimTests() {
  const std::vector<LiveStep> steps = LiveRampInputs(5, 300);
  for (size_t i = 0; i < steps.size(); i += 4) {
    SchedCounters c;
    const LiveRun plain =
        RunLiveStep(steps[i], true, nullptr, nullptr, nullptr);
    const LiveRun traced = RunLiveStep(steps[i], true, &c, nullptr, nullptr);
    Expect(webtx::rt::LiveTraceDigest(plain.trace) ==
                   webtx::rt::LiveTraceDigest(traced.trace) &&
               c.admit.calls > 0 && c.pick.calls > 0,
           "live LiveTraceDigest traced == untraced at load " +
               std::to_string(steps[i].load));
  }
}

void TwinTests() {
  const auto arrivals = TwinFlashArrivals(9);
  SpanLog spans;
  auto plain = webtx::rt::Twin(TwinFlashOptions()).Run(arrivals);
  webtx::Result<webtx::rt::TwinReport> traced = [&] {
    ScopedSpan span(&spans, "Twin::Run");
    return webtx::rt::Twin(TwinFlashOptions()).Run(arrivals);
  }();
  Expect(plain.ok() && traced.ok() &&
             plain.ValueOrDie().digest == traced.ValueOrDie().digest &&
             spans.size() == 1,
         "TwinReport::digest traced == untraced");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileTests();
  perfbench::SimulatorShimTests();
  perfbench::LiveShimTests();
  perfbench::TwinTests();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
