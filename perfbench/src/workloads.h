#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "exp/sweep.h"
#include "report.h"
#include "rt/executor.h"
#include "rt/twin.h"
#include "trace.h"
#include "workload/live_arrivals.h"

namespace perfbench {

// One entry point per workload (README.md says why each exists). An
// untraced run returns the end-to-end metrics; a traced one
// (Args::trace) the per-layer metrics.
Result RunPaperSweep(const Args& args, SpanLog* spans);
Result RunHugeStream(const Args& args, SpanLog* spans);
Result RunLiveRamp(const Args& args, SpanLog* spans);
Result RunTwinFlash(const Args& args, SpanLog* spans);

// ---------------------------------------------------------------------
// Building blocks shared with perfbench_selftest.

/// paper_sweep's fig15 grid (weights 1-10, workflows <= 5), Table I
/// defaults, one thread, seeds `seeds`.
webtx::SweepConfig Fig15Config(const std::vector<uint64_t>& seeds);

/// huge_stream simulator options (ext_huge_scale e2e case, default
/// structure knobs).
webtx::SimOptions HugeStreamOptions();
webtx::WorkloadSpec HugeStreamSpec(size_t num_transactions);

/// One live_ramp task, drawn in setup.
struct LiveTask {
  double arrival = 0.0;
  double duration = 0.0;
  double weight = 1.0;
};
/// One ramp step of live_ramp: `load` x capacity of open-loop Poisson
/// arrivals.
struct LiveStep {
  double load = 0.0;
  std::vector<LiveTask> tasks;
};
std::vector<LiveStep> LiveRampInputs(uint64_t seed, size_t tasks_per_step);

/// Result of one executor run of a ramp step.
struct LiveRun {
  std::vector<webtx::rt::TaskOutcome> outcomes;  // by TxnId
  std::vector<webtx::rt::LiveTraceEvent> trace;  // record_trace only
  webtx::rt::ExecutorStats stats;
  uint64_t outcome_digest = 0;
  double drain_s = 0.0;
  double wall_s = 0.0;
  double gen_late_s = 0.0;  // virtual seconds submitted behind schedule
};
/// Runs one ramp step on a VirtualClock executor (2 workers, EDF,
/// brownout admission, stall + crash faults, watchdog). With `counters`
/// the policy and the controller are wrapped in the timing shims;
/// `submit_ms` (optional) receives each Submit call's wall time.
LiveRun RunLiveStep(const LiveStep& step, bool record_trace,
                    SchedCounters* counters, std::vector<double>* submit_ms,
                    SpanLog* spans);

/// twin_flash: the ext_twin flash crowd cut to 2 workers at half the base
/// rate, and the twin options it runs under (4 candidates, controller on,
/// crash seasoning, default forecast knobs).
std::vector<webtx::LiveArrival> TwinFlashArrivals(uint64_t seed);
webtx::rt::TwinOptions TwinFlashOptions();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
