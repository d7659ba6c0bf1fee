#ifndef WEBTX_RT_SERVE_H_
#define WEBTX_RT_SERVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "rt/executor.h"
#include "rt/live_trace.h"
#include "rt/live_validator.h"
#include "sched/scheduler_policy.h"
#include "workload/live_arrivals.h"

namespace webtx::rt {

/// The retry budget and backoff every served task gets (TaskSpec's
/// max_attempts, retry_backoff_seconds and backoff_multiplier).
struct TaskRetry {
  uint32_t max_attempts = 1;
  double backoff = 0.0;
  double backoff_multiplier = 2.0;
};

/// Everything one served batch produced, enough to audit it with
/// ValidateLiveTrace and to digest it: the quiescent trace, the
/// ground-truth task records built from the submitted arrivals, the
/// final outcomes and stats, and the options the validator needs.
/// `tasks` and `outcomes` are indexed by TxnId, which is each arrival's
/// index in the batch.
struct ServedRun {
  std::vector<LiveTraceEvent> trace;
  std::vector<LiveTaskRecord> tasks;
  std::vector<TaskOutcome> outcomes;
  ExecutorStats stats;
  LiveValidatorOptions validator_options;
};

/// A control tick. It runs on the serving thread with the virtual clock
/// frozen at the tick instant, so it may snapshot and reconfigure
/// `exec` (but not submit to it). The arrivals submitted since the
/// previous tick are the batch's indices [first, end).
using ServeTickHook =
    std::function<void(Executor& exec, size_t first, size_t end)>;

/// The live front end: serves `arrivals` to an Executor running
/// `policy` on a fresh VirtualClock and returns the run. The calling
/// thread is a clock participant, so every arrival is submitted at its
/// exact instant and the run is one deterministic timeline. `options`
/// supplies everything but the clock and trace recording, which this
/// function owns. Each arrival maps to one TaskSpec (simulated work of
/// its duration, estimated at that duration, with its deadline, weight,
/// timeout, dependency and `retry`) and to one LiveTaskRecord.
///
/// With `on_tick`, ticks fire every `tick_interval` virtual seconds
/// (instants accumulated by addition) until every task is terminal; an
/// arrival due exactly at a tick is submitted before that tick.
///
/// InvalidArgument, before any thread starts, for options that
/// ExecutorOptions::Validate or FaultInjector::Create refuse, for an
/// arrival instant that is not finite or falls below its predecessor
/// (or 0), for a `depends_on` that is not -1 or an earlier index, and
/// for a hook with a tick_interval that is not finite and positive. A
/// task that Submit refuses ends the run with Submit's status.
Result<ServedRun> ServeArrivals(std::unique_ptr<SchedulerPolicy> policy,
                                ExecutorOptions options,
                                const TaskRetry& retry,
                                const std::vector<LiveArrival>& arrivals,
                                double tick_interval = 0.0,
                                const ServeTickHook& on_tick = nullptr);

}  // namespace webtx::rt

#endif  // WEBTX_RT_SERVE_H_
