#include "rt/serve.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "rt/clock.h"
#include "rt/fault_injector.h"

namespace webtx::rt {

namespace {

/// The driver sleeps to each arrival instant in batch order and submits
/// every dependency before its dependent, so instants must be finite
/// and non-decreasing from 0, and each dependency an earlier index.
Status ValidateArrivals(const std::vector<LiveArrival>& arrivals) {
  double prev = 0.0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const LiveArrival& a = arrivals[i];
    const std::string at = "arrival " + std::to_string(i) + ": ";
    if (!(a.arrival >= prev && std::isfinite(a.arrival))) {
      return Status::InvalidArgument(
          at + "arrival instants must be finite and non-decreasing from 0");
    }
    prev = a.arrival;
    if (!(a.depends_on >= -1 && a.depends_on < static_cast<int64_t>(i))) {
      return Status::InvalidArgument(
          at + "depends_on must be -1 or an earlier arrival's index");
    }
  }
  return Status::OK();
}

}  // namespace

Result<ServedRun> ServeArrivals(std::unique_ptr<SchedulerPolicy> policy,
                                ExecutorOptions options,
                                const TaskRetry& retry,
                                const std::vector<LiveArrival>& arrivals,
                                double tick_interval,
                                const ServeTickHook& on_tick) {
  WEBTX_RETURN_NOT_OK(options.Validate());
  WEBTX_RETURN_NOT_OK(
      FaultInjector::Create(options.faults, options.num_workers).status());
  WEBTX_RETURN_NOT_OK(ValidateArrivals(arrivals));
  if (on_tick != nullptr &&
      !(tick_interval > 0.0 && std::isfinite(tick_interval))) {
    return Status::InvalidArgument("tick_interval must be finite and > 0");
  }

  auto clock = std::make_shared<VirtualClock>();
  options.clock = clock;
  options.record_trace = true;
  ServedRun run;
  run.validator_options = {options.watchdog, options.watchdog_stall_seconds,
                           options.retry_max_backoff};
  Executor exec(std::move(policy), std::move(options));
  const size_t n = arrivals.size();
  run.tasks.resize(n);

  // The driver is a clock participant: virtual time halts while it
  // submits or ticks, so each lands at its exact instant.
  clock->RegisterParticipant();
  Status failure;  // deferred so the participant is always deregistered
  size_t next = 0;
  size_t window_start = 0;
  double next_tick = tick_interval;
  while (true) {
    const bool arrivals_left = next < n;
    if (!arrivals_left &&
        (on_tick == nullptr || exec.finished_count() == n)) {
      break;
    }
    if (on_tick != nullptr &&
        (!arrivals_left || arrivals[next].arrival > next_tick)) {
      clock->SleepUntil(next_tick, nullptr);
      on_tick(exec, window_start, next);
      window_start = next;
      next_tick += tick_interval;
      continue;
    }
    const LiveArrival& a = arrivals[next];
    clock->SleepUntil(a.arrival, nullptr);
    TaskSpec spec;
    spec.relative_deadline = a.relative_deadline;
    spec.weight = a.weight;
    spec.estimated_cost = a.duration;
    spec.simulated_duration = a.duration;
    spec.timeout_seconds = a.timeout;
    spec.max_attempts = retry.max_attempts;
    spec.retry_backoff_seconds = retry.backoff;
    spec.backoff_multiplier = retry.backoff_multiplier;
    if (a.depends_on >= 0) {
      spec.dependencies.push_back(static_cast<TxnId>(a.depends_on));
    }
    LiveTaskRecord& record = run.tasks[next];
    record.dependencies = spec.dependencies;
    Result<TxnId> id = exec.Submit(std::move(spec));
    if (!id.ok()) {
      failure = id.status();
      break;
    }
    WEBTX_DCHECK(id.ValueOrDie() == next);
    record.submit_seconds = a.arrival;
    record.deadline_seconds = a.arrival + a.relative_deadline;
    record.max_attempts = retry.max_attempts;
    record.retry_backoff = retry.backoff;
    record.backoff_multiplier = retry.backoff_multiplier;
    record.simulated = true;
    ++next;
  }
  exec.Drain();
  exec.Shutdown();
  clock->DeregisterParticipant();
  if (!failure.ok()) return failure;

  run.trace = exec.TakeTrace();
  run.outcomes.resize(n);
  for (TxnId id = 0; id < n; ++id) run.outcomes[id] = exec.OutcomeOf(id);
  run.stats = exec.stats();
  return run;
}

}  // namespace webtx::rt
