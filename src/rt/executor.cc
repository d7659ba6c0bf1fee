#include "rt/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/digest.h"

namespace webtx::rt {

namespace {

/// Smoothing factor of the executor-level load EWMAs exported in
/// ExecutorStats (independent of any admission controller's own).
constexpr double kStatsAlpha = 0.2;

}  // namespace

TxnFate FateOf(TaskResult result) {
  switch (result) {
    case TaskResult::kCompleted:
      return TxnFate::kCompleted;
    case TaskResult::kFailed:
    case TaskResult::kTimedOut:
      return TxnFate::kDroppedRetries;
    case TaskResult::kShed:
    case TaskResult::kShedAdmission:
      return TxnFate::kShedAdmission;
    case TaskResult::kDependencyFailed:
      return TxnFate::kDroppedDependency;
    case TaskResult::kPending:
      break;
  }
  WEBTX_CHECK(false) << "FateOf on non-terminal TaskResult";
  std::abort();
}

const DependencyGraph& Executor::View::graph() const {
  WEBTX_CHECK(false)
      << "rt::Executor supports transaction-level policies only; "
         "workflow-level policies need the full graph up front";
  std::abort();  // unreachable; keeps the non-void return well-formed
}

const WorkflowRegistry& Executor::View::workflows() const {
  WEBTX_CHECK(false)
      << "rt::Executor supports transaction-level policies only; "
         "workflow-level policies need the full graph up front";
  std::abort();
}

size_t Executor::View::num_servers_up() const {
  if (!owner_->injector_.has_value()) return owner_->options_.num_workers;
  // Clamp to 1: admission controllers divide backlog by this, and a
  // momentarily fully-down farm should look saturated, not infinite.
  return std::max<size_t>(1, owner_->injector_->num_slots_up());
}

Status ExecutorOptions::Validate() const {
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  // Written as !(x >= 0) so that NaN fails.
  if (!(watchdog_stall_seconds >= 0.0)) {
    return Status::InvalidArgument("watchdog_stall_seconds must be >= 0");
  }
  if (!(retry_max_backoff >= 0.0)) {
    return Status::InvalidArgument("retry_max_backoff must be >= 0");
  }
  return Status::OK();
}

Executor::Executor(std::unique_ptr<SchedulerPolicy> policy,
                   ExecutorOptions options)
    : policy_(std::move(policy)),
      options_(std::move(options)),
      view_(this) {
  WEBTX_CHECK(policy_ != nullptr);
  const Status valid = options_.Validate();
  WEBTX_CHECK(valid.ok()) << valid.ToString();
  clock_ = options_.clock != nullptr ? options_.clock
                                     : std::make_shared<RealClock>();
  if (options_.faults.enabled()) {
    Result<FaultInjector> injector =
        FaultInjector::Create(options_.faults, options_.num_workers);
    WEBTX_CHECK(injector.ok())
        << "bad fault options: " << injector.status().ToString();
    injector_.emplace(std::move(injector).ValueOrDie());
  }
  if (options_.admission != nullptr) {
    admission_ = options_.admission();
    WEBTX_CHECK(admission_ != nullptr);
    admission_->Bind(view_);
  }
  policy_->Bind(view_);
  slot_task_.assign(options_.num_workers, kInvalidTxn);
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (injector_.has_value() || options_.watchdog) {
    pump_ = std::thread([this] { PumpLoop(); });
  }
  // Block until every spawned thread has registered with the clock.
  // Returning earlier would let the caller's submissions drive a
  // virtual timeline whose participant count still misses the workers:
  // arrivals could be swept past before any worker exists to take them,
  // making the schedule depend on thread start-up latency.
  const size_t expected =
      options_.num_workers + (pump_.joinable() ? 1 : 0);
  std::unique_lock<std::mutex> lock(mu_);
  threads_registered_.wait(
      lock, [&] { return registered_threads_ == expected; });
}

Executor::~Executor() { Shutdown(); }

void Executor::RecordLocked(double time, LiveEventKind kind, TxnId txn,
                            uint32_t slot, uint32_t attempt, uint64_t aux) {
  if (!options_.record_trace) return;
  trace_.Record(LiveTraceEvent{time, kind, txn, slot, attempt, aux});
}

Result<TxnId> Executor::Submit(TaskSpec task) {
  const int work_forms = static_cast<int>(task.fn != nullptr) +
                         static_cast<int>(task.cancellable_fn != nullptr) +
                         static_cast<int>(task.simulated_duration > 0.0);
  if (work_forms != 1) {
    return Status::InvalidArgument(
        "exactly one of fn, cancellable_fn and simulated_duration "
        "must be set");
  }
  // NaN passes every ordered comparison, and a NaN or infinite duration,
  // timeout or backoff stalls the run, so these must be finite. The
  // cost, weight and deadline go through CheckFinite below.
  const std::pair<const char*, double> knobs[] = {
      {"simulated_duration", task.simulated_duration},
      {"timeout_seconds", task.timeout_seconds},
      {"retry_backoff_seconds", task.retry_backoff_seconds},
      {"backoff_multiplier", task.backoff_multiplier}};
  for (const auto& [name, value] : knobs) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(std::string(name) + " must be finite");
    }
  }
  if (task.simulated_duration < 0.0) {
    return Status::InvalidArgument("simulated_duration must be >= 0");
  }
  if (task.estimated_cost <= 0.0 || task.weight <= 0.0 ||
      task.relative_deadline <= 0.0) {
    return Status::InvalidArgument(
        "estimated_cost, weight and relative_deadline must be positive");
  }
  if (task.timeout_seconds < 0.0 || task.retry_backoff_seconds < 0.0 ||
      task.backoff_multiplier < 0.0) {
    return Status::InvalidArgument(
        "timeout and retry backoff must be non-negative");
  }
  if (task.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (shutting_down_) {
    return Status::FailedPrecondition("executor is shutting down");
  }
  const auto id = static_cast<TxnId>(specs_.size());
  for (const TxnId dep : task.dependencies) {
    if (dep >= id) {
      return Status::InvalidArgument(
          "dependency ids must reference already-submitted tasks");
    }
  }

  const double now = clock_->Now();
  TransactionSpec spec;
  spec.id = id;
  spec.arrival = now;
  spec.length = task.estimated_cost;
  spec.deadline = now + task.relative_deadline;
  spec.weight = task.weight;
  WEBTX_RETURN_NOT_OK(CheckFinite(spec));
  spec.dependencies = task.dependencies;

  // Catch up on fault windows and due timers BEFORE the arrival so slot
  // up/down state (which admission reads through num_servers_up) is
  // current as of `now`.
  PumpTimedEventsLocked(now);

  uint32_t unmet = 0;
  bool dead_dependency = false;
  for (const TxnId dep : task.dependencies) {
    const TaskOutcome& dep_outcome = outcomes_[dep];
    if (dep_outcome.finished &&
        dep_outcome.result != TaskResult::kCompleted) {
      dead_dependency = true;  // can never run
    } else if (!dep_outcome.finished) {
      successors_[dep].push_back(id);
      ++unmet;
    }
  }

  specs_.push_back(std::move(spec));
  remaining_.push_back(task.estimated_cost);
  unmet_deps_.push_back(unmet);
  successors_.emplace_back();
  functions_.push_back(std::move(task.fn));
  cancellable_fns_.push_back(std::move(task.cancellable_fn));
  simulated_durations_.push_back(task.simulated_duration);
  timeouts_.push_back(task.timeout_seconds);
  max_attempts_.push_back(task.max_attempts);
  backoffs_.push_back(task.retry_backoff_seconds);
  backoff_multipliers_.push_back(task.backoff_multiplier);
  progress_done_.push_back(0.0);
  migration_credits_.push_back(0);
  announced_.push_back(0);
  TaskOutcome outcome;
  outcome.submit_seconds = now;
  outcomes_.push_back(outcome);

  ++stats_.submitted;
  const double depth = static_cast<double>(ready_list_.size()) /
                       static_cast<double>(view_.num_servers_up());
  stats_.ready_depth_ewma =
      (1.0 - kStatsAlpha) * stats_.ready_depth_ewma + kStatsAlpha * depth;
  RecordLocked(now, LiveEventKind::kSubmit, id, LiveTraceEvent::kNoSlot, 0,
               DoubleBits(specs_[id].weight));

  if (dead_dependency) {
    // Accepted but dead on arrival; the policy never hears of it.
    MarkTerminal(id, TaskResult::kDependencyFailed, now);
    return id;
  }

  if (admission_ != nullptr) {
    const AdmissionDecision decision = admission_->Decide(id, now);
    switch (decision.action) {
      case AdmissionDecision::Action::kReject:
        RecordLocked(now, LiveEventKind::kShedAdmission, id);
        MarkTerminal(id, TaskResult::kShedAdmission, now);
        return id;
      case AdmissionDecision::Action::kDefer:
        ++stats_.admission_defers;
        deferred_.push_back(DelayedEntry{now + decision.defer_delay, id});
        RecordLocked(now, LiveEventKind::kDeferArrival, id,
                     LiveTraceEvent::kNoSlot, 0,
                     DoubleBits(decision.defer_delay));
        clock_->NotifyAll(work_available_);  // waiters recompute their due
        return id;
      case AdmissionDecision::Action::kAdmit:
        break;
    }
  }

  announced_[id] = 1;
  policy_->OnArrival(id, now);
  if (unmet == 0) {
    ready_list_.push_back(id);
    policy_->OnReady(id, now);
  }
  clock_->NotifyAll(work_available_);
  return id;
}

bool Executor::SlotUpLocked(size_t slot) const {
  return !injector_.has_value() || !injector_->slot_down(slot);
}

size_t Executor::FreeUpSlotLocked() const {
  for (size_t slot = 0; slot < slot_task_.size(); ++slot) {
    if (slot_task_[slot] == kInvalidTxn && SlotUpLocked(slot)) return slot;
  }
  return slot_task_.size();
}

bool Executor::CanDispatchLocked(double now) const {
  if (ready_list_.empty()) return false;
  if (FreeUpSlotLocked() == slot_task_.size()) return false;
  // Completion barrier: an in-flight attempt whose wake time has been
  // reached is a completion that merely has not been APPLIED yet (its
  // thread is between waking and re-acquiring the lock). Dispatching
  // past it would make the (task, slot) binding depend on host thread
  // timing; hold off until it lands.
  for (const Attempt& attempt : inflight_) {
    if (!attempt.zombie && attempt.wake_due <= now) return false;
  }
  return true;
}

double Executor::NextWakeDueLocked() const {
  double due = kNeverSeconds;
  for (const DelayedEntry& entry : delayed_) {
    due = std::min(due, entry.due_seconds);
  }
  for (const DelayedEntry& entry : deferred_) {
    due = std::min(due, entry.due_seconds);
  }
  return due;
}

void Executor::WorkerLoop() {
  clock_->RegisterParticipant();
  std::unique_lock<std::mutex> lock(mu_);
  ++registered_threads_;
  threads_registered_.notify_all();
  while (true) {
    // Idle loop: wait until dispatch is possible or the run is over.
    while (true) {
      const double now = clock_->Now();
      PumpTimedEventsLocked(now);
      if (CanDispatchLocked(now)) break;
      if (shutting_down_ && finished_ == specs_.size()) {
        lock.unlock();
        clock_->DeregisterParticipant();
        return;
      }
      clock_->WaitUntil(lock, work_available_, NextWakeDueLocked());
    }
    DispatchOneLocked(lock);
  }
}

void Executor::PumpLoop() {
  clock_->RegisterParticipant();
  std::unique_lock<std::mutex> lock(mu_);
  ++registered_threads_;
  threads_registered_.notify_all();
  while (true) {
    const double now = clock_->Now();
    PumpTimedEventsLocked(now);
    if (shutting_down_ && finished_ == specs_.size()) break;
    double due = kNeverSeconds;
    // Only chase fault timers while there is unfinished work: advancing
    // through fault windows after the last task would tail the trace
    // with events whose count depends on shutdown timing. Historical
    // windows are caught up lazily (with their true timestamps) by the
    // PumpTimedEventsLocked call in Submit.
    if (finished_ < specs_.size()) {
      if (injector_.has_value()) {
        const double next = injector_->NextEventTime();
        if (next < kNeverTime) due = std::min(due, next);
      }
      for (const StallWatch& watch : stall_watches_) {
        due = std::min(due, watch.due_seconds);
      }
    }
    clock_->WaitUntil(lock, work_available_, due);
  }
  lock.unlock();
  clock_->DeregisterParticipant();
}

bool Executor::QuiescentLocked(double now) const {
  // A non-zombie attempt whose wake instant has been reached is a
  // completion that has not been APPLIED yet (its thread is between
  // waking and re-acquiring mu_) — the state is mid-transition.
  for (const Attempt& attempt : inflight_) {
    if (!attempt.zombie && attempt.wake_due <= now) return false;
  }
  // Quiescent = nothing dispatchable either: every consequence of the
  // current instant (releases, completions, the dispatches they enable)
  // has landed.
  return !CanDispatchLocked(now);
}

void Executor::AwaitQuiescenceLocked(std::unique_lock<std::mutex>& lock,
                                     double* now_out) {
  // Spin-with-yield rather than a cv wait: under a VirtualClock a
  // runnable registered caller freezes the timeline, so this loop pins
  // the clock at the current instant while the workers apply due
  // completions and drain the dispatchable set. Parking in WaitUntil
  // instead would either busy-wake (a due of `now` returns immediately)
  // or let the timeline advance past the instant being captured.
  while (true) {
    const double now = clock_->Now();
    PumpTimedEventsLocked(now);
    const bool drained = shutting_down_ && finished_ == specs_.size();
    if (drained || QuiescentLocked(now)) {
      *now_out = now;
      return;
    }
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
  }
}

void Executor::SnapshotAtQuiescence(ExecutorSnapshot* out) {
  std::unique_lock<std::mutex> lock(mu_);
  double now = 0.0;
  AwaitQuiescenceLocked(lock, &now);

  ExecutorSnapshot& snap = *out;
  snap.tasks.clear();
  snap.now = now;
  snap.num_workers = options_.num_workers;
  snap.num_workers_up = view_.num_servers_up();
  snap.stats = stats_;
  for (TxnId id = 0; id < static_cast<TxnId>(specs_.size()); ++id) {
    if (outcomes_[id].finished) continue;
    SnapshotTask task;
    task.id = id;
    task.remaining = remaining_[id];
    task.release = now;
    task.deadline = specs_[id].deadline;
    task.weight = specs_[id].weight;
    for (const TxnId dep : specs_[id].dependencies) {
      if (!outcomes_[dep].finished) {
        task.unfinished_dependencies.push_back(dep);
      }
    }
    task.state = SnapshotTaskState::kWaitingDeps;
    for (const Attempt& attempt : inflight_) {
      if (!attempt.zombie && attempt.id == id) {
        task.state = SnapshotTaskState::kInFlight;
        if (attempt.simulated && attempt.wake_due < kNeverSeconds) {
          task.remaining = std::max(0.0, attempt.wake_due - now);
        }
        break;
      }
    }
    if (task.state == SnapshotTaskState::kWaitingDeps) {
      if (std::find(ready_list_.begin(), ready_list_.end(), id) !=
          ready_list_.end()) {
        task.state = SnapshotTaskState::kReady;
      } else {
        for (const DelayedEntry& entry : delayed_) {
          if (entry.id == id) {
            task.state = SnapshotTaskState::kDelayed;
            task.release = entry.due_seconds;
            break;
          }
        }
        for (const DelayedEntry& entry : deferred_) {
          if (entry.id == id) {
            task.state = SnapshotTaskState::kDeferred;
            task.release = entry.due_seconds;
            break;
          }
        }
      }
    }
    snap.tasks.push_back(std::move(task));
  }
}

void Executor::Reconfigure(ReconfigureRequest request) {
  std::unique_lock<std::mutex> lock(mu_);
  double now = 0.0;
  AwaitQuiescenceLocked(lock, &now);
  if (request.policy != nullptr) {
    policy_ = std::move(request.policy);
    policy_->Bind(view_);
    // Replay the live state: every announced unfinished task re-arrives
    // (in-flight and delayed tasks included — OnArrival fires once per
    // task and only OnCompletion dequeues, so this mirrors the event
    // history a policy bound from the start would have seen), then the
    // ready set re-enters in queue order. In-flight work is untouched:
    // dispatched tasks were already dequeued and their attempts keep
    // running to completion on their slots.
    for (TxnId id = 0; id < static_cast<TxnId>(specs_.size()); ++id) {
      if (announced_[id] && !outcomes_[id].finished) {
        policy_->OnArrival(id, now);
      }
    }
    for (const TxnId id : ready_list_) {
      policy_->OnReady(id, now);
    }
  }
  if (request.replace_admission) {
    admission_ = request.admission != nullptr ? request.admission() : nullptr;
    if (admission_ != nullptr) admission_->Bind(view_);
  }
  clock_->NotifyAll(work_available_);
}

void Executor::DispatchOneLocked(std::unique_lock<std::mutex>& lock) {
  const double now = clock_->Now();
  const TxnId id = policy_->PickNext(now);
  WEBTX_CHECK_NE(id, kInvalidTxn) << "policy idled while tasks were queued";
  // Non-preemptive dispatch: the task leaves the scheduling queues for
  // good (OnCompletion is the policy's dequeue signal; the executor
  // tracks the actual completion separately).
  policy_->OnCompletion(id, now);
  const auto it = std::find(ready_list_.begin(), ready_list_.end(), id);
  WEBTX_CHECK(it != ready_list_.end());
  *it = ready_list_.back();
  ready_list_.pop_back();

  const size_t slot = FreeUpSlotLocked();
  WEBTX_CHECK_LT(slot, slot_task_.size());
  slot_task_[slot] = id;

  TaskOutcome& outcome = outcomes_[id];
  LiveDispatchKind dispatch_kind;
  if (migration_credits_[id] > 0) {
    // A failover owed this re-dispatch: the slot died, not the task, so
    // the attempt budget is not charged.
    --migration_credits_[id];
    dispatch_kind = LiveDispatchKind::kMigration;
  } else {
    ++outcome.attempts;
    ++stats_.attempts;
    dispatch_kind = outcome.attempts == 1 ? LiveDispatchKind::kFresh
                                          : LiveDispatchKind::kRetry;
  }

  const double spike =
      injector_.has_value()
          ? injector_->DrawLatencySpike(static_cast<uint32_t>(slot))
          : 0.0;

  Attempt attempt;
  attempt.id = id;
  attempt.slot = static_cast<uint32_t>(slot);
  attempt.serial = next_serial_++;
  attempt.dispatch_seconds = now;
  attempt.spike_seconds = spike;
  attempt.cancel = std::make_shared<std::atomic<bool>>(false);
  attempt.cancellable = cancellable_fns_[id] != nullptr;
  attempt.simulated = simulated_durations_[id] > 0.0;
  const double timeout = timeouts_[id];
  if (attempt.simulated) {
    const double work =
        std::max(0.0, simulated_durations_[id] - progress_done_[id]);
    attempt.wake_due = now + spike + work;
    if (timeout > 0.0) {
      attempt.wake_due = std::min(attempt.wake_due, now + timeout);
    }
  }

  RecordLocked(now, LiveEventKind::kDispatch, id, attempt.slot,
               outcome.attempts, static_cast<uint64_t>(dispatch_kind));
  if (spike > 0.0) {
    ++stats_.latency_spikes;
    RecordLocked(now, LiveEventKind::kLatencySpike, id, attempt.slot,
                 outcome.attempts, DoubleBits(spike));
  }

  const uint64_t serial = attempt.serial;
  const double wake_due = attempt.wake_due;
  const bool simulated = attempt.simulated;
  // Copy (not move) the functions under the lock: the vectors may
  // reallocate while we execute unlocked, and a retry needs the
  // function again.
  const std::function<void()> fn = functions_[id];
  const std::function<void(const CancelToken&)> cancellable =
      cancellable_fns_[id];
  CancelToken token;
  token.flag_ = attempt.cancel;
  token.clock_ = clock_.get();
  if (timeout > 0.0) {
    token.has_deadline_ = true;
    token.deadline_seconds_ = now + timeout;
  }
  inflight_.push_back(std::move(attempt));

  lock.unlock();
  bool threw = false;
  try {
    if (simulated) {
      clock_->SleepUntil(wake_due, &token);
    } else {
      if (spike > 0.0) clock_->SleepUntil(now + spike, &token);
      if (cancellable != nullptr) {
        if (!token.cancelled()) cancellable(token);
      } else {
        fn();
      }
    }
  } catch (...) {
    // A throwing task marks the attempt failed; the worker survives.
    threw = true;
  }
  lock.lock();
  ApplyAttemptReturnLocked(serial, threw);
}

void Executor::ApplyAttemptReturnLocked(uint64_t serial, bool threw) {
  const auto it =
      std::find_if(inflight_.begin(), inflight_.end(),
                   [serial](const Attempt& a) { return a.serial == serial; });
  WEBTX_CHECK(it != inflight_.end());
  const Attempt attempt = *it;
  *it = inflight_.back();
  inflight_.pop_back();
  const double now = clock_->Now();
  const TxnId id = attempt.id;

  if (attempt.zombie) {
    // The attempt was failed over while this thread was stuck in it;
    // the task has moved on. Discard the return entirely.
    RecordLocked(now, LiveEventKind::kZombieEnd, id, attempt.slot,
                 outcomes_[id].attempts);
    clock_->NotifyAll(work_available_);
    return;
  }

  WEBTX_DCHECK(slot_task_[attempt.slot] == id);
  slot_task_[attempt.slot] = kInvalidTxn;

  TaskOutcome& outcome = outcomes_[id];
  const bool flag = attempt.cancel->load(std::memory_order_relaxed);
  const bool cancel_aware = attempt.cancellable || attempt.simulated;
  const double timeout = timeouts_[id];

  bool completed = false;
  bool shed = false;
  TaskResult failure = TaskResult::kFailed;
  LiveAttemptResult attempt_result;
  if (attempt.forced_abort) {
    attempt_result = LiveAttemptResult::kAborted;
  } else if (threw) {
    attempt_result = LiveAttemptResult::kFailed;
  } else if (attempt.simulated) {
    // progress_done_ is untouched since dispatch for a non-zombie,
    // non-aborted attempt, so the work end is reconstructible.
    const double work_end =
        attempt.dispatch_seconds + attempt.spike_seconds +
        std::max(0.0, simulated_durations_[id] - progress_done_[id]);
    if (now + kTimeEpsilon >= work_end) {
      completed = true;
      attempt_result = LiveAttemptResult::kCompleted;
    } else if (flag && shutting_down_) {
      shed = true;
      attempt_result = LiveAttemptResult::kShed;
    } else {
      // The sleep was cut short by the timeout deadline.
      failure = TaskResult::kTimedOut;
      attempt_result = LiveAttemptResult::kTimedOut;
    }
  } else {
    // Only a cancellation-aware attempt can be shed mid-flight: a plain
    // fn ignores the token and its work is complete once it returns.
    shed = cancel_aware && flag && shutting_down_;
    const bool timed_out =
        !shed && timeout > 0.0 && now - attempt.dispatch_seconds > timeout;
    if (shed) {
      attempt_result = LiveAttemptResult::kShed;
    } else if (timed_out) {
      failure = TaskResult::kTimedOut;
      attempt_result = LiveAttemptResult::kTimedOut;
    } else {
      completed = true;
      attempt_result = LiveAttemptResult::kCompleted;
    }
  }
  if (!completed && !shed && hard_shutdown_) {
    // ShutdownNow: failures shed instead of retrying.
    shed = true;
    attempt_result = LiveAttemptResult::kShed;
  }
  RecordLocked(now, LiveEventKind::kAttemptEnd, id, attempt.slot,
               outcome.attempts, static_cast<uint64_t>(attempt_result));

  if (completed) {
    const double tardiness = now - specs_[id].deadline;
    outcome.tardiness_seconds = std::max(0.0, tardiness);
    stats_.tardiness_ewma = (1.0 - kStatsAlpha) * stats_.tardiness_ewma +
                            kStatsAlpha * outcome.tardiness_seconds;
    stats_.tardiness_total += outcome.tardiness_seconds;
    if (admission_ != nullptr) {
      admission_->ObserveCompletion(id, tardiness, now);
    }
    MarkTerminal(id, TaskResult::kCompleted, now);
    for (const TxnId succ : successors_[id]) {
      WEBTX_DCHECK(unmet_deps_[succ] > 0);
      if (--unmet_deps_[succ] == 0 && !outcomes_[succ].finished) {
        ready_list_.push_back(succ);
        policy_->OnReady(succ, now);
      }
    }
  } else if (shed) {
    MarkTerminal(id, TaskResult::kShed, now);
    FailDependents(id, now);
  } else {
    HandleAttemptFailureLocked(id, failure, now);
  }
  clock_->NotifyAll(work_available_);
}

void Executor::HandleAttemptFailureLocked(TxnId id, TaskResult failure,
                                          double now) {
  TaskOutcome& outcome = outcomes_[id];
  // Any failure restarts the work: retained (warm-migrated) virtual
  // progress does not survive an abort, timeout, or exception.
  progress_done_[id] = 0.0;
  if (outcome.attempts >= max_attempts_[id]) {
    MarkTerminal(id, failure, now);
    FailDependents(id, now);
    return;
  }
  double delay = backoffs_[id];
  for (uint32_t i = 1; i < outcome.attempts; ++i) {
    delay *= backoff_multipliers_[id];
  }
  if (options_.retry_max_backoff > 0.0 &&
      delay > options_.retry_max_backoff) {
    // Retry-storm suppression, half one: cap how far a backoff cascade
    // can push a retry out (the live mirror of the sim's max_backoff).
    delay = options_.retry_max_backoff;
    ++stats_.retry_storm_suppressed;
  }
  if (delay > 0.0 && options_.retry_budget > 0 &&
      delayed_.size() >= options_.retry_budget) {
    // Half two: a global cap on retries concurrently waiting out
    // backoffs; beyond it, failures become terminal instead of feeding
    // the storm.
    ++stats_.retries_dropped_budget;
    MarkTerminal(id, failure, now);
    FailDependents(id, now);
    return;
  }
  ++stats_.retries_scheduled;
  remaining_[id] = specs_[id].length;  // the retry restarts from scratch
  if (delay <= 0.0) {
    ready_list_.push_back(id);
    policy_->OnReady(id, now);
  } else {
    delayed_.push_back(DelayedEntry{now + delay, id});
    RecordLocked(now, LiveEventKind::kRetryScheduled, id,
                 LiveTraceEvent::kNoSlot, outcome.attempts,
                 DoubleBits(delay));
  }
}

void Executor::PumpTimedEventsLocked(double now) {
  if (injector_.has_value()) {
    fault_scratch_.clear();
    injector_->CollectEventsUpTo(now, &fault_scratch_);
    for (const FaultInjector::Event& event : fault_scratch_) {
      ApplyFaultEventLocked(event);
    }
  }
  for (size_t i = 0; i < stall_watches_.size();) {
    if (stall_watches_[i].due_seconds > now) {
      ++i;
      continue;
    }
    const StallWatch watch = stall_watches_[i];
    stall_watches_[i] = stall_watches_.back();
    stall_watches_.pop_back();
    if (!injector_.has_value() || !injector_->slot_down(watch.slot)) {
      continue;  // the stall ended before detection; let the attempt be
    }
    for (Attempt& attempt : inflight_) {
      if (attempt.serial == watch.attempt_serial && !attempt.zombie) {
        ++stats_.watchdog_failovers;
        FailOverAttemptLocked(attempt, watch.due_seconds,
                              LiveFailoverCause::kStall);
        break;
      }
    }
  }
  ReleaseDueRetries(now);
  ReleaseDueDeferred(now);
}

void Executor::ApplyFaultEventLocked(const FaultInjector::Event& event) {
  switch (event.kind) {
    case FaultInjector::Event::Kind::kStallStart: {
      ++stats_.stalls;
      RecordLocked(event.time, LiveEventKind::kSlotDown, kInvalidTxn,
                   event.slot, 0, 0);
      if (options_.watchdog) {
        for (const Attempt& attempt : inflight_) {
          if (!attempt.zombie && attempt.slot == event.slot) {
            stall_watches_.push_back(StallWatch{
                event.time + options_.watchdog_stall_seconds, event.slot,
                attempt.serial});
          }
        }
      }
      break;
    }
    case FaultInjector::Event::Kind::kStallEnd: {
      RecordLocked(event.time, LiveEventKind::kSlotUp, kInvalidTxn,
                   event.slot, 0, 0);
      for (size_t i = 0; i < stall_watches_.size();) {
        if (stall_watches_[i].slot == event.slot) {
          stall_watches_[i] = stall_watches_.back();
          stall_watches_.pop_back();
        } else {
          ++i;
        }
      }
      clock_->NotifyAll(work_available_);
      break;
    }
    case FaultInjector::Event::Kind::kCrash: {
      ++stats_.crashes;
      RecordLocked(event.time, LiveEventKind::kSlotDown, kInvalidTxn,
                   event.slot, 0, 1);
      for (Attempt& attempt : inflight_) {
        if (!attempt.zombie && attempt.slot == event.slot) {
          FailOverAttemptLocked(attempt, event.time,
                                LiveFailoverCause::kCrash);
        }
      }
      // Any armed stall watch on this slot now targets a zombie.
      for (size_t i = 0; i < stall_watches_.size();) {
        if (stall_watches_[i].slot == event.slot) {
          stall_watches_[i] = stall_watches_.back();
          stall_watches_.pop_back();
        } else {
          ++i;
        }
      }
      break;
    }
    case FaultInjector::Event::Kind::kRepair: {
      RecordLocked(event.time, LiveEventKind::kSlotUp, kInvalidTxn,
                   event.slot, 0, 1);
      clock_->NotifyAll(work_available_);
      break;
    }
    case FaultInjector::Event::Kind::kAbort: {
      for (Attempt& attempt : inflight_) {
        if (attempt.zombie || attempt.slot != event.slot ||
            attempt.forced_abort) {
          continue;
        }
        attempt.forced_abort = true;
        // Extend the dispatch barrier to the abort instant so the
        // interrupted return applies before any dispatch at this time.
        // Function tasks keep their open-ended wake: their return time
        // is real, not virtual, and must not gate dispatch.
        if (attempt.simulated) attempt.wake_due = event.time;
        attempt.cancel->store(true, std::memory_order_relaxed);
        ++stats_.forced_aborts;
        ++outcomes_[attempt.id].forced_aborts;
        RecordLocked(event.time, LiveEventKind::kForcedAbort, attempt.id,
                     event.slot, outcomes_[attempt.id].attempts);
        clock_->InterruptSleepers();
        break;
      }
      break;  // idle instants are thinned no-ops, like the sim
    }
  }
}

void Executor::FailOverAttemptLocked(Attempt& attempt, double now,
                                     LiveFailoverCause cause) {
  const TxnId id = attempt.id;
  attempt.zombie = true;
  attempt.cancel->store(true, std::memory_order_relaxed);
  slot_task_[attempt.slot] = kInvalidTxn;  // detach; the slot is down

  TaskOutcome& outcome = outcomes_[id];
  ++outcome.migrations;
  ++stats_.migrations;
  RecordLocked(now, LiveEventKind::kFailover, id, attempt.slot,
               outcome.attempts, static_cast<uint64_t>(cause));

  if (hard_shutdown_) {
    // ShutdownNow already shed everything not in flight; a failover
    // during the final drain sheds the task rather than resurrecting it.
    MarkTerminal(id, TaskResult::kShed, now);
    FailDependents(id, now);
    clock_->InterruptSleepers();
    return;
  }

  ++migration_credits_[id];
  const bool warm = options_.migration == MigrationPolicy::kWarm;
  if (attempt.simulated && warm) {
    const double executed = std::max(
        0.0, now - attempt.dispatch_seconds - attempt.spike_seconds);
    progress_done_[id] = std::min(simulated_durations_[id],
                                  progress_done_[id] + executed);
    remaining_[id] =
        std::max(0.0, simulated_durations_[id] - progress_done_[id]);
  } else {
    progress_done_[id] = 0.0;
    remaining_[id] = specs_[id].length;
  }
  ready_list_.push_back(id);
  policy_->OnReady(id, now);
  policy_->OnMigrated(id, now);
  clock_->InterruptSleepers();
  clock_->NotifyAll(work_available_);
}

void Executor::ReleaseDueRetries(double now) {
  bool released = false;
  for (size_t i = 0; i < delayed_.size();) {
    if (delayed_[i].due_seconds <= now) {
      const DelayedEntry entry = delayed_[i];
      delayed_[i] = delayed_.back();
      delayed_.pop_back();
      if (!outcomes_[entry.id].finished) {
        RecordLocked(entry.due_seconds, LiveEventKind::kRetryReleased,
                     entry.id, LiveTraceEvent::kNoSlot,
                     outcomes_[entry.id].attempts);
        ready_list_.push_back(entry.id);
        policy_->OnReady(entry.id, now);
        released = true;
      }
    } else {
      ++i;
    }
  }
  if (released) clock_->NotifyAll(work_available_);
}

void Executor::ReleaseDueDeferred(double now) {
  for (size_t i = 0; i < deferred_.size();) {
    if (deferred_[i].due_seconds > now) {
      ++i;
      continue;
    }
    const DelayedEntry entry = deferred_[i];
    deferred_[i] = deferred_.back();
    deferred_.pop_back();
    if (outcomes_[entry.id].finished) continue;
    // A reconfigure may have removed the controller while arrivals were
    // deferred; a missing controller admits everything.
    const AdmissionDecision decision = admission_ != nullptr
                                           ? admission_->Decide(entry.id, now)
                                           : AdmissionDecision::Admit();
    switch (decision.action) {
      case AdmissionDecision::Action::kReject:
        RecordLocked(now, LiveEventKind::kShedAdmission, entry.id);
        MarkTerminal(entry.id, TaskResult::kShedAdmission, now);
        FailDependents(entry.id, now);
        break;
      case AdmissionDecision::Action::kDefer:
        ++stats_.admission_defers;
        deferred_.push_back(
            DelayedEntry{now + decision.defer_delay, entry.id});
        RecordLocked(now, LiveEventKind::kDeferArrival, entry.id,
                     LiveTraceEvent::kNoSlot, 0,
                     DoubleBits(decision.defer_delay));
        break;
      case AdmissionDecision::Action::kAdmit:
        announced_[entry.id] = 1;
        policy_->OnArrival(entry.id, now);
        if (unmet_deps_[entry.id] == 0) {
          ready_list_.push_back(entry.id);
          policy_->OnReady(entry.id, now);
          clock_->NotifyAll(work_available_);
        }
        break;
    }
  }
}

void Executor::MarkTerminal(TxnId id, TaskResult result, double now) {
  TaskOutcome& outcome = outcomes_[id];
  WEBTX_DCHECK(!outcome.finished);
  outcome.finished = true;
  outcome.result = result;
  outcome.fate = FateOf(result);
  outcome.finish_seconds = now;
  remaining_[id] = 0.0;
  switch (result) {
    case TaskResult::kCompleted:
      ++stats_.completed;
      break;
    case TaskResult::kFailed:
    case TaskResult::kTimedOut:
      ++stats_.dropped_retries;
      break;
    case TaskResult::kShed:
      ++stats_.shed_shutdown;
      break;
    case TaskResult::kShedAdmission:
      ++stats_.shed_admission;
      break;
    case TaskResult::kDependencyFailed:
      ++stats_.dropped_dependency;
      break;
    case TaskResult::kPending:
      WEBTX_CHECK(false) << "MarkTerminal(kPending)";
      break;
  }
  RecordLocked(now, LiveEventKind::kTerminal, id, LiveTraceEvent::kNoSlot,
               outcome.attempts, static_cast<uint64_t>(result));
  ++finished_;
  if (finished_ == specs_.size()) {
    clock_->NotifyAll(all_done_);
    clock_->NotifyAll(work_available_);
  }
}

void Executor::RemoveFromReady(TxnId id, double now) {
  const auto it = std::find(ready_list_.begin(), ready_list_.end(), id);
  if (it == ready_list_.end()) return;
  *it = ready_list_.back();
  ready_list_.pop_back();
  policy_->OnCompletion(id, now);  // dequeue signal
}

void Executor::FailDependents(TxnId root, double now) {
  std::vector<TxnId> stack(successors_[root]);
  while (!stack.empty()) {
    const TxnId cur = stack.back();
    stack.pop_back();
    if (outcomes_[cur].finished) continue;
    // A dependent can only be waiting (never ready, delayed, or
    // running): its failed predecessor never completed. Ready/delayed
    // membership is still cleared defensively for safety under future
    // callers.
    RemoveFromReady(cur, now);
    for (size_t i = 0; i < delayed_.size();) {
      if (delayed_[i].id == cur) {
        delayed_[i] = delayed_.back();
        delayed_.pop_back();
      } else {
        ++i;
      }
    }
    for (size_t i = 0; i < deferred_.size();) {
      if (deferred_[i].id == cur) {
        deferred_[i] = deferred_.back();
        deferred_.pop_back();
      } else {
        ++i;
      }
    }
    MarkTerminal(cur, TaskResult::kDependencyFailed, now);
    for (const TxnId succ : successors_[cur]) stack.push_back(succ);
  }
}

void Executor::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (finished_ != specs_.size()) {
    clock_->WaitUntil(lock, all_done_, kNeverSeconds);
  }
}

void Executor::JoinWorkers() {
  clock_->NotifyAll(work_available_);
  Drain();
  clock_->NotifyAll(work_available_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (pump_.joinable()) pump_.join();
}

void Executor::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_ && workers_.empty()) return;
    shutting_down_ = true;
    clock_->NotifyAll(work_available_);
  }
  JoinWorkers();
}

void Executor::ShutdownNow() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_ && workers_.empty()) return;
    shutting_down_ = true;
    hard_shutdown_ = true;
    const double now = clock_->Now();
    // Shed every task that is not terminal and not currently executing:
    // ready tasks (dequeue the policy first), delayed retries, deferred
    // arrivals, and tasks still waiting on dependencies.
    for (const TxnId id : std::vector<TxnId>(ready_list_)) {
      RemoveFromReady(id, now);
      MarkTerminal(id, TaskResult::kShed, now);
    }
    for (const DelayedEntry& entry : delayed_) {
      if (!outcomes_[entry.id].finished) {
        MarkTerminal(entry.id, TaskResult::kShed, now);
      }
    }
    delayed_.clear();
    for (const DelayedEntry& entry : deferred_) {
      if (!outcomes_[entry.id].finished) {
        MarkTerminal(entry.id, TaskResult::kShed, now);
      }
    }
    deferred_.clear();
    stall_watches_.clear();
    for (TxnId id = 0; id < static_cast<TxnId>(specs_.size()); ++id) {
      if (outcomes_[id].finished) continue;
      bool in_flight = false;
      for (const Attempt& attempt : inflight_) {
        if (attempt.id == id && !attempt.zombie) {
          in_flight = true;
          break;
        }
      }
      if (in_flight) {
        continue;  // cancelled below, awaited by JoinWorkers
      }
      MarkTerminal(id, TaskResult::kShed, now);
    }
    for (const Attempt& attempt : inflight_) {
      attempt.cancel->store(true, std::memory_order_relaxed);
    }
    clock_->InterruptSleepers();
    clock_->NotifyAll(work_available_);
  }
  JoinWorkers();
}

TaskOutcome Executor::OutcomeOf(TxnId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  WEBTX_CHECK_LT(id, outcomes_.size());
  return outcomes_[id];
}

size_t Executor::finished_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

ExecutorStats Executor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<LiveTraceEvent> Executor::TakeTrace() {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_.TakeEvents();
}

}  // namespace webtx::rt
