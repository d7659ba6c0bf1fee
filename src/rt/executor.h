#ifndef WEBTX_RT_EXECUTOR_H_
#define WEBTX_RT_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "rt/clock.h"
#include "rt/fault_injector.h"
#include "rt/live_trace.h"
#include "sched/admission.h"
#include "sched/scheduler_policy.h"
#include "sched/sim_view.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "txn/dependency_graph.h"
#include "txn/transaction.h"
#include "txn/workflow.h"

namespace webtx::rt {

/// A unit of real work scheduled by the executor.
struct TaskSpec {
  /// Soft deadline relative to submission, in seconds.
  double relative_deadline = 1.0;
  /// Importance (the w_i of the scheduling model).
  double weight = 1.0;
  /// Estimated execution cost in seconds — the r_i the policy plans
  /// with ("computed by the system based on previous statistics",
  /// Sec. II-A). The actual run may take more or less.
  double estimated_cost = 0.01;
  /// Tasks (by id returned from Submit) that must finish first.
  std::vector<TxnId> dependencies;
  /// The work itself; runs on an executor worker thread. Exactly one of
  /// `fn`, `cancellable_fn`, and `simulated_duration` > 0 must be set.
  std::function<void()> fn;
  /// Cancellation-aware variant of `fn`: receives a CancelToken that
  /// turns true when the attempt overruns `timeout_seconds`, a fault is
  /// injected into it, or the executor is shut down with ShutdownNow.
  std::function<void(const CancelToken&)> cancellable_fn;
  /// Deterministic virtual work: when > 0 the attempt "executes" by
  /// sleeping this many clock-seconds on the executor's Clock —
  /// interruptible like a cancellable_fn — instead of calling a
  /// function. Under a VirtualClock this makes the whole run a
  /// replayable discrete-event timeline (the chaos campaign mode);
  /// under the RealClock it is a plain cancellable sleep.
  double simulated_duration = 0.0;
  /// Wall-clock budget for one execution attempt; 0 = unlimited. The
  /// executor cannot preempt a native thread, so enforcement is
  /// cooperative: the CancelToken trips at the budget, and an attempt
  /// observed to have overrun it when the function returns counts as
  /// timed out (failed) rather than completed.
  double timeout_seconds = 0.0;
  /// Maximum execution attempts (>= 1). Failed or timed-out attempts
  /// are retried until the budget is spent; the last failure is
  /// terminal (kFailed / kTimedOut). Failovers never charge this budget
  /// (the slot died, not the task).
  uint32_t max_attempts = 1;
  /// Delay before retry i (1-based): retry_backoff_seconds *
  /// backoff_multiplier^(i-1). 0 = retry immediately. The executor-wide
  /// ExecutorOptions::retry_max_backoff clamps the product.
  double retry_backoff_seconds = 0.0;
  double backoff_multiplier = 2.0;
};

/// Terminal state of a task. Every submitted task ends in exactly one
/// non-kPending state, even under ShutdownNow.
enum class TaskResult : uint8_t {
  kPending = 0,        // not terminal yet (queued, delayed, or running)
  kCompleted,          // an attempt returned within its budget
  kFailed,             // last attempt threw (or was force-aborted)
  kTimedOut,           // last attempt overran timeout_seconds
  kShed,               // never finished: shed by ShutdownNow
  kDependencyFailed,   // a (transitive) dependency never completed
  kShedAdmission,      // rejected by the admission controller
};

/// The simulator's cause code for `result` (sim/metrics.h), so live and
/// simulated fate accounting partition identically: completions are
/// goodput, kShed/kShedAdmission are sheds, kFailed/kTimedOut are
/// retry-budget drops, kDependencyFailed is a dependency drop.
TxnFate FateOf(TaskResult result);

/// Completion record for one task.
struct TaskOutcome {
  /// True once the task is terminal (any result but kPending); covers
  /// failures and sheds, not just completions — check `result`.
  bool finished = false;
  double submit_seconds = 0.0;    // submission instant (executor clock)
  double finish_seconds = 0.0;    // instant the terminal state was set
  double tardiness_seconds = 0.0; // max(0, finish - absolute deadline),
                                  // completed tasks only
  TaskResult result = TaskResult::kPending;
  /// Sim-compatible cause code; valid once finished (== FateOf(result)).
  TxnFate fate = TxnFate::kCompleted;
  uint32_t attempts = 0;          // charged attempts dispatched
  uint32_t migrations = 0;        // failovers (never charge attempts)
  uint32_t forced_aborts = 0;     // injected aborts absorbed
};

/// Live counterpart of the sim's RunResult counters: everything needed
/// to compare a live run's fate accounting against a simulated one,
/// plus the executor-only resilience counters. Counter identities (all
/// terminal tasks partition): completed + shed_admission + shed_shutdown
/// + dropped_retries + dropped_dependency == finished_count().
struct ExecutorStats {
  size_t submitted = 0;
  size_t completed = 0;
  size_t shed_admission = 0;       // TxnFate::kShedAdmission (at the door)
  size_t shed_shutdown = 0;        // ShutdownNow sheds (same fate code)
  size_t dropped_retries = 0;      // TxnFate::kDroppedRetries
  size_t dropped_dependency = 0;   // TxnFate::kDroppedDependency
  size_t attempts = 0;             // charged dispatches
  size_t retries_scheduled = 0;    // backoff timers armed
  size_t retry_storm_suppressed = 0;  // delays clamped at retry_max_backoff
  size_t retries_dropped_budget = 0;  // global retry_budget overflowed:
                                      // the retry became terminal
  size_t admission_defers = 0;
  size_t forced_aborts = 0;        // injected aborts hitting a busy slot
  size_t migrations = 0;           // failovers (crash + stall watchdog)
  size_t watchdog_failovers = 0;   // subset of migrations: stall-detected
  size_t crashes = 0;              // slot crash windows opened
  size_t stalls = 0;               // slot stall windows opened
  size_t latency_spikes = 0;       // dispatches that paid injected latency
  /// Observed-load EWMAs (the brownout controller's inputs, exported
  /// for benches): completion tardiness and ready-queue depth.
  double tardiness_ewma = 0.0;
  double ready_depth_ewma = 0.0;
  /// Sum of tardiness_seconds over completions so far: with `completed`
  /// this yields exact windowed averages between two stats snapshots
  /// (the digital twin's observed-metrics input).
  double tardiness_total = 0.0;
};

/// Where one unfinished task sits inside a quiescent snapshot.
enum class SnapshotTaskState : uint8_t {
  kReady = 0,      // in the ready set, schedulable now
  kInFlight,       // an attempt is executing on a slot
  kWaitingDeps,    // unmet dependencies remain
  kDelayed,        // retry waiting out its backoff
  kDeferred,       // admission-deferred arrival awaiting re-decision
};

/// One unfinished task as seen at a quiescent point — everything a
/// shadow simulator needs to warm-start a what-if forecast from live
/// state: estimated remaining work, the earliest instant the task can
/// (re)run, its absolute deadline/weight, and the unfinished
/// dependencies still gating it.
struct SnapshotTask {
  TxnId id = kInvalidTxn;
  SnapshotTaskState state = SnapshotTaskState::kReady;
  /// Estimated remaining cost in seconds. In-flight simulated attempts
  /// report their exact wake-derived residual; everything else reports
  /// the policy-visible remaining estimate.
  double remaining = 0.0;
  /// Earliest instant the task can (re)enter execution: `now` for
  /// ready/in-flight/waiting tasks, the timer due instant for delayed
  /// retries and deferred arrivals.
  double release = 0.0;
  double deadline = 0.0;  // absolute, executor-clock seconds
  double weight = 1.0;
  /// Dependencies not yet finished (subset of the spec's dependencies).
  std::vector<TxnId> unfinished_dependencies;
};

/// A consistent view of the executor at a quiescent point (see
/// Executor::SnapshotAtQuiescence).
struct ExecutorSnapshot {
  double now = 0.0;
  size_t num_workers = 0;
  size_t num_workers_up = 0;
  ExecutorStats stats;
  /// Every unfinished task, ascending id.
  std::vector<SnapshotTask> tasks;
};

/// A configuration change applied at a quiescent point (see
/// Executor::Reconfigure). Null members mean "keep the current one".
struct ReconfigureRequest {
  /// Replacement scheduling policy (transaction-level), or null to keep
  /// the current policy.
  std::unique_ptr<SchedulerPolicy> policy;
  /// When true the admission controller is replaced by admission()
  /// (null factory/product = run without admission control from now on).
  bool replace_admission = false;
  AdmissionFactory admission;
};

struct ExecutorOptions {
  /// Worker threads; also the number of SLOTS (the fault-injection
  /// "servers"). Dispatch binds a task to the lowest free up-slot, so
  /// the (task, slot) pairing is a pure function of executor state —
  /// what makes per-slot fault streams replayable even though the OS
  /// threads themselves are an anonymous pool.
  size_t num_workers = 1;
  /// Time source. Null: a private RealClock (wall-clock semantics,
  /// exactly the pre-clock executor). A shared VirtualClock makes the
  /// run a deterministic discrete-event timeline (see rt/clock.h).
  std::shared_ptr<Clock> clock;
  /// Deterministic fault injection (disabled by default).
  FaultInjectorOptions faults;
  /// Fate of the in-flight attempt of a crashed/stalled slot: warm
  /// failover re-dispatches with executed virtual work retained, cold
  /// restarts from zero. Either way the failover never charges
  /// max_attempts. (Function tasks always restart; only
  /// simulated_duration work can be "retained".)
  MigrationPolicy migration = MigrationPolicy::kWarm;
  /// Admission controller factory consulted at every Submit, before the
  /// policy hears of the task (null: admit everything). Rejections are
  /// terminal kShedAdmission; deferrals re-decide after their delay.
  AdmissionFactory admission;
  /// Watchdog: when true, an attempt in flight on a slot entering a
  /// stall window is failed over (per `migration`) once the stall has
  /// lasted watchdog_stall_seconds; when false, in-flight attempts ride
  /// stall windows out (the slot still accepts no new work either way).
  bool watchdog = false;
  double watchdog_stall_seconds = 0.0;  // detection delay (>= 0)
  /// Retry-storm suppression: global ceiling on any single retry delay
  /// (0 = no clamp); each clamped release increments
  /// stats().retry_storm_suppressed — the live mirror of the sim's
  /// RetryOptions::max_backoff.
  double retry_max_backoff = 0.0;
  /// Global retry budget: with more than this many retries waiting out
  /// backoffs, further failures become terminal instead of retrying
  /// (0 = unbounded). The second half of retry-storm suppression.
  size_t retry_budget = 0;
  /// Record a LiveTraceRecorder event log (see rt/live_trace.h) for
  /// validation and replay digests.
  bool record_trace = false;

  /// InvalidArgument naming the first out-of-range field: num_workers
  /// < 1, or a watchdog_stall_seconds or retry_max_backoff that is
  /// negative or NaN. The Executor constructor CHECKs it; callers that
  /// return a status on bad options call it first.
  Status Validate() const;
};

/// A live task executor ordered by any transaction-level scheduling
/// policy from this library — the paper's Sec. VI claim ("could be
/// applied in any Real-Time system with soft-deadlines") made concrete.
///
/// Differences from the simulator, inherent to executing real code:
///   - Non-preemptive: a running task cannot be interrupted, so
///     scheduling points are task submissions and completions only
///     (remaining times of running tasks are not re-estimated), and
///     timeouts/cancellation are cooperative (CancelToken).
///   - The policy plans with *estimated* costs; actual durations may
///     differ, and tardiness is measured on the executor's Clock.
///   - Transaction-level policies only (EDF/SRPT/HDF/ASETS/...):
///     workflow-level ASETS* needs the full workflow graph up front,
///     which contradicts open-ended submission. Dependencies between
///     tasks are still enforced (a task only becomes schedulable once
///     its dependencies finished).
///
/// Failure semantics mirror the simulator's contract (sim/simulator.h):
/// an attempt that throws marks the attempt failed and the worker
/// survives; failed/timed-out/force-aborted attempts retry with bounded
/// exponential backoff; a terminal failure cascades kDependencyFailed
/// to every transitive dependent; Shutdown() drains ALL work (legacy
/// behavior), while ShutdownNow() sheds everything not yet running
/// (kShed), trips the cancel tokens of in-flight attempts, and still
/// joins cleanly.
///
/// Fault injection (ExecutorOptions::faults) consumes the simulator's
/// seeded sim/fault_plan streams against the executor's slots: crashes
/// take a slot out of the pool and fail its in-flight attempt over
/// (warm/cold per MigrationPolicy, handled by re-dispatch of the task
/// while the stuck attempt becomes a "zombie" whose eventual return is
/// discarded); stall windows stop dispatch to the slot and the watchdog
/// fails the in-flight attempt over after a detection delay; forced
/// aborts trip the in-flight attempt's token (charging the retry
/// budget, like sim aborts); latency spikes stretch individual
/// dispatches. Under a VirtualClock the whole run — including every
/// fault — is a deterministic, digest-stable timeline (see
/// exp/live_chaos.h).
///
/// Thread-safe: Submit may be called from any thread, including from
/// inside running tasks (self-expanding workloads), as long as
/// dependencies reference already-submitted ids.
class Executor {
 public:
  /// `policy` must be a transaction-level policy; the executor owns it.
  Executor(std::unique_ptr<SchedulerPolicy> policy, ExecutorOptions options);

  /// Drains remaining tasks and joins the workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues a task; returns its id. Fails on bad parameters, unknown
  /// dependency ids, or after Shutdown. A task depending on an
  /// already-failed task is accepted and immediately terminal with
  /// kDependencyFailed; a task rejected by admission control is
  /// accepted and immediately terminal with kShedAdmission.
  Result<TxnId> Submit(TaskSpec task);

  /// Blocks until every submitted task is terminal.
  void Drain();

  /// Stops accepting work, runs EVERYTHING that was submitted to a
  /// terminal state (including pending retries), joins workers.
  /// Idempotent.
  void Shutdown();

  /// Stops accepting work and sheds every task that is not currently
  /// executing (result kShed); in-flight attempts get their CancelToken
  /// tripped and are awaited, never abandoned. Joins workers.
  /// Idempotent; safe to call after Shutdown.
  void ShutdownNow();

  /// Outcome of a task (valid ids only; finished == false while the
  /// task is pending or running).
  TaskOutcome OutcomeOf(TxnId id) const;

  /// Number of tasks that reached a terminal state so far.
  size_t finished_count() const;

  /// Snapshot of the run counters.
  ExecutorStats stats() const;

  /// The recorded event log (empty unless options.record_trace). Call
  /// after Shutdown/Drain for a complete, quiescent trace.
  std::vector<LiveTraceEvent> TakeTrace();

  /// Blocks until the executor is quiescent at the CURRENT clock
  /// instant — every completion due by now has been applied, every due
  /// timer fired, and no dispatch is possible — then returns a
  /// consistent snapshot of all unfinished work. Under a VirtualClock
  /// the caller should be a registered participant: a runnable
  /// registered thread freezes the timeline, so the snapshot captures
  /// the exact virtual instant (the digital twin's control-tick
  /// contract). Safe from any thread; returns an empty-task snapshot
  /// once the run is drained.
  ExecutorSnapshot SnapshotAtQuiescence();

  /// Buffer-reuse variant for callers that snapshot on a cadence (the
  /// twin's control tick): fills `out` in place, reusing its task
  /// vector's capacity so steady-state snapshots allocate nothing new.
  void SnapshotAtQuiescence(ExecutorSnapshot* out);

  /// Swaps the scheduling policy and/or admission controller at a
  /// quiescent point: waits for quiescence exactly like
  /// SnapshotAtQuiescence, then rebinds the new policy and replays the
  /// live state into it (OnArrival for every announced unfinished task,
  /// OnReady for the ready set in queue order). In-flight attempts are
  /// untouched — the executor is non-preemptive, so reconfiguration
  /// never loses work; delayed retries and deferred arrivals re-enter
  /// through their normal release paths and announce themselves to the
  /// new policy there.
  void Reconfigure(ReconfigureRequest request);

  /// Seconds elapsed on the executor's Clock (its SimTime).
  double NowSeconds() const;

  const Clock& clock() const { return *clock_; }

 private:
  /// Adapter exposing executor state to the policy and the admission
  /// controller as a SimView. All access happens under the executor
  /// mutex.
  class View final : public SimView {
   public:
    explicit View(Executor* owner) : owner_(owner) {}
    const std::vector<TransactionSpec>& specs() const override {
      return owner_->specs_;
    }
    const DependencyGraph& graph() const override;
    const WorkflowRegistry& workflows() const override;
    SimTime remaining(TxnId id) const override {
      return owner_->remaining_[id];
    }
    bool IsArrived(TxnId) const override { return true; }
    bool IsFinished(TxnId id) const override {
      return owner_->outcomes_[id].finished;
    }
    bool IsReady(TxnId id) const override {
      return owner_->unmet_deps_[id] == 0 && !owner_->outcomes_[id].finished;
    }
    const std::vector<TxnId>& ready_transactions() const override {
      return owner_->ready_list_;
    }
    size_t num_servers() const override {
      return owner_->options_.num_workers;
    }
    size_t num_servers_up() const override;

   private:
    Executor* owner_;
  };

  /// A retry (or deferred arrival) waiting out its delay.
  struct DelayedEntry {
    double due_seconds = 0.0;
    TxnId id = kInvalidTxn;
  };

  /// One in-flight execution attempt. Slot binding, wake time, and
  /// fault flags live here; `serial` identifies the attempt across the
  /// unlocked execution window (ids can re-dispatch after failover
  /// while the zombie is still running).
  struct Attempt {
    TxnId id = kInvalidTxn;
    uint32_t slot = 0;
    uint64_t serial = 0;
    double dispatch_seconds = 0.0;
    /// Virtual instant the attempt's thread will return (simulated
    /// tasks: min(work end, timeout); function tasks: kNeverSeconds).
    /// The dispatch gate refuses to dispatch past an unapplied
    /// same-instant completion, which keeps slot bindings
    /// deterministic.
    double wake_due = kNeverSeconds;
    double spike_seconds = 0.0;
    std::shared_ptr<std::atomic<bool>> cancel;
    bool cancellable = false;    // fn variant observes the token
    bool simulated = false;      // sleep-based attempt
    bool zombie = false;         // failed over; return will be discarded
    bool forced_abort = false;   // fault stream aborted it
  };

  /// A stall-watchdog timer: fail the attempt over at `due` if it is
  /// still in flight on the (still stalled) slot.
  struct StallWatch {
    double due_seconds = 0.0;
    uint32_t slot = 0;
    uint64_t attempt_serial = 0;
  };

  void WorkerLoop();
  void PumpLoop();
  /// Spins (dropping mu_ between probes) until the executor is
  /// quiescent at the current clock instant or fully drained; returns
  /// with mu_ held by `lock` and the quiescence instant in *now_out.
  void AwaitQuiescenceLocked(std::unique_lock<std::mutex>& lock,
                             double* now_out);
  bool QuiescentLocked(double now) const;
  // The helpers below require mu_ to be held.
  bool CanDispatchLocked(double now) const;
  size_t FreeUpSlotLocked() const;
  bool SlotUpLocked(size_t slot) const;
  double NextWakeDueLocked() const;
  void DispatchOneLocked(std::unique_lock<std::mutex>& lock);
  void ApplyAttemptReturnLocked(uint64_t serial, bool threw);
  void PumpTimedEventsLocked(double now);
  void ApplyFaultEventLocked(const FaultInjector::Event& event);
  void FailOverAttemptLocked(Attempt& attempt, double now,
                             LiveFailoverCause cause);
  void ReleaseDueRetries(double now);
  void ReleaseDueDeferred(double now);
  void HandleAttemptFailureLocked(TxnId id, TaskResult failure, double now);
  void MarkTerminal(TxnId id, TaskResult result, double now);
  void FailDependents(TxnId root, double now);
  void RemoveFromReady(TxnId id, double now);
  void JoinWorkers();
  void RecordLocked(double time, LiveEventKind kind, TxnId txn,
                    uint32_t slot = LiveTraceEvent::kNoSlot,
                    uint32_t attempt = 0, uint64_t aux = 0);

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  /// Signals worker/pump thread clock registration to the constructor
  /// (wall-clock wait; these threads are not timeline participants until
  /// registered, so the constructor must not return — letting callers
  /// submit and sleep — before every thread is accounted for, or the
  /// virtual timeline could advance past arrivals with no worker
  /// present to dispatch them).
  std::condition_variable threads_registered_;
  size_t registered_threads_ = 0;

  std::unique_ptr<SchedulerPolicy> policy_;
  ExecutorOptions options_;
  View view_;
  std::shared_ptr<Clock> clock_;
  std::optional<FaultInjector> injector_;
  std::unique_ptr<AdmissionController> admission_;

  // Guarded by mu_:
  std::vector<TransactionSpec> specs_;
  std::vector<SimTime> remaining_;
  std::vector<uint32_t> unmet_deps_;
  std::vector<std::vector<TxnId>> successors_;
  std::vector<std::function<void()>> functions_;
  std::vector<std::function<void(const CancelToken&)>> cancellable_fns_;
  std::vector<double> simulated_durations_;
  std::vector<double> timeouts_;
  std::vector<uint32_t> max_attempts_;
  std::vector<double> backoffs_;
  std::vector<double> backoff_multipliers_;
  std::vector<TaskOutcome> outcomes_;
  /// Virtual work completed by earlier (warm-failed-over) attempts of
  /// each simulated task; zeroed by cold failover and forced aborts.
  std::vector<double> progress_done_;
  /// Outstanding uncharged re-dispatches owed to failovers.
  std::vector<uint32_t> migration_credits_;
  /// Whether the policy has heard OnArrival for the task (admitted
  /// arrivals only; deferred arrivals announce on admit). Reconfigure
  /// replays exactly these into a replacement policy.
  std::vector<char> announced_;
  std::vector<TxnId> ready_list_;
  std::vector<DelayedEntry> delayed_;    // retries in backoff
  std::vector<DelayedEntry> deferred_;   // admission-deferred arrivals
  std::vector<Attempt> inflight_;
  std::vector<TxnId> slot_task_;         // per-slot occupant (kInvalidTxn
                                         // = free; zombies detach)
  std::vector<StallWatch> stall_watches_;
  std::vector<FaultInjector::Event> fault_scratch_;
  LiveTraceRecorder trace_;
  ExecutorStats stats_;
  uint64_t next_serial_ = 1;
  size_t finished_ = 0;
  bool shutting_down_ = false;
  /// ShutdownNow was called: failures and failovers shed instead of
  /// retrying/re-enqueuing (completions still count).
  bool hard_shutdown_ = false;

  std::vector<std::thread> workers_;
  std::thread pump_;
};

}  // namespace webtx::rt

#endif  // WEBTX_RT_EXECUTOR_H_
