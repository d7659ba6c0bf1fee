#ifndef WEBTX_SIM_SIMULATOR_H_
#define WEBTX_SIM_SIMULATOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "sched/admission.h"
#include "sched/scheduler_policy.h"
#include "sched/sim_view.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "sim/sim_workload.h"
#include "txn/dependency_graph.h"
#include "txn/transaction.h"
#include "txn/workflow.h"

namespace webtx {

namespace internal {

/// A time-ordered event the simulator schedules for later: the release of
/// an aborted transaction after its retry backoff (kind 0), or the
/// re-presentation of a deferred arrival to the admission controller
/// (kind 1). Kind breaks time ties (retries before deferred arrivals),
/// then the id — a fixed order that keeps runs deterministic. Exposed
/// here (rather than hidden in simulator.cc) so the tie-break contract is
/// directly unit-testable (tests/sim/event_order_test.cc).
struct PendingEvent {
  SimTime time = 0.0;
  uint8_t kind = 0;  // 0 = retry release, 1 = deferred arrival
  TxnId id = kInvalidTxn;
};

/// Max-heap comparator ordering PendingEvents latest-first, so the heap
/// top is the earliest (time, kind, id) triple.
struct PendingAfter {
  bool operator()(const PendingEvent& a, const PendingEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.id > b.id;
  }
};

/// Same-instant priority classes of the sharded event loop, in the fixed
/// order of the failure-semantics contract below: completion, outage
/// transition, crash transition, abort, retry release / deferred arrival
/// (kPending, ordered among themselves by PendingAfter), fresh arrival.
/// Lower enumerator value wins a time tie.
enum class ShardEventClass : uint8_t {
  kCompletion = 0,
  kOutage = 1,
  kCrash = 2,
  kAbort = 3,
  kPending = 4,
  kArrival = 5,
};

/// The head event of one server shard (or a global pending/arrival
/// event, which carries shard = num_servers). The next simulation step
/// is the EventBefore-least ShardEvent over all shards — a single
/// lexicographic (time, class, shard) key that is provably equivalent to
/// the per-type strict-less scan chains of the pre-shard simulator
/// (tests/testing/reference_simulator.h). Exposed for direct unit
/// testing of the tie-break contract (tests/sim/shard_event_order_test.cc).
struct ShardEvent {
  SimTime time = 0.0;
  ShardEventClass cls = ShardEventClass::kCompletion;
  uint32_t shard = 0;
};

/// Strict "fires earlier" order over shard head events.
constexpr bool EventBefore(const ShardEvent& a, const ShardEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.cls != b.cls) {
    return static_cast<uint8_t>(a.cls) < static_cast<uint8_t>(b.cls);
  }
  return a.shard < b.shard;
}

}  // namespace internal

/// Simulator knobs. The defaults model the paper's testbed: a single
/// back-end database server, preemption at scheduling points (transaction
/// arrival and completion, Sec. III-A2), zero dispatch overhead, no
/// faults, no admission control.
struct SimOptions {
  /// Per-dispatch overhead charged when a server switches to a different
  /// transaction than the one it previously ran. 0 in the paper.
  SimTime context_switch_cost = 0.0;
  /// Retain per-transaction outcomes in the RunResult (arrays of size N).
  bool record_outcomes = true;
  /// Record the full execution timeline (RunResult::schedule); useful for
  /// Gantt rendering and independent schedule validation.
  bool record_schedule = false;
  /// Number of parallel servers (back-end database workers). The paper
  /// evaluates a single server; k > 1 is an extension — the policy
  /// fills every free server in one PickBatch call per scheduling round
  /// (sched/scheduler_policy.h), so only policies that support
  /// multi-server picks support k > 1 (all shipped policies do).
  size_t num_servers = 1;
  /// Deterministic fault injection (server outages, transaction aborts).
  /// The default plan is disabled; see the failure-semantics contract on
  /// Simulator below.
  FaultPlan fault_plan;
  /// Retry behavior for aborted transactions; only consulted when the
  /// fault plan injects aborts.
  RetryOptions retry;
  /// Admission controller factory consulted at every arrival, before the
  /// scheduling policy learns of the transaction; null admits everything.
  /// A fresh controller is constructed per Run.
  AdmissionFactory admission;
};

/// Discrete-event RTDBMS simulator (paper Sec. IV-A): one or more servers
/// each execute one transaction at a time; the bound policy is consulted
/// at every arrival and completion and may preempt running transactions.
/// Dependent transactions become ready only when all their predecessors
/// have finished.
///
/// Usage:
///   auto sim = Simulator::Create(specs, options);
///   EdfPolicy policy;
///   RunResult r = sim.ValueOrDie().Run(policy);
///
/// ## Failure-semantics contract
///
/// With a fault plan and/or admission controller configured, a run obeys
/// the following rules; every transaction ends in exactly one TxnFate and
/// the per-fate counts partition the workload (audited by
/// ValidateSchedule):
///
/// - *Event ordering.* Faults are first-class discrete events. When
///   events coincide in time they are processed in a fixed priority
///   order — completion, then outage transition, then crash transition,
///   then abort, then retry release / deferred arrival, then fresh
///   arrival — with the lowest server index (or transaction id)
///   breaking remaining ties, so a run is a pure function of (workload,
///   policy, options).
///
/// - *Outages.* A server going down preempts its running transaction;
///   the executed work is RETAINED (only aborts and cold migrations
///   lose work) and the transaction stays in the ready set, so the
///   policy may immediately re-place it on another up server. A down
///   server is never filled at scheduling points; recovery is itself a
///   scheduling point. Both boundaries of every window are scheduling
///   points and the injected windows are reported in
///   RunResult::outages.
///
/// - *Crashes.* A crash removes the server from the schedulable pool
///   until the end of its repair window; its running transaction is
///   MIGRATED — it re-enters the ready set at the crash instant with
///   its work retained (MigrationPolicy::kWarm: behaves like an outage
///   preemption, no policy callbacks) or zeroed
///   (MigrationPolicy::kCold: the policy sees OnCompletion as the
///   dequeue signal, then OnReady with the remaining time reset to the
///   full estimate — like an abort, but migrations never consume retry
///   budget). In correlated mode one crash instant can fell a seeded
///   subset of the other servers the same way, lowest server index
///   first. Crash and rejoin are both scheduling points; the injected
///   repair windows are reported in RunResult::crashes and the pool
///   size visible to admission controllers shrinks and grows with them
///   (SimView::num_servers_up).
///
/// - *Aborts.* An abort instant on a busy server discards ALL executed
///   work of the running transaction (true and estimated remaining reset
///   to full). The transaction is dequeued — the policy sees
///   OnCompletion, its usual dequeue signal — and then either retries or
///   is dropped per RetryOptions: attempt i < max_attempts re-enters the
///   ready set (OnReady) after backoff * multiplier^(i-1), during which
///   it is suspended (IsReady false, so policies cannot pick it); the
///   abort of attempt max_attempts drops it with fate kDroppedRetries.
///   Abort instants on an idle (or down) server are consumed as no-ops,
///   keeping the fault timeline policy-independent.
///
/// - *Admission.* The controller decides each arrival BEFORE the policy
///   observes it: kAdmit proceeds normally, kReject sheds the
///   transaction with fate kShedAdmission (the policy never hears of
///   it), kDefer re-presents the arrival defer_delay later.
///
/// - *Drop cascades.* When a transaction is shed or dropped, every
///   transitive dependent is dropped with fate kDroppedDependency at the
///   same instant — its predecessors can never finish, so it could never
///   become ready. For each dropped transaction the policy receives
///   OnCompletion iff it was in the ready set (dequeue signal), then
///   OnDropped iff it had arrived; dependents that never arrived are
///   resolved silently and their later arrival events are skipped.
///
/// - *Accounting.* Non-completed transactions count as deadline misses,
///   are excluded from the tardiness/response aggregates, and record
///   their shed/drop instant in TxnOutcome::finish. goodput =
///   num_completed / N.
///
/// Thread safety: a Simulator is NOT thread-safe and must never be
/// shared across threads — Run() mutates per-transaction runtime state
/// in place (it resets that state on entry, so sequential reuse across
/// policies on ONE thread is fine; fault timelines replay identically
/// because FaultStreams are rebuilt from the plan's seed each run). The
/// parallel sweep engine (exp/sweep.h) gets its parallelism by
/// constructing an independent Simulator + SchedulerPolicy per workload
/// instance per worker, never by sharing one. The same rule applies to
/// SchedulerPolicy objects: Bind() resets policy state, but concurrent
/// Run() calls against one policy object race on its queues.
class Simulator final : public SimView {
 public:
  /// Validates the workload (dense ids, acyclic dependencies, positive
  /// lengths, non-negative arrivals) and builds the precedence structures.
  /// Convenience over CreateShared: builds a private SimWorkload.
  static Result<Simulator> Create(std::vector<TransactionSpec> txns,
                                  SimOptions options = {});

  /// Creates a simulator over an externally owned (already validated)
  /// workload, without copying any of it. Several simulators may share
  /// one workload — concurrent Runs only read it — which is how the
  /// digital twin fans candidate forecasts out over one per-tick spec
  /// build.
  static Result<Simulator> CreateShared(
      std::shared_ptr<const SimWorkload> workload, SimOptions options = {});

  Simulator(Simulator&&) noexcept;
  Simulator& operator=(Simulator&&) noexcept;
  ~Simulator();

  /// Repoints this simulator at a new workload (e.g. the next control
  /// tick's forecast build). Runtime state is re-sized on the next Run;
  /// all scratch storage is retained, so re-binding to an
  /// equal-or-smaller workload allocates nothing.
  void BindWorkload(std::shared_ptr<const SimWorkload> workload);

  /// Adjusts the server count between runs (the twin mirrors the live
  /// pool's up-count into its pooled forecast sims). Must be >= 1.
  void set_num_servers(size_t num_servers) {
    options_.num_servers = num_servers;
  }

  /// Runs the whole workload to completion under `policy` and returns the
  /// collected metrics. Resets all runtime state first, so the same
  /// Simulator can be reused across policies (each run is independent).
  RunResult Run(SchedulerPolicy& policy);

  // SimView:
  const std::vector<TransactionSpec>& specs() const override {
    return workload_->specs();
  }
  const DependencyGraph& graph() const override { return workload_->graph(); }
  const WorkflowRegistry& workflows() const override {
    return workload_->workflows();
  }
  size_t num_servers() const override { return options_.num_servers; }
  /// Servers not currently held down by an outage or crash window;
  /// updated at every fault transition during Run (floored at 1, see
  /// SimView).
  size_t num_servers_up() const override {
    return num_up_ > 0 ? num_up_ : 1;
  }
  /// The scheduler's view of remaining processing time: derived from the
  /// transaction's length *estimate* minus executed time (clamped to a
  /// small positive floor when the estimate was too low). Equals the true
  /// remaining time when length_estimate is unset. Reset to the full
  /// estimate when an abort discards the executed work.
  SimTime remaining(TxnId id) const override {
    return estimated_remaining_[id];
  }
  bool IsArrived(TxnId id) const override { return arrived_[id] != 0; }
  /// True once the transaction left the system — completed OR shed or
  /// dropped; the cause lives in TxnOutcome::fate.
  bool IsFinished(TxnId id) const override { return finished_[id] != 0; }
  /// Runnable now: arrived, not finished, all dependencies met, and not
  /// suspended awaiting a retry backoff.
  bool IsReady(TxnId id) const override {
    return arrived_[id] && !finished_[id] && !suspended_[id] &&
           unmet_deps_[id] == 0;
  }
  const std::vector<TxnId>& ready_transactions() const override {
    return ready_list_;
  }

 private:
  Simulator(std::shared_ptr<const SimWorkload> workload, SimOptions options);

  void ResetRuntimeState();
  void MakeReady(TxnId id, SimTime now, SchedulerPolicy& policy);
  void ReadyListAdd(TxnId id);
  void ReadyListRemove(TxnId id);

  /// The specs and every structure derived from them, possibly shared
  /// with other simulators (const access only).
  std::shared_ptr<const SimWorkload> workload_;
  SimOptions options_;

  // Runtime state, sized at construction (and re-sized on BindWorkload)
  // and re-initialized — never reallocated — per run. `true_remaining_`
  // drives completion events; `estimated_remaining_` is what policies
  // observe.
  std::vector<SimTime> true_remaining_;
  std::vector<SimTime> estimated_remaining_;
  std::vector<char> arrived_;
  std::vector<char> finished_;
  std::vector<char> suspended_;  // aborted, awaiting retry backoff
  std::vector<uint32_t> unmet_deps_;
  std::vector<TxnId> ready_list_;
  std::vector<size_t> ready_pos_;  // TxnId -> index in ready_list_
  size_t num_up_ = 1;  // servers outside outage/crash windows (this run)

  /// Per-run scratch (outcomes, fault streams, pending queue, the
  /// scheduling round's pick/assignment buffers), lazily built on the
  /// first Run and warm-reused after — the steady-state event loop
  /// allocates nothing. Defined in simulator.cc.
  struct RunScratch;
  std::unique_ptr<RunScratch> scratch_;
};

}  // namespace webtx

#endif  // WEBTX_SIM_SIMULATOR_H_
