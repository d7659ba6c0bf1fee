#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

namespace webtx {

namespace {
constexpr size_t kNoReadyPos = std::numeric_limits<size_t>::max();
constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();
// Floor for the policy-visible remaining time of a transaction that
// overran its estimate; keeps priority keys (r, r/w, d - r) sane.
constexpr SimTime kMinEstimatedRemaining = 1e-6;

// Binary min-heap of pending retry releases / deferred arrivals over a
// reserved vector (std::priority_queue hides its container, so it cannot
// be pre-reserved). Ordering contract lives in internal::PendingAfter.
class PendingQueue {
 public:
  void Reserve(size_t n) { heap_.reserve(n); }
  void clear() { heap_.clear(); }
  bool empty() const { return heap_.empty(); }
  const internal::PendingEvent& top() const { return heap_.front(); }
  void push(const internal::PendingEvent& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), internal::PendingAfter{});
  }
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), internal::PendingAfter{});
    heap_.pop_back();
  }

 private:
  std::vector<internal::PendingEvent> heap_;
};

}  // namespace

/// Everything Run() used to stack-allocate per call, hoisted into a
/// lazily built, warm-reused arena: a pooled simulator (the twin keeps
/// one per candidate slot) re-runs every control tick with zero
/// steady-state allocations. Each field is re-initialized at the top of
/// Run to exactly the value its former local had, so results are
/// byte-identical to the per-call layout.
struct Simulator::RunScratch {
  std::vector<TxnOutcome> outcomes;
  std::vector<FaultStream> fault_streams;
  std::vector<SimTime> fault_time;
  std::vector<internal::ShardEventClass> fault_cls;
  std::vector<char> down;
  std::vector<TxnId> running;
  std::vector<SimTime> dispatch_time;
  std::vector<SimTime> segment_start;
  std::vector<ScheduleSegment> schedule;
  PendingQueue pending;
  std::vector<TxnId> picks;
  std::vector<TxnId> next_running;
  std::vector<char> pick_taken;
  std::vector<std::pair<TxnId, TxnFate>> resolve_stack;
  std::vector<uint64_t> pick_stamp;
  std::vector<uint64_t> placed_stamp;
  std::vector<uint32_t> pick_slot;
  std::vector<OutageWindow> outages;
  std::vector<OutageWindow> crashes;
};

Result<Simulator> Simulator::Create(std::vector<TransactionSpec> txns,
                                    SimOptions options) {
  WEBTX_ASSIGN_OR_RETURN(SimWorkload workload,
                         SimWorkload::Build(std::move(txns)));
  return CreateShared(
      std::make_shared<const SimWorkload>(std::move(workload)),
      std::move(options));
}

Result<Simulator> Simulator::CreateShared(
    std::shared_ptr<const SimWorkload> workload, SimOptions options) {
  if (workload == nullptr) {
    return Status::InvalidArgument("workload must be non-null");
  }
  if (options.num_servers < 1 ||
      options.num_servers > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "num_servers must be in [1, 2^32 - 1] (server ids are uint32_t)");
  }
  if (options.retry.max_attempts < 1) {
    return Status::InvalidArgument("retry.max_attempts must be >= 1");
  }
  // NaN passes every ordered comparison, and a NaN or infinite delay
  // stalls or hangs the event loop, so each knob must be finite too.
  const std::pair<const char*, double> knobs[] = {
      {"context_switch_cost", options.context_switch_cost},
      {"retry.backoff", options.retry.backoff},
      {"retry.backoff_multiplier", options.retry.backoff_multiplier},
      {"retry.max_backoff", options.retry.max_backoff}};
  for (const auto& [name, value] : knobs) {
    if (!std::isfinite(value) || value < 0.0) {
      return Status::InvalidArgument(std::string(name) +
                                     " must be finite and non-negative");
    }
  }
  return Simulator(std::move(workload), std::move(options));
}

Simulator::Simulator(std::shared_ptr<const SimWorkload> workload,
                     SimOptions options)
    : workload_(std::move(workload)), options_(std::move(options)) {
  // Size all per-transaction runtime state once, here, so Run() and
  // ResetRuntimeState() only ever rewrite in place — the warm-up
  // allocation spike is paid at construction, not in the measured run.
  const size_t n = workload_->size();
  true_remaining_.resize(n);
  estimated_remaining_.resize(n);
  arrived_.resize(n);
  finished_.resize(n);
  suspended_.resize(n);
  unmet_deps_.resize(n);
  ready_list_.reserve(n);
  ready_pos_.resize(n);
}

Simulator::Simulator(Simulator&&) noexcept = default;
Simulator& Simulator::operator=(Simulator&&) noexcept = default;
Simulator::~Simulator() = default;

void Simulator::BindWorkload(std::shared_ptr<const SimWorkload> workload) {
  WEBTX_CHECK(workload != nullptr);
  workload_ = std::move(workload);
}

void Simulator::ResetRuntimeState() {
  const std::vector<TransactionSpec>& specs = workload_->specs();
  const size_t n = specs.size();
  // The bound workload may have changed size since the last run
  // (BindWorkload): the indexed loops below need current extents. For a
  // stable or shrinking workload these are no-ops.
  true_remaining_.resize(n);
  estimated_remaining_.resize(n);
  unmet_deps_.resize(n);
  if (ready_list_.capacity() < n) ready_list_.reserve(n);
  arrived_.assign(n, 0);
  finished_.assign(n, 0);
  suspended_.assign(n, 0);
  ready_list_.clear();
  ready_pos_.assign(n, kNoReadyPos);
  for (size_t i = 0; i < n; ++i) {
    true_remaining_[i] = specs[i].length;
    estimated_remaining_[i] = specs[i].EstimateOrLength();
    unmet_deps_[i] = static_cast<uint32_t>(specs[i].dependencies.size());
  }
}

void Simulator::ReadyListAdd(TxnId id) {
  WEBTX_DCHECK(ready_pos_[id] == kNoReadyPos);
  ready_pos_[id] = ready_list_.size();
  ready_list_.push_back(id);
}

void Simulator::ReadyListRemove(TxnId id) {
  const size_t pos = ready_pos_[id];
  WEBTX_DCHECK(pos != kNoReadyPos);
  const TxnId moved = ready_list_.back();
  ready_list_[pos] = moved;
  ready_pos_[moved] = pos;
  ready_list_.pop_back();
  ready_pos_[id] = kNoReadyPos;
}

void Simulator::MakeReady(TxnId id, SimTime now, SchedulerPolicy& policy) {
  ReadyListAdd(id);
  policy.OnReady(id, now);
}

RunResult Simulator::Run(SchedulerPolicy& policy) {
  ResetRuntimeState();
  policy.Bind(*this);
  WEBTX_CHECK_GE(options_.num_servers, 1u);

  std::unique_ptr<AdmissionController> admission;
  if (options_.admission) {
    admission = options_.admission();
    admission->Bind(*this);
  }

  const std::vector<TransactionSpec>& specs = workload_->specs();
  const DependencyGraph& graph = workload_->graph();
  const std::vector<TxnId>& arrival_order = workload_->arrival_order();
  const size_t n = specs.size();
  const size_t k = options_.num_servers;
  // All per-run buffers live in the warm-reused scratch arena; each is
  // re-initialized here to exactly the value its former per-call local
  // had (the references keep the event loop below textually unchanged).
  if (!scratch_) scratch_ = std::make_unique<RunScratch>();
  RunScratch& sc = *scratch_;
  std::vector<TxnOutcome>& outcomes = sc.outcomes;
  outcomes.assign(n, TxnOutcome{});

  const bool faults = options_.fault_plan.enabled();
  // Policies whose keys ignore remaining time never react to
  // OnRemainingUpdated; hoisting the predicate skips up to k no-op
  // virtual calls per scheduling point.
  const bool wants_remaining = policy.WantsRemainingUpdates();
  const bool correlated =
      options_.fault_plan.config().correlated_crash_prob > 0.0;

  // Each server shard consumes its fault processes through its own lazy
  // FaultStream.
  std::vector<FaultStream>& fault_streams = sc.fault_streams;
  fault_streams.clear();
  if (faults) {
    fault_streams.reserve(k);
    for (size_t s = 0; s < k; ++s) {
      fault_streams.push_back(
          options_.fault_plan.StreamFor(static_cast<uint32_t>(s)));
    }
  }

  // The head fault event of each shard: the EventBefore-least of its
  // outage, crash, and abort processes. O(1) to refresh when one of the
  // shard's processes advances — the pre-shard simulator instead
  // rescanned every stream per fault type on every fault event
  // (tests/testing/reference_simulator.h).
  std::vector<SimTime>& fault_time = sc.fault_time;
  fault_time.assign(k, kNever);
  std::vector<internal::ShardEventClass>& fault_cls = sc.fault_cls;
  fault_cls.assign(k, internal::ShardEventClass::kOutage);
  const auto refresh_fault_head = [&](size_t s) {
    const FaultStream& src = fault_streams[s];
    SimTime t = src.next_transition();
    internal::ShardEventClass cls = internal::ShardEventClass::kOutage;
    const SimTime tc = src.next_crash_transition();
    if (tc < t) {
      t = tc;
      cls = internal::ShardEventClass::kCrash;
    }
    const SimTime ta = src.next_abort();
    if (ta < t) {
      t = ta;
      cls = internal::ShardEventClass::kAbort;
    }
    fault_time[s] = t;
    fault_cls[s] = cls;
  };
  // Schedulable-pool size exposed to admission controllers via
  // num_servers_up(), maintained incrementally from the shards' down
  // bits (the pre-shard simulator recounted all k streams per fault
  // event).
  num_up_ = k;
  std::vector<char>& down = sc.down;
  down.assign(k, 0);
  const auto sync_down = [&](size_t s) {
    const char d = fault_streams[s].down() ? 1 : 0;
    if (d != down[s]) {
      down[s] = d;
      if (d) {
        --num_up_;
      } else {
        ++num_up_;
      }
    }
  };
  if (faults) {
    for (size_t s = 0; s < k; ++s) {
      refresh_fault_head(s);
    }
  }

  size_t next_arrival = 0;
  size_t resolved_count = 0;  // completed + shed + dropped
  std::vector<TxnId>& running = sc.running;
  running.assign(k, kInvalidTxn);
  std::vector<SimTime>& dispatch_time = sc.dispatch_time;
  dispatch_time.assign(k, 0.0);
  std::vector<SimTime>& segment_start = sc.segment_start;
  segment_start.assign(k, 0.0);
  std::vector<ScheduleSegment>& schedule = sc.schedule;
  schedule.clear();
  if (options_.record_schedule) schedule.reserve(2 * n);
  PendingQueue& pending = sc.pending;
  // A run can end with stale entries for transactions that resolved
  // another way, so clearing here is what makes cross-run reuse safe.
  pending.clear();
  // At most one pending entry per unresolved transaction exists at any
  // instant, and only abort retries or admission deferrals create them.
  if (faults || admission) pending.Reserve(n);
  // Scratch buffers for the per-event scheduling round, hoisted out of
  // the loop so the steady-state iteration performs no allocation.
  std::vector<TxnId>& picks = sc.picks;
  picks.clear();
  picks.reserve(k);
  std::vector<TxnId>& next_running = sc.next_running;
  next_running.assign(k, kInvalidTxn);
  std::vector<char>& pick_taken = sc.pick_taken;
  pick_taken.clear();
  pick_taken.reserve(k);
  std::vector<std::pair<TxnId, TxnFate>>& resolve_stack = sc.resolve_stack;
  resolve_stack.clear();
  resolve_stack.reserve(n);
  // Epoch-stamped pick-assignment lookup: a stamp equal to the current
  // scheduling round marks "picked this round" / "placed this round"
  // without any clearing between rounds. Replaces the pre-shard O(k^2)
  // std::find matching of picks to servers with O(k). The stamps MUST
  // be zeroed per run — the round counter restarts at 1 every run, so a
  // stale stamp from a previous run would alias a fresh round.
  std::vector<uint64_t>& pick_stamp = sc.pick_stamp;
  pick_stamp.assign(n, 0);
  std::vector<uint64_t>& placed_stamp = sc.placed_stamp;
  placed_stamp.assign(n, 0);
  std::vector<uint32_t>& pick_slot = sc.pick_slot;
  pick_slot.assign(n, 0);
  SimTime now = 0.0;
  size_t scheduling_points = 0;
  size_t preemptions = 0;
  size_t idle_decisions = 0;
  size_t retries = 0;
  size_t retry_storm_suppressed = 0;
  size_t deferrals = 0;
  size_t outage_preemptions = 0;
  double total_outage_time = 0.0;
  std::vector<OutageWindow>& outages = sc.outages;
  outages.clear();
  size_t num_migrations = 0;
  double total_repair_time = 0.0;
  std::vector<OutageWindow>& crashes = sc.crashes;
  crashes.clear();
  const bool cold_migration =
      options_.fault_plan.config().migration == MigrationPolicy::kCold;

  // Execution attempt a transaction's work currently belongs to: every
  // work-discarding event (abort; cold migration) starts a new attempt.
  const auto attempt_of = [&](TxnId id) -> uint32_t {
    const TxnOutcome& o = outcomes[id];
    return cold_migration ? o.aborts + o.migrations : o.aborts;
  };

  // Closes the execution stretch of server `s` at time `t`, tagged with
  // the transaction's current attempt — call BEFORE bumping the abort /
  // migration count when a work-discarding event is what closes it.
  const auto close_segment = [&](size_t s, SimTime t) {
    if (!options_.record_schedule) return;
    if (t - segment_start[s] <= kTimeEpsilon) return;
    schedule.push_back(ScheduleSegment{running[s], static_cast<uint32_t>(s),
                                       segment_start[s], t,
                                       attempt_of(running[s])});
  };

  // Charges elapsed work to every busy server up to `t`.
  const auto charge_progress = [&](SimTime t) {
    for (size_t s = 0; s < k; ++s) {
      if (running[s] == kInvalidTxn) continue;
      const SimTime elapsed = t - dispatch_time[s];
      true_remaining_[running[s]] -= elapsed;
      estimated_remaining_[running[s]] =
          std::max(kMinEstimatedRemaining,
                   estimated_remaining_[running[s]] - elapsed);
      dispatch_time[s] = t;
      WEBTX_DCHECK(true_remaining_[running[s]] > -kTimeEpsilon);
    }
  };

  // Removes `root` from the system with `fate` and drops every
  // transitive dependent with fate kDroppedDependency (their
  // predecessors can never finish). See the failure-semantics contract
  // in simulator.h for the policy callback order.
  const auto resolve = [&](TxnId root, TxnFate fate, SimTime t) {
    std::vector<std::pair<TxnId, TxnFate>>& stack = resolve_stack;
    stack.clear();
    stack.emplace_back(root, fate);
    while (!stack.empty()) {
      const auto [cur, cur_fate] = stack.back();
      stack.pop_back();
      if (finished_[cur]) continue;
      if (ready_pos_[cur] != kNoReadyPos) {
        ReadyListRemove(cur);
        policy.OnCompletion(cur, t);  // dequeue signal
      }
      finished_[cur] = 1;
      suspended_[cur] = 0;
      ++resolved_count;
      TxnOutcome& o = outcomes[cur];
      o.fate = cur_fate;
      o.finish = t;
      o.missed_deadline = true;  // never finishing misses the deadline
      if (arrived_[cur]) policy.OnDropped(cur, t);
      for (const TxnId succ : graph.successors(cur)) {
        if (!finished_[succ]) {
          stack.emplace_back(succ, TxnFate::kDroppedDependency);
        }
      }
    }
  };

  // Routes one (fresh or deferred) arrival through admission control.
  const auto admit_arrival = [&](TxnId id, SimTime t) {
    if (admission) {
      const AdmissionDecision d = admission->Decide(id, t);
      if (d.action == AdmissionDecision::Action::kReject) {
        resolve(id, TxnFate::kShedAdmission, t);
        return;
      }
      if (d.action == AdmissionDecision::Action::kDefer) {
        WEBTX_CHECK(d.defer_delay > 0.0)
            << admission->name() << " deferred T" << id
            << " with non-positive delay";
        ++deferrals;
        pending.push(internal::PendingEvent{t + d.defer_delay, 1, id});
        return;
      }
    }
    arrived_[id] = 1;
    policy.OnArrival(id, t);
    if (unmet_deps_[id] == 0) MakeReady(id, t, policy);
  };

  // Migrates the transaction running on crashing server `s` (see the
  // Crashes contract in simulator.h): warm failover retains the work —
  // the victim stays ready, exactly like an outage preemption — while
  // cold failover zeroes it, mirroring the abort path's callback order
  // (suspend before the OnCompletion dequeue signal so policies that
  // rebuild cached state see the victim as non-ready) but with an
  // immediate re-enqueue and no retry-budget charge.
  const auto migrate = [&](size_t s, SimTime t) {
    const TxnId victim = running[s];
    if (victim == kInvalidTxn) return;
    close_segment(s, t);  // belongs to the pre-migration attempt
    running[s] = kInvalidTxn;
    ++num_migrations;
    ++outcomes[victim].migrations;
    if (cold_migration) {
      suspended_[victim] = 1;
      ReadyListRemove(victim);
      policy.OnCompletion(victim, t);  // dequeue signal
      true_remaining_[victim] = specs[victim].length;
      estimated_remaining_[victim] = specs[victim].EstimateOrLength();
      suspended_[victim] = 0;
      MakeReady(victim, t, policy);
    }
    policy.OnMigrated(victim, t);
  };

  while (resolved_count < n) {
    const SimTime t_arrival =
        next_arrival < n ? specs[arrival_order[next_arrival]].arrival : kNever;
    const SimTime t_pending = pending.empty() ? kNever : pending.top().time;

    // Head scan: the next step is the EventBefore-least head over all
    // shards — each shard's completion recomputed from the post-charge
    // remaining (caching it at dispatch would diverge in ulps because
    // charge_progress re-rounds the remaining at every event), its fault
    // head cached — followed by the global pending and arrival events
    // (shard = k). The (time, class, shard) key reproduces the pre-shard
    // per-type scan chains exactly: the least class among the events at
    // the minimum time wins, then the lowest shard.
    internal::ShardEvent best{kNever, internal::ShardEventClass::kArrival,
                              static_cast<uint32_t>(k)};
    bool any_running = false;
    for (size_t s = 0; s < k; ++s) {
      if (running[s] != kInvalidTxn) {
        any_running = true;
        const internal::ShardEvent completion{
            dispatch_time[s] + true_remaining_[running[s]],
            internal::ShardEventClass::kCompletion, static_cast<uint32_t>(s)};
        if (internal::EventBefore(completion, best)) best = completion;
      }
      if (faults) {
        const internal::ShardEvent fault{fault_time[s], fault_cls[s],
                                         static_cast<uint32_t>(s)};
        if (internal::EventBefore(fault, best)) best = fault;
      }
    }
    const internal::ShardEvent pend{t_pending,
                                    internal::ShardEventClass::kPending,
                                    static_cast<uint32_t>(k)};
    if (internal::EventBefore(pend, best)) best = pend;
    const internal::ShardEvent arrival{t_arrival,
                                       internal::ShardEventClass::kArrival,
                                       static_cast<uint32_t>(k)};
    if (internal::EventBefore(arrival, best)) best = arrival;

    // Progress is guaranteed by a completion, an arrival, a pending
    // retry/deferral, or — when every server is down — the finite end of
    // an outage or crash repair window holding back a non-empty ready
    // set.
    WEBTX_CHECK(any_running || t_arrival != kNever || t_pending != kNever ||
                !ready_list_.empty())
        << "simulation stalled: " << (n - resolved_count)
        << " transactions unresolved, nothing running, no arrivals left "
           "(policy idled while work was pending?)";

    now = best.time;
    charge_progress(now);

    switch (best.cls) {
      case internal::ShardEventClass::kCompletion: {
        const size_t completing_server = best.shard;
        // Simultaneous completions are processed one per scheduling
        // point, lowest server index first.
        close_segment(completing_server, now);
        const TxnId done = running[completing_server];
        running[completing_server] = kInvalidTxn;
        true_remaining_[done] = 0.0;
        estimated_remaining_[done] = 0.0;
        finished_[done] = 1;
        ++resolved_count;
        ReadyListRemove(done);

        TxnOutcome& o = outcomes[done];
        o.fate = TxnFate::kCompleted;
        o.finish = now;
        o.tardiness = TardinessOf(now, specs[done].deadline);
        o.weighted_tardiness = o.tardiness * specs[done].weight;
        o.response = now - specs[done].arrival;
        o.missed_deadline = o.tardiness > 0.0;

        policy.OnCompletion(done, now);
        for (const TxnId succ : graph.successors(done)) {
          WEBTX_DCHECK(unmet_deps_[succ] > 0);
          if (--unmet_deps_[succ] == 0 && arrived_[succ] &&
              !finished_[succ]) {
            MakeReady(succ, now, policy);
          }
        }
        break;
      }
      case internal::ShardEventClass::kOutage: {
        const size_t os = best.shard;
        FaultStream& src = fault_streams[os];
        if (!src.down()) {
          // Outage begins: preempt the victim (work retained — it stays
          // ready and may be re-placed on another server immediately).
          outages.push_back(OutageWindow{static_cast<uint32_t>(os),
                                         src.next_transition(),
                                         src.outage_end()});
          total_outage_time += src.outage_end() - src.next_transition();
          if (running[os] != kInvalidTxn) {
            close_segment(os, now);
            running[os] = kInvalidTxn;
            ++outage_preemptions;
          }
        }
        // Either the outage starts (down until outage_end) or the server
        // recovers; both are scheduling points.
        src.AdvanceTransition();
        refresh_fault_head(os);
        sync_down(os);
        break;
      }
      case internal::ShardEventClass::kCrash: {
        const size_t cs = best.shard;
        FaultStream& src = fault_streams[cs];
        if (!src.crashed()) {
          // Natural crash instant: fell the shard for its pre-drawn
          // repair window and migrate its own running transaction back
          // into the global ready set; then (correlated mode) fell each
          // other shard the origin's stream draws, in ascending order. A
          // hit on an already-crashed shard extends its repair window,
          // recorded as its own window so the union stays the exact
          // downtime. The victim draws use only the origin stream's RNG
          // and neither migrate nor ForceCrash draws, so interleaving
          // each draw with its effects keeps the pre-shard sequence.
          const SimTime repaired = src.repair_end();
          src.AdvanceCrashTransition();
          crashes.push_back(
              OutageWindow{static_cast<uint32_t>(cs), now, repaired});
          total_repair_time += repaired - now;
          migrate(cs, now);
          if (correlated) {
            for (size_t s = 0; s < k; ++s) {
              if (s == cs) continue;
              SimTime repair_duration = 0.0;
              if (!src.DrawCorrelatedVictim(&repair_duration)) continue;
              crashes.push_back(OutageWindow{static_cast<uint32_t>(s), now,
                                             now + repair_duration});
              total_repair_time += repair_duration;
              migrate(s, now);
              fault_streams[s].ForceCrash(now, repair_duration);
              refresh_fault_head(s);
              sync_down(s);
            }
          }
        } else {
          // Repair complete: the shard rejoins the pick-assignment
          // loop at this scheduling point.
          src.AdvanceCrashTransition();
        }
        refresh_fault_head(cs);
        sync_down(cs);
        break;
      }
      case internal::ShardEventClass::kAbort: {
        const size_t aborting_server = best.shard;
        // Always consume: the timeline stays policy-independent.
        fault_streams[aborting_server].AdvanceAbort();
        refresh_fault_head(aborting_server);
        const TxnId victim = running[aborting_server];
        if (victim == kInvalidTxn) break;  // idle/down server: no-op
        close_segment(aborting_server, now);  // belongs to the old attempt
        running[aborting_server] = kInvalidTxn;
        TxnOutcome& o = outcomes[victim];
        ++o.aborts;
        // Suspend BEFORE the dequeue callback: policies that rebuild
        // cached state inside OnCompletion (ASETS*'s workflow heads)
        // must already see the victim as non-ready.
        suspended_[victim] = 1;
        ReadyListRemove(victim);
        policy.OnCompletion(victim, now);  // dequeue signal
        // All executed work is lost.
        true_remaining_[victim] = specs[victim].length;
        estimated_remaining_[victim] = specs[victim].EstimateOrLength();
        if (o.aborts >= options_.retry.max_attempts) {
          resolve(victim, TxnFate::kDroppedRetries, now);  // clears suspended_
          break;
        }
        ++retries;
        SimTime delay = options_.retry.backoff;
        const SimTime max_backoff = options_.retry.max_backoff;
        for (uint32_t i = 1; i < o.aborts; ++i) {
          delay *= options_.retry.backoff_multiplier;
          // Early exit keeps a dense abort stream from pushing the
          // product to infinity before the clamp below lands.
          if (max_backoff > 0.0 && delay > max_backoff) break;
        }
        if (max_backoff > 0.0 && delay > max_backoff) {
          delay = max_backoff;
          ++retry_storm_suppressed;
        }
        if (delay <= 0.0) {
          suspended_[victim] = 0;
          MakeReady(victim, now, policy);
        } else {
          pending.push(internal::PendingEvent{now + delay, 0, victim});
        }
        break;
      }
      case internal::ShardEventClass::kPending: {
        while (!pending.empty() && pending.top().time == now) {
          const internal::PendingEvent pe = pending.top();
          pending.pop();
          if (finished_[pe.id]) continue;  // resolved meanwhile
          if (pe.kind == 0) {
            suspended_[pe.id] = 0;
            MakeReady(pe.id, now, policy);
          } else {
            admit_arrival(pe.id, now);
          }
        }
        break;
      }
      case internal::ShardEventClass::kArrival: {
        while (next_arrival < n &&
               specs[arrival_order[next_arrival]].arrival == now) {
          const TxnId id = arrival_order[next_arrival++];
          if (finished_[id]) continue;  // dropped before it arrived
          admit_arrival(id, now);
        }
        break;
      }
    }
    if (wants_remaining) {
      for (size_t s = 0; s < k; ++s) {
        if (running[s] != kInvalidTxn) {
          policy.OnRemainingUpdated(running[s], now);
        }
      }
    }

    // Scheduling point (Sec. III-A2: consult the policy on every arrival
    // and completion; fault boundaries and retries are events too). Up
    // servers are (re)filled greedily; the policy sees the transactions
    // already placed this round as excluded. Down servers take no work.
    ++scheduling_points;

    // Single-server fast path: one pick, no assignment matching. The
    // documented PickNextExcluding contract (empty exclude == PickNext)
    // makes this decision-identical to the general path below.
    if (k == 1) {
      TxnId pick = kInvalidTxn;
      if (!faults || !down[0]) {
        pick = policy.PickNext(now);
        if (pick != kInvalidTxn) {
          WEBTX_CHECK(IsReady(pick))
              << "policy " << policy.name() << " picked non-ready T" << pick
              << " at t=" << now;
        } else {
          WEBTX_CHECK(ready_list_.empty())
              << "policy " << policy.name() << " idled a server with "
              << ready_list_.size() << " ready transactions at t=" << now;
          ++idle_decisions;
        }
      }
      if (pick != running[0]) {
        if (running[0] != kInvalidTxn) {
          if (!finished_[running[0]]) ++preemptions;
          close_segment(0, now);
        }
        if (pick != kInvalidTxn) {
          dispatch_time[0] = now + options_.context_switch_cost;
          segment_start[0] = dispatch_time[0];
        }
        running[0] = pick;
      }
      continue;
    }

    const size_t k_up = faults ? num_up_ : k;
    // One batched round in place of the greedy per-slot chain; the
    // PickBatch contract (sched/scheduler_policy.h) pins out[i] to
    // exactly what PickNextExcluding(now, {out[0..i-1]}) would return,
    // so the round — and every digest downstream — is byte-identical.
    policy.PickBatch(now, k_up, picks);
    WEBTX_CHECK(picks.size() <= k_up)
        << "policy " << policy.name() << " picked " << picks.size()
        << " transactions for " << k_up << " servers at t=" << now;
    for (size_t p = 0; p < picks.size(); ++p) {
      WEBTX_CHECK(IsReady(picks[p]))
          << "policy " << policy.name() << " picked non-ready T" << picks[p]
          << " at t=" << now;
      WEBTX_DCHECK(std::find(picks.begin(), picks.begin() + p, picks[p]) ==
                   picks.begin() + p)
          << "policy " << policy.name() << " picked T" << picks[p]
          << " twice";
    }
    if (picks.size() < k_up) {
      WEBTX_CHECK_EQ(picks.size(),
                     std::min<size_t>(k_up, ready_list_.size()))
          << "policy " << policy.name() << " idled a server with "
          << ready_list_.size() << " ready transactions at t=" << now;
    }
    if (picks.empty() && k_up > 0) ++idle_decisions;

    // Assign picks to servers, keeping continuing transactions in
    // place. The epoch-stamped lookup (stamp == this round means
    // "picked this round") makes the barrier step over shard heads O(k)
    // where the pre-shard simulator paid O(k^2) in std::find scans; the
    // picks being distinct and the running transactions being distinct
    // makes it decision-identical.
    const uint64_t round = static_cast<uint64_t>(scheduling_points);
    for (size_t p = 0; p < picks.size(); ++p) {
      pick_stamp[picks[p]] = round;
      pick_slot[picks[p]] = static_cast<uint32_t>(p);
    }
    next_running.assign(k, kInvalidTxn);
    pick_taken.assign(picks.size(), 0);
    for (size_t s = 0; s < k; ++s) {
      const TxnId r = running[s];
      if (r == kInvalidTxn) continue;
      if (pick_stamp[r] == round && !pick_taken[pick_slot[r]]) {
        next_running[s] = r;
        pick_taken[pick_slot[r]] = 1;
      } else if (true_remaining_[r] <= kTimeEpsilon ||
                 dispatch_time[s] + true_remaining_[r] <= now) {
        // Simultaneous completions are handled one per scheduling
        // point; a transaction whose work is already done keeps its
        // server, whatever it ranks, so its completion fires at this
        // instant instead of whenever it would next be dispatched. A
        // pick left over waits for that completion's round.
        next_running[s] = r;
      }
    }
    {
      size_t p = 0;
      for (size_t s = 0; s < k; ++s) {
        if (next_running[s] != kInvalidTxn) continue;
        if (faults && down[s]) continue;
        while (p < picks.size() && pick_taken[p]) ++p;
        if (p >= picks.size()) break;
        next_running[s] = picks[p];
        pick_taken[p] = 1;
      }
    }
    for (size_t s = 0; s < k; ++s) {
      if (next_running[s] != kInvalidTxn) {
        placed_stamp[next_running[s]] = round;
      }
    }
    for (size_t s = 0; s < k; ++s) {
      if (running[s] != kInvalidTxn && !finished_[running[s]] &&
          placed_stamp[running[s]] != round) {
        ++preemptions;
      }
      if (next_running[s] != running[s]) {
        if (running[s] != kInvalidTxn) close_segment(s, now);
        if (next_running[s] != kInvalidTxn) {
          dispatch_time[s] = now + options_.context_switch_cost;
          segment_start[s] = dispatch_time[s];
        }
      }
      running[s] = next_running[s];
    }
  }

  // The fold aggregates in place; record_outcomes then steals the
  // scratch outcomes buffer into the result, otherwise the buffer stays
  // with the scratch arena for the next run.
  RunResult result =
      RunResult::FromOutcomesView(policy.name(), specs, outcomes);
  if (options_.record_outcomes) result.outcomes = std::move(outcomes);
  result.num_scheduling_points = scheduling_points;
  result.num_preemptions = preemptions;
  result.num_idle_decisions = idle_decisions;
  result.num_retries = retries;
  result.retry_storm_suppressed = retry_storm_suppressed;
  result.num_deferrals = deferrals;
  result.num_outages = outages.size();
  result.num_outage_preemptions = outage_preemptions;
  result.total_outage_time = total_outage_time;
  result.outages = std::move(outages);
  result.num_crashes = crashes.size();
  WEBTX_DCHECK(result.num_migrations == num_migrations)
      << "FromOutcomes migration sum disagrees with the event loop";
  result.total_repair_time = total_repair_time;
  result.crashes = std::move(crashes);
  if (options_.record_schedule) {
    std::sort(schedule.begin(), schedule.end(),
              [](const ScheduleSegment& a, const ScheduleSegment& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.server < b.server;
              });
    result.schedule = std::move(schedule);
  }
  return result;
}

}  // namespace webtx
