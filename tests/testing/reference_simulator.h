#ifndef WEBTX_TESTS_TESTING_REFERENCE_SIMULATOR_H_
#define WEBTX_TESTS_TESTING_REFERENCE_SIMULATOR_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "sched/admission.h"
#include "sched/scheduler_policy.h"
#include "sched/sim_view.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "txn/dependency_graph.h"
#include "txn/transaction.h"
#include "txn/workflow.h"

namespace webtx::testing {

/// The pre-shard Simulator, kept verbatim as the differential baseline
/// for the sharded production event loop: one global loop that rescans
/// every server for the earliest completion, recomputes the per-type
/// fault horizons with an O(k) pass whenever any stream advances,
/// recounts the up-server pool at every fault transition and per
/// scheduling round, and matches picks to servers with a nested find.
/// It is the exact event loop the simulator shipped with before the
/// sharded rewrite; the production Simulator must produce byte-identical
/// results (ScheduleDigest over schedule, outcomes and counters) on
/// every (workload, policy, fault plan, num_servers) combination —
/// pinned by tests/sim/sharded_differential_test.cc and benchmarked
/// against in bench/ext_multi_server.
///
/// Deliberately header-only and self-contained (its own pending-event
/// heap) so later simulator refactors cannot silently change the
/// baseline's behavior. It accepts the same SimOptions.
class ReferenceSimulator final : public SimView {
 public:
  static Result<ReferenceSimulator> Create(std::vector<TransactionSpec> txns,
                                           SimOptions options = {}) {
    for (size_t i = 0; i < txns.size(); ++i) {
      const TransactionSpec& t = txns[i];
      if (t.length <= 0.0) {
        return Status::InvalidArgument("T" + std::to_string(i) +
                                       " has non-positive length");
      }
      if (t.arrival < 0.0) {
        return Status::InvalidArgument("T" + std::to_string(i) +
                                       " has negative arrival time");
      }
      if (t.weight <= 0.0) {
        return Status::InvalidArgument("T" + std::to_string(i) +
                                       " has non-positive weight");
      }
      if (t.length_estimate < 0.0) {
        return Status::InvalidArgument("T" + std::to_string(i) +
                                       " has negative length estimate");
      }
    }
    if (options.retry.max_attempts < 1) {
      return Status::InvalidArgument("retry.max_attempts must be >= 1");
    }
    if (options.retry.backoff < 0.0 ||
        options.retry.backoff_multiplier < 0.0 ||
        options.retry.max_backoff < 0.0) {
      return Status::InvalidArgument("retry backoff must be non-negative");
    }
    WEBTX_ASSIGN_OR_RETURN(DependencyGraph graph,
                           DependencyGraph::Build(txns));
    WorkflowRegistry registry = WorkflowRegistry::Build(graph);
    return ReferenceSimulator(std::move(txns), std::move(graph),
                              std::move(registry), std::move(options));
  }

  ReferenceSimulator(ReferenceSimulator&&) = default;
  ReferenceSimulator& operator=(ReferenceSimulator&&) = default;

  RunResult Run(SchedulerPolicy& policy) {
    ResetRuntimeState();
    policy.Bind(*this);
    WEBTX_CHECK_GE(options_.num_servers, 1u);

    std::unique_ptr<AdmissionController> admission;
    if (options_.admission) {
      admission = options_.admission();
      admission->Bind(*this);
    }

    const size_t n = specs_.size();
    const size_t k = options_.num_servers;
    std::vector<TxnOutcome> outcomes(n);

    const bool faults = options_.fault_plan.enabled();
    std::vector<FaultStream> fault_streams;
    if (faults) {
      fault_streams.reserve(k);
      for (size_t s = 0; s < k; ++s) {
        fault_streams.push_back(
            options_.fault_plan.StreamFor(static_cast<uint32_t>(s)));
      }
    }
    SimTime t_outage = kNever;
    size_t outage_server = k;
    SimTime t_abort = kNever;
    size_t abort_server = k;
    SimTime t_crash = kNever;
    size_t crash_server = k;
    const auto recompute_outage_horizon = [&] {
      t_outage = kNever;
      outage_server = k;
      for (size_t s = 0; s < k; ++s) {
        const SimTime tt = fault_streams[s].next_transition();
        if (tt < t_outage) {
          t_outage = tt;
          outage_server = s;
        }
      }
    };
    const auto recompute_abort_horizon = [&] {
      t_abort = kNever;
      abort_server = k;
      for (size_t s = 0; s < k; ++s) {
        const SimTime ta = fault_streams[s].next_abort();
        if (ta < t_abort) {
          t_abort = ta;
          abort_server = s;
        }
      }
    };
    const auto recompute_crash_horizon = [&] {
      t_crash = kNever;
      crash_server = k;
      for (size_t s = 0; s < k; ++s) {
        const SimTime tc = fault_streams[s].next_crash_transition();
        if (tc < t_crash) {
          t_crash = tc;
          crash_server = s;
        }
      }
    };
    num_up_ = k;
    const auto recount_up_servers = [&] {
      size_t up = 0;
      for (size_t s = 0; s < k; ++s) {
        if (!fault_streams[s].down()) ++up;
      }
      num_up_ = up;
    };
    if (faults) {
      recompute_outage_horizon();
      recompute_abort_horizon();
      recompute_crash_horizon();
    }

    size_t next_arrival = 0;
    size_t resolved_count = 0;
    std::vector<TxnId> running(k, kInvalidTxn);
    std::vector<SimTime> dispatch_time(k, 0.0);
    std::vector<SimTime> segment_start(k, 0.0);
    std::vector<ScheduleSegment> schedule;
    if (options_.record_schedule) schedule.reserve(2 * n);
    PendingQueue pending;
    if (faults || admission) pending.Reserve(n);
    std::vector<TxnId> picks;
    picks.reserve(k);
    std::vector<TxnId> next_running(k, kInvalidTxn);
    std::vector<char> pick_taken;
    pick_taken.reserve(k);
    std::vector<std::pair<TxnId, TxnFate>> resolve_stack;
    resolve_stack.reserve(n);
    SimTime now = 0.0;
    size_t scheduling_points = 0;
    size_t preemptions = 0;
    size_t idle_decisions = 0;
    size_t retries = 0;
    size_t retry_storm_suppressed = 0;
    size_t deferrals = 0;
    size_t outage_preemptions = 0;
    double total_outage_time = 0.0;
    std::vector<OutageWindow> outages;
    size_t num_migrations = 0;
    double total_repair_time = 0.0;
    std::vector<OutageWindow> crashes;
    const bool cold_migration =
        options_.fault_plan.config().migration == MigrationPolicy::kCold;

    const auto attempt_of = [&](TxnId id) -> uint32_t {
      const TxnOutcome& o = outcomes[id];
      return cold_migration ? o.aborts + o.migrations : o.aborts;
    };

    const auto close_segment = [&](size_t s, SimTime t) {
      if (!options_.record_schedule) return;
      if (t - segment_start[s] <= kTimeEpsilon) return;
      schedule.push_back(ScheduleSegment{running[s], static_cast<uint32_t>(s),
                                         segment_start[s], t,
                                         attempt_of(running[s])});
    };

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
        o.missed_deadline = true;
        if (arrived_[cur]) policy.OnDropped(cur, t);
        for (const TxnId succ : graph_.successors(cur)) {
          if (!finished_[succ]) {
            stack.emplace_back(succ, TxnFate::kDroppedDependency);
          }
        }
      }
    };

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
          pending.push(RefPendingEvent{t + d.defer_delay, 1, id});
          return;
        }
      }
      arrived_[id] = 1;
      policy.OnArrival(id, t);
      if (unmet_deps_[id] == 0) MakeReady(id, t, policy);
    };

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
        true_remaining_[victim] = specs_[victim].length;
        estimated_remaining_[victim] = specs_[victim].EstimateOrLength();
        suspended_[victim] = 0;
        MakeReady(victim, t, policy);
      }
      policy.OnMigrated(victim, t);
    };

    while (resolved_count < n) {
      const SimTime t_arrival =
          next_arrival < n ? specs_[arrival_order_[next_arrival]].arrival
                           : kNever;
      SimTime t_completion = kNever;
      size_t completing_server = k;
      for (size_t s = 0; s < k; ++s) {
        if (running[s] == kInvalidTxn) continue;
        const SimTime tc = dispatch_time[s] + true_remaining_[running[s]];
        if (tc < t_completion) {
          t_completion = tc;
          completing_server = s;
        }
      }
      const SimTime t_pending = pending.empty() ? kNever : pending.top().time;

      WEBTX_CHECK(t_completion != kNever || t_arrival != kNever ||
                  t_pending != kNever || !ready_list_.empty())
          << "simulation stalled: " << (n - resolved_count)
          << " transactions unresolved, nothing running, no arrivals left "
             "(policy idled while work was pending?)";

      enum class Ev {
        kCompletion,
        kOutage,
        kCrash,
        kAbort,
        kPending,
        kArrival
      };
      Ev ev = Ev::kCompletion;
      SimTime t_ev = t_completion;
      if (t_outage < t_ev) {
        ev = Ev::kOutage;
        t_ev = t_outage;
      }
      if (t_crash < t_ev) {
        ev = Ev::kCrash;
        t_ev = t_crash;
      }
      if (t_abort < t_ev) {
        ev = Ev::kAbort;
        t_ev = t_abort;
      }
      if (t_pending < t_ev) {
        ev = Ev::kPending;
        t_ev = t_pending;
      }
      if (t_arrival < t_ev) {
        ev = Ev::kArrival;
        t_ev = t_arrival;
      }
      now = t_ev;
      charge_progress(now);

      switch (ev) {
        case Ev::kCompletion: {
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
          o.tardiness = TardinessOf(now, specs_[done].deadline);
          o.weighted_tardiness = o.tardiness * specs_[done].weight;
          o.response = now - specs_[done].arrival;
          o.missed_deadline = o.tardiness > 0.0;

          policy.OnCompletion(done, now);
          for (const TxnId succ : graph_.successors(done)) {
            WEBTX_DCHECK(unmet_deps_[succ] > 0);
            if (--unmet_deps_[succ] == 0 && arrived_[succ] &&
                !finished_[succ]) {
              MakeReady(succ, now, policy);
            }
          }
          break;
        }
        case Ev::kOutage: {
          FaultStream& stream = fault_streams[outage_server];
          if (!stream.down()) {
            outages.push_back(
                OutageWindow{static_cast<uint32_t>(outage_server),
                             stream.next_transition(), stream.outage_end()});
            total_outage_time +=
                stream.outage_end() - stream.next_transition();
            if (running[outage_server] != kInvalidTxn) {
              close_segment(outage_server, now);
              running[outage_server] = kInvalidTxn;
              ++outage_preemptions;
            }
          }
          stream.AdvanceTransition();
          recompute_outage_horizon();
          recount_up_servers();
          break;
        }
        case Ev::kCrash: {
          FaultStream& stream = fault_streams[crash_server];
          if (!stream.crashed()) {
            const SimTime repaired = stream.repair_end();
            stream.AdvanceCrashTransition();
            crashes.push_back(OutageWindow{
                static_cast<uint32_t>(crash_server), now, repaired});
            total_repair_time += repaired - now;
            migrate(crash_server, now);
            if (options_.fault_plan.config().correlated_crash_prob > 0.0) {
              for (size_t s = 0; s < k; ++s) {
                if (s == crash_server) continue;
                SimTime repair_duration = 0.0;
                if (!stream.DrawCorrelatedVictim(&repair_duration)) continue;
                crashes.push_back(OutageWindow{static_cast<uint32_t>(s), now,
                                               now + repair_duration});
                total_repair_time += repair_duration;
                migrate(s, now);
                fault_streams[s].ForceCrash(now, repair_duration);
              }
            }
          } else {
            stream.AdvanceCrashTransition();
          }
          recompute_crash_horizon();
          recount_up_servers();
          break;
        }
        case Ev::kAbort: {
          FaultStream& stream = fault_streams[abort_server];
          const size_t aborting_server = abort_server;
          stream.AdvanceAbort();
          recompute_abort_horizon();
          const TxnId victim = running[aborting_server];
          if (victim == kInvalidTxn) break;  // idle/down server: no-op
          close_segment(aborting_server, now);
          running[aborting_server] = kInvalidTxn;
          TxnOutcome& o = outcomes[victim];
          ++o.aborts;
          suspended_[victim] = 1;
          ReadyListRemove(victim);
          policy.OnCompletion(victim, now);  // dequeue signal
          true_remaining_[victim] = specs_[victim].length;
          estimated_remaining_[victim] = specs_[victim].EstimateOrLength();
          if (o.aborts >= options_.retry.max_attempts) {
            resolve(victim, TxnFate::kDroppedRetries, now);
            break;
          }
          ++retries;
          SimTime delay = options_.retry.backoff;
          const SimTime max_backoff = options_.retry.max_backoff;
          for (uint32_t i = 1; i < o.aborts; ++i) {
            delay *= options_.retry.backoff_multiplier;
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
            pending.push(RefPendingEvent{now + delay, 0, victim});
          }
          break;
        }
        case Ev::kPending: {
          while (!pending.empty() && pending.top().time == now) {
            const RefPendingEvent pe = pending.top();
            pending.pop();
            if (finished_[pe.id]) continue;
            if (pe.kind == 0) {
              suspended_[pe.id] = 0;
              MakeReady(pe.id, now, policy);
            } else {
              admit_arrival(pe.id, now);
            }
          }
          break;
        }
        case Ev::kArrival: {
          while (next_arrival < n &&
                 specs_[arrival_order_[next_arrival]].arrival == now) {
            const TxnId id = arrival_order_[next_arrival++];
            if (finished_[id]) continue;
            admit_arrival(id, now);
          }
          break;
        }
      }
      for (size_t s = 0; s < k; ++s) {
        if (running[s] != kInvalidTxn) {
          policy.OnRemainingUpdated(running[s], now);
        }
      }

      ++scheduling_points;

      if (k == 1) {
        TxnId pick = kInvalidTxn;
        if (!faults || !fault_streams[0].down()) {
          pick = policy.PickNext(now);
          if (pick != kInvalidTxn) {
            WEBTX_CHECK(IsReady(pick))
                << "policy " << policy.name() << " picked non-ready T"
                << pick << " at t=" << now;
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

      size_t k_up = k;
      if (faults) {
        k_up = 0;
        for (size_t s = 0; s < k; ++s) {
          if (!fault_streams[s].down()) ++k_up;
        }
      }
      picks.clear();
      for (size_t slot = 0; slot < k_up; ++slot) {
        const TxnId pick = policy.PickNextExcluding(now, picks);
        if (pick == kInvalidTxn) break;
        WEBTX_CHECK(IsReady(pick))
            << "policy " << policy.name() << " picked non-ready T" << pick
            << " at t=" << now;
        WEBTX_DCHECK(std::find(picks.begin(), picks.end(), pick) ==
                     picks.end())
            << "policy " << policy.name() << " picked T" << pick << " twice";
        picks.push_back(pick);
      }
      if (picks.size() < k_up) {
        WEBTX_CHECK_EQ(picks.size(),
                       std::min<size_t>(k_up, ready_list_.size()))
            << "policy " << policy.name() << " idled a server with "
            << ready_list_.size() << " ready transactions at t=" << now;
      }
      if (picks.empty() && k_up > 0) ++idle_decisions;

      next_running.assign(k, kInvalidTxn);
      pick_taken.assign(picks.size(), 0);
      for (size_t s = 0; s < k; ++s) {
        if (running[s] == kInvalidTxn) continue;
        for (size_t p = 0; p < picks.size(); ++p) {
          if (!pick_taken[p] && picks[p] == running[s]) {
            next_running[s] = running[s];
            pick_taken[p] = 1;
            break;
          }
        }
      }
      {
        size_t p = 0;
        for (size_t s = 0; s < k; ++s) {
          if (next_running[s] != kInvalidTxn) continue;
          if (faults && fault_streams[s].down()) continue;
          while (p < picks.size() && pick_taken[p]) ++p;
          if (p >= picks.size()) break;
          next_running[s] = picks[p];
          pick_taken[p] = 1;
        }
      }
      for (size_t s = 0; s < k; ++s) {
        if (running[s] != kInvalidTxn && !finished_[running[s]] &&
            std::find(next_running.begin(), next_running.end(),
                      running[s]) == next_running.end()) {
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

    RunResult result =
        RunResult::FromOutcomes(policy.name(), specs_, std::move(outcomes));
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
    if (!options_.record_outcomes) result.outcomes.clear();
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

  // SimView:
  const std::vector<TransactionSpec>& specs() const override {
    return specs_;
  }
  const DependencyGraph& graph() const override { return graph_; }
  const WorkflowRegistry& workflows() const override { return registry_; }
  size_t num_servers() const override { return options_.num_servers; }
  size_t num_servers_up() const override {
    return num_up_ > 0 ? num_up_ : 1;
  }
  SimTime remaining(TxnId id) const override {
    return estimated_remaining_[id];
  }
  bool IsArrived(TxnId id) const override { return arrived_[id] != 0; }
  bool IsFinished(TxnId id) const override { return finished_[id] != 0; }
  bool IsReady(TxnId id) const override {
    return arrived_[id] && !finished_[id] && !suspended_[id] &&
           unmet_deps_[id] == 0;
  }
  const std::vector<TxnId>& ready_transactions() const override {
    return ready_list_;
  }

 private:
  static constexpr size_t kNoReadyPos = std::numeric_limits<size_t>::max();
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();
  static constexpr SimTime kMinEstimatedRemaining = 1e-6;

  // The frozen copy of the pre-shard pending-event heap: ordering is
  // (time, kind, id), kind 0 = retry release, 1 = deferred arrival.
  struct RefPendingEvent {
    SimTime time = 0.0;
    uint8_t kind = 0;
    TxnId id = kInvalidTxn;
  };
  struct RefPendingAfter {
    bool operator()(const RefPendingEvent& a, const RefPendingEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.kind != b.kind) return a.kind > b.kind;
      return a.id > b.id;
    }
  };
  class PendingQueue {
   public:
    void Reserve(size_t n) { heap_.reserve(n); }
    bool empty() const { return heap_.empty(); }
    const RefPendingEvent& top() const { return heap_.front(); }
    void push(const RefPendingEvent& e) {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), RefPendingAfter{});
    }
    void pop() {
      std::pop_heap(heap_.begin(), heap_.end(), RefPendingAfter{});
      heap_.pop_back();
    }

   private:
    std::vector<RefPendingEvent> heap_;
  };

  ReferenceSimulator(std::vector<TransactionSpec> txns, DependencyGraph graph,
                     WorkflowRegistry registry, SimOptions options)
      : specs_(std::move(txns)),
        graph_(std::move(graph)),
        registry_(std::move(registry)),
        options_(std::move(options)) {
    const size_t n = specs_.size();
    arrival_order_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      arrival_order_[i] = static_cast<TxnId>(i);
    }
    std::stable_sort(arrival_order_.begin(), arrival_order_.end(),
                     [this](TxnId a, TxnId b) {
                       if (specs_[a].arrival != specs_[b].arrival) {
                         return specs_[a].arrival < specs_[b].arrival;
                       }
                       return a < b;
                     });
    true_remaining_.resize(n);
    estimated_remaining_.resize(n);
    arrived_.resize(n);
    finished_.resize(n);
    suspended_.resize(n);
    unmet_deps_.resize(n);
    ready_list_.reserve(n);
    ready_pos_.resize(n);
  }

  void ResetRuntimeState() {
    const size_t n = specs_.size();
    arrived_.assign(n, 0);
    finished_.assign(n, 0);
    suspended_.assign(n, 0);
    ready_list_.clear();
    ready_pos_.assign(n, kNoReadyPos);
    for (size_t i = 0; i < n; ++i) {
      true_remaining_[i] = specs_[i].length;
      estimated_remaining_[i] = specs_[i].EstimateOrLength();
      unmet_deps_[i] = static_cast<uint32_t>(specs_[i].dependencies.size());
    }
  }

  void MakeReady(TxnId id, SimTime now, SchedulerPolicy& policy) {
    ReadyListAdd(id);
    policy.OnReady(id, now);
  }

  void ReadyListAdd(TxnId id) {
    WEBTX_DCHECK(ready_pos_[id] == kNoReadyPos);
    ready_pos_[id] = ready_list_.size();
    ready_list_.push_back(id);
  }

  void ReadyListRemove(TxnId id) {
    const size_t pos = ready_pos_[id];
    WEBTX_DCHECK(pos != kNoReadyPos);
    const TxnId moved = ready_list_.back();
    ready_list_[pos] = moved;
    ready_pos_[moved] = pos;
    ready_list_.pop_back();
    ready_pos_[id] = kNoReadyPos;
  }

  std::vector<TransactionSpec> specs_;
  DependencyGraph graph_;
  WorkflowRegistry registry_;
  SimOptions options_;
  std::vector<TxnId> arrival_order_;

  std::vector<SimTime> true_remaining_;
  std::vector<SimTime> estimated_remaining_;
  std::vector<char> arrived_;
  std::vector<char> finished_;
  std::vector<char> suspended_;
  std::vector<uint32_t> unmet_deps_;
  std::vector<TxnId> ready_list_;
  std::vector<size_t> ready_pos_;
  size_t num_up_ = 1;
};

}  // namespace webtx::testing

#endif  // WEBTX_TESTS_TESTING_REFERENCE_SIMULATOR_H_
