#ifndef WEBTX_SCHED_POLICIES_ASETS_STAR_H_
#define WEBTX_SCHED_POLICIES_ASETS_STAR_H_

#include <string>
#include <vector>

#include "sched/indexed_priority_queue.h"
#include "sched/policies/asets.h"
#include "sched/scheduler_policy.h"
#include "txn/workflow.h"

namespace webtx {

/// How ASETS* chooses a workflow's head transaction when several members
/// are ready (Definition 8 leaves this open). Ablated by
/// bench/ablation_head_choice.
enum class HeadSelectionRule {
  kEarliestDeadline,   // default: most urgent ready member
  kShortestRemaining,  // cheapest ready member
  kFifoArrival,        // earliest-arrived ready member
};

struct AsetsStarOptions {
  AsetsOptions impact;  // negative-impact rule knobs (shared with ASETS)
  HeadSelectionRule head_rule = HeadSelectionRule::kEarliestDeadline;
};

/// ASETS*: the workflow-level, weight-aware generalization of ASETS
/// (Sec. III-B/III-C, Fig. 7) — the paper's primary contribution.
///
/// Scheduling units are *workflows* (one per root transaction, Sec. II-A).
/// Each workflow with at least one ready member is represented by:
///   - its *head* transaction T_head: a ready member (Definition 8), the
///     transaction that actually runs if the workflow wins;
///   - its *representative* transaction T_rep (Definition 9): a virtual
///     transaction with d_rep = min deadline, r_rep = min remaining time
///     and w_rep = max weight over the workflow's in-system (arrived,
///     unfinished) members — letting the scheduler "see into the Wait
///     queue" and boost heads whose dependents are urgent or valuable.
///
/// A workflow sits in the EDF-List iff its representative can still meet
/// its deadline (now + r_rep <= d_rep), ordered by d_rep; otherwise in the
/// HDF-List ordered by r_rep/w_rep. The winner between the two list tops
/// minimizes weighted negative impact:
///
///   impact(EDF wf)  = r_head,EDF * w_rep,HDF                 (Fig. 7 l.15)
///   impact(HDF wf)  = max(0, r_head,HDF - s_rep,EDF) * w_rep,EDF   (l.16)
///
/// With singleton workflows (no precedence constraints) head == rep and
/// ASETS* reduces exactly to transaction-level ASETS; with equal weights
/// HDF reduces to SRPT — the policy is parameter-free and adapts to load,
/// dependencies and weights automatically.
///
/// Hot-path contract (Sec. III-A2): every scheduler event is
/// O(live members + log #workflows) and allocation-free after Bind. Each
/// workflow tracks its *live* member set (arrived, unfinished)
/// incrementally — membership changes only at arrival / completion /
/// drop — so per-event refreshes scan live members only, never the full
/// `wf.members` roster, and re-file the workflow in the EDF-/HDF-lists
/// only when its key or target list actually changed. rep_remaining and
/// the head are recomputed from live values at every touch because the
/// simulator charges progress to outage-preempted and aborted
/// transactions without a policy callback; cached copies of either would
/// go stale (see tests/sched/asets_star_incremental_test.cc, which
/// asserts byte-identical schedules against the pre-optimization
/// full-rescan reference).
///
/// Callback bursts are additionally BATCHED: a lifecycle callback only
/// marks the affected workflows dirty (live-set membership and the
/// static aggregates stay immediate), and the recompute-and-refile
/// happens once per dirty workflow at the next flush point — the top of
/// PickNext / PickNextExcluding / PickBatch, i.e. the simulator's next
/// scheduling round at the same instant. A multi-completion or crash
/// instant that touches one workflow through several members therefore
/// pays one refile instead of one per callback. Byte-identity is
/// preserved because the flush runs at the same simulation time as the
/// marks and a workflow's filing depends only on its own final state
/// (the lists order by content, (key, id), never by operation history).
///
/// A k-server round (PickBatch) excludes each pick once: slot i
/// re-touches only the workflows of pick i-1 under the grown exclusion
/// set, and the round ends with one flush that restores the union of
/// the excluded picks' workflows — O(k * (live members + log
/// #workflows)) per round for picks whose workflows are disjoint, where
/// the greedy PickNextExcluding chain re-derives all i earlier picks'
/// workflows twice at slot i, O(k^2 * ...). The picks and the
/// post-round lists equal the chain's: a workflow's head under
/// exclusion set E depends only on E ∩ its members, a Touch files a
/// workflow from (live values, exclusion, now) alone, and the lists
/// order by (key, id).
///
/// The three lists are IndexedPriorityQueues (Sec. III-A: one O(log N)
/// ordered structure per list).
///
/// Sharded-state variant (factory spec "ASETS*-sharded"): EnableSharded()
/// before Bind adds per-shard workflow ownership over the same three
/// lists — initially wid % num_shards, then the server its head was last
/// dispatched to. A placement that moves a filed (active) workflow to a
/// new owner counts as one steal. Picks never read ownership, so
/// schedules are byte-identical to the global policy (pinned by
/// tests/sim/sharded_differential_test.cc).
class AsetsStarPolicy final : public SchedulerPolicy,
                              public ShardedPolicyState {
 public:
  explicit AsetsStarPolicy(AsetsStarOptions options = {})
      : options_(options) {}

  std::string name() const override {
    return sharded_ ? "ASETS*-sharded" : "ASETS*";
  }

  void Bind(const SimView& view) override;
  void OnArrival(TxnId id, SimTime now) override;
  void OnReady(TxnId id, SimTime now) override;
  void OnCompletion(TxnId id, SimTime now) override;
  void OnRemainingUpdated(TxnId id, SimTime now) override;
  void OnDropped(TxnId id, SimTime now) override;
  void OnMigrated(TxnId id, SimTime now) override;
  TxnId PickNext(SimTime now) override;
  TxnId PickNextExcluding(SimTime now,
                          const std::vector<TxnId>& exclude) override;
  void PickBatch(SimTime now, size_t k, std::vector<TxnId>& out) override;

  /// Opts into the sharded-state protocol; must precede Bind. Called by
  /// the factory for the "ASETS*-sharded" spec.
  void EnableSharded() { sharded_ = true; }

  // ShardedPolicyState (only reachable after EnableSharded):
  ShardedPolicyState* AsShardedState() override {
    return sharded_ ? this : nullptr;
  }
  void BindShards(uint32_t num_shards) override;
  void OnPlaced(TxnId id, uint32_t server, SimTime now) override;
  uint64_t steal_count() const override { return steals_; }

  /// Introspection for tests. Non-const: flushes pending dirty refiles
  /// so the lists reflect every callback delivered so far.
  size_t edf_list_size() {
    FlushDirty(dirty_now_);
    return edf_.size();
  }
  size_t hdf_list_size() {
    FlushDirty(dirty_now_);
    return hdf_.size();
  }

  /// Representative / head of a workflow as currently cached (tests only).
  struct WorkflowSnapshot {
    bool active = false;
    TxnId head = kInvalidTxn;
    SimTime rep_deadline = 0.0;
    SimTime rep_remaining = 0.0;
    double rep_weight = 0.0;
  };
  WorkflowSnapshot SnapshotOf(WorkflowId id);

 protected:
  void Reset() override;

 private:
  struct WorkflowState {
    bool active = false;     // has at least one ready member
    TxnId head = kInvalidTxn;
    SimTime rep_deadline = 0.0;
    SimTime rep_remaining = 0.0;
    double rep_weight = 1.0;
    /// In-system (arrived, unfinished) members, maintained incrementally
    /// as the slice live_arena_[live_begin, live_begin + live_size). Scan
    /// order differs from wf.members but every fold over it (min / max /
    /// HeadBetter) is a total order, so results are order-invariant.
    size_t live_begin = 0;
    size_t live_size = 0;
  };

  /// Folds the arriving member into the workflow's live set and static
  /// aggregates (min deadline, max weight), then touches the workflow.
  void AddLiveMember(WorkflowId wid, TxnId id);

  /// Drops a departed (finished or dropped) member from the live set and
  /// re-derives the static aggregates from the survivors. Tolerates ids
  /// that never arrived (admission-shed before OnArrival).
  void RemoveLiveMember(WorkflowId wid, TxnId id);

  /// Recomputes rep_remaining and the head from the live members' current
  /// values and re-files the workflow in the EDF-/HDF-List iff its target
  /// list or key changed. O(live members + log #workflows), no allocation.
  void Touch(WorkflowId wid, SimTime now);

  /// Queues the workflow for a Touch at the next flush point. Idempotent
  /// within a burst: the second mark of the same workflow is free.
  void MarkDirty(WorkflowId wid, SimTime now);

  /// Marks every workflow the transaction belongs to dirty.
  void MarkWorkflowsOf(TxnId id, SimTime now);

  /// Applies one Touch per dirty workflow and clears the dirty set.
  void FlushDirty(SimTime now);

  /// Moves EDF-List workflows whose representative deadline became
  /// unreachable to the HDF-List.
  void MigrateDue(SimTime now);

  /// The Fig. 7 decision over the current list tops: the head of the
  /// EDF- or HDF-List top workflow with the smaller weighted negative
  /// impact, or kInvalidTxn when both lists are empty. Shared by
  /// PickNext, PickNextExcluding and PickBatch.
  TxnId Decide(SimTime now) const;

  /// Adds `id` to the exclusion set and marks its workflows dirty, so
  /// the next flush re-derives their heads without it.
  void Exclude(TxnId id, SimTime now);

  /// Clears the exclusion set and re-touches every excluded
  /// transaction's workflows in one flush at `now`.
  void RestoreExcluded(SimTime now);

  double HdfKey(const WorkflowState& ws) const {
    return ws.rep_remaining / ws.rep_weight;
  }

  /// True when `a` beats `b` under the configured head-selection rule.
  bool HeadBetter(TxnId a, TxnId b) const;

  bool IsExcluded(TxnId id) const;

  AsetsStarOptions options_;
  std::vector<WorkflowState> states_;
  /// Backing store for every workflow's live slice: one allocation per
  /// Bind instead of one vector per workflow (workflow wid owns the
  /// members.size()-capacity slice starting at states_[wid].live_begin).
  std::vector<TxnId> live_arena_;
  /// Transactions already placed on other servers during a multi-server
  /// scheduling round; Touch skips them as head candidates. Empty
  /// outside PickNextExcluding and PickBatch.
  std::vector<TxnId> excluded_heads_;
  /// Dirty-set batching state: dirty_[wid] != 0 iff wid is queued in
  /// dirty_list_ awaiting a Touch. dirty_now_ remembers the timestamp of
  /// the latest mark so const-free introspection can flush at the right
  /// instant (callback bursts and the following flush share one `now`).
  std::vector<char> dirty_;
  std::vector<WorkflowId> dirty_list_;
  SimTime dirty_now_ = 0.0;
  IndexedPriorityQueue edf_;       // key: d_rep
  IndexedPriorityQueue hdf_;       // key: r_rep / w_rep
  IndexedPriorityQueue critical_;  // EDF-List members, key: d_rep - r_rep
  std::vector<uint32_t> wf_owner_;  // WorkflowId -> owner shard
  uint32_t num_shards_ = 1;
  bool sharded_ = false;
  uint64_t steals_ = 0;
};

}  // namespace webtx

#endif  // WEBTX_SCHED_POLICIES_ASETS_STAR_H_
