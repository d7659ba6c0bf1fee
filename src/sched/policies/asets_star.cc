#include "sched/policies/asets_star.h"

#include <algorithm>
#include <limits>

namespace webtx {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void AsetsStarPolicy::Bind(const SimView& v) {
  SchedulerPolicy::Bind(v);
  const size_t num_wf = v.workflows().num_workflows();
  states_.assign(num_wf, WorkflowState{});
  // All live sets share one flat arena (a workflow's live set can never
  // outgrow its member roster), so a cold Bind costs two allocations
  // instead of one per workflow — and a re-Bind to a same-shape view
  // costs none at all: assign() reuses capacity, as does every Reserve
  // below (pinned by tests/sim/allocation_test.cc).
  size_t total_members = 0;
  for (size_t wid = 0; wid < num_wf; ++wid) {
    states_[wid].live_begin = total_members;
    total_members +=
        v.workflows().workflow(static_cast<WorkflowId>(wid)).members.size();
  }
  live_arena_.assign(total_members, kInvalidTxn);
  dirty_.assign(num_wf, 0);
  dirty_list_.clear();
  dirty_list_.reserve(num_wf);
  dirty_now_ = 0.0;
  edf_.Reserve(num_wf);
  hdf_.Reserve(num_wf);
  critical_.Reserve(num_wf);
}

void AsetsStarPolicy::Reset() {
  states_.clear();
  live_arena_.clear();
  excluded_heads_.clear();
  dirty_.clear();
  dirty_list_.clear();
  dirty_now_ = 0.0;
  edf_.Clear();
  hdf_.Clear();
  critical_.Clear();
}

bool AsetsStarPolicy::IsExcluded(TxnId id) const {
  return std::find(excluded_heads_.begin(), excluded_heads_.end(), id) !=
         excluded_heads_.end();
}

bool AsetsStarPolicy::HeadBetter(TxnId a, TxnId b) const {
  if (b == kInvalidTxn) return true;
  const TransactionSpec& sa = view().specs()[a];
  const TransactionSpec& sb = view().specs()[b];
  switch (options_.head_rule) {
    case HeadSelectionRule::kEarliestDeadline:
      if (sa.deadline != sb.deadline) return sa.deadline < sb.deadline;
      break;
    case HeadSelectionRule::kShortestRemaining: {
      const SimTime ra = view().remaining(a);
      const SimTime rb = view().remaining(b);
      if (ra != rb) return ra < rb;
      break;
    }
    case HeadSelectionRule::kFifoArrival:
      if (sa.arrival != sb.arrival) return sa.arrival < sb.arrival;
      break;
  }
  return a < b;
}

void AsetsStarPolicy::AddLiveMember(WorkflowId wid, TxnId id) {
  WorkflowState& ws = states_[wid];
  TxnId* live = live_arena_.data() + ws.live_begin;
  WEBTX_DCHECK(std::find(live, live + ws.live_size, id) ==
               live + ws.live_size);
  if (ws.live_size == 0) {
    ws.rep_deadline = kInf;
    ws.rep_weight = 0.0;
  }
  live[ws.live_size++] = id;
  const TransactionSpec& spec = view().specs()[id];
  ws.rep_deadline = std::min(ws.rep_deadline, spec.deadline);
  ws.rep_weight = std::max(ws.rep_weight, spec.weight);
}

void AsetsStarPolicy::RemoveLiveMember(WorkflowId wid, TxnId id) {
  WorkflowState& ws = states_[wid];
  TxnId* live = live_arena_.data() + ws.live_begin;
  TxnId* const end = live + ws.live_size;
  TxnId* const it = std::find(live, end, id);
  if (it == end) return;  // shed before it ever arrived
  *it = end[-1];
  --ws.live_size;
  // The departed member may have carried the min deadline or max weight;
  // re-derive both from the survivors (live sets are small).
  ws.rep_deadline = kInf;
  ws.rep_weight = 0.0;
  for (size_t i = 0; i < ws.live_size; ++i) {
    const TransactionSpec& spec = view().specs()[live[i]];
    ws.rep_deadline = std::min(ws.rep_deadline, spec.deadline);
    ws.rep_weight = std::max(ws.rep_weight, spec.weight);
  }
}

void AsetsStarPolicy::Touch(WorkflowId wid, SimTime now) {
  WorkflowState& ws = states_[wid];
  // rep_remaining and the head must come from live values every time: the
  // simulator charges progress to outage-preempted transactions and
  // resets aborted ones without a policy callback, so a cached copy of
  // either would diverge from what a full rescan sees.
  SimTime rep_remaining = kInf;
  TxnId head = kInvalidTxn;
  const TxnId* live = live_arena_.data() + ws.live_begin;
  for (size_t i = 0; i < ws.live_size; ++i) {
    const TxnId m = live[i];
    rep_remaining = std::min(rep_remaining, view().remaining(m));
    if (view().IsReady(m) && !IsExcluded(m) && HeadBetter(m, head)) {
      head = m;
    }
  }
  ws.rep_remaining = rep_remaining;
  ws.head = head;
  ws.active = head != kInvalidTxn;

  if (!ws.active) {
    if (edf_.Erase(wid)) {
      critical_.Erase(wid);
    } else {
      hdf_.Erase(wid);
    }
    return;
  }
  if (TimeLessEq(now + ws.rep_remaining, ws.rep_deadline)) {
    if (edf_.Contains(wid)) {
      edf_.UpdateKeyIfChanged(wid, ws.rep_deadline);
      critical_.UpdateKeyIfChanged(wid, ws.rep_deadline - ws.rep_remaining);
    } else {
      hdf_.Erase(wid);
      edf_.Push(wid, ws.rep_deadline);
      critical_.Push(wid, ws.rep_deadline - ws.rep_remaining);
    }
  } else {
    if (hdf_.Contains(wid)) {
      hdf_.UpdateKeyIfChanged(wid, HdfKey(ws));
    } else {
      if (edf_.Erase(wid)) critical_.Erase(wid);
      hdf_.Push(wid, HdfKey(ws));
    }
  }
}

void AsetsStarPolicy::MarkDirty(WorkflowId wid, SimTime now) {
  dirty_now_ = now;
  if (dirty_[wid]) return;
  dirty_[wid] = 1;
  dirty_list_.push_back(wid);
}

void AsetsStarPolicy::MarkWorkflowsOf(TxnId id, SimTime now) {
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    MarkDirty(wid, now);
  }
}

void AsetsStarPolicy::FlushDirty(SimTime now) {
  for (const WorkflowId wid : dirty_list_) {
    dirty_[wid] = 0;
    Touch(wid, now);
  }
  dirty_list_.clear();
}

void AsetsStarPolicy::OnArrival(TxnId id, SimTime now) {
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    AddLiveMember(wid, id);
    MarkDirty(wid, now);
  }
}

void AsetsStarPolicy::OnReady(TxnId id, SimTime now) {
  MarkWorkflowsOf(id, now);
}

void AsetsStarPolicy::OnCompletion(TxnId id, SimTime now) {
  // Real completions depart the live set; abort-dequeues (IsFinished
  // still false — the victim re-enters the ready set later) stay live so
  // they keep contributing to the representative, exactly as a full
  // rescan over arrived-and-unfinished members would see them. The
  // departure test runs NOW — the view's finished bit is only guaranteed
  // at callback time — but the refile itself is deferred to the flush.
  const bool departed = view().IsFinished(id);
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    if (departed) RemoveLiveMember(wid, id);
    MarkDirty(wid, now);
  }
}

void AsetsStarPolicy::OnRemainingUpdated(TxnId id, SimTime now) {
  MarkWorkflowsOf(id, now);
}

void AsetsStarPolicy::OnMigrated(TxnId id, SimTime now) {
  // Mid-workflow re-planning: a warm migration charges progress to the
  // victim (shrinking its remaining) with no other callback, and a cold
  // one resets it to the full estimate — either way every workflow the
  // victim represents must re-derive rep_remaining and its head from the
  // post-migration values before the scheduling round at the crash
  // instant, or the EDF-/HDF-list keys that decide the next pick would
  // reflect the pre-crash plan.
  MarkWorkflowsOf(id, now);
}

void AsetsStarPolicy::OnDropped(TxnId id, SimTime now) {
  // The dropped member is IsFinished from the view's perspective; evict
  // it from its workflows' live sets, representatives and heads.
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    RemoveLiveMember(wid, id);
    MarkDirty(wid, now);
  }
}

void AsetsStarPolicy::MigrateDue(SimTime now) {
  while (!critical_.empty() && critical_.TopKey() < now - kTimeEpsilon) {
    const WorkflowId wid = critical_.Pop();
    const bool present = edf_.Erase(wid);
    WEBTX_DCHECK(present) << "critical queue out of sync with EDF-List";
    hdf_.Push(wid, HdfKey(states_[wid]));
  }
}

TxnId AsetsStarPolicy::Decide(SimTime now) const {
  if (edf_.empty() && hdf_.empty()) return kInvalidTxn;
  if (edf_.empty()) return states_[hdf_.Top()].head;
  if (hdf_.empty()) return states_[edf_.Top()].head;

  const WorkflowState& we = states_[edf_.Top()];
  const WorkflowState& wh = states_[hdf_.Top()];
  const double r_head_e = view().remaining(we.head);
  const double r_head_h = view().remaining(wh.head);
  const double s_rep_e = we.rep_deadline - (now + we.rep_remaining);
  const double s_rep_h = wh.rep_deadline - (now + wh.rep_remaining);

  double impact_e;  // tardiness added to wh's representative by running we
  double impact_h;  // tardiness added to we's representative by running wh
  if (options_.impact.clamp_slack) {
    impact_e = std::max(0.0, r_head_e - std::max(0.0, s_rep_h)) * wh.rep_weight;
    impact_h = std::max(0.0, r_head_h - std::max(0.0, s_rep_e)) * we.rep_weight;
  } else {
    impact_e = (r_head_e - s_rep_h) * wh.rep_weight;
    impact_h = (r_head_h - s_rep_e) * we.rep_weight;
  }
  const bool run_edf = options_.impact.ties_to_edf ? impact_e <= impact_h
                                                   : impact_e < impact_h;
  return run_edf ? we.head : wh.head;
}

void AsetsStarPolicy::Exclude(TxnId id, SimTime now) {
  excluded_heads_.push_back(id);
  MarkWorkflowsOf(id, now);
}

void AsetsStarPolicy::RestoreExcluded(SimTime now) {
  for (const TxnId id : excluded_heads_) MarkWorkflowsOf(id, now);
  excluded_heads_.clear();
  FlushDirty(now);
}

TxnId AsetsStarPolicy::PickNext(SimTime now) {
  FlushDirty(now);
  MigrateDue(now);
  return Decide(now);
}

TxnId AsetsStarPolicy::PickNextExcluding(
    SimTime now, const std::vector<TxnId>& exclude) {
  if (exclude.empty()) return PickNext(now);
  // Settle any pending callback marks with the exclusion set still empty
  // (matching the immediate-touch semantics those callbacks had), then
  // re-derive heads of the affected workflows with the exclusion set
  // active, decide, and restore the unexcluded view. The restore MUST
  // flush before returning: leaving it batched would refile those
  // workflows at a later event, after the simulator has charged progress
  // to their running members, with keys a rescan at `now` never sees.
  FlushDirty(now);
  for (const TxnId id : exclude) Exclude(id, now);
  const TxnId pick = PickNext(now);
  WEBTX_DCHECK(pick == kInvalidTxn || !IsExcluded(pick));
  RestoreExcluded(now);
  return pick;
}

void AsetsStarPolicy::PickBatch(SimTime now, size_t k,
                                std::vector<TxnId>& out) {
  out.clear();
  if (k == 0) return;
  // The greedy chain's slot i re-excludes picks 0..i-1 from scratch and
  // restores them before returning. Excluding only the newest pick per
  // slot reaches the same lists at every decision: a workflow last
  // touched when an earlier pick joined the set sees the same
  // intersection of the set with its members now, and a Touch at `now`
  // does not depend on the workflow's prior filing.
  FlushDirty(now);
  MigrateDue(now);
  const size_t ready = view().ready_transactions().size();
  for (;;) {
    const TxnId pick = Decide(now);
    if (pick == kInvalidTxn) break;
    WEBTX_DCHECK(!IsExcluded(pick));
    out.push_back(pick);
    if (out.size() == k) break;
    Exclude(pick, now);
    // Every ready transaction is placed. The chain's next call would
    // idle, but its restore still re-touches this pick's workflows,
    // refreshing any member the simulator charged without a callback
    // (an outage-preempted transaction); RestoreExcluded does the same
    // without the exclusion pass in between.
    if (out.size() == ready) break;
    FlushDirty(now);
    MigrateDue(now);
  }
  RestoreExcluded(now);
}

AsetsStarPolicy::WorkflowSnapshot AsetsStarPolicy::SnapshotOf(WorkflowId id) {
  FlushDirty(dirty_now_);
  const WorkflowState& ws = states_[id];
  return WorkflowSnapshot{ws.active, ws.head, ws.rep_deadline,
                          ws.rep_remaining, ws.rep_weight};
}

}  // namespace webtx
