#include "sched/policies/asets_star_sharded.h"

#include <algorithm>
#include <future>
#include <limits>

namespace webtx {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

// The per-workflow logic is a line-for-line port of AsetsStarPolicy
// (sched/policies/asets_star.cc) with every queue access routed through
// the workflow's physical shard; see asets_star.h for the policy
// semantics and the incremental-maintenance contract.

void AsetsStarShardedPolicy::Bind(const SimView& v) {
  SchedulerPolicy::Bind(v);
  const size_t num_wf = v.workflows().num_workflows();
  states_.assign(num_wf, WorkflowState{});
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
  shards_[0].edf.Reserve(num_wf);
  shards_[0].hdf.Reserve(num_wf);
  shards_[0].critical.Reserve(num_wf);
}

void AsetsStarShardedPolicy::Reset() {
  states_.clear();
  live_arena_.clear();
  excluded_heads_.clear();
  dirty_.clear();
  dirty_list_.clear();
  dirty_now_ = 0.0;
  // Back to one physical shard until the next parallel round; shard 0
  // keeps its capacity so a warm re-Bind stays allocation-free.
  shards_.resize(1);
  shards_[0].edf.Clear();
  shards_[0].hdf.Clear();
  shards_[0].critical.Clear();
  num_shards_ = 1;
  phys_shards_ = 1;
  steals_ = 0;
}

void AsetsStarShardedPolicy::BindShards(uint32_t num_shards) {
  WEBTX_DCHECK(dirty_list_.empty()) << "BindShards after events";
  num_shards_ = std::max(1u, num_shards);
  const size_t num_wf = states_.size();
  // Physically stay at one triple: serial rounds never pay the k-way
  // partition, and the first pooled flush expands on demand.
  phys_shards_ = 1;
  shards_.resize(1);
  shards_[0].edf.Clear();
  shards_[0].hdf.Clear();
  shards_[0].critical.Clear();
  shards_[0].edf.Reserve(num_wf);
  shards_[0].hdf.Reserve(num_wf);
  shards_[0].critical.Reserve(num_wf);
  wf_owner_.resize(num_wf);
  for (size_t wid = 0; wid < num_wf; ++wid) {
    wf_owner_[wid] = static_cast<uint32_t>(wid % num_shards_);
  }
  steals_ = 0;
}

void AsetsStarShardedPolicy::ExpandShards() {
  const size_t num_wf = states_.size();
  shards_.resize(num_shards_);
  for (uint32_t s = 1; s < num_shards_; ++s) {
    ShardQueues& sq = shards_[s];
    sq.edf.Clear();
    sq.hdf.Clear();
    sq.critical.Clear();
    sq.edf.Reserve(num_wf);
    sq.hdf.Reserve(num_wf);
    sq.critical.Reserve(num_wf);
  }
  flush_buckets_.resize(num_shards_);
  for (auto& b : flush_buckets_) {
    b.clear();
    b.reserve(num_wf);
  }
  // Re-file every entry under its owner, keys preserved: relocations
  // never change a merge decision, only which triple pays the ops.
  ShardQueues& from = shards_[0];
  for (size_t i = 0; i < num_wf; ++i) {
    const WorkflowId wid = static_cast<WorkflowId>(i);
    const uint32_t owner = wf_owner_[wid];
    if (owner == 0) continue;
    ShardQueues& to = shards_[owner];
    if (from.edf.Contains(wid)) {
      const double edf_key = from.edf.KeyOf(wid);
      const double critical_key = from.critical.KeyOf(wid);
      from.edf.Erase(wid);
      from.critical.Erase(wid);
      to.edf.Push(wid, edf_key);
      to.critical.Push(wid, critical_key);
    } else if (from.hdf.Contains(wid)) {
      const double hdf_key = from.hdf.KeyOf(wid);
      from.hdf.Erase(wid);
      to.hdf.Push(wid, hdf_key);
    }
  }
  phys_shards_ = num_shards_;
}

bool AsetsStarShardedPolicy::IsExcluded(TxnId id) const {
  return std::find(excluded_heads_.begin(), excluded_heads_.end(), id) !=
         excluded_heads_.end();
}

bool AsetsStarShardedPolicy::HeadBetter(TxnId a, TxnId b) const {
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

void AsetsStarShardedPolicy::AddLiveMember(WorkflowId wid, TxnId id) {
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

void AsetsStarShardedPolicy::RemoveLiveMember(WorkflowId wid, TxnId id) {
  WorkflowState& ws = states_[wid];
  TxnId* live = live_arena_.data() + ws.live_begin;
  TxnId* const end = live + ws.live_size;
  TxnId* const it = std::find(live, end, id);
  if (it == end) return;  // shed before it ever arrived
  *it = end[-1];
  --ws.live_size;
  ws.rep_deadline = kInf;
  ws.rep_weight = 0.0;
  for (size_t i = 0; i < ws.live_size; ++i) {
    const TransactionSpec& spec = view().specs()[live[i]];
    ws.rep_deadline = std::min(ws.rep_deadline, spec.deadline);
    ws.rep_weight = std::max(ws.rep_weight, spec.weight);
  }
}

void AsetsStarShardedPolicy::Touch(WorkflowId wid, SimTime now) {
  WorkflowState& ws = states_[wid];
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

  ShardQueues& sq = shards_[PhysShardOf(wid)];
  if (!ws.active) {
    if (sq.edf.Erase(wid)) {
      sq.critical.Erase(wid);
    } else {
      sq.hdf.Erase(wid);
    }
    return;
  }
  if (TimeLessEq(now + ws.rep_remaining, ws.rep_deadline)) {
    if (sq.edf.Contains(wid)) {
      sq.edf.UpdateKeyIfChanged(wid, ws.rep_deadline);
      sq.critical.UpdateKeyIfChanged(wid, ws.rep_deadline - ws.rep_remaining);
    } else {
      sq.hdf.Erase(wid);
      sq.edf.Push(wid, ws.rep_deadline);
      sq.critical.Push(wid, ws.rep_deadline - ws.rep_remaining);
    }
  } else {
    if (sq.hdf.Contains(wid)) {
      sq.hdf.UpdateKeyIfChanged(wid, HdfKey(ws));
    } else {
      if (sq.edf.Erase(wid)) sq.critical.Erase(wid);
      sq.hdf.Push(wid, HdfKey(ws));
    }
  }
}

void AsetsStarShardedPolicy::MarkDirty(WorkflowId wid, SimTime now) {
  dirty_now_ = now;
  if (dirty_[wid]) return;
  dirty_[wid] = 1;
  dirty_list_.push_back(wid);
}

void AsetsStarShardedPolicy::MarkWorkflowsOf(TxnId id, SimTime now) {
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    MarkDirty(wid, now);
  }
}

void AsetsStarShardedPolicy::FlushDirty(SimTime now) {
  for (const WorkflowId wid : dirty_list_) {
    dirty_[wid] = 0;
    Touch(wid, now);
  }
  dirty_list_.clear();
}

void AsetsStarShardedPolicy::PrepareRound(SimTime now, ThreadPool* pool) {
  // Below the threshold (or without a pool / without shards) the serial
  // flush at PickNext is cheaper than a dispatch; results are identical
  // either way — a Touch depends only on its own workflow's state, and
  // queue content after a batch of Touches is insertion-order-invariant
  // (the queues order by (key, wid)).
  if (pool == nullptr || num_shards_ == 1 ||
      dirty_list_.size() < parallel_flush_min_) {
    return;
  }
  // First pooled flush of the run: give each shard its own triple so the
  // tasks below write disjoint slices.
  if (phys_shards_ == 1) ExpandShards();
  for (auto& b : flush_buckets_) b.clear();
  for (const WorkflowId wid : dirty_list_) {
    dirty_[wid] = 0;
    flush_buckets_[wf_owner_[wid]].push_back(wid);
  }
  dirty_list_.clear();
  // One task per shard with work: each touches only its own shard's
  // queue triple and its own workflows' states (buckets are disjoint by
  // construction), against const view reads — no shared mutable state.
  std::vector<std::future<void>> done;
  done.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (flush_buckets_[s].empty()) continue;
    done.push_back(pool->Submit([this, s, now] {
      for (const WorkflowId wid : flush_buckets_[s]) Touch(wid, now);
    }));
  }
  for (std::future<void>& f : done) f.get();
}

void AsetsStarShardedPolicy::OnPlaced(TxnId id, uint32_t server,
                                      SimTime now) {
  (void)now;
  if (num_shards_ == 1) return;
  const uint32_t dest =
      server < num_shards_ ? server : server % num_shards_;
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    const uint32_t src = wf_owner_[wid];
    if (src == dest) continue;
    if (phys_shards_ == 1) {
      // Ownership-only steal: with a single physical triple there is
      // nothing to relocate, but a filed workflow changing owners is
      // the same protocol event the expanded layout pays heap ops for,
      // and must count identically. Touch files/erases a workflow in
      // the same call that sets `active`, so activity IS queue
      // membership — no heap-index probes needed.
      if (states_[wid].active) ++steals_;
    } else {
      // Deterministic steal: the workflow's filings move to the placing
      // server's shard with keys preserved — relocating entries between
      // shards never changes a merge decision, only which shard's
      // queues pay the operations.
      ShardQueues& from = shards_[src];
      ShardQueues& to = shards_[dest];
      if (from.edf.Contains(wid)) {
        const double edf_key = from.edf.KeyOf(wid);
        const double critical_key = from.critical.KeyOf(wid);
        from.edf.Erase(wid);
        from.critical.Erase(wid);
        to.edf.Push(wid, edf_key);
        to.critical.Push(wid, critical_key);
        ++steals_;
      } else if (from.hdf.Contains(wid)) {
        const double hdf_key = from.hdf.KeyOf(wid);
        from.hdf.Erase(wid);
        to.hdf.Push(wid, hdf_key);
        ++steals_;
      }
    }
    wf_owner_[wid] = dest;
  }
}

void AsetsStarShardedPolicy::OnArrival(TxnId id, SimTime now) {
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    AddLiveMember(wid, id);
    MarkDirty(wid, now);
  }
}

void AsetsStarShardedPolicy::OnReady(TxnId id, SimTime now) {
  MarkWorkflowsOf(id, now);
}

void AsetsStarShardedPolicy::OnCompletion(TxnId id, SimTime now) {
  const bool departed = view().IsFinished(id);
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    if (departed) RemoveLiveMember(wid, id);
    MarkDirty(wid, now);
  }
}

void AsetsStarShardedPolicy::OnRemainingUpdated(TxnId id, SimTime now) {
  MarkWorkflowsOf(id, now);
}

void AsetsStarShardedPolicy::OnMigrated(TxnId id, SimTime now) {
  MarkWorkflowsOf(id, now);
}

void AsetsStarShardedPolicy::OnDropped(TxnId id, SimTime now) {
  for (const WorkflowId wid : view().workflows().WorkflowsOf(id)) {
    RemoveLiveMember(wid, id);
    MarkDirty(wid, now);
  }
}

void AsetsStarShardedPolicy::MigrateDue(SimTime now) {
  // Due-migration is per-workflow (a workflow moves iff its own critical
  // key passed `now`), so per-shard drains reach exactly the set the one
  // global critical queue would — order across shards is immaterial.
  for (ShardQueues& sq : shards_) {
    while (!sq.critical.empty() && sq.critical.TopKey() < now - kTimeEpsilon) {
      const WorkflowId wid = sq.critical.Pop();
      const bool present = sq.edf.Erase(wid);
      WEBTX_DCHECK(present) << "critical queue out of sync with EDF-List";
      sq.hdf.Push(wid, HdfKey(states_[wid]));
    }
  }
}

int AsetsStarShardedPolicy::TopShardEdf() {
  int best = -1;
  double best_key = 0.0;
  WorkflowId best_wid = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    IndexedPriorityQueue& q = shards_[s].edf;
    if (q.empty()) continue;
    const double key = q.TopKey();
    const WorkflowId wid = q.Top();
    if (best < 0 || key < best_key ||
        (key == best_key && wid < best_wid)) {
      best = static_cast<int>(s);
      best_key = key;
      best_wid = wid;
    }
  }
  return best;
}

int AsetsStarShardedPolicy::TopShardHdf() {
  int best = -1;
  double best_key = 0.0;
  WorkflowId best_wid = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    IndexedPriorityQueue& q = shards_[s].hdf;
    if (q.empty()) continue;
    const double key = q.TopKey();
    const WorkflowId wid = q.Top();
    if (best < 0 || key < best_key ||
        (key == best_key && wid < best_wid)) {
      best = static_cast<int>(s);
      best_key = key;
      best_wid = wid;
    }
  }
  return best;
}

TxnId AsetsStarShardedPolicy::PickNext(SimTime now) {
  FlushDirty(now);
  MigrateDue(now);
  // The merge over shard tops reproduces the global queues' tops: each
  // queue pops its (key, wid)-least entry, and each shard's top is
  // its local least, so the lexicographic minimum over tops IS the
  // global least. With one physical shard (serial rounds) the merge
  // degenerates to the global policy's direct top reads.
  int se;
  int sh;
  if (phys_shards_ == 1) {
    se = shards_[0].edf.empty() ? -1 : 0;
    sh = shards_[0].hdf.empty() ? -1 : 0;
  } else {
    se = TopShardEdf();
    sh = TopShardHdf();
  }
  if (se < 0 && sh < 0) return kInvalidTxn;
  if (se < 0) return states_[shards_[sh].hdf.Top()].head;
  if (sh < 0) return states_[shards_[se].edf.Top()].head;

  const WorkflowState& we = states_[shards_[se].edf.Top()];
  const WorkflowState& wh = states_[shards_[sh].hdf.Top()];
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

TxnId AsetsStarShardedPolicy::PickNextExcluding(
    SimTime now, const std::vector<TxnId>& exclude) {
  if (exclude.empty()) return PickNext(now);
  // Same protocol as the global policy: settle pending marks unexcluded,
  // re-derive the affected workflows' heads with the exclusion active,
  // decide, and restore with an immediate flush (see asets_star.h for
  // why the restore must not stay batched).
  FlushDirty(now);
  excluded_heads_ = exclude;
  for (const TxnId id : exclude) MarkWorkflowsOf(id, now);
  const TxnId pick = PickNext(now);
  WEBTX_DCHECK(pick == kInvalidTxn || !IsExcluded(pick));
  excluded_heads_.clear();
  for (const TxnId id : exclude) MarkWorkflowsOf(id, now);
  FlushDirty(now);
  return pick;
}

size_t AsetsStarShardedPolicy::edf_list_size() {
  FlushDirty(dirty_now_);
  size_t total = 0;
  for (ShardQueues& sq : shards_) total += sq.edf.size();
  return total;
}

size_t AsetsStarShardedPolicy::hdf_list_size() {
  FlushDirty(dirty_now_);
  size_t total = 0;
  for (ShardQueues& sq : shards_) total += sq.hdf.size();
  return total;
}

}  // namespace webtx
