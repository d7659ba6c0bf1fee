#ifndef WEBTX_SCHED_POLICIES_ASETS_STAR_SHARDED_H_
#define WEBTX_SCHED_POLICIES_ASETS_STAR_SHARDED_H_

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sched/indexed_priority_queue.h"
#include "sched/policies/asets_star.h"
#include "sched/scheduler_policy.h"
#include "txn/workflow.h"

namespace webtx {

/// ASETS* with per-shard policy state ("ASETS*-sharded" in the factory):
/// every workflow is owned by a shard (shard = server) — initially
/// wid % num_shards, then the shard of the server its head was last
/// dispatched to (OnPlaced steals ownership into the placing shard, the
/// deterministic handoff ordered by the simulator's ascending-server
/// placement sweep).
///
/// The *physical* partition of the EDF-/HDF-/critical lists is sized to
/// the parallelism actually available, because entry location is
/// decision-neutral (see below) while ownership is what the parallel
/// flush needs:
///   - Serial rounds (no shard pool) keep all filings in one queue
///     triple, so Touch and PickNext run the exact global-policy access
///     pattern — no per-pick k-way merge, no steal relocations — and the
///     serial path stays within noise of the global-state policy.
///   - The first round that flushes on the shard pool expands to one
///     triple per shard (each workflow re-filed under its owner, keys
///     preserved), so concurrent Touches write disjoint queue slices and
///     OnPlaced relocates filings eagerly to keep the buckets aligned
///     with ownership.
/// Steal accounting is identical in both regimes: a placement that moves
/// a filed workflow to a new owner counts once, whether or not a
/// physical relocation was needed.
///
/// Byte-identity with the global AsetsStarPolicy: the queues pop in the
/// content-determined (key, wid) total order, so the merge over
/// per-shard tops selects exactly the workflow the one global queue
/// would, and every per-workflow operation (Touch, due-migration,
/// exclusion re-derivation) depends only on that workflow's own state —
/// never on which shard (or how many shards) file it. That location
/// neutrality is what licenses sizing the physical partition to the
/// parallelism. Pinned across the full differential matrix by
/// tests/sim/sharded_differential_test.cc.
///
/// PrepareRound fans the dirty-set flush out on the simulator's shard
/// pool when a round has enough dirty workflows: buckets are keyed by
/// owner shard, so concurrent Touches write disjoint states_/queue
/// slices (raced only against const view reads; proven race-free under
/// the tsan preset).
class AsetsStarShardedPolicy final : public SchedulerPolicy,
                                     public ShardedPolicyState {
 public:
  explicit AsetsStarShardedPolicy(AsetsStarOptions options = {})
      : options_(options), shards_(1) {}

  std::string name() const override { return "ASETS*-sharded"; }

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

  // ShardedPolicyState:
  ShardedPolicyState* AsShardedState() override { return this; }
  void BindShards(uint32_t num_shards) override;
  void PrepareRound(SimTime now, ThreadPool* pool) override;
  void OnPlaced(TxnId id, uint32_t server, SimTime now) override;
  uint64_t steal_count() const override { return steals_; }

  /// Minimum dirty workflows in a round before PrepareRound fans the
  /// flush out on the pool (below it, the serial flush at PickNext is
  /// cheaper than the dispatch). Tests set 0 to force the parallel path.
  void set_parallel_flush_threshold(size_t n) { parallel_flush_min_ = n; }

  /// Introspection for tests (sums over shards). Non-const: flushes
  /// pending dirty refiles first.
  size_t edf_list_size();
  size_t hdf_list_size();

 protected:
  void Reset() override;

 private:
  struct WorkflowState {
    bool active = false;  // has at least one ready member
    TxnId head = kInvalidTxn;
    SimTime rep_deadline = 0.0;
    SimTime rep_remaining = 0.0;
    double rep_weight = 1.0;
    size_t live_begin = 0;
    size_t live_size = 0;
  };

  /// One shard's slice of the three lists; once the physical partition
  /// is expanded, a workflow's filings live entirely in its owner
  /// shard's triple.
  struct ShardQueues {
    IndexedPriorityQueue edf;       // key: d_rep
    IndexedPriorityQueue hdf;       // key: r_rep / w_rep
    IndexedPriorityQueue critical;  // EDF-List members, key: d_rep - r_rep
  };

  /// Physical shard holding workflow `wid`'s filings: shard 0 until the
  /// partition is expanded, the owner shard afterwards.
  uint32_t PhysShardOf(WorkflowId wid) const {
    return phys_shards_ == 1 ? 0 : wf_owner_[wid];
  }

  /// Splits the single physical triple into one per shard, re-filing
  /// every entry under its owner with keys preserved (decision-neutral).
  /// Called by the first PrepareRound that flushes on the pool.
  void ExpandShards();

  void AddLiveMember(WorkflowId wid, TxnId id);
  void RemoveLiveMember(WorkflowId wid, TxnId id);
  void Touch(WorkflowId wid, SimTime now);
  void MarkDirty(WorkflowId wid, SimTime now);
  void MarkWorkflowsOf(TxnId id, SimTime now);
  void FlushDirty(SimTime now);
  void MigrateDue(SimTime now);

  /// Shard holding the globally least (key, wid) top of the EDF (or HDF)
  /// lists, or -1 when all are empty. The merge is the only cross-shard
  /// read of a pick.
  int TopShardEdf();
  int TopShardHdf();

  double HdfKey(const WorkflowState& ws) const {
    return ws.rep_remaining / ws.rep_weight;
  }
  bool HeadBetter(TxnId a, TxnId b) const;
  bool IsExcluded(TxnId id) const;

  AsetsStarOptions options_;
  std::vector<WorkflowState> states_;
  std::vector<TxnId> live_arena_;
  std::vector<TxnId> excluded_heads_;
  std::vector<char> dirty_;
  std::vector<WorkflowId> dirty_list_;
  SimTime dirty_now_ = 0.0;
  std::vector<ShardQueues> shards_;   // size phys_shards_
  std::vector<uint32_t> wf_owner_;    // WorkflowId -> owner shard
  uint32_t num_shards_ = 1;           // ownership / steal domain
  uint32_t phys_shards_ = 1;          // physical queue triples
  uint64_t steals_ = 0;
  size_t parallel_flush_min_ = 64;
  /// Per-shard dirty buckets, reused across PrepareRound calls.
  std::vector<std::vector<WorkflowId>> flush_buckets_;
};

}  // namespace webtx

#endif  // WEBTX_SCHED_POLICIES_ASETS_STAR_SHARDED_H_
