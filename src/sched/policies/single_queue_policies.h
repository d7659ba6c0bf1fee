#ifndef WEBTX_SCHED_POLICIES_SINGLE_QUEUE_POLICIES_H_
#define WEBTX_SCHED_POLICIES_SINGLE_QUEUE_POLICIES_H_

#include <string>
#include <utility>
#include <vector>

#include "sched/indexed_priority_queue.h"
#include "sched/scheduler_policy.h"

namespace webtx {

/// Base for the classic priority policies of Sec. II-C: one priority queue
/// over the ready transactions, ordered by a per-policy key (smallest key =
/// highest priority). Subclasses provide the key; keys that depend on
/// remaining processing time are refreshed via OnRemainingUpdated.
///
/// Sharded-state variant (factory spec "<name>-sharded"): EnableSharded()
/// before Bind adds per-shard ownership (shard = server, assigned by the
/// simulator via BindShards) over the one queue. A ready transaction is
/// owned by one shard — initially id % num_shards, then the server it
/// was last dispatched to (OnPlaced counts the move as a steal). Picks
/// never read ownership, so schedules are byte-identical to the global
/// variant (pinned by tests/sim/sharded_differential_test.cc).
class SingleQueuePolicy : public SchedulerPolicy,
                          public ShardedPolicyState {
 public:
  void OnReady(TxnId id, SimTime now) override;
  void OnCompletion(TxnId id, SimTime now) override;
  void OnRemainingUpdated(TxnId id, SimTime now) override;
  TxnId PickNext(SimTime now) override;
  TxnId PickNextExcluding(SimTime now,
                          const std::vector<TxnId>& exclude) override;
  void PickBatch(SimTime now, size_t k, std::vector<TxnId>& out) override;
  /// Policies with time-independent keys (FCFS, EDF, HVF) never react to
  /// OnRemainingUpdated, so the simulator may skip the calls outright.
  bool WantsRemainingUpdates() const override { return RemainingSensitive(); }

  /// Opts into the sharded-state protocol; must precede Bind. Called by
  /// the factory for "<name>-sharded" specs.
  void EnableSharded() { sharded_ = true; }

  // ShardedPolicyState (only reachable after EnableSharded):
  ShardedPolicyState* AsShardedState() override {
    return sharded_ ? this : nullptr;
  }
  void BindShards(uint32_t num_shards) override;
  void OnPlaced(TxnId id, uint32_t server, SimTime now) override;
  uint64_t steal_count() const override { return steals_; }

  /// Number of ready transactions currently queued.
  size_t queue_size() const { return queue_.size(); }

 protected:
  void Reset() override;

  /// Priority key for a ready transaction; smaller runs first.
  virtual double KeyFor(TxnId id, SimTime now) const = 0;

  /// True when KeyFor depends on remaining processing time, so the running
  /// transaction needs a key refresh at scheduling points.
  virtual bool RemainingSensitive() const { return false; }

  /// Subclass display name, with the sharded-variant suffix applied.
  std::string DecoratedName(const char* base) const {
    return sharded_ ? std::string(base) + "-sharded" : base;
  }

 private:
  IndexedPriorityQueue queue_;
  std::vector<uint32_t> owner_;  // TxnId -> shard (sharded only)
  uint32_t num_shards_ = 1;
  bool sharded_ = false;
  uint64_t steals_ = 0;
  /// Scratch for PickNextExcluding's park-and-restore (hoisted so the
  /// hot path stays allocation-free after warm-up).
  std::vector<std::pair<TxnId, double>> parked_;
  /// Scratch for PickBatch's read-only top-k heap walk (ditto).
  IndexedPriorityQueue::TopKScratch frontier_;
};

/// First-Come-First-Served: key = arrival time.
class FcfsPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return DecoratedName("FCFS"); }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
};

/// Earliest-Deadline-First (priority 1/d_i): key = absolute deadline.
/// Optimal when the system can meet every deadline; suffers the domino
/// effect under overload (Sec. III-A1).
class EdfPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return DecoratedName("EDF"); }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
};

/// Shortest-Remaining-Processing-Time (priority 1/r_i): key = remaining
/// time. Optimal for mean response time, hence for tardiness when every
/// deadline is already missed [Schroeder & Harchol-Balter].
class SrptPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return DecoratedName("SRPT"); }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
  bool RemainingSensitive() const override { return true; }
};

/// Least-Slack first (priority 1/s_i) [Abbott & Garcia-Molina]: key =
/// slack d_i - (now + r_i). All slacks shift equally with `now`, so the
/// time-independent key d_i - r_i preserves the ordering.
class LsPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return DecoratedName("LS"); }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
  bool RemainingSensitive() const override { return true; }
};

/// Highest-Density-First (priority w_i/r_i): key = r_i / w_i. Optimal for
/// weighted tardiness when every deadline is already missed
/// [Becchetti et al. 2001]; reduces to SRPT under equal weights.
class HdfPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return DecoratedName("HDF"); }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
  bool RemainingSensitive() const override { return true; }
};

/// Highest-Value-First (priority w_i) [Buttazzo et al. 1995]: key = -w_i.
/// Deadline- and length-oblivious; included as an extra baseline.
class HvfPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return DecoratedName("HVF"); }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
};

}  // namespace webtx

#endif  // WEBTX_SCHED_POLICIES_SINGLE_QUEUE_POLICIES_H_
