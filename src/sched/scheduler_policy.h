#ifndef WEBTX_SCHED_SCHEDULER_POLICY_H_
#define WEBTX_SCHED_SCHEDULER_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "sched/sim_view.h"
#include "txn/transaction.h"

namespace webtx {

/// Optional sharded-state surface of a policy: every ready transaction
/// (ASETS*: every workflow) is OWNED by one shard (one shard per
/// server), and a transaction placed on a server whose shard does not
/// own it is STOLEN — its ownership moves to the placing shard. The
/// ready set itself stays in the policy's one global queue: ownership is
/// bookkeeping that never reaches a pick, so RunResult digests are
/// byte-identical to the global-state policies (pinned by
/// tests/sim/sharded_differential_test.cc), and steal_count() measures
/// how often k-server rounds move work between servers.
///
/// Protocol, driven by the simulator (see sim/simulator.cc):
///   1. `BindShards(k)` once per run, after SchedulerPolicy::Bind and
///      before any event; a policy whose BindShards is never called
///      behaves as one shard and never steals.
///   2. `OnPlaced(id, server, now)` for every transaction newly
///      dispatched in a multi-server round, in ascending server order.
///      Crash-migration rebinds and admission-deferred re-entries need
///      no extra hook: the transaction keeps its owner until the
///      OnPlaced of its next dispatch.
///   3. `steal_count()` is the number of ownership moves so far this
///      run (reset by BindShards).
class ShardedPolicyState {
 public:
  virtual ~ShardedPolicyState() = default;

  /// Assigns initial owners over `num_shards` shards (clamped to >= 1).
  /// Must be called before any event callback; resets the steal
  /// counter.
  virtual void BindShards(uint32_t num_shards) = 0;

  /// Transaction `id` was dispatched to `server` this round; steals it
  /// into the server's shard if another shard owns it.
  virtual void OnPlaced(TxnId id, uint32_t server, SimTime now) = 0;

  /// Ownership moves performed since BindShards.
  virtual uint64_t steal_count() const = 0;
};

/// Interface every scheduling policy implements.
///
/// The simulator drives a policy through a fixed protocol:
///   1. `Bind(view)` once per run, before any event.
///   2. For each event, in simulated-time order:
///      - `OnArrival(id)` when a transaction enters the system;
///      - `OnReady(id)` when it becomes runnable (at arrival for
///        independent transactions, or when its last dependency finishes);
///      - `OnCompletion(id)` when it finishes;
///      - `OnRemainingUpdated(id)` after the simulator reduces the
///        remaining time of the transaction that was running, at every
///        scheduling point where it did not finish;
///      - `OnDropped(id)` when a transaction the policy has observed
///        leaves the system without completing (load shedding, abort
///        retry budget exhausted, or a failed dependency).
///   3. `PickNext(now)` at every scheduling point (arrival or completion,
///      per Sec. III-A2 of the paper); the returned transaction must be
///      ready, or kInvalidTxn to idle. The chosen transaction runs until
///      the next scheduling point (preemptive at arrivals).
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  SchedulerPolicy(const SchedulerPolicy&) = delete;
  SchedulerPolicy& operator=(const SchedulerPolicy&) = delete;

  /// Display name, e.g. "EDF", "ASETS*".
  virtual std::string name() const = 0;

  /// Attaches the policy to a run and clears all internal state. Must be
  /// called before any event; a policy object can be reused across runs.
  virtual void Bind(const SimView& view) {
    view_ = &view;
    Reset();
  }

  virtual void OnArrival(TxnId id, SimTime now) {
    (void)id;
    (void)now;
  }
  virtual void OnReady(TxnId id, SimTime now) = 0;
  virtual void OnCompletion(TxnId id, SimTime now) = 0;
  virtual void OnRemainingUpdated(TxnId id, SimTime now) {
    (void)id;
    (void)now;
  }

  /// Failure semantics (see sim/simulator.h for the full contract): a
  /// transaction that leaves the system unfinished is dequeued first —
  /// if it was ready, `OnCompletion(id)` fires exactly as for a real
  /// completion (it is the dequeue signal) — and then `OnDropped(id)`
  /// follows so policies that track arrived-but-not-ready state (e.g.
  /// workflow representatives) can refresh. An aborted transaction that
  /// will retry is likewise dequeued via `OnCompletion` and re-announced
  /// with `OnReady` when it re-enters the ready set (its remaining time
  /// reset to the full estimate); no `OnDropped` fires for retries.
  virtual void OnDropped(TxnId id, SimTime now) {
    (void)id;
    (void)now;
  }

  /// A running transaction was migrated off a crashed server (warm: work
  /// retained, the transaction stays ready; cold: work discarded — the
  /// OnCompletion dequeue signal and the OnReady re-announcement have
  /// already fired, exactly as for an abort). Fires after those
  /// callbacks, before the scheduling round at the crash instant, so
  /// policies that cache derived plans (e.g. ASETS* workflow
  /// representatives and heads) can re-derive them from the
  /// post-migration state. Default: no re-planning.
  virtual void OnMigrated(TxnId id, SimTime now) {
    (void)id;
    (void)now;
  }

  /// The transaction to run until the next scheduling point, or
  /// kInvalidTxn when no transaction is ready.
  virtual TxnId PickNext(SimTime now) = 0;

  /// Multi-server extension: the transaction to run on a free server
  /// given that the transactions in `exclude` are already placed on
  /// other servers this scheduling point. The k-server simulator calls
  /// this greedily (exclude grows by one per placed server); with an
  /// empty `exclude` it must equal PickNext. The base implementation
  /// only supports the single-server case; policies opt into
  /// multi-server by overriding.
  virtual TxnId PickNextExcluding(SimTime now,
                                  const std::vector<TxnId>& exclude) {
    WEBTX_CHECK(exclude.empty())
        << name() << " does not support multi-server scheduling";
    return PickNext(now);
  }

  /// One whole multi-server scheduling round: fills `out` (cleared
  /// first) with the picks for up to `k` free servers, in server-slot
  /// order, stopping early when the policy idles. MUST equal the greedy
  /// PickNextExcluding chain — out[i] is exactly what
  /// PickNextExcluding(now, {out[0..i-1]}) would return — which is what
  /// the default does literally, call by call. A policy may override to
  /// skip the chain's per-slot park-and-restore churn. The override need
  /// not be a read-only walk: single-queue policies and ASETS stream the
  /// top k of their lists, while ASETS* re-touches each pick's workflows
  /// once under a growing exclusion set and restores them all at the
  /// end. The override carries the proof burden of byte-identical picks
  /// and of leaving the policy's state as the chain leaves it
  /// (differential-tested against the greedy chain by
  /// tests/sched/pick_excluding_test.cc and every pinned digest).
  virtual void PickBatch(SimTime now, size_t k, std::vector<TxnId>& out) {
    out.clear();
    for (size_t slot = 0; slot < k; ++slot) {
      const TxnId pick = PickNextExcluding(now, out);
      if (pick == kInvalidTxn) break;
      out.push_back(pick);
    }
  }

  /// False when OnRemainingUpdated is a no-op for this policy (its
  /// priority keys ignore remaining processing time), licensing the
  /// simulator to skip the per-scheduling-point refresh calls entirely.
  /// Skipping a no-op cannot change decisions; policies that return
  /// false but do react to the callback are contract violations.
  virtual bool WantsRemainingUpdates() const { return true; }

  /// The policy's sharded-state surface, or null for global-state
  /// policies (the default). The simulator calls this once per Run,
  /// right after Bind, and drives the ShardedPolicyState protocol only
  /// on a non-null result.
  virtual ShardedPolicyState* AsShardedState() { return nullptr; }

 protected:
  SchedulerPolicy() = default;

  /// Clears per-run state. Called by Bind.
  virtual void Reset() = 0;

  const SimView& view() const {
    WEBTX_DCHECK(view_ != nullptr) << "policy used before Bind()";
    return *view_;
  }

 private:
  const SimView* view_ = nullptr;
};

}  // namespace webtx

#endif  // WEBTX_SCHED_SCHEDULER_POLICY_H_
