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
class SingleQueuePolicy : public SchedulerPolicy {
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

  /// Number of ready transactions currently queued.
  size_t queue_size() const { return queue_.size(); }

 protected:
  void Reset() override;

  /// Priority key for a ready transaction; smaller runs first.
  virtual double KeyFor(TxnId id, SimTime now) const = 0;

  /// True when KeyFor depends on remaining processing time, so the running
  /// transaction needs a key refresh at scheduling points.
  virtual bool RemainingSensitive() const { return false; }

 private:
  IndexedPriorityQueue queue_;
  /// Scratch for PickNextExcluding's park-and-restore (hoisted so the
  /// hot path stays allocation-free after warm-up).
  std::vector<std::pair<TxnId, double>> parked_;
  /// Scratch for PickBatch's read-only top-k heap walk (ditto).
  IndexedPriorityQueue::TopKScratch frontier_;
};

/// First-Come-First-Served: key = arrival time.
class FcfsPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return "FCFS"; }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
};

/// Earliest-Deadline-First (priority 1/d_i): key = absolute deadline.
/// Optimal when the system can meet every deadline; suffers the domino
/// effect under overload (Sec. III-A1).
class EdfPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return "EDF"; }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
};

/// Shortest-Remaining-Processing-Time (priority 1/r_i): key = remaining
/// time. Optimal for mean response time, hence for tardiness when every
/// deadline is already missed [Schroeder & Harchol-Balter].
class SrptPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return "SRPT"; }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
  bool RemainingSensitive() const override { return true; }
};

/// Least-Slack first (priority 1/s_i) [Abbott & Garcia-Molina]: key =
/// slack d_i - (now + r_i). All slacks shift equally with `now`, so the
/// time-independent key d_i - r_i preserves the ordering.
class LsPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return "LS"; }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
  bool RemainingSensitive() const override { return true; }
};

/// Highest-Density-First (priority w_i/r_i): key = r_i / w_i. Optimal for
/// weighted tardiness when every deadline is already missed
/// [Becchetti et al. 2001]; reduces to SRPT under equal weights.
class HdfPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return "HDF"; }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
  bool RemainingSensitive() const override { return true; }
};

/// Highest-Value-First (priority w_i) [Buttazzo et al. 1995]: key = -w_i.
/// Deadline- and length-oblivious; included as an extra baseline.
class HvfPolicy final : public SingleQueuePolicy {
 public:
  std::string name() const override { return "HVF"; }

 protected:
  double KeyFor(TxnId id, SimTime now) const override;
};

}  // namespace webtx

#endif  // WEBTX_SCHED_POLICIES_SINGLE_QUEUE_POLICIES_H_
