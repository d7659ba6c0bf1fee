#include "sched/policies/single_queue_policies.h"

#include <algorithm>
#include <utility>

namespace webtx {

void SingleQueuePolicy::Reset() {
  queue_.Clear();
}

void SingleQueuePolicy::OnReady(TxnId id, SimTime now) {
  queue_.Push(id, KeyFor(id, now));
}

void SingleQueuePolicy::OnCompletion(TxnId id, SimTime now) {
  (void)now;
  const bool present = queue_.Erase(id);
  WEBTX_DCHECK(present) << "completed transaction was not queued";
}

void SingleQueuePolicy::OnRemainingUpdated(TxnId id, SimTime now) {
  if (!RemainingSensitive()) return;
  if (queue_.Contains(id)) queue_.Update(id, KeyFor(id, now));
}

TxnId SingleQueuePolicy::PickNext(SimTime now) {
  (void)now;
  return queue_.empty() ? kInvalidTxn : queue_.Top();
}

TxnId SingleQueuePolicy::PickNextExcluding(
    SimTime now, const std::vector<TxnId>& exclude) {
  (void)now;
  // Park excluded tops aside, take the first admissible one, restore
  // each parked entry with its key intact.
  parked_.clear();
  TxnId found = kInvalidTxn;
  while (!queue_.empty()) {
    const TxnId top = queue_.Top();
    if (std::find(exclude.begin(), exclude.end(), top) == exclude.end()) {
      found = top;
      break;
    }
    parked_.emplace_back(top, queue_.TopKey());
    queue_.Pop();
  }
  for (const auto& [id, key] : parked_) queue_.Push(id, key);
  return found;
}

void SingleQueuePolicy::PickBatch(SimTime now, size_t k,
                                  std::vector<TxnId>& out) {
  (void)now;
  // In the greedy PickNextExcluding chain the slot-i exclude set is
  // exactly the i previous picks, which are exactly the i least (key,
  // id) entries — so each call parks precisely those i entries and
  // returns the (i+1)-least. The whole round is therefore the k least
  // entries in pop order: identical picks, read off the heap by a
  // read-only top-k walk — no pops, no restores, no heap writes at all
  // (sched/indexed_priority_queue.h).
  out.clear();
  queue_.AppendTopK(k, out, frontier_);
}

double FcfsPolicy::KeyFor(TxnId id, SimTime now) const {
  (void)now;
  return view().specs()[id].arrival;
}

double EdfPolicy::KeyFor(TxnId id, SimTime now) const {
  (void)now;
  return view().specs()[id].deadline;
}

double SrptPolicy::KeyFor(TxnId id, SimTime now) const {
  (void)now;
  return view().remaining(id);
}

double LsPolicy::KeyFor(TxnId id, SimTime now) const {
  (void)now;
  // Slack ordering is invariant to the common `now` term.
  return view().specs()[id].deadline - view().remaining(id);
}

double HdfPolicy::KeyFor(TxnId id, SimTime now) const {
  (void)now;
  return view().remaining(id) / view().specs()[id].weight;
}

double HvfPolicy::KeyFor(TxnId id, SimTime now) const {
  (void)now;
  return -view().specs()[id].weight;
}

}  // namespace webtx
