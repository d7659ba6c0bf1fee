#ifndef WEBTX_TESTS_TESTING_FAKE_VIEW_H_
#define WEBTX_TESTS_TESTING_FAKE_VIEW_H_

#include <utility>
#include <vector>

#include "common/check.h"
#include "sched/sim_view.h"
#include "txn/dependency_graph.h"
#include "txn/transaction.h"
#include "txn/workflow.h"

namespace webtx::testing {

/// A hand-driven SimView for policy unit tests: the test sets arrival /
/// ready / finished flags and remaining times directly, with no simulator
/// in the loop.
class FakeView final : public SimView {
 public:
  explicit FakeView(std::vector<TransactionSpec> txns)
      : specs_(std::move(txns)),
        graph_(DependencyGraph::Build(specs_).ValueOrDie()),
        registry_(WorkflowRegistry::Build(graph_)) {
    const size_t n = specs_.size();
    remaining_.resize(n);
    arrived_.assign(n, 0);
    finished_.assign(n, 0);
    for (size_t i = 0; i < n; ++i) remaining_[i] = specs_[i].length;
  }

  // Test-side mutators. Arrive, Finish and ArriveAll keep
  // ready_transactions() current.
  void Arrive(TxnId id) {
    arrived_[id] = 1;
    RebuildReadyList();
  }
  void Finish(TxnId id) {
    finished_[id] = 1;
    remaining_[id] = 0.0;
    RebuildReadyList();
  }
  void SetRemaining(TxnId id, SimTime r) { remaining_[id] = r; }
  void ArriveAll() {
    for (size_t i = 0; i < specs_.size(); ++i) arrived_[i] = 1;
    RebuildReadyList();
  }

  /// Recomputes the ready list from flags + dependency state. Call after
  /// mutating flags directly.
  void RebuildReadyList() {
    ready_.clear();
    for (size_t i = 0; i < specs_.size(); ++i) {
      const auto id = static_cast<TxnId>(i);
      if (IsReady(id)) ready_.push_back(id);
    }
  }

  // SimView:
  const std::vector<TransactionSpec>& specs() const override {
    return specs_;
  }
  const DependencyGraph& graph() const override { return graph_; }
  const WorkflowRegistry& workflows() const override { return registry_; }
  SimTime remaining(TxnId id) const override { return remaining_[id]; }
  bool IsArrived(TxnId id) const override { return arrived_[id] != 0; }
  bool IsFinished(TxnId id) const override { return finished_[id] != 0; }
  bool IsReady(TxnId id) const override {
    if (!arrived_[id] || finished_[id]) return false;
    for (const TxnId dep : graph_.predecessors(id)) {
      if (!finished_[dep]) return false;
    }
    return true;
  }
  const std::vector<TxnId>& ready_transactions() const override {
    return ready_;
  }

 private:
  std::vector<TransactionSpec> specs_;
  DependencyGraph graph_;
  WorkflowRegistry registry_;
  std::vector<SimTime> remaining_;
  std::vector<char> arrived_;
  std::vector<char> finished_;
  std::vector<TxnId> ready_;
};

/// Shorthand builder for a TransactionSpec in tests.
inline TransactionSpec Txn(TxnId id, SimTime arrival, SimTime length,
                           SimTime deadline, double weight = 1.0,
                           std::vector<TxnId> deps = {}) {
  TransactionSpec t;
  t.id = id;
  t.arrival = arrival;
  t.length = length;
  t.deadline = deadline;
  t.weight = weight;
  t.dependencies = std::move(deps);
  return t;
}

}  // namespace webtx::testing

#endif  // WEBTX_TESTS_TESTING_FAKE_VIEW_H_
