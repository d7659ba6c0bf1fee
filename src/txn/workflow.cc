#include "txn/workflow.h"

#include <algorithm>

namespace webtx {

WorkflowRegistry WorkflowRegistry::Build(const DependencyGraph& graph) {
  WorkflowRegistry registry;
  registry.Rebuild(graph);
  return registry;
}

void WorkflowRegistry::Rebuild(const DependencyGraph& graph) {
  const size_t n = graph.num_transactions();
  roots_.clear();
  member_offsets_.assign(1, 0);
  member_ids_.clear();
  // Every transaction belongs to at least one workflow.
  member_ids_.reserve(n);
  if (visited_.size() < n) visited_.resize(n, 0);
  max_workflow_size_ = 0;

  // One workflow per root, in ascending root order (matching
  // DependencyGraph::Roots).
  for (size_t i = 0; i < n; ++i) {
    const TxnId root = static_cast<TxnId>(i);
    if (!graph.IsRoot(root)) continue;
    roots_.push_back(root);
    const size_t begin = member_ids_.size();
    const uint64_t stamp = ++stamp_;
    stack_.clear();
    stack_.push_back(root);
    visited_[root] = stamp;
    while (!stack_.empty()) {
      const TxnId u = stack_.back();
      stack_.pop_back();
      member_ids_.push_back(u);
      for (const TxnId p : graph.predecessors(u)) {
        if (visited_[p] != stamp) {
          visited_[p] = stamp;
          stack_.push_back(p);
        }
      }
    }
    std::sort(member_ids_.begin() + static_cast<std::ptrdiff_t>(begin),
              member_ids_.end());
    max_workflow_size_ =
        std::max(max_workflow_size_, member_ids_.size() - begin);
    member_offsets_.push_back(member_ids_.size());
  }

  // Invert into the per-transaction rows: count each transaction's
  // workflows, run the sum so txn_offsets_[t] is the end of t's row, then
  // fill workflows in descending id order, which walks each cursor back to
  // its row's start and leaves every row ascending.
  txn_offsets_.assign(n + 1, 0);
  for (const TxnId m : member_ids_) ++txn_offsets_[m];
  for (size_t t = 1; t < n; ++t) txn_offsets_[t] += txn_offsets_[t - 1];
  txn_offsets_[n] = member_ids_.size();
  txn_workflows_.resize(member_ids_.size());
  for (size_t w = roots_.size(); w-- > 0;) {
    for (const TxnId m : CsrRow(member_offsets_, member_ids_, w)) {
      txn_workflows_[--txn_offsets_[m]] = static_cast<WorkflowId>(w);
    }
  }
}

}  // namespace webtx
