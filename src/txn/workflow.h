#ifndef WEBTX_TXN_WORKFLOW_H_
#define WEBTX_TXN_WORKFLOW_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "txn/dependency_graph.h"
#include "txn/transaction.h"

namespace webtx {

/// Dense workflow identifier (0..num_workflows-1).
using WorkflowId = uint32_t;

inline constexpr WorkflowId kInvalidWorkflow =
    std::numeric_limits<WorkflowId>::max();

/// One workflow as defined in Sec. II-A: for every *root* transaction (a
/// transaction appearing in no dependency list) the workflow contains the
/// root plus every transaction reachable backwards through dependency
/// lists. A transaction can belong to several workflows.
///
/// A value handed out by WorkflowRegistry::workflow; `members` borrows the
/// registry's storage (see IdRange).
struct Workflow {
  WorkflowId id = kInvalidWorkflow;
  TxnId root = kInvalidTxn;
  /// All member transactions (including the root), ascending by id.
  IdRange<TxnId> members;
};

/// Workflow decomposition of a transaction set: the list of workflows plus
/// the inverse map transaction -> workflows it belongs to.
///
/// Layout: compressed sparse rows, as in DependencyGraph. Workflow w's
/// members are one row of a flat member array (one offsets array over
/// the workflows), and transaction t's workflows are one row of a flat
/// inverse array (one offsets array over the transactions); `Rebuild`
/// refills all four arrays in place. Workflows are numbered in ascending
/// root order, members ascend by id, and each transaction's workflows
/// ascend by id. Lists are read as IdRange views (C++17, not
/// `std::span`; see IdRange). Offsets are `size_t`, not 32-bit:
/// membership totals can grow quadratically in the transaction count
/// (many roots over one long chain), and a 32-bit offset could wrap.
class WorkflowRegistry {
 public:
  /// Builds the registry by backward reachability from every root of `graph`.
  static WorkflowRegistry Build(const DependencyGraph& graph);

  /// Rebuilds this registry in place for a new graph, reusing all storage
  /// from the previous build (no allocations once the registry has seen an
  /// equal-or-larger decomposition). Produces exactly the decomposition
  /// `Build` would.
  void Rebuild(const DependencyGraph& graph);

  size_t num_workflows() const { return roots_.size(); }
  Workflow workflow(WorkflowId id) const {
    return Workflow{id, roots_[id], CsrRow(member_offsets_, member_ids_, id)};
  }

  /// Workflows the transaction belongs to (ascending).
  IdRange<WorkflowId> WorkflowsOf(TxnId id) const {
    return CsrRow(txn_offsets_, txn_workflows_, id);
  }

  /// Largest workflow size in the registry (useful for sizing scratch
  /// buffers; workflows are expected to be small, <= ~10 per Sec. IV-A).
  size_t max_workflow_size() const { return max_workflow_size_; }

 private:
  std::vector<TxnId> roots_;
  std::vector<size_t> member_offsets_;
  std::vector<TxnId> member_ids_;
  std::vector<size_t> txn_offsets_;
  std::vector<WorkflowId> txn_workflows_;
  size_t max_workflow_size_ = 0;
  /// DFS scratch, retained across `Rebuild` calls. `visited_` holds the
  /// stamp of the last DFS that reached the transaction, so per-root
  /// clearing is one counter bump instead of an O(n) fill. The stamps are
  /// 64-bit, so they do not wrap however many rebuilds a registry sees.
  std::vector<uint64_t> visited_;
  std::vector<TxnId> stack_;
  uint64_t stamp_ = 0;
};

}  // namespace webtx

#endif  // WEBTX_TXN_WORKFLOW_H_
