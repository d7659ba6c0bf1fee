#ifndef WEBTX_TXN_DEPENDENCY_GRAPH_H_
#define WEBTX_TXN_DEPENDENCY_GRAPH_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "txn/transaction.h"

namespace webtx {

/// A read-only view of one contiguous run of ids inside the flat arrays
/// of a DependencyGraph or WorkflowRegistry: one transaction's
/// predecessors, successors or workflows, or one workflow's members.
///
/// Not `std::span`: the library builds as C++20, but the headers under
/// `txn/` are also compiled by code built as C++17 (the benchmark
/// package sets no standard), so they keep to C++17.
///
/// The view borrows the owner's storage: it is valid until the owner is
/// rebuilt, moved from or destroyed.
template <typename Id>
class IdRange {
 public:
  IdRange() = default;
  IdRange(const Id* begin, const Id* end) : begin_(begin), end_(end) {}

  const Id* begin() const { return begin_; }
  const Id* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  const Id& operator[](size_t i) const { return begin_[i]; }

 private:
  const Id* begin_ = nullptr;
  const Id* end_ = nullptr;
};

/// Row `row` of a compressed-sparse-row pair: `ids[offsets[row] ..
/// offsets[row + 1])`.
template <typename Id>
IdRange<Id> CsrRow(const std::vector<size_t>& offsets,
                   const std::vector<Id>& ids, size_t row) {
  return IdRange<Id>(ids.data() + offsets[row],
                     ids.data() + offsets[row + 1]);
}

/// Immutable precedence structure over a set of transactions.
///
/// Edges point from predecessor to dependent: if T_x appears in T_y's
/// dependency list (T_x -> T_y), then `successors(x)` contains y and
/// `predecessors(y)` contains x. The graph must be acyclic; `Build`
/// validates ids, rejects self-dependencies, duplicate edges, and cycles.
///
/// Layout: compressed sparse rows. Each direction is one offsets array
/// (n + 1 entries) plus one flat id array holding every edge, so
/// transaction i's list is `ids[offsets[i] .. offsets[i + 1])`. A build
/// allocates a fixed number of arrays whatever the transaction count,
/// and `Rebuild` refills them in place. Every list ascends by id. Lists
/// are read as IdRange views, not `std::span`, because these headers
/// must stay C++17 (see IdRange).
class DependencyGraph {
 public:
  /// An empty graph; populate with `Rebuild`.
  DependencyGraph() = default;

  /// Validates and builds the graph from per-transaction dependency lists.
  static Result<DependencyGraph> Build(
      const std::vector<TransactionSpec>& txns);

  /// Rebuilds this graph in place from a new transaction set, reusing the
  /// edge, offset and topological-order storage from the previous build
  /// (no allocations once the graph has seen an equal-or-larger set).
  /// Produces exactly the structure `Build` would. Validates in one pass
  /// in id order, so a malformed set reports the error of its lowest
  /// offending id. On error the graph is left in an unspecified state and
  /// must be rebuilt before use.
  Status Rebuild(const std::vector<TransactionSpec>& txns);

  /// The topological order lists every transaction once.
  size_t num_transactions() const { return topo_.size(); }

  /// Direct predecessors (the dependency list), ascending.
  IdRange<TxnId> predecessors(TxnId id) const {
    return CsrRow(pred_offsets_, pred_ids_, id);
  }
  /// Direct dependents, ascending.
  IdRange<TxnId> successors(TxnId id) const {
    return CsrRow(succ_offsets_, succ_ids_, id);
  }

  /// True when the transaction has no predecessors (independent, a workflow
  /// leaf per Sec. II-A).
  bool IsIndependent(TxnId id) const {
    return pred_offsets_[id] == pred_offsets_[id + 1];
  }

  /// True when the transaction appears in no dependency list — a workflow
  /// *root* in the paper's terminology; one workflow is defined per root.
  bool IsRoot(TxnId id) const {
    return succ_offsets_[id] == succ_offsets_[id + 1];
  }

  /// All roots, ascending by id.
  std::vector<TxnId> Roots() const;

  /// A topological order (predecessors before dependents).
  const std::vector<TxnId>& TopologicalOrder() const { return topo_; }

  /// Total number of precedence edges.
  size_t num_edges() const { return pred_ids_.size(); }

 private:
  std::vector<size_t> pred_offsets_;
  std::vector<TxnId> pred_ids_;
  std::vector<size_t> succ_offsets_;
  std::vector<TxnId> succ_ids_;
  std::vector<TxnId> topo_;
  /// Kahn scratch, retained across `Rebuild` calls.
  std::vector<size_t> indeg_;
};

}  // namespace webtx

#endif  // WEBTX_TXN_DEPENDENCY_GRAPH_H_
