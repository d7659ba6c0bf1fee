#include "txn/dependency_graph.h"

#include <algorithm>
#include <string>

namespace webtx {

Result<DependencyGraph> DependencyGraph::Build(
    const std::vector<TransactionSpec>& txns) {
  DependencyGraph g;
  Status status = g.Rebuild(txns);
  if (!status.ok()) return status;
  return g;
}

Status DependencyGraph::Rebuild(const std::vector<TransactionSpec>& txns) {
  const size_t n = txns.size();
  size_t num_edges = 0;
  for (const TransactionSpec& t : txns) num_edges += t.dependencies.size();
  pred_ids_.clear();
  pred_ids_.reserve(num_edges);
  pred_offsets_.resize(n + 1);
  pred_offsets_[0] = 0;
  // succ_offsets_[d] counts d's successors until the fill below.
  succ_offsets_.assign(n + 1, 0);
  // Stays true while every dependency names a lower id; id order is then
  // a topological order, so the set is acyclic.
  bool id_ordered = true;

  for (size_t i = 0; i < n; ++i) {
    if (txns[i].id != static_cast<TxnId>(i)) {
      return Status::InvalidArgument(
          "transaction ids must be dense 0..N-1; slot " + std::to_string(i) +
          " holds id " + std::to_string(txns[i].id));
    }
    const std::vector<TxnId>& deps = txns[i].dependencies;
    const size_t begin = pred_ids_.size();
    pred_ids_.insert(pred_ids_.end(), deps.begin(), deps.end());
    std::sort(pred_ids_.begin() + static_cast<std::ptrdiff_t>(begin),
              pred_ids_.end());
    for (size_t k = begin; k < pred_ids_.size(); ++k) {
      const TxnId d = pred_ids_[k];
      if (d >= n) {
        return Status::InvalidArgument("T" + std::to_string(i) +
                                       " depends on unknown transaction " +
                                       std::to_string(d));
      }
      if (d == static_cast<TxnId>(i)) {
        return Status::InvalidArgument("T" + std::to_string(i) +
                                       " depends on itself");
      }
      if (k > begin && d == pred_ids_[k - 1]) {
        return Status::InvalidArgument("T" + std::to_string(i) +
                                       " lists duplicate dependency " +
                                       std::to_string(d));
      }
      ++succ_offsets_[d];
    }
    // The row ascends, so its last entry is its highest id.
    if (pred_ids_.size() > begin && pred_ids_.back() > i) id_ordered = false;
    pred_offsets_[i + 1] = pred_ids_.size();
  }

  // Transpose into the successor rows. After the running sum
  // succ_offsets_[d] is the end of d's row; filling dependents in
  // descending id order walks each cursor back to its row's start and
  // leaves every row ascending.
  for (size_t d = 1; d < n; ++d) succ_offsets_[d] += succ_offsets_[d - 1];
  succ_offsets_[n] = num_edges;
  succ_ids_.resize(num_edges);
  for (size_t i = n; i-- > 0;) {
    for (const TxnId d : predecessors(static_cast<TxnId>(i))) {
      succ_ids_[--succ_offsets_[d]] = static_cast<TxnId>(i);
    }
  }

  if (id_ordered) return Status::OK();

  // Kahn's algorithm as cycle detection: the order array itself serves
  // as the FIFO frontier (head index walk), and it reaches every
  // transaction only when no cycle holds one back.
  kahn_unmet_.resize(n);
  kahn_order_.clear();
  kahn_order_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    kahn_unmet_[i] =
        static_cast<uint32_t>(pred_offsets_[i + 1] - pred_offsets_[i]);
    if (kahn_unmet_[i] == 0) kahn_order_.push_back(static_cast<TxnId>(i));
  }
  for (size_t head = 0; head < kahn_order_.size(); ++head) {
    for (const TxnId v : successors(kahn_order_[head])) {
      if (--kahn_unmet_[v] == 0) kahn_order_.push_back(v);
    }
  }
  if (kahn_order_.size() != n) {
    return Status::InvalidArgument(
        "dependency lists contain a cycle; workflows must be acyclic");
  }
  return Status::OK();
}

std::vector<TxnId> DependencyGraph::Roots() const {
  std::vector<TxnId> roots;
  for (size_t i = 0; i < num_transactions(); ++i) {
    if (IsRoot(static_cast<TxnId>(i))) roots.push_back(static_cast<TxnId>(i));
  }
  return roots;
}

}  // namespace webtx
