#ifndef WEBTX_SIM_SIM_WORKLOAD_H_
#define WEBTX_SIM_SIM_WORKLOAD_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "txn/dependency_graph.h"
#include "txn/transaction.h"
#include "txn/workflow.h"

namespace webtx {

/// The validated, immutable-per-run workload state a Simulator executes
/// against: the specs plus every structure derived from them (dependency
/// graph, workflow decomposition, arrival order).
///
/// Factored out of the Simulator so several simulators can SHARE one
/// workload without copying it (Simulator::CreateShared) — the digital
/// twin builds one forecast workload per control tick and points every
/// candidate's pooled shadow sim at it — and so the whole bundle can be
/// warm-`Rebuild`ed in place each tick, reusing all derived-structure
/// storage from the previous build (zero steady-state allocations once
/// every flat array has seen an equal-or-larger spec set).
///
/// The arrival order is sorted by AdaptiveSort (common/adaptive_sort.h):
/// linear on nearly sorted arrivals, which generated and twin sets have,
/// and O(n log n) on any other.
///
/// Thread safety: const access is safe from any number of threads (the
/// parallel forecast fan-out reads one workload from all candidate
/// sims); `Rebuild` must be externally quiesced.
class SimWorkload {
 public:
  SimWorkload() = default;

  /// Validates the specs (finite numbers per CheckFinite, dense ids,
  /// acyclic dependencies, positive lengths, non-negative arrivals) and
  /// builds the derived structures.
  static Result<SimWorkload> Build(std::vector<TransactionSpec> txns);

  /// Rebuilds this workload in place from a new spec set, reusing all
  /// derived-structure storage. `txns` is swapped into place: on return,
  /// error or not, it is empty and holds the PREVIOUS build's spec
  /// storage (retained capacity), so a caller ping-ponging one staging
  /// buffer through Rebuild every tick reuses that capacity. On error
  /// the workload is left in an unspecified state and must be rebuilt
  /// before use.
  Status Rebuild(std::vector<TransactionSpec>& txns);

  size_t size() const { return specs_.size(); }
  const std::vector<TransactionSpec>& specs() const { return specs_; }
  const DependencyGraph& graph() const { return graph_; }
  const WorkflowRegistry& workflows() const { return registry_; }
  /// Transaction ids sorted by (arrival, id).
  const std::vector<TxnId>& arrival_order() const { return arrival_order_; }

 private:
  std::vector<TransactionSpec> specs_;
  DependencyGraph graph_;
  WorkflowRegistry registry_;
  std::vector<TxnId> arrival_order_;
};

}  // namespace webtx

#endif  // WEBTX_SIM_SIM_WORKLOAD_H_
