#include "sim/sim_workload.h"

#include <algorithm>
#include <string>
#include <utility>

namespace webtx {

Result<SimWorkload> SimWorkload::Build(std::vector<TransactionSpec> txns) {
  SimWorkload workload;
  Status status = workload.Rebuild(txns);
  if (!status.ok()) return status;
  return workload;
}

Status SimWorkload::Rebuild(std::vector<TransactionSpec>& txns) {
  specs_.swap(txns);
  const size_t n = specs_.size();
  for (size_t i = 0; i < n; ++i) {
    const TransactionSpec& t = specs_[i];
    WEBTX_RETURN_NOT_OK(CheckFinite(t));
    if (t.length <= 0.0) {
      return Status::InvalidArgument("T" + std::to_string(i) +
                                     " has non-positive length");
    }
    if (t.arrival < 0.0) {
      return Status::InvalidArgument("T" + std::to_string(i) +
                                     " has negative arrival time");
    }
    if (t.weight <= 0.0) {
      return Status::InvalidArgument("T" + std::to_string(i) +
                                     " has non-positive weight");
    }
    if (t.length_estimate < 0.0) {
      return Status::InvalidArgument("T" + std::to_string(i) +
                                     " has negative length estimate");
    }
  }
  Status graph_status = graph_.Rebuild(specs_);
  if (!graph_status.ok()) return graph_status;
  registry_.Rebuild(graph_);
  arrival_order_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    arrival_order_[i] = static_cast<TxnId>(i);
  }
  // Arrivals are finite, so (arrival, id) is a strict total order and
  // plain sort yields exactly the stable-sort result without its
  // temporary buffer.
  std::sort(arrival_order_.begin(), arrival_order_.end(),
            [this](TxnId a, TxnId b) {
              if (specs_[a].arrival != specs_[b].arrival) {
                return specs_[a].arrival < specs_[b].arrival;
              }
              return a < b;
            });
  return Status::OK();
}

}  // namespace webtx
