#ifndef WEBTX_TXN_TRANSACTION_H_
#define WEBTX_TXN_TRANSACTION_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"

namespace webtx {

/// Dense transaction identifier; transactions in a workload are numbered
/// 0..N-1.
using TxnId = uint32_t;

/// Sentinel for "no transaction" (e.g., an idle scheduling decision).
inline constexpr TxnId kInvalidTxn = std::numeric_limits<TxnId>::max();

/// Static description of one web transaction (paper Definition 1).
///
/// A transaction materializes one content fragment of a dynamic web page.
/// `deadline` is absolute (the fragment's SLA mapped to simulated time),
/// `length` is the total processing requirement, `weight` the fragment's
/// importance, and `dependencies` the immediate predecessor list l_i: this
/// transaction is ready only after every listed transaction has finished.
struct TransactionSpec {
  TxnId id = kInvalidTxn;
  SimTime arrival = 0.0;
  SimTime length = 0.0;
  SimTime deadline = 0.0;
  double weight = 1.0;
  std::vector<TxnId> dependencies;

  /// The scheduler's a-priori estimate of `length` ("typically computed
  /// by the system based on previous statistics and profiles",
  /// Sec. II-A). 0 (default) means the estimate is exact. The simulator
  /// completes transactions after `length` time units but shows policies
  /// estimate-derived remaining times — see SimView::remaining.
  SimTime length_estimate = 0.0;

  /// The estimate the scheduler plans with.
  SimTime EstimateOrLength() const {
    return length_estimate > 0.0 ? length_estimate : length;
  }

  /// Slack at time `t` given remaining processing time `remaining`
  /// (paper Definition 2): s_i = d_i - (t + r_i).
  SimTime SlackAt(SimTime t, SimTime remaining) const {
    return deadline - (t + remaining);
  }

  /// Initial slack at arrival: d_i - a_i - l_i.
  SimTime InitialSlack() const { return deadline - arrival - length; }

  std::string DebugString() const;
};

/// Rejects a spec carrying a number no schedule can use: NaN in any
/// field, or an infinite arrival, length, length estimate or weight. An
/// infinite deadline stays legal (the transaction has no due date). The
/// error names the transaction by its id. Range checks (positive length,
/// non-negative arrival, ...) are the simulator's (SimWorkload::Rebuild).
Status CheckFinite(const TransactionSpec& t);

/// Tardiness of a finished transaction (paper Definition 3):
/// max(0, finish - deadline).
inline SimTime TardinessOf(SimTime finish, SimTime deadline) {
  const SimTime t = finish - deadline;
  return t > 0.0 ? t : 0.0;
}

}  // namespace webtx

#endif  // WEBTX_TXN_TRANSACTION_H_
