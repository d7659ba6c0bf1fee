#ifndef WEBTX_WORKLOAD_TRACE_H_
#define WEBTX_WORKLOAD_TRACE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "txn/transaction.h"

namespace webtx {

/// CSV trace persistence so workloads can be captured, inspected and
/// replayed (see examples/trace_replay.cc).
///
/// Format (header required):
///   id,arrival,length,estimate,deadline,weight,deps
/// where `estimate` is the scheduler's length estimate (0 = exact) and
/// `deps` is a ';'-separated list of predecessor ids (empty when the
/// transaction is independent). Lines starting with '#' are comments.
Status WriteTrace(const std::string& path,
                  const std::vector<TransactionSpec>& txns);

/// Parses a trace written by WriteTrace. Validates density of ids, field
/// syntax, finite numbers (CheckFinite) and that every dependency id fits
/// in a TxnId; dependency-graph validity is checked later by
/// Simulator::Create.
Result<std::vector<TransactionSpec>> ReadTrace(const std::string& path);

}  // namespace webtx

#endif  // WEBTX_WORKLOAD_TRACE_H_
