#ifndef WEBTX_SIM_SCHEDULE_VALIDATOR_H_
#define WEBTX_SIM_SCHEDULE_VALIDATOR_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "txn/transaction.h"

namespace webtx {

/// Inputs for auditing a recorded timeline. Pass `result.outages` and
/// `result.crashes` through so the validator can audit the injected
/// fault plan.
struct ValidationOptions {
  size_t num_servers = 1;
  /// Server outage windows that held during the run (usually
  /// RunResult::outages); no segment may intersect a window of its
  /// server.
  std::vector<OutageWindow> outages;
  /// Crash repair windows that held during the run (usually
  /// RunResult::crashes); no segment may intersect a window of its
  /// server.
  std::vector<OutageWindow> crashes;
  /// Migration policy the run executed under: decides whether a
  /// migration starts a new execution attempt (cold zeroes the work)
  /// or not (warm conserves it) — check 5 audits the recorded segments
  /// against exactly that accounting.
  MigrationPolicy migration = MigrationPolicy::kWarm;
};

/// Independently audits a recorded execution timeline against the
/// workload — a second implementation of the simulation rules used to
/// cross-check the simulator itself (run with
/// SimOptions::record_schedule and record_outcomes enabled):
///
///   1. every segment has positive duration and a valid server index;
///   2. segments on one server never overlap;
///   3. a transaction never runs on two servers at once;
///   4. no transaction runs before its arrival;
///   5. a COMPLETED transaction's final attempt executes exactly its
///      length, ending at its recorded finish — work from earlier
///      attempts, discarded by an abort or (under cold failover) a
///      migration, never counts; under warm failover migrations
///      conserve work, so they must NOT start a new attempt;
///   6. precedence: a transaction starts only after every dependency's
///      recorded finish, and a dependent of a shed/dropped transaction
///      is itself dropped (fate kDroppedDependency) and never runs
///      after the drop;
///   7. no segment intersects an outage or crash repair window of its
///      server;
///   8. every non-completed transaction carries a non-kCompleted fate
///      (a recorded cause) and completed ones carry kCompleted, with
///      the RunResult per-fate and per-event counters matching the
///      outcomes — the goodput/shed/drop partition accounts for every
///      transaction.
///
/// Returns OK or a FailedPrecondition describing the first violation;
/// the message always carries the timestamps, server, and transaction
/// ids involved, so a failing case is locatable without a debugger.
/// Segments are accepted in any order; checks 1, 4 and 7 report the
/// first violating segment in `result.schedule` order, and check 7 the
/// first window in list order (outages before crashes).
///
/// Costs O(n + S + W) memory and O(n + S log S + W log W) time for n
/// transactions, S segments and W windows (plus one pass over the
/// dependency lists): segments are filed in flat per-server and
/// per-transaction rows, and each segment looks up only its own
/// server's windows.
Status ValidateSchedule(const std::vector<TransactionSpec>& specs,
                        const RunResult& result,
                        const ValidationOptions& options);

/// Failure-free convenience overload (no outage/crash windows).
Status ValidateSchedule(const std::vector<TransactionSpec>& specs,
                        const RunResult& result, size_t num_servers);

}  // namespace webtx

#endif  // WEBTX_SIM_SCHEDULE_VALIDATOR_H_
