#ifndef WEBTX_SIM_METRICS_H_
#define WEBTX_SIM_METRICS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "sim/fault_plan.h"
#include "txn/transaction.h"

namespace webtx {

/// How a transaction left the system. Every transaction of a run ends
/// in exactly one of these states, so the per-fate counts in RunResult
/// always sum to N (the goodput accounting identity; enforced by
/// tests/property/fault_properties_test.cc and ValidateSchedule).
enum class TxnFate : uint8_t {
  kCompleted = 0,      // finished all of its work
  kShedAdmission,      // rejected by admission control at arrival
  kDroppedRetries,     // aborted max_attempts times, retry budget spent
  kDroppedDependency,  // a (transitive) predecessor was shed or dropped
};

/// Short stable label, e.g. "completed", "shed", for tables and CSVs.
const char* TxnFateName(TxnFate fate);

/// Per-transaction outcome of one simulated run. For non-completed
/// fates, `finish` records the drop/shed instant and the tardiness /
/// response fields stay 0 (they are excluded from the aggregates;
/// missed_deadline is set — a transaction that never finishes has by
/// definition missed its deadline).
struct TxnOutcome {
  SimTime finish = 0.0;
  SimTime tardiness = 0.0;           // max(0, finish - deadline), Def. 3
  SimTime weighted_tardiness = 0.0;  // tardiness * weight
  SimTime response = 0.0;            // finish - arrival
  bool missed_deadline = false;
  TxnFate fate = TxnFate::kCompleted;
  /// Times this transaction was aborted mid-execution (each abort
  /// discards all executed work).
  uint32_t aborts = 0;
  /// Times this transaction was migrated off a crashed server. Whether
  /// the executed work survived each migration is the run-level
  /// MigrationPolicy: warm retains it, cold discards it (cold
  /// migrations bump the segment attempt counter exactly like aborts,
  /// but never consume retry budget).
  uint32_t migrations = 0;
};

/// One contiguous stretch of a transaction executing on a server.
/// `attempt` is the execution attempt the work belonged to (0 before
/// the first work-discarding event); work from attempts before the last
/// one was discarded — by an abort, or by a cold migration off a
/// crashed server — and does not count toward completion.
struct ScheduleSegment {
  TxnId txn = kInvalidTxn;
  uint32_t server = 0;
  SimTime start = 0.0;
  SimTime end = 0.0;
  uint32_t attempt = 0;
};

/// Aggregated result of one simulated run under one policy.
///
/// Failure-aware accounting: tardiness / response aggregates are taken
/// over *completed* transactions only (for failure-free runs this is
/// all N, matching the paper's Definitions 4-5); `goodput` is the
/// fraction of transactions that completed; `miss_ratio` counts, out of
/// all N, completed-but-tardy transactions plus every shed or dropped
/// one.
struct RunResult {
  std::string policy_name;

  std::vector<TxnOutcome> outcomes;

  /// Execution timeline (only when SimOptions::record_schedule is set):
  /// every dispatch-to-preemption/completion stretch, in start order.
  std::vector<ScheduleSegment> schedule;

  // The paper's metrics (Definitions 4 and 5, plus worst case for Fig. 16).
  double avg_tardiness = 0.0;
  double avg_weighted_tardiness = 0.0;
  double max_tardiness = 0.0;
  double max_weighted_tardiness = 0.0;

  // Secondary metrics.
  double miss_ratio = 0.0;     // fraction of transactions past deadline
  double avg_response = 0.0;   // mean response time of completed txns
  SimTime makespan = 0.0;      // finish time of the last completed txn

  // Robustness metrics (all zero for failure-free runs).
  double goodput = 0.0;                 // num_completed / N
  size_t num_completed = 0;
  size_t num_shed = 0;                  // fate kShedAdmission
  size_t num_dropped_retries = 0;       // fate kDroppedRetries
  size_t num_dropped_dependency = 0;    // fate kDroppedDependency
  size_t num_aborts = 0;                // mid-execution aborts injected
  size_t num_retries = 0;               // aborts that re-entered the ready set
  size_t retry_storm_suppressed = 0;    // retry releases clamped at max_backoff
  size_t num_deferrals = 0;             // admission deferrals granted
  size_t num_outages = 0;               // outage windows that began
  size_t num_outage_preemptions = 0;    // running txns preempted by outages
  double total_outage_time = 0.0;       // summed injected window durations
  size_t num_crashes = 0;               // crash windows that began (incl.
                                        // correlated hits)
  size_t num_migrations = 0;            // running txns migrated off crashed
                                        // servers
  double total_repair_time = 0.0;       // summed injected repair durations

  /// Outage windows injected during the run (in begin order; a window
  /// may extend past the makespan). Feed to ValidateSchedule to audit
  /// that nothing executed on a down server.
  std::vector<OutageWindow> outages;

  /// Crash repair windows injected during the run (in begin order;
  /// correlated hits on an already-crashed server append the extension
  /// as its own window, so the union is the exact downtime). Feed to
  /// ValidateSchedule to audit that nothing executed on a crashed
  /// server.
  std::vector<OutageWindow> crashes;

  // Scheduler accounting.
  size_t num_scheduling_points = 0;
  size_t num_preemptions = 0;
  size_t num_idle_decisions = 0;

  /// Fills the aggregate fields from `outcomes` and the specs. Called by
  /// the simulator; exposed for tests and trace post-processing.
  static RunResult FromOutcomes(std::string policy_name,
                                const std::vector<TransactionSpec>& specs,
                                std::vector<TxnOutcome> outcomes);

  /// As FromOutcomes, but leaves `outcomes` with the caller and returns
  /// a result whose `outcomes` vector is empty — the record_outcomes
  /// = false path, where stealing the buffer would defeat a pooled
  /// simulator's scratch reuse. Aggregates are bit-identical to
  /// FromOutcomes of the same data.
  static RunResult FromOutcomesView(std::string policy_name,
                                    const std::vector<TransactionSpec>& specs,
                                    const std::vector<TxnOutcome>& outcomes);
};

}  // namespace webtx

#endif  // WEBTX_SIM_METRICS_H_
