#include "sim/metrics.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace webtx {

const char* TxnFateName(TxnFate fate) {
  switch (fate) {
    case TxnFate::kCompleted:
      return "completed";
    case TxnFate::kShedAdmission:
      return "shed";
    case TxnFate::kDroppedRetries:
      return "dropped-retries";
    case TxnFate::kDroppedDependency:
      return "dropped-dependency";
  }
  WEBTX_CHECK(false) << "unknown TxnFate "
                     << static_cast<unsigned>(fate);
  return "?";
}

RunResult RunResult::FromOutcomes(std::string policy_name,
                                  const std::vector<TransactionSpec>& specs,
                                  std::vector<TxnOutcome> outcomes) {
  RunResult r = FromOutcomesView(std::move(policy_name), specs, outcomes);
  r.outcomes = std::move(outcomes);
  return r;
}

RunResult RunResult::FromOutcomesView(
    std::string policy_name, const std::vector<TransactionSpec>& specs,
    const std::vector<TxnOutcome>& outcomes,
    const std::vector<char>* resolved) {
  WEBTX_CHECK_EQ(specs.size(), outcomes.size());
  if (resolved != nullptr) {
    WEBTX_CHECK_EQ(resolved->size(), outcomes.size());
  }
  RunResult r;
  r.policy_name = std::move(policy_name);
  const size_t n = outcomes.size();
  if (n == 0) return r;

  // Tardiness / response aggregates run over completed transactions only;
  // a shed or dropped transaction has no finish time to measure, it is
  // instead counted against goodput and the miss ratio.
  double sum_t = 0.0;
  double sum_wt = 0.0;
  double sum_resp = 0.0;
  size_t missed = 0;
  size_t num_resolved = 0;
  for (size_t i = 0; i < n; ++i) {
    const TxnOutcome& o = outcomes[i];
    // Per-event counters accumulate as they happen, so they are valid
    // even for transactions still in flight at a horizon cutoff.
    r.num_aborts += o.aborts;
    r.num_migrations += o.migrations;
    if (resolved != nullptr && !(*resolved)[i]) {
      ++missed;  // not completed by the cutoff
      continue;
    }
    ++num_resolved;
    switch (o.fate) {
      case TxnFate::kCompleted:
        ++r.num_completed;
        break;
      case TxnFate::kShedAdmission:
        ++r.num_shed;
        break;
      case TxnFate::kDroppedRetries:
        ++r.num_dropped_retries;
        break;
      case TxnFate::kDroppedDependency:
        ++r.num_dropped_dependency;
        break;
    }
    if (o.fate != TxnFate::kCompleted) {
      ++missed;
      continue;
    }
    sum_t += o.tardiness;
    sum_wt += o.weighted_tardiness;
    sum_resp += o.response;
    if (o.missed_deadline) ++missed;
    r.max_tardiness = std::max(r.max_tardiness, o.tardiness);
    r.max_weighted_tardiness =
        std::max(r.max_weighted_tardiness, o.weighted_tardiness);
    r.makespan = std::max(r.makespan, o.finish);
  }
  WEBTX_CHECK_EQ(r.num_completed + r.num_shed + r.num_dropped_retries +
                     r.num_dropped_dependency,
                 num_resolved)
      << "per-fate counts must partition the resolved transactions";
  const auto dc = static_cast<double>(std::max<size_t>(r.num_completed, 1));
  r.avg_tardiness = sum_t / dc;
  r.avg_weighted_tardiness = sum_wt / dc;
  r.avg_response = sum_resp / dc;
  r.miss_ratio = static_cast<double>(missed) / static_cast<double>(n);
  r.goodput = static_cast<double>(r.num_completed) / static_cast<double>(n);
  return r;
}

}  // namespace webtx
