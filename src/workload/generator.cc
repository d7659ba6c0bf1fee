#include "workload/generator.h"

#include <algorithm>

#include "common/check.h"
#include "common/distributions.h"
#include "workload/arrival_process.h"

namespace webtx {

Result<WorkloadGenerator> WorkloadGenerator::Create(const WorkloadSpec& spec) {
  WEBTX_RETURN_NOT_OK(spec.Validate());
  return WorkloadGenerator(spec);
}

namespace {

/// A workflow chain under construction (generator-internal).
struct OpenChain {
  size_t target_length;
  size_t current_length = 0;
  TxnId last = kInvalidTxn;
  SimTime opened_at = 0.0;  // page-request instant for batch arrivals
  SimTime frontier = 0.0;   // earliest possible finish of the last member
};

}  // namespace

std::vector<TransactionSpec> WorkloadGenerator::Generate(uint64_t seed) const {
  Rng rng(seed);
  const size_t n = spec_.num_transactions;
  std::vector<TransactionSpec> txns(n);

  const ZipfDistribution length_dist(spec_.max_length - spec_.min_length + 1,
                                     spec_.zipf_alpha);
  const std::unique_ptr<ArrivalProcess> arrivals =
      MakeArrivalProcess(spec_.ArrivalRate(), spec_.burstiness);
  const UniformRealDistribution slack_factor(0.0, spec_.k_max);
  const UniformIntDistribution weight_dist(spec_.min_weight,
                                           spec_.max_weight);
  const UniformIntDistribution chain_length_dist(
      1, static_cast<uint64_t>(spec_.max_workflow_length));
  const UniformIntDistribution chains_per_txn_dist(
      1, static_cast<uint64_t>(spec_.max_workflows_per_txn));

  // Pass 1: lengths, raw arrival instants, slack factors, weights. The
  // slack factor k_i waits in `deadline` until pass 2 knows the earliest
  // finish. Estimates draw from an independent stream so the base
  // workload is bit-identical across estimate_error settings (an error
  // sweep then isolates the estimation effect).
  Rng estimate_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const UniformRealDistribution estimate_factor(1.0 - spec_.estimate_error,
                                                1.0 + spec_.estimate_error);
  for (size_t i = 0; i < n; ++i) {
    TransactionSpec& t = txns[i];
    t.id = static_cast<TxnId>(i);
    t.length = static_cast<SimTime>(spec_.min_length - 1 +
                                    length_dist.Sample(rng));
    t.arrival = arrivals->Next(rng);
    t.deadline = slack_factor.Sample(rng);
    t.weight = static_cast<double>(weight_dist.Sample(rng));
    if (spec_.estimate_error > 0.0) {
      t.length_estimate =
          std::max(0.1, t.length * estimate_factor.Sample(estimate_rng));
    }
  }

  // Pass 2: workflow topology and deadlines. Chains are built in arrival
  // order; with max_workflow_length == 1 every chain closes at its first
  // member, so all transactions stay independent. Edges always point
  // from earlier to later transactions, hence acyclic by construction.
  std::vector<OpenChain> open;
  std::vector<size_t> joined;  // indices into `open` chosen for this txn
  std::vector<TxnId> tails;    // the joined chains' last members
  for (size_t i = 0; i < n; ++i) {
    TransactionSpec& t = txns[i];
    const size_t want =
        static_cast<size_t>(chains_per_txn_dist.Sample(rng));
    joined.clear();
    // Choose `want` distinct open chains uniformly; open new ones if short.
    while (joined.size() < want && joined.size() < open.size()) {
      const size_t pick = static_cast<size_t>(
          rng.NextInRange(0, static_cast<uint64_t>(open.size() - 1)));
      if (std::find(joined.begin(), joined.end(), pick) == joined.end()) {
        joined.push_back(pick);
      }
    }
    while (joined.size() < want) {
      open.push_back(OpenChain{
          static_cast<size_t>(chain_length_dist.Sample(rng)), 0,
          kInvalidTxn, t.arrival, 0.0});
      joined.push_back(open.size() - 1);
    }

    SimTime batched_arrival = t.arrival;
    SimTime pred_frontier = 0.0;
    tails.clear();
    for (const size_t c : joined) {
      OpenChain& chain = open[c];
      if (chain.last != kInvalidTxn) {
        tails.push_back(chain.last);
        pred_frontier = std::max(pred_frontier, chain.frontier);
      }
      batched_arrival = std::min(batched_arrival, chain.opened_at);
    }
    // Two chains can share the same tail, so the dependency list is the
    // deduplicated tails, allocated once at its final size.
    std::sort(tails.begin(), tails.end());
    tails.erase(std::unique(tails.begin(), tails.end()), tails.end());
    t.dependencies.assign(tails.begin(), tails.end());
    if (spec_.batch_workflow_arrivals) {
      // Page-request semantics: the transaction is submitted when the
      // earliest workflow it belongs to was requested.
      t.arrival = batched_arrival;
    }
    // Earliest possible finish given predecessors. Path-aware deadline:
    // d_i = E_i + k_i * l_i (reduces to the Table-I formula for
    // independent transactions, where E_i = a_i + l_i); own-length: the
    // literal Table-I formula.
    const SimTime earliest_finish =
        std::max(t.arrival, pred_frontier) + t.length;
    const SimTime base = spec_.deadline_model == DeadlineModel::kPathAware
                             ? earliest_finish
                             : t.arrival + t.length;
    t.deadline = base + t.deadline * t.length;
    for (const size_t c : joined) {
      OpenChain& chain = open[c];
      chain.last = static_cast<TxnId>(i);
      ++chain.current_length;
      chain.frontier = earliest_finish;
    }

    // Close finished chains (erase by swap; order within `open` is
    // irrelevant to the distribution).
    for (size_t c = open.size(); c-- > 0;) {
      if (open[c].current_length >= open[c].target_length) {
        open[c] = open.back();
        open.pop_back();
      }
    }
  }

  return txns;
}

}  // namespace webtx
