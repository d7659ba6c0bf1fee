// Inspect a workload: distributional statistics of lengths, slacks,
// weights, interarrivals and workflow shapes — either for a generated
// Table-I workload or for a CSV trace.
//
//   $ ./build/examples/workload_inspector --util=0.8 --workflow-len=5
//   $ ./build/examples/workload_inspector --trace=/tmp/trace.csv

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/stats.h"
#include "exp/table.h"
#include "txn/dependency_graph.h"
#include "txn/workflow.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace {

void Describe(const std::vector<webtx::TransactionSpec>& txns) {
  webtx::StreamingStats lengths;
  webtx::StreamingStats weights;
  webtx::StreamingStats slack_ratio;
  webtx::StreamingStats interarrival;
  webtx::QuantileSketch length_q;
  webtx::QuantileSketch slack_q;
  double prev_arrival = 0.0;
  double total_work = 0.0;
  size_t with_deps = 0;
  for (const auto& t : txns) {
    lengths.Add(t.length);
    length_q.Add(t.length);
    weights.Add(t.weight);
    const double slack = t.InitialSlack();
    slack_ratio.Add(slack / t.length);
    slack_q.Add(slack);
    if (t.id > 0) interarrival.Add(t.arrival - prev_arrival);
    prev_arrival = t.arrival;
    total_work += t.length;
    if (!t.dependencies.empty()) ++with_deps;
  }
  const double horizon = txns.empty() ? 0.0 : txns.back().arrival;

  webtx::Table stats({"statistic", "mean", "stddev", "min", "max"});
  const auto row = [&](const std::string& label,
                       const webtx::StreamingStats& s) {
    stats.AddNumericRow(label, {s.mean(), s.stddev(), s.min(), s.max()});
  };
  row("length", lengths);
  row("weight", weights);
  row("initial slack / length", slack_ratio);
  row("interarrival", interarrival);
  stats.Print(std::cout);

  std::cout << "\ntransactions: " << txns.size() << " ("
            << with_deps << " dependent)\n"
            << "total work:   " << webtx::FormatFixed(total_work, 1)
            << " over horizon " << webtx::FormatFixed(horizon, 1)
            << " -> empirical utilization "
            << webtx::FormatFixed(horizon > 0 ? total_work / horizon : 0.0,
                                  3)
            << "\nlength quantiles (p50/p90/p99): "
            << webtx::FormatFixed(length_q.Quantile(0.5), 1) << " / "
            << webtx::FormatFixed(length_q.Quantile(0.9), 1) << " / "
            << webtx::FormatFixed(length_q.Quantile(0.99), 1)
            << "\nslack quantiles  (p10/p50/p90): "
            << webtx::FormatFixed(slack_q.Quantile(0.1), 1) << " / "
            << webtx::FormatFixed(slack_q.Quantile(0.5), 1) << " / "
            << webtx::FormatFixed(slack_q.Quantile(0.9), 1) << "\n";

  auto graph = webtx::DependencyGraph::Build(txns);
  if (!graph.ok()) {
    std::cout << "dependency graph invalid: " << graph.status() << "\n";
    return;
  }
  const auto registry =
      webtx::WorkflowRegistry::Build(graph.ValueOrDie());
  webtx::StreamingStats wf_sizes;
  for (webtx::WorkflowId w = 0; w < registry.num_workflows(); ++w) {
    wf_sizes.Add(static_cast<double>(registry.workflow(w).members.size()));
  }
  std::cout << "workflows:    " << registry.num_workflows()
            << " (mean size " << webtx::FormatFixed(wf_sizes.mean(), 2)
            << ", max " << registry.max_workflow_size() << ", "
            << graph.ValueOrDie().num_edges() << " precedence edges)\n";

  // Precedence/deadline conflicts (Sec. II-B): dependents due before a
  // predecessor — the regime where workflow-aware scheduling pays off.
  size_t conflicts = 0;
  size_t edges = 0;
  for (const auto& t : txns) {
    for (const webtx::TxnId dep : t.dependencies) {
      ++edges;
      if (t.deadline < txns[dep].deadline) ++conflicts;
    }
  }
  if (edges > 0) {
    std::cout << "conflicting precedence edges: " << conflicts << "/"
              << edges << " ("
              << webtx::FormatFixed(
                     100.0 * static_cast<double>(conflicts) /
                         static_cast<double>(edges),
                     1)
              << "%)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  webtx::WorkloadSpec spec;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--util=", 0) == 0) {
      spec.utilization = std::stod(arg.substr(7));
    } else if (arg.rfind("--n=", 0) == 0) {
      spec.num_transactions = std::stoul(arg.substr(4));
    } else if (arg.rfind("--alpha=", 0) == 0) {
      spec.zipf_alpha = std::stod(arg.substr(8));
    } else if (arg.rfind("--kmax=", 0) == 0) {
      spec.k_max = std::stod(arg.substr(7));
    } else if (arg.rfind("--weights=", 0) == 0) {
      spec.max_weight = std::stoul(arg.substr(10));
    } else if (arg.rfind("--workflow-len=", 0) == 0) {
      spec.max_workflow_length = std::stoul(arg.substr(15));
    } else if (arg.rfind("--burstiness=", 0) == 0) {
      spec.burstiness = std::stod(arg.substr(13));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return EXIT_FAILURE;
    }
  }

  std::vector<webtx::TransactionSpec> txns;
  if (!trace_path.empty()) {
    auto loaded = webtx::ReadTrace(trace_path);
    if (!loaded.ok()) {
      std::cerr << loaded.status() << "\n";
      return EXIT_FAILURE;
    }
    txns = std::move(loaded).ValueOrDie();
    std::cout << "trace " << trace_path << ":\n\n";
  } else {
    auto generator = webtx::WorkloadGenerator::Create(spec);
    if (!generator.ok()) {
      std::cerr << generator.status() << "\n";
      return EXIT_FAILURE;
    }
    txns = generator.ValueOrDie().Generate(seed);
    std::cout << "generated workload (seed " << seed << "):\n\n";
  }
  Describe(txns);
  return EXIT_SUCCESS;
}
