#include "sched/policy_factory.h"

#include <utility>

#include "common/csv.h"
#include "sched/policies/asets.h"
#include "sched/policies/asets_star.h"
#include "sched/policies/asets_star_sharded.h"
#include "sched/policies/balance_aware.h"
#include "sched/policies/mix.h"
#include "sched/policies/single_queue_policies.h"

namespace webtx {

namespace {

std::unique_ptr<SchedulerPolicy> CreatePlain(const std::string& name) {
  if (name == "FCFS") return std::make_unique<FcfsPolicy>();
  if (name == "EDF") return std::make_unique<EdfPolicy>();
  if (name == "SRPT") return std::make_unique<SrptPolicy>();
  if (name == "LS") return std::make_unique<LsPolicy>();
  if (name == "HDF") return std::make_unique<HdfPolicy>();
  if (name == "HVF") return std::make_unique<HvfPolicy>();
  if (name == "ASETS") return std::make_unique<AsetsPolicy>();
  if (name == "Ready") return std::make_unique<ReadyPolicy>();
  if (name == "ASETS*") return std::make_unique<AsetsStarPolicy>();
  return nullptr;
}

/// "<base>-sharded": the sharded-state implementation variant of `base`
/// (see ShardedPolicyState in sched/scheduler_policy.h). Byte-identical
/// schedules to the base policy — pinned by the sharded differential
/// matrix — so these are NOT distinct policies and stay out of
/// KnownPolicyNames().
std::unique_ptr<SchedulerPolicy> CreateSharded(const std::string& base) {
  if (base == "ASETS*") return std::make_unique<AsetsStarShardedPolicy>();
  auto inner = CreatePlain(base);
  if (auto* sq = dynamic_cast<SingleQueuePolicy*>(inner.get())) {
    sq->EnableSharded();
    return inner;
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<SchedulerPolicy>> CreatePolicy(
    const std::string& spec) {
  // Sharded-state variant: "<base>-sharded".
  const std::string sharded_suffix = "-sharded";
  if (spec.size() > sharded_suffix.size() &&
      spec.compare(spec.size() - sharded_suffix.size(),
                   sharded_suffix.size(), sharded_suffix) == 0) {
    const std::string base =
        spec.substr(0, spec.size() - sharded_suffix.size());
    auto policy = CreateSharded(base);
    if (policy == nullptr) {
      return Status::NotFound("policy '" + base +
                              "' has no sharded-state variant");
    }
    return policy;
  }

  // MIX with an explicit blend: "MIX(<beta>)"; bare "MIX" uses beta=0.5.
  if (spec == "MIX") {
    return std::unique_ptr<SchedulerPolicy>(std::make_unique<MixPolicy>());
  }
  if (spec.rfind("MIX(", 0) == 0 && spec.back() == ')') {
    WEBTX_ASSIGN_OR_RETURN(
        const double beta, ParseDouble(spec.substr(4, spec.size() - 5)));
    if (beta < 0.0 || beta > 1.0) {
      return Status::InvalidArgument("MIX beta must be in [0, 1]: " + spec);
    }
    return std::unique_ptr<SchedulerPolicy>(
        std::make_unique<MixPolicy>(beta));
  }

  // Balance-aware wrapper syntax: "<inner>-BA(<mode>=<rate>)".
  const std::string marker = "-BA(";
  const size_t pos = spec.find(marker);
  if (pos != std::string::npos) {
    if (spec.empty() || spec.back() != ')') {
      return Status::InvalidArgument("malformed policy spec: " + spec);
    }
    const std::string inner_name = spec.substr(0, pos);
    const std::string args =
        spec.substr(pos + marker.size(),
                    spec.size() - pos - marker.size() - 1);
    const size_t eq = args.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("missing '=' in policy spec: " + spec);
    }
    const std::string mode_name = args.substr(0, eq);
    BalanceAwareOptions options;
    if (mode_name == "time") {
      options.mode = ActivationMode::kTimeBased;
    } else if (mode_name == "count") {
      options.mode = ActivationMode::kCountBased;
    } else {
      return Status::InvalidArgument("unknown activation mode '" + mode_name +
                                     "' in " + spec);
    }
    WEBTX_ASSIGN_OR_RETURN(options.rate, ParseDouble(args.substr(eq + 1)));
    if (options.rate <= 0.0) {
      return Status::InvalidArgument("activation rate must be positive: " +
                                     spec);
    }
    auto inner = CreatePlain(inner_name);
    if (inner == nullptr) {
      return Status::NotFound("unknown inner policy '" + inner_name + "'");
    }
    return std::unique_ptr<SchedulerPolicy>(
        std::make_unique<BalanceAwarePolicy>(std::move(inner), options));
  }

  auto policy = CreatePlain(spec);
  if (policy == nullptr) {
    return Status::NotFound("unknown policy '" + spec + "'");
  }
  return policy;
}

std::vector<std::string> KnownPolicyNames() {
  return {"FCFS", "EDF", "SRPT", "LS", "HDF", "HVF", "ASETS", "Ready",
          "ASETS*"};
}

}  // namespace webtx
