#ifndef WEBTX_SCHED_POLICY_FACTORY_H_
#define WEBTX_SCHED_POLICY_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sched/scheduler_policy.h"

namespace webtx {

/// Creates a policy from a textual spec, for CLI tools and examples.
///
/// Supported specs (case-sensitive):
///   "FCFS" | "EDF" | "SRPT" | "LS" | "HDF" | "HVF"
///   "MIX" | "MIX(<beta>)"           static EDF/value blend [Buttazzo 95]
///   "ASETS"                       transaction-level ASETS
///   "Ready"                       the Wait-queue baseline (Sec. III-B)
///   "ASETS*"                      workflow-level general ASETS*
///   "<inner>-BA(time=<rate>)"     balance-aware wrapper, time-based
///   "<inner>-BA(count=<rate>)"    balance-aware wrapper, count-based
///   "<base>-sharded"              no-op suffix: builds <base> itself,
///                                 for the single-queue policies and
///                                 "ASETS*" only. Kept because the
///                                 repository benchmark's self-test
///                                 runs "SRPT-sharded".
///
/// Examples: "ASETS*-BA(time=0.005)", "ASETS-BA(count=0.05)".
Result<std::unique_ptr<SchedulerPolicy>> CreatePolicy(const std::string& spec);

/// Names of the plain (non-wrapped) policies the factory knows about.
std::vector<std::string> KnownPolicyNames();

}  // namespace webtx

#endif  // WEBTX_SCHED_POLICY_FACTORY_H_
