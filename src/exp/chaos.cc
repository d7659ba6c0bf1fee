#include "exp/chaos.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sched/admission.h"
#include "sched/policy_factory.h"
#include "sim/schedule_validator.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace webtx {

namespace {

constexpr char kReplayHeader[] = "webtx-chaos-replay v1";

// DeriveSeed coordinates carving out the chaos harness's own seed
// streams (arbitrary but fixed; reproducers depend on them).
constexpr uint64_t kChaosCaseStream = 0xCA05;
constexpr uint64_t kChaosFaultStream = 0xFA17;

WorkloadSpec SpecFor(const ChaosCase& c) {
  WorkloadSpec spec;
  spec.num_transactions = c.num_transactions;
  spec.utilization = c.utilization;
  spec.max_weight = c.max_weight;
  spec.max_workflow_length = c.max_workflow_length;
  spec.max_workflows_per_txn = c.max_workflows_per_txn;
  spec.burstiness = c.burstiness;
  spec.estimate_error = c.estimate_error;
  return spec;
}

Result<std::vector<TransactionSpec>> GenerateWorkload(const ChaosCase& c) {
  WEBTX_ASSIGN_OR_RETURN(WorkloadGenerator gen,
                         WorkloadGenerator::Create(SpecFor(c)));
  return gen.Generate(c.workload_seed);
}

// One FNV-1a step per byte of `v`, little-endian, so the digest is
// platform-stable.
uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::string FormatDouble(double d) {
  std::ostringstream os;
  os << std::setprecision(17) << d;
  return os.str();
}

bool ParseU64(const std::string& text, uint64_t* out) {
  std::istringstream is(text);
  is >> *out;
  return !is.fail() && is.eof();
}

bool ParseDouble(const std::string& text, double* out) {
  std::istringstream is(text);
  is >> *out;
  return !is.fail() && is.eof();
}

// Applies `mutate` to a copy; commits it iff the failure still
// reproduces. Returns whether the simplification was kept.
template <typename Mutation>
bool TryMutation(ChaosCase& c, Mutation mutate,
                 const ChaosPredicate& still_fails) {
  ChaosCase candidate = c;
  mutate(candidate);
  if (!still_fails(candidate)) return false;
  c = std::move(candidate);
  return true;
}

// The draw ordinal (per-server draw order) of the `index`-th *surviving*
// window on `server`, given the suppression keys already committed.
// Suppressed ordinals are drawn-and-discarded (sim/fault_plan.h), so
// they still occupy their slot in draw order but never show up in the
// observed window stream.
uint32_t SurvivorOrdinal(const std::vector<uint64_t>& suppressed,
                         uint32_t server, size_t index) {
  std::vector<uint32_t> dropped;
  for (const uint64_t key : suppressed) {
    if (FaultOrdinalServer(key) == server) {
      dropped.push_back(FaultOrdinalIndex(key));
    }
  }
  std::sort(dropped.begin(), dropped.end());
  size_t survivors = 0;
  for (uint32_t ordinal = 0;; ++ordinal) {
    if (std::binary_search(dropped.begin(), dropped.end(), ordinal)) continue;
    if (survivors == index) return ordinal;
    ++survivors;
  }
}

}  // namespace

Result<RunResult> RunChaosCase(const ChaosCase& c) {
  WEBTX_ASSIGN_OR_RETURN(std::vector<TransactionSpec> txns,
                         GenerateWorkload(c));
  SimOptions options;
  options.num_servers = c.num_servers;
  options.record_outcomes = true;
  options.record_schedule = true;
  options.retry = c.retry;
  WEBTX_ASSIGN_OR_RETURN(options.fault_plan, FaultPlan::Create(c.fault));
  if (c.admission_max_ready > 0) {
    QueueDepthAdmissionOptions admission;
    admission.max_ready = c.admission_max_ready;
    options.admission = MakeQueueDepthAdmission(admission);
  }
  WEBTX_ASSIGN_OR_RETURN(auto policy, CreatePolicy(c.policy));
  WEBTX_ASSIGN_OR_RETURN(
      Simulator sim, Simulator::Create(std::move(txns), std::move(options)));
  return sim.Run(*policy);
}

Status CheckChaosInvariants(const ChaosCase& c, const RunResult& result) {
  auto txns = GenerateWorkload(c);
  if (!txns.ok()) return txns.status();
  ValidationOptions options;
  options.num_servers = c.num_servers;
  options.outages = result.outages;
  options.crashes = result.crashes;
  options.migration = c.fault.migration;
  return ValidateSchedule(txns.ValueOrDie(), result, options);
}

uint64_t ScheduleDigest(const RunResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  h = Fnv1a(h, result.schedule.size());
  for (const ScheduleSegment& s : result.schedule) {
    h = Fnv1a(h, s.txn);
    h = Fnv1a(h, s.server);
    h = Fnv1a(h, Bits(s.start));
    h = Fnv1a(h, Bits(s.end));
    h = Fnv1a(h, s.attempt);
  }
  h = Fnv1a(h, result.outcomes.size());
  for (const TxnOutcome& o : result.outcomes) {
    h = Fnv1a(h, static_cast<uint64_t>(o.fate));
    h = Fnv1a(h, Bits(o.finish));
    h = Fnv1a(h, o.aborts);
    h = Fnv1a(h, o.migrations);
  }
  for (const uint64_t v :
       {result.num_completed, result.num_shed, result.num_dropped_retries,
        result.num_dropped_dependency, result.num_aborts, result.num_retries,
        result.retry_storm_suppressed, result.num_outages, result.num_crashes,
        result.num_migrations}) {
    h = Fnv1a(h, v);
  }
  return h;
}

std::string SerializeChaosCase(const ChaosCase& c) {
  std::ostringstream os;
  os << kReplayHeader << "\n";
  os << "workload_seed " << c.workload_seed << "\n";
  os << "num_transactions " << c.num_transactions << "\n";
  os << "utilization " << FormatDouble(c.utilization) << "\n";
  os << "max_weight " << c.max_weight << "\n";
  os << "max_workflow_length " << c.max_workflow_length << "\n";
  os << "max_workflows_per_txn " << c.max_workflows_per_txn << "\n";
  os << "burstiness " << FormatDouble(c.burstiness) << "\n";
  os << "estimate_error " << FormatDouble(c.estimate_error) << "\n";
  os << "num_servers " << c.num_servers << "\n";
  os << "policy " << c.policy << "\n";
  os << "outage_rate " << FormatDouble(c.fault.outage_rate) << "\n";
  os << "mean_outage_duration " << FormatDouble(c.fault.mean_outage_duration)
     << "\n";
  os << "abort_rate " << FormatDouble(c.fault.abort_rate) << "\n";
  os << "crash_rate " << FormatDouble(c.fault.crash_rate) << "\n";
  os << "mean_repair_duration " << FormatDouble(c.fault.mean_repair_duration)
     << "\n";
  os << "migration " << MigrationPolicyName(c.fault.migration) << "\n";
  os << "correlated_crash_prob "
     << FormatDouble(c.fault.correlated_crash_prob) << "\n";
  os << "fault_seed " << c.fault.seed << "\n";
  os << "retry_max_attempts " << c.retry.max_attempts << "\n";
  os << "retry_backoff " << FormatDouble(c.retry.backoff) << "\n";
  os << "retry_backoff_multiplier "
     << FormatDouble(c.retry.backoff_multiplier) << "\n";
  os << "retry_max_backoff " << FormatDouble(c.retry.max_backoff) << "\n";
  os << "admission_max_ready " << c.admission_max_ready << "\n";
  for (const uint64_t key : c.fault.suppressed_crashes) {
    os << "suppress_crash " << FaultOrdinalServer(key) << " "
       << FaultOrdinalIndex(key) << "\n";
  }
  for (const uint64_t key : c.fault.suppressed_outages) {
    os << "suppress_outage " << FaultOrdinalServer(key) << " "
       << FaultOrdinalIndex(key) << "\n";
  }
  return os.str();
}

Result<ChaosCase> ParseChaosReplay(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  bool saw_header = false;
  ChaosCase c;
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != kReplayHeader) {
        return Status::InvalidArgument("not a chaos replay file: expected '" +
                                       std::string(kReplayHeader) +
                                       "', got '" + line + "'");
      }
      saw_header = true;
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected 'key value', got '" + line +
                                     "'");
    }
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    const auto bad = [&] {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": bad value for " + key + ": '" +
                                     value + "'");
    };
    uint64_t u = 0;
    double d = 0.0;
    if (key == "workload_seed") {
      if (!ParseU64(value, &c.workload_seed)) return bad();
    } else if (key == "num_transactions") {
      if (!ParseU64(value, &u)) return bad();
      c.num_transactions = u;
    } else if (key == "utilization") {
      if (!ParseDouble(value, &c.utilization)) return bad();
    } else if (key == "max_weight") {
      if (!ParseU64(value, &c.max_weight)) return bad();
    } else if (key == "max_workflow_length") {
      if (!ParseU64(value, &u)) return bad();
      c.max_workflow_length = u;
    } else if (key == "max_workflows_per_txn") {
      if (!ParseU64(value, &u)) return bad();
      c.max_workflows_per_txn = u;
    } else if (key == "burstiness") {
      if (!ParseDouble(value, &c.burstiness)) return bad();
    } else if (key == "estimate_error") {
      if (!ParseDouble(value, &c.estimate_error)) return bad();
    } else if (key == "num_servers") {
      if (!ParseU64(value, &u)) return bad();
      c.num_servers = u;
    } else if (key == "policy") {
      c.policy = value;
    } else if (key == "outage_rate") {
      if (!ParseDouble(value, &c.fault.outage_rate)) return bad();
    } else if (key == "mean_outage_duration") {
      if (!ParseDouble(value, &c.fault.mean_outage_duration)) return bad();
    } else if (key == "abort_rate") {
      if (!ParseDouble(value, &c.fault.abort_rate)) return bad();
    } else if (key == "crash_rate") {
      if (!ParseDouble(value, &c.fault.crash_rate)) return bad();
    } else if (key == "mean_repair_duration") {
      if (!ParseDouble(value, &c.fault.mean_repair_duration)) return bad();
    } else if (key == "migration") {
      if (value == "warm") {
        c.fault.migration = MigrationPolicy::kWarm;
      } else if (value == "cold") {
        c.fault.migration = MigrationPolicy::kCold;
      } else {
        return bad();
      }
    } else if (key == "correlated_crash_prob") {
      if (!ParseDouble(value, &c.fault.correlated_crash_prob)) return bad();
    } else if (key == "fault_seed") {
      if (!ParseU64(value, &c.fault.seed)) return bad();
    } else if (key == "retry_max_attempts") {
      if (!ParseU64(value, &u)) return bad();
      c.retry.max_attempts = static_cast<uint32_t>(u);
    } else if (key == "retry_backoff") {
      if (!ParseDouble(value, &c.retry.backoff)) return bad();
    } else if (key == "retry_backoff_multiplier") {
      if (!ParseDouble(value, &c.retry.backoff_multiplier)) return bad();
    } else if (key == "retry_max_backoff") {
      if (!ParseDouble(value, &c.retry.max_backoff)) return bad();
    } else if (key == "admission_max_ready") {
      if (!ParseU64(value, &u)) return bad();
      c.admission_max_ready = u;
    } else if (key == "suppress_crash" || key == "suppress_outage") {
      // "<server> <draw ordinal>": one suppressed natural fault window.
      const size_t sep = value.find(' ');
      uint64_t server = 0;
      uint64_t ordinal = 0;
      if (sep == std::string::npos ||
          !ParseU64(value.substr(0, sep), &server) ||
          !ParseU64(value.substr(sep + 1), &ordinal) ||
          server > 0xffffffffULL || ordinal > 0xffffffffULL) {
        return bad();
      }
      auto& list = key == "suppress_crash" ? c.fault.suppressed_crashes
                                           : c.fault.suppressed_outages;
      list.push_back(EncodeFaultOrdinal(static_cast<uint32_t>(server),
                                        static_cast<uint32_t>(ordinal)));
    } else {
      // A replay must not silently lose a knob it doesn't understand.
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": unknown key '" + key + "'");
    }
    (void)d;
  }
  if (!saw_header) {
    return Status::InvalidArgument("empty replay file (no header)");
  }
  return c;
}

ChaosCase ShrinkChaosCase(ChaosCase c, const ChaosPredicate& still_fails) {
  // Halve the horizon first: every later probe re-runs the case, so
  // shrinking the workload early makes the rest of the pass cheap.
  while (c.num_transactions > 1 &&
         TryMutation(
             c, [](ChaosCase& x) { x.num_transactions /= 2; }, still_fails)) {
  }
  // Drop whole fault streams, least-suspect first, so the surviving
  // config names the stream that matters.
  TryMutation(
      c, [](ChaosCase& x) { x.fault.abort_rate = 0.0; }, still_fails);
  TryMutation(
      c,
      [](ChaosCase& x) {
        x.fault.outage_rate = 0.0;
        x.fault.mean_outage_duration = 0.0;
      },
      still_fails);
  TryMutation(
      c, [](ChaosCase& x) { x.fault.correlated_crash_prob = 0.0; },
      still_fails);
  TryMutation(
      c,
      [](ChaosCase& x) {
        // Correlated mode cannot outlive the crash stream it rides on.
        x.fault.crash_rate = 0.0;
        x.fault.mean_repair_duration = 0.0;
        x.fault.correlated_crash_prob = 0.0;
      },
      still_fails);
  // Disable the reactive machinery.
  TryMutation(
      c, [](ChaosCase& x) { x.admission_max_ready = 0; }, still_fails);
  TryMutation(
      c, [](ChaosCase& x) { x.retry = RetryOptions{}; }, still_fails);
  // Level the workload shape.
  TryMutation(
      c, [](ChaosCase& x) { x.estimate_error = 0.0; }, still_fails);
  TryMutation(c, [](ChaosCase& x) { x.burstiness = 0.0; }, still_fails);
  TryMutation(c, [](ChaosCase& x) { x.max_weight = 1; }, still_fails);
  TryMutation(
      c,
      [](ChaosCase& x) {
        x.max_workflow_length = 1;
        x.max_workflows_per_txn = 1;
      },
      still_fails);
  // Remove servers one at a time.
  while (c.num_servers > 1 &&
         TryMutation(
             c, [](ChaosCase& x) { --x.num_servers; }, still_fails)) {
  }
  // Bisect the fault timeline itself: drop individual natural crash /
  // outage instants that survived the whole-stream passes. Suppression
  // is draw-and-discard, so removing one window leaves every other
  // window's RNG draws — and the rest of the timeline — byte-identical;
  // every window still standing afterwards is load-bearing. Each
  // accepted drop restarts the pass from a fresh run: suppressing a
  // window can change the horizon (and so which later windows begin).
  const auto bisect_windows =
      [&](std::vector<uint64_t> FaultPlanConfig::*list,
          std::vector<OutageWindow> RunResult::*windows, bool enabled) {
        if (!enabled) return;
        constexpr size_t kMaxProbes = 64;  // rerun budget on huge timelines
        size_t probes = 0;
        bool progress = true;
        while (progress && probes < kMaxProbes) {
          progress = false;
          const auto run = RunChaosCase(c);
          if (!run.ok()) return;
          const std::vector<OutageWindow>& observed = run.ValueOrDie().*windows;
          std::vector<size_t> seen(c.num_servers, 0);
          for (const OutageWindow& w : observed) {
            const size_t index = seen[w.server]++;
            if (probes >= kMaxProbes) break;
            ++probes;
            const uint32_t ordinal =
                SurvivorOrdinal(c.fault.*list, w.server, index);
            if (TryMutation(
                    c,
                    [&](ChaosCase& x) {
                      (x.fault.*list)
                          .push_back(EncodeFaultOrdinal(w.server, ordinal));
                    },
                    still_fails)) {
              progress = true;
              break;  // survivor indices shifted; remap from a fresh run
            }
          }
        }
      };
  // Natural crash windows can only be told apart from correlated
  // (forced) ones when correlated mode is off: RunResult::crashes mixes
  // both, and a forced crash owns no draw ordinal to suppress.
  bisect_windows(
      &FaultPlanConfig::suppressed_crashes, &RunResult::crashes,
      c.fault.crash_rate > 0.0 && c.fault.correlated_crash_prob == 0.0);
  bisect_windows(&FaultPlanConfig::suppressed_outages, &RunResult::outages,
                 c.fault.outage_rate > 0.0);
  // The dropped streams, servers, and fault instants may have freed
  // slack for another round of horizon halving.
  while (c.num_transactions > 1 &&
         TryMutation(
             c, [](ChaosCase& x) { x.num_transactions /= 2; }, still_fails)) {
  }
  return c;
}

ChaosCase RandomChaosCase(uint64_t master_seed, uint64_t index) {
  Rng rng(DeriveSeed(master_seed, kChaosCaseStream, index));
  static const std::array<const char*, 8> kPolicies = {
      "FCFS",  "EDF",    "SRPT",
      "HDF",   "ASETS",  "ASETS*",
      "ASETS-BA(count=0.05)", "ASETS*-BA(time=0.005)"};
  ChaosCase c;
  c.policy = kPolicies[rng.NextInRange(0, kPolicies.size() - 1)];
  c.workload_seed = rng.Next();
  c.num_transactions = rng.NextInRange(40, 240);
  c.utilization = 0.3 + 1.2 * rng.NextDouble();
  c.num_servers = rng.NextInRange(1, 4);
  c.max_workflow_length = rng.NextInRange(1, 4);
  c.max_workflows_per_txn = rng.NextInRange(1, 2);
  c.max_weight = rng.NextDouble() < 0.5 ? 1 : 10;
  c.burstiness = rng.NextDouble() < 0.5 ? 0.0 : 0.5 * rng.NextDouble();
  c.estimate_error = rng.NextDouble() < 0.5 ? 0.0 : 0.3 * rng.NextDouble();
  // Crash streams are the point of this harness: most cases get one.
  if (rng.NextDouble() < 0.85) {
    c.fault.crash_rate = 0.002 + 0.03 * rng.NextDouble();
    c.fault.mean_repair_duration = 5.0 + 75.0 * rng.NextDouble();
    c.fault.migration = rng.NextDouble() < 0.5 ? MigrationPolicy::kWarm
                                               : MigrationPolicy::kCold;
    if (rng.NextDouble() < 0.4) {
      c.fault.correlated_crash_prob = 0.1 + 0.8 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.4) {
    c.fault.outage_rate = 0.001 + 0.015 * rng.NextDouble();
    c.fault.mean_outage_duration = 5.0 + 45.0 * rng.NextDouble();
  }
  if (rng.NextDouble() < 0.5) {
    c.fault.abort_rate = 0.002 + 0.04 * rng.NextDouble();
  }
  c.fault.seed = DeriveSeed(master_seed, kChaosFaultStream, index);
  c.retry.max_attempts = static_cast<uint32_t>(rng.NextInRange(1, 5));
  c.retry.backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.5 + 3.5 * rng.NextDouble();
  c.retry.backoff_multiplier = 1.5 + 1.5 * rng.NextDouble();
  c.retry.max_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 10.0 + 40.0 * rng.NextDouble();
  c.admission_max_ready =
      rng.NextDouble() < 0.6 ? 0 : rng.NextInRange(8, 64);
  return c;
}

Result<ChaosCampaignResult> RunChaosCampaign(
    const ChaosCampaignOptions& options) {
  ChaosCampaignResult out;
  for (size_t i = 0; i < options.num_cases; ++i) {
    const ChaosCase c = RandomChaosCase(options.master_seed, i);
    WEBTX_ASSIGN_OR_RETURN(RunResult result, RunChaosCase(c));
    out.total_crashes += result.num_crashes;
    out.total_migrations += result.num_migrations;
    out.total_aborts += result.num_aborts;
    out.total_outages += result.num_outages;
    const Status verdict = CheckChaosInvariants(c, result);
    ++out.cases_run;
    if (options.progress) {
      options.progress(i, verdict.ok() ? std::string() : verdict.ToString());
    }
    if (verdict.ok()) continue;
    ++out.violations;
    if (out.violations > 1) continue;  // shrink only the first failure
    out.first_violation = verdict.ToString();
    const ChaosPredicate fails = [](const ChaosCase& x) {
      auto rerun = RunChaosCase(x);
      if (!rerun.ok()) return false;  // invalid shrink candidate
      return !CheckChaosInvariants(x, rerun.ValueOrDie()).ok();
    };
    out.first_reproducer = ShrinkChaosCase(c, fails);
    if (!options.reproducer_path.empty()) {
      std::ofstream file(options.reproducer_path);
      file << SerializeChaosCase(out.first_reproducer);
      if (!file.good()) {
        return Status::IOError("cannot write reproducer to " +
                               options.reproducer_path);
      }
    }
  }
  return out;
}

}  // namespace webtx
