#include "exp/chaos.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>
#include <vector>

#include "common/digest.h"
#include "common/rng.h"
#include "sched/admission.h"
#include "sched/policy_factory.h"
#include "sim/schedule_validator.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace webtx {

namespace {

// DeriveSeed coordinates of the sim case streams (arbitrary but fixed;
// reproducers depend on them).
constexpr uint64_t kChaosCaseStream = 0xCA05;
constexpr uint64_t kChaosFaultStream = 0xFA17;

Result<std::vector<TransactionSpec>> GenerateWorkload(const ChaosCase& c) {
  WEBTX_ASSIGN_OR_RETURN(WorkloadGenerator gen,
                         WorkloadGenerator::Create(c.workload));
  return gen.Generate(c.workload_seed);
}

// The draw ordinal of the `index`-th surviving window on `server`:
// suppressed ordinals are drawn and discarded (sim/fault_plan.h), so
// they keep their slot in draw order but never show up in a run.
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

// Bisects the fault timeline: suppresses individual natural crash /
// outage windows (draw-and-discard, so the rest of the timeline stays
// byte-identical) until every window left is load-bearing. Each kept
// drop restarts from a fresh run, since it can move the horizon.
ShrinkStep<ChaosCase> BisectWindows(
    std::vector<uint64_t> FaultPlanConfig::*list,
    std::vector<OutageWindow> RunResult::*windows,
    bool (*enabled)(const ChaosCase&)) {
  return [=](ChaosCase& c, const CasePredicate<ChaosCase>& still_fails) {
    if (!enabled(c)) return;
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
        const uint64_t key = EncodeFaultOrdinal(
            w.server, SurvivorOrdinal(c.fault.*list, w.server, index));
        if (TryMutation(
                c, [&](ChaosCase& x) { (x.fault.*list).push_back(key); },
                still_fails)) {
          progress = true;
          break;  // survivor indices shifted; remap from a fresh run
        }
      }
    }
  };
}

// "<server> <draw ordinal>" lines, one per suppressed natural window.
Field<ChaosCase> SuppressionField(
    const char* key, std::vector<uint64_t> FaultPlanConfig::*list) {
  return {key,
          [list](const ChaosCase& c) {
            std::vector<std::string> lines;
            for (const uint64_t k : c.fault.*list) {
              lines.push_back(std::to_string(FaultOrdinalServer(k)) + " " +
                              std::to_string(FaultOrdinalIndex(k)));
            }
            return lines;
          },
          [list](ChaosCase& c, const std::string& value) {
            const size_t sep = value.find(' ');
            uint64_t server = 0;
            uint64_t ordinal = 0;
            if (sep == std::string::npos ||
                !ParseU64(value.substr(0, sep), &server) ||
                !ParseU64(value.substr(sep + 1), &ordinal) ||
                server > kMaxIds || ordinal > kMaxIds) {
              return std::string("must be '<server> <ordinal>'");
            }
            (c.fault.*list)
                .push_back(EncodeFaultOrdinal(static_cast<uint32_t>(server),
                                              static_cast<uint32_t>(ordinal)));
            return std::string();
          }};
}

// Upper bound of max_workflows_per_txn. A transaction joins up to this
// many workflows, each a chain the generator opens and scans for it and
// ASETS* refiles on its every event. Table I topologies use a handful
// (the benches at most 5, the campaigns at most 2); at 9999999 a
// 2000-transaction case runs for more than 20 s and at 2^32 generation
// exhausts memory.
constexpr uint64_t kMaxWorkflowsPerTxn = 64;

std::vector<Field<ChaosCase>> SimFields() {
  using C = ChaosCase;
  using R = RetryOptions;
  using W = WorkloadSpec;
  const auto w = [](auto member) { return Member(&C::workload, member); };
  const auto retry = [](auto member) { return Member(&C::retry, member); };
  return JoinFields<C>({
      {UnsignedField<C>("workload_seed", &C::workload_seed),
       UnsignedField<C>("num_transactions", w(&W::num_transactions), 1,
                        kMaxIds),
       DoubleField<C>("utilization", w(&W::utilization), kPositive),
       UnsignedField<C>("max_weight", w(&W::max_weight), 1),
       UnsignedField<C>("max_workflow_length", w(&W::max_workflow_length), 1),
       UnsignedField<C>("max_workflows_per_txn",
                        w(&W::max_workflows_per_txn), 1, kMaxWorkflowsPerTxn),
       DoubleField<C>("burstiness", w(&W::burstiness), 0.0, kBelowOne),
       DoubleField<C>("estimate_error", w(&W::estimate_error), 0.0, kBelowOne),
       UnsignedField<C>("num_servers", &C::num_servers, 1, kMaxIds),
       TextField<C>("policy", &C::policy)},
      FaultPlanFields<C>(&C::fault,
                         Member(&C::fault, &FaultPlanConfig::migration)),
      {UnsignedField<C>("retry_max_attempts", retry(&R::max_attempts), 1),
       DoubleField<C>("retry_backoff", retry(&R::backoff), 0.0),
       DoubleField<C>("retry_backoff_multiplier",
                      retry(&R::backoff_multiplier), 0.0),
       DoubleField<C>("retry_max_backoff", retry(&R::max_backoff), 0.0),
       UnsignedField<C>("admission_max_ready", &C::admission_max_ready),
       SuppressionField("suppress_crash", &FaultPlanConfig::suppressed_crashes),
       SuppressionField("suppress_outage",
                        &FaultPlanConfig::suppressed_outages)},
  });
}

Result<CaseRun> SimRun(const ChaosCase& c) {
  WEBTX_ASSIGN_OR_RETURN(const RunResult r, RunChaosCase(c));
  return CaseRun{ScheduleDigest(r),
                 CheckChaosInvariants(c, r),
                 {{"crashes", r.num_crashes},
                  {"migrations", r.num_migrations},
                  {"aborts", r.num_aborts},
                  {"outages", r.num_outages},
                  {"completed", r.num_completed}}};
}

CaseProfile<ChaosCase> MakeSimProfile() {
  using C = ChaosCase;
  CaseProfile<C> p;
  p.name = "sim";
  p.header = "webtx-chaos-replay v1";
  p.fields = SimFields();
  p.random = RandomChaosCase;
  p.run = SimRun;
  // Halve the horizon first: every later probe re-runs the case, so
  // shrinking the workload early makes the rest of the pass cheap.
  const ShrinkStep<C> halve =
      Repeat<C>([](const C& x) { return x.workload.num_transactions > 1; },
                [](C& x) { x.workload.num_transactions /= 2; });
  p.shrink = {
      halve,
      // Drop whole fault streams, least-suspect first, so the surviving
      // config names the stream that matters. Correlated mode cannot
      // outlive the crash stream it rides on.
      p.Reset({"abort_rate"}),
      p.Reset({"outage_rate", "mean_outage_duration"}),
      p.Reset({"correlated_crash_prob"}),
      p.Reset({"crash_rate", "mean_repair_duration", "correlated_crash_prob"}),
      // Disable the reactive machinery.
      p.Reset({"admission_max_ready"}),
      p.Reset({"retry_max_attempts", "retry_backoff",
               "retry_backoff_multiplier", "retry_max_backoff"}),
      // Level the workload shape.
      p.Reset({"estimate_error"}),
      p.Reset({"burstiness"}),
      p.Reset({"max_weight"}),
      p.Reset({"max_workflow_length", "max_workflows_per_txn"}),
      Repeat<C>([](const C& x) { return x.num_servers > 1; },
                [](C& x) { --x.num_servers; }),
      // Natural crash windows can only be told apart from correlated
      // (forced) ones when correlated mode is off: RunResult::crashes
      // mixes both, and a forced crash owns no draw ordinal to suppress.
      BisectWindows(&FaultPlanConfig::suppressed_crashes, &RunResult::crashes,
                    [](const C& x) {
                      return x.fault.crash_rate > 0.0 &&
                             x.fault.correlated_crash_prob == 0.0;
                    }),
      BisectWindows(&FaultPlanConfig::suppressed_outages, &RunResult::outages,
                    [](const C& x) { return x.fault.outage_rate > 0.0; }),
      // The dropped streams, servers, and fault instants may have freed
      // slack for another round of horizon halving.
      halve,
  };
  // Cold failover is the deepest crash path: attempt bump, work
  // zeroed, no retry charge.
  p.mint = [](const C& c, const CaseRun& run) {
    return c.fault.migration == MigrationPolicy::kCold &&
           CounterOf(run.counters, "migrations") >= 1;
  };
  return p;
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
  uint64_t h = kFnvOffsetBasis;
  h = Fnv1a(h, result.schedule.size());
  for (const ScheduleSegment& s : result.schedule) {
    h = Fnv1a(h, s.txn);
    h = Fnv1a(h, s.server);
    h = Fnv1a(h, DoubleBits(s.start));
    h = Fnv1a(h, DoubleBits(s.end));
    h = Fnv1a(h, s.attempt);
  }
  h = Fnv1a(h, result.outcomes.size());
  for (const TxnOutcome& o : result.outcomes) {
    h = Fnv1a(h, static_cast<uint64_t>(o.fate));
    h = Fnv1a(h, DoubleBits(o.finish));
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

ChaosCase RandomChaosCase(uint64_t master_seed, uint64_t index) {
  Rng rng(DeriveSeed(master_seed, kChaosCaseStream, index));
  static const std::array<const char*, 8> kPolicies = {
      "FCFS",  "EDF",    "SRPT",
      "HDF",   "ASETS",  "ASETS*",
      "ASETS-BA(count=0.05)", "ASETS*-BA(time=0.005)"};
  ChaosCase c;
  WorkloadSpec& w = c.workload;
  c.policy = kPolicies[rng.NextInRange(0, kPolicies.size() - 1)];
  c.workload_seed = rng.Next();
  w.num_transactions = rng.NextInRange(40, 240);
  w.utilization = 0.3 + 1.2 * rng.NextDouble();
  c.num_servers = rng.NextInRange(1, 4);
  w.max_workflow_length = rng.NextInRange(1, 4);
  w.max_workflows_per_txn = rng.NextInRange(1, 2);
  w.max_weight = rng.NextDouble() < 0.5 ? 1 : 10;
  w.burstiness = rng.NextDouble() < 0.5 ? 0.0 : 0.5 * rng.NextDouble();
  w.estimate_error = rng.NextDouble() < 0.5 ? 0.0 : 0.3 * rng.NextDouble();
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

const CaseProfile<ChaosCase>& SimChaosProfile() {
  static const CaseProfile<ChaosCase> profile = MakeSimProfile();
  return profile;
}

const CaseProfile<ChaosCase>& HugeChaosProfile() {
  static const CaseProfile<ChaosCase> profile = [] {
    CaseProfile<ChaosCase> p = MakeSimProfile();
    p.name = "huge";
    p.default_cases = 5;
    // Scale the population and make every structure carry load: aborts
    // and retries feed the pending queue, workflows the dependency graph.
    p.random = [](uint64_t master_seed, uint64_t index) {
      ChaosCase c = RandomChaosCase(master_seed, index);
      c.workload.num_transactions = 100000;
      c.workload.utilization = 0.9;
      c.workload.max_workflow_length = 4;
      c.workload.max_workflows_per_txn = 2;
      if (c.fault.abort_rate == 0.0) c.fault.abort_rate = 0.01;
      if (c.retry.max_attempts < 2) c.retry.max_attempts = 3;
      if (c.retry.backoff == 0.0) c.retry.backoff = 1.0;
      return c;
    };
    return p;
  }();
  return profile;
}

const CaseProfile<ChaosCase>& StealChaosProfile() {
  static const CaseProfile<ChaosCase> profile = [] {
    CaseProfile<ChaosCase> p = MakeSimProfile();
    p.name = "steal";
    // Its own dialect, so `--replay` re-runs the "-sharded" variant too.
    p.header = "webtx-steal-replay v1";
    p.default_cases = 25;
    // Every round places k heads, so cross-shard steals are dense; the
    // randomized policy is mapped onto a base with a sharded variant.
    p.random = [](uint64_t master_seed, uint64_t index) {
      ChaosCase c = RandomChaosCase(master_seed, index);
      c.num_servers = 1u << (1 + index % 3);  // 2, 4, 8
      WorkloadSpec& w = c.workload;
      if (w.utilization < 2.0) w.utilization = 2.0;
      if (w.max_workflow_length < 3) w.max_workflow_length = 3;
      if (w.max_workflows_per_txn < 2) w.max_workflows_per_txn = 2;
      static const char* const kShardedBases[] = {"FCFS", "EDF", "SRPT", "LS",
                                                  "HDF",  "HVF", "ASETS*"};
      for (const char* base : kShardedBases) {
        if (c.policy == base) return c;
      }
      c.policy = kShardedBases[index % std::size(kShardedBases)];
      return c;
    };
    p.neutral = [](const ChaosCase& c) {
      NeutralVariant<ChaosCase> sharded{"policy " + c.policy + "-sharded", c};
      sharded.c.policy += "-sharded";
      return std::vector<NeutralVariant<ChaosCase>>{std::move(sharded)};
    };
    return p;
  }();
  return profile;
}

}  // namespace webtx
