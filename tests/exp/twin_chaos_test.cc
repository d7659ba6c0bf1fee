// Digital-twin chaos harness tests (exp/twin_chaos.h): deterministic
// case generation, digest-stable execution (trace + decision log),
// replay-file round-trips, shrink behavior, and a small end-to-end
// campaign — the machinery behind `tools/chaos --twin` and the check.sh
// twin-smoke gate.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/twin_chaos.h"

namespace webtx {
namespace {

TwinChaosCase SmallCase() {
  TwinChaosCase c;
  c.shape = LiveArrivalShape::kFlashCrowd;
  c.workload_seed = 41;
  c.num_tasks = 50;
  c.rate = 60.0;
  c.spike_factor = 6.0;
  c.spike_start = 0.3;
  c.spike_duration = 0.4;
  c.mean_duration = 0.05;
  c.deadline_slack = 1.5;
  rt::TwinCandidate fcfs;
  rt::TwinCandidate edf_depth;
  edf_depth.policy = "EDF";
  edf_depth.admission = rt::TwinCandidate::Admission::kQueueDepth;
  edf_depth.max_ready = 12;
  rt::TwinCandidate srpt;
  srpt.policy = "SRPT";
  c.candidates = {fcfs, edf_depth, srpt};
  c.control_interval = 0.2;
  c.forecast_horizon = 0.4;
  c.dwell_ticks = 1;
  c.num_workers = 2;
  c.fault.crash_rate = 0.1;
  c.fault.mean_repair_duration = 0.5;
  c.fault.seed = 9;
  return c;
}

TEST(TwinChaosTest, RandomCasesAreDeterministicPerIndex) {
  for (uint64_t index = 0; index < 5; ++index) {
    const TwinChaosCase a = RandomTwinChaosCase(99, index);
    const TwinChaosCase b = RandomTwinChaosCase(99, index);
    EXPECT_EQ(SerializeTwinChaosCase(a), SerializeTwinChaosCase(b));
  }
  EXPECT_NE(SerializeTwinChaosCase(RandomTwinChaosCase(99, 0)),
            SerializeTwinChaosCase(RandomTwinChaosCase(99, 1)));
}

TEST(TwinChaosTest, RunIsDigestStableAndPassesItsOwnInvariants) {
  const TwinChaosCase c = SmallCase();
  auto first = RunTwinChaosCase(c);
  auto second = RunTwinChaosCase(c);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first.ValueOrDie().digest, second.ValueOrDie().digest);
  EXPECT_NE(first.ValueOrDie().digest, 0u);
  const Status verdict = CheckTwinChaosInvariants(c, first.ValueOrDie());
  EXPECT_TRUE(verdict.ok()) << verdict;
  // The controller actually ran: the flash crowd spans several control
  // intervals, so the decision log cannot be empty.
  EXPECT_FALSE(first.ValueOrDie().decisions.empty());
}

TEST(TwinChaosTest, ControllerOffMeansNoDecisions) {
  TwinChaosCase c = SmallCase();
  c.controller_enabled = false;
  auto run = RunTwinChaosCase(c);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run.ValueOrDie().decisions.empty());
  EXPECT_EQ(run.ValueOrDie().switches, 0u);
  EXPECT_EQ(run.ValueOrDie().final_config, c.static_index);
  const Status verdict = CheckTwinChaosInvariants(c, run.ValueOrDie());
  EXPECT_TRUE(verdict.ok()) << verdict;
}

TEST(TwinChaosTest, CorruptedModelTripsTheGuard) {
  TwinChaosCase c = SmallCase();
  // The shadow believes service times are 8x reality's, and the guard
  // is wound tight (any forecast miss above the absolute floor is a
  // strike, one strike trips): the model must be caught lying within
  // two ticks of congestion.
  c.snapshot_corruption = 8.0;
  c.guard_strikes = 1;
  c.divergence_tolerance = 0.0;
  c.divergence_abs_floor = 0.01;
  c.fault = FaultPlanConfig{};  // isolate the guard from crash noise
  auto run = RunTwinChaosCase(c);
  ASSERT_TRUE(run.ok()) << run.status();
  const rt::TwinReport& report = run.ValueOrDie();
  EXPECT_GE(report.fallbacks, 1u);
  // Every fallback decision pins the static configuration (the run may
  // legally re-switch after the cooldown re-enables the controller).
  bool saw_fallback = false;
  for (const rt::TwinDecision& d : report.decisions) {
    if (d.kind != rt::TwinDecision::Kind::kFallback) continue;
    saw_fallback = true;
    EXPECT_EQ(d.applied, c.static_index);
  }
  EXPECT_TRUE(saw_fallback);
  const Status verdict = CheckTwinChaosInvariants(c, report);
  EXPECT_TRUE(verdict.ok()) << verdict;
}

TEST(TwinChaosTest, ReplayFileRoundTripsToTheSameTimeline) {
  const TwinChaosCase original = SmallCase();
  const std::string text = SerializeTwinChaosCase(original);
  auto parsed = ParseTwinChaosReplay(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeTwinChaosCase(parsed.ValueOrDie()), text);

  auto from_original = RunTwinChaosCase(original);
  auto from_replay = RunTwinChaosCase(parsed.ValueOrDie());
  ASSERT_TRUE(from_original.ok() && from_replay.ok());
  EXPECT_EQ(from_original.ValueOrDie().digest,
            from_replay.ValueOrDie().digest);
}

TEST(TwinChaosTest, ParserRejectsCorruptReplays) {
  const std::string text = SerializeTwinChaosCase(SmallCase());
  EXPECT_FALSE(ParseTwinChaosReplay("bogus header\n" + text).ok());
  EXPECT_FALSE(ParseTwinChaosReplay(text + "unknown_knob 3\n").ok());
  // Keys of removed forecast knobs are rejected like any unknown key.
  for (const char* retired :
       {"pooled_forecasts 1\n", "pooled_forecasts 0\n", "pending_queue heap\n",
        "pending_queue calendar\n", "txn_store vector\n", "txn_store soa\n"}) {
    EXPECT_FALSE(ParseTwinChaosReplay(text + retired).ok()) << retired;
  }
  // A twin replay without its candidate table is not a runnable case.
  std::string no_candidates;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("candidate ", 0) != 0) no_candidates += line + "\n";
  }
  EXPECT_FALSE(ParseTwinChaosReplay(no_candidates).ok());
}

TEST(TwinChaosTest, ShrinkPreservesThePredicate) {
  const TwinChaosCase original = SmallCase();
  const TwinChaosPredicate still_fails = [](const TwinChaosCase& c) {
    return c.num_tasks >= 10 && !c.candidates.empty() &&
           c.fault.crash_rate > 0.0;
  };
  const TwinChaosCase shrunk = ShrinkTwinChaosCase(original, still_fails);
  EXPECT_TRUE(still_fails(shrunk));
  EXPECT_LE(shrunk.num_tasks, original.num_tasks);
  EXPECT_LE(shrunk.candidates.size(), original.candidates.size());
  EXPECT_LT(shrunk.static_index, shrunk.candidates.size());
}

TEST(TwinChaosTest, SmallCampaignRunsCleanAndExercisesTheController) {
  TwinChaosCampaignOptions options;
  options.master_seed = 7;
  options.num_cases = 4;
  auto result = RunTwinChaosCampaign(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.ValueOrDie().cases_run, 4u);
  EXPECT_EQ(result.ValueOrDie().violations, 0u)
      << result.ValueOrDie().first_violation;
  EXPECT_EQ(result.ValueOrDie().determinism_mismatches, 0u);
  // A clean pass that never ticked the controller would be vacuous.
  EXPECT_GT(result.ValueOrDie().total_decisions, 0u);
}

}  // namespace
}  // namespace webtx
