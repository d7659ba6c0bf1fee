// Campaign engine tests (exp/campaign.h). The checks every profile
// shares — replay round trip, comments and blank lines, garbage and
// retired keys rejected, a deterministic and pinned case stream, a clean
// small campaign, shrinking that keeps its predicate — are written once
// below and instantiated per profile under each suite's historical test
// names (huge shares sim's field table, parser and shrink steps, so of
// these it runs only the pinned case stream). The profile-specific tests
// follow: sim digest, shrink targets and fault-window bisection; live
// and twin digest-stable runs and shrink bounds; the twin controller-off
// and guard-trip scenarios.

#include <cmath>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/campaign.h"
#include "exp/chaos.h"
#include "exp/live_chaos.h"

namespace webtx {
namespace {

// -- Shared checks -------------------------------------------------------

template <typename Case>
std::string RandomText(const CaseProfile<Case>& p, uint64_t master_seed,
                       uint64_t index) {
  return p.Serialize(p.random(master_seed, index));
}

template <typename Case>
void ExpectRoundTrip(const CaseProfile<Case>& p) {
  for (uint64_t index = 0; index < 8; ++index) {
    const Case c = p.random(123, index);
    const std::string text = p.Serialize(c);
    auto parsed = p.Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    // Value-exact round trip, doubles included.
    EXPECT_EQ(p.Serialize(parsed.ValueOrDie()), text);
    EXPECT_EQ(p.Reserialize(text).ValueOrDie(), text);
  }
}

template <typename Case>
void ExpectCommentsAndBlankLinesSkipped(const CaseProfile<Case>& p) {
  const std::string text = p.Serialize(p.random(5, 0));
  auto parsed = p.Parse("# a comment\n\n" + text + "\n# trailing\n\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(p.Serialize(parsed.ValueOrDie()), text);
}

template <typename Case>
void ExpectGarbageRejected(const CaseProfile<Case>& p) {
  const std::string good = p.Serialize(p.random(5, 0));
  EXPECT_FALSE(p.Parse("").ok());
  EXPECT_FALSE(p.Parse("# only a comment\n").ok());
  EXPECT_FALSE(p.Parse("not a replay\n").ok());
  EXPECT_FALSE(p.Parse("bogus header\n" + good).ok());
  for (const char* line :
       {"mystery_knob 3\n", "workload_seed\n", "workload_seed banana\n",
        "workload_seed -1\n", "workload_seed 18446744073709551616\n",
        "crash_rate banana\n", "crash_rate -1\n", "migration lukewarm\n",
        "policy\n",
        // Keys of removed structure and forecast knobs.
        "pending_queue wheel\n", "pending_queue heap\n", "txn_store soa\n",
        "txn_store vec\n", "pooled_forecasts 1\n", "pooled_forecasts 0\n",
        "prune 0\n", "prune 1\n", "prune_prefix 0.4\n"}) {
    EXPECT_FALSE(p.Parse(good + line).ok()) << line;
  }
  // Another dialect's header is not this profile's file.
  const std::string body = good.substr(good.find('\n'));
  for (const ChaosProfile* other : ChaosProfiles()) {
    if (other->header == p.header) continue;
    EXPECT_FALSE(p.Parse(other->header + body).ok()) << other->name;
  }
}

uint64_t Fnv1a(uint64_t h, const std::string& text) {
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// `pinned` digests the replay text of cases 0..31 at seed 2009, header
// line excluded: the case stream itself (every draw, in order) is part
// of the contract, since committed replays and campaign reports depend
// on it.
template <typename Case>
void ExpectDeterministicPerIndex(const CaseProfile<Case>& p, uint64_t pinned) {
  for (uint64_t index = 0; index < 5; ++index) {
    EXPECT_EQ(RandomText(p, 42, index), RandomText(p, 42, index));
  }
  EXPECT_NE(RandomText(p, 42, 0), RandomText(p, 42, 1));
  EXPECT_NE(RandomText(p, 42, 0), RandomText(p, 43, 0));
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t index = 0; index < 32; ++index) {
    const std::string text = RandomText(p, 2009, index);
    h = Fnv1a(h, text.substr(text.find('\n') + 1));
  }
  EXPECT_EQ(h, pinned) << p.name << " case stream moved";
}

// A clean pass with zero activity would be vacuous: every counter in
// `exercised` must be nonzero over the campaign.
void ExpectCleanCampaign(const ChaosProfile& p, size_t cases,
                         const std::vector<const char*>& exercised) {
  CampaignOptions options;
  options.master_seed = 7;
  options.num_cases = cases;
  size_t progress_calls = 0;
  options.progress = [&](size_t, uint64_t, const Status& verdict) {
    ++progress_calls;
    EXPECT_TRUE(verdict.ok()) << verdict;
  };
  auto campaign = p.RunCampaign(options);
  ASSERT_TRUE(campaign.ok()) << campaign.status();
  const CampaignResult& r = campaign.ValueOrDie();
  EXPECT_EQ(r.cases_run, cases);
  EXPECT_EQ(r.violations, 0u) << r.first_violation;
  EXPECT_TRUE(r.first_reproducer.empty());
  EXPECT_EQ(progress_calls, cases);
  for (const char* counter : exercised) {
    EXPECT_GT(CounterOf(r.totals, counter), 0u) << counter;
  }
}

// Shrinking must simplify `original` without ever leaving the
// predicate; returns the shrunk case for profile-specific checks.
template <typename Case>
Case ExpectShrinkKeepsThePredicate(
    const CaseProfile<Case>& p, const Case& original,
    const std::type_identity_t<CasePredicate<Case>>& still_fails) {
  EXPECT_TRUE(still_fails(original));
  const Case shrunk = p.Shrink(original, still_fails);
  EXPECT_TRUE(still_fails(shrunk));
  EXPECT_NE(p.Serialize(shrunk), p.Serialize(original));
  EXPECT_LE(p.Serialize(shrunk).size(), p.Serialize(original).size());
  return shrunk;
}

TEST(ChaosReplayTest, SerializeParseRoundTrips) {
  ExpectRoundTrip(SimChaosProfile());
}
TEST(LiveChaosTest, ReplayFileRoundTripsToTheSameTimeline) {
  ExpectRoundTrip(LiveChaosProfile());
}
TEST(TwinChaosTest, ReplayFileRoundTripsToTheSameTimeline) {
  ExpectRoundTrip(TwinChaosProfile());
}

TEST(ChaosReplayTest, ParseToleratesCommentsAndBlankLines) {
  ExpectCommentsAndBlankLinesSkipped(SimChaosProfile());
}
TEST(LiveChaosTest, ParseToleratesCommentsAndBlankLines) {
  ExpectCommentsAndBlankLinesSkipped(LiveChaosProfile());
}
TEST(TwinChaosTest, ParseToleratesCommentsAndBlankLines) {
  ExpectCommentsAndBlankLinesSkipped(TwinChaosProfile());
}

TEST(ChaosReplayTest, ParseRejectsGarbage) {
  ExpectGarbageRejected(SimChaosProfile());
  const std::string good = RandomText(SimChaosProfile(), 5, 0);
  for (const char* line : {"suppress_crash banana\n", "suppress_crash 1\n",
                           "suppress_outage 1 pear\n", "suppress_crash -1 0\n",
                           "suppress_outage 0 4294967296\n"}) {
    EXPECT_FALSE(SimChaosProfile().Parse(good + line).ok()) << line;
  }
}
TEST(LiveChaosTest, ParserRejectsCorruptReplays) {
  ExpectGarbageRejected(LiveChaosProfile());
  const std::string good = RandomText(LiveChaosProfile(), 5, 0);
  EXPECT_FALSE(LiveChaosProfile().Parse(good + "admission sometimes\n").ok());
  EXPECT_FALSE(LiveChaosProfile().Parse(good + "watchdog 2\n").ok());
}
TEST(TwinChaosTest, ParserRejectsCorruptReplays) {
  const CaseProfile<TwinChaosCase>& p = TwinChaosProfile();
  ExpectGarbageRejected(p);
  const std::string text = RandomText(p, 5, 0);
  for (const char* line :
       {"candidate EDF\n", "candidate EDF maybe 3 0\n",
        "candidate EDF depth -1 0\n", "candidate EDF depth 3 0 extra\n",
        "candidate EDF depth 3 nan\n", "shape square\n"}) {
    EXPECT_FALSE(p.Parse(text + line).ok()) << line;
  }
  // A twin replay without its candidate table is not a runnable case.
  std::string no_candidates;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("candidate ", 0) != 0) no_candidates += line + "\n";
  }
  EXPECT_FALSE(p.Replay(no_candidates).ok());
}

TEST(ChaosRandomTest, CasesAreDeterministic) {
  ExpectDeterministicPerIndex(SimChaosProfile(), 0x18bad00de8ee3538ULL);
}
TEST(HugeChaosTest, CasesAreDeterministic) {
  ExpectDeterministicPerIndex(HugeChaosProfile(), 0xcac0023f9e7343fdULL);
}
TEST(LiveChaosTest, RandomCasesAreDeterministicPerIndex) {
  ExpectDeterministicPerIndex(LiveChaosProfile(), 0x95f1652ab5ab0689ULL);
}
TEST(TwinChaosTest, RandomCasesAreDeterministicPerIndex) {
  ExpectDeterministicPerIndex(TwinChaosProfile(), 0x7d839e1c35329b2fULL);
}

// The huge profile runs 10^5 transactions per case; its campaign is
// the release-build `scripts/check.sh --huge-smoke` stage, not a unit
// test.
TEST(ChaosCampaignTest, HealthySimulatorPassesACampaign) {
  ExpectCleanCampaign(SimChaosProfile(), 40, {"crashes", "migrations"});
}
TEST(LiveChaosTest, SmallCampaignRunsCleanAndExercisesFaults) {
  ExpectCleanCampaign(LiveChaosProfile(), 6, {"crashes"});
}
TEST(TwinChaosTest, SmallCampaignRunsCleanAndExercisesTheController) {
  ExpectCleanCampaign(TwinChaosProfile(), 4, {"decisions"});
}

TEST(ChaosShrinkTest, ShrinkPreservesThePredicate) {
  const CaseProfile<ChaosCase>& p = SimChaosProfile();
  const CasePredicate<ChaosCase> still_fails = [](const ChaosCase& c) {
    return c.fault.crash_rate > 0.0;
  };
  uint64_t index = 0;
  while (!still_fails(p.random(3, index))) ++index;
  ExpectShrinkKeepsThePredicate(p, p.random(3, index), still_fails);
}

// -- sim ---------------------------------------------------------------

ChaosCase CrashyCase() {
  ChaosCase c;
  c.workload_seed = 77;
  c.workload.num_transactions = 60;
  c.workload.utilization = 0.9;
  c.num_servers = 2;
  c.policy = "EDF";
  c.fault.crash_rate = 0.01;
  c.fault.mean_repair_duration = 20.0;
  c.fault.migration = MigrationPolicy::kCold;
  c.fault.seed = 5;
  return c;
}

TEST(ChaosCaseTest, RunsAndValidates) {
  const ChaosCase c = CrashyCase();
  auto run = RunChaosCase(c);
  ASSERT_TRUE(run.ok()) << run.status();
  const RunResult& r = run.ValueOrDie();
  EXPECT_EQ(r.outcomes.size(), c.workload.num_transactions);
  EXPECT_FALSE(r.schedule.empty());
  const Status verdict = CheckChaosInvariants(c, r);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

TEST(ChaosCaseTest, RunRejectsNonsenseParameters) {
  ChaosCase c = CrashyCase();
  c.policy = "NOT-A-POLICY";
  EXPECT_FALSE(RunChaosCase(c).ok());

  ChaosCase bad_fault = CrashyCase();
  bad_fault.fault.mean_repair_duration = 0.0;
  EXPECT_FALSE(RunChaosCase(bad_fault).ok());
}

TEST(ChaosDigestTest, StableAcrossRuns) {
  const ChaosCase c = CrashyCase();
  const uint64_t a = ScheduleDigest(RunChaosCase(c).ValueOrDie());
  const uint64_t b = ScheduleDigest(RunChaosCase(c).ValueOrDie());
  EXPECT_EQ(a, b);
}

TEST(ChaosDigestTest, DetectsBehavioralDifferences) {
  ChaosCase c = CrashyCase();
  const uint64_t a = ScheduleDigest(RunChaosCase(c).ValueOrDie());
  c.fault.seed = 6;  // different crash timeline, same workload
  const uint64_t b = ScheduleDigest(RunChaosCase(c).ValueOrDie());
  EXPECT_NE(a, b);
}

TEST(ChaosReplayTest, SuppressionLinesRoundTrip) {
  const CaseProfile<ChaosCase>& p = SimChaosProfile();
  ChaosCase c = CrashyCase();
  c.fault.outage_rate = 0.01;
  c.fault.mean_outage_duration = 5.0;
  c.fault.suppressed_crashes = {EncodeFaultOrdinal(1, 3),
                                EncodeFaultOrdinal(0, 0)};
  c.fault.suppressed_outages = {EncodeFaultOrdinal(0, 2)};
  const std::string text = p.Serialize(c);
  auto parsed = p.Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(p.Serialize(parsed.ValueOrDie()), text);
  EXPECT_EQ(parsed.ValueOrDie().fault.suppressed_crashes,
            c.fault.suppressed_crashes);
  EXPECT_EQ(parsed.ValueOrDie().fault.suppressed_outages,
            c.fault.suppressed_outages);
  // The parsed case must replay the suppressed timeline byte-identically.
  EXPECT_EQ(ScheduleDigest(RunChaosCase(parsed.ValueOrDie()).ValueOrDie()),
            ScheduleDigest(RunChaosCase(c).ValueOrDie()));
}

TEST(ChaosShrinkTest, ShrinksToTheLoadBearingKnobs) {
  // Synthetic failure: reproduces iff the case still has >= 12
  // transactions AND a live abort stream. The shrinker must drop every
  // other knob and halve the horizon to just above the threshold.
  ChaosCase c = RandomChaosCase(1, 0);
  c.workload.num_transactions = 200;
  c.fault.abort_rate = 0.01;
  const CasePredicate<ChaosCase> predicate = [](const ChaosCase& x) {
    return x.workload.num_transactions >= 12 && x.fault.abort_rate > 0.0;
  };
  ASSERT_TRUE(predicate(c));
  const ChaosCase shrunk = SimChaosProfile().Shrink(c, predicate);
  EXPECT_TRUE(predicate(shrunk));
  EXPECT_GE(shrunk.workload.num_transactions, 12u);
  // One more halving would pass.
  EXPECT_LT(shrunk.workload.num_transactions, 24u);
  EXPECT_GT(shrunk.fault.abort_rate, 0.0);
  EXPECT_EQ(shrunk.fault.crash_rate, 0.0);
  EXPECT_EQ(shrunk.fault.outage_rate, 0.0);
  EXPECT_EQ(shrunk.fault.correlated_crash_prob, 0.0);
  EXPECT_EQ(shrunk.admission_max_ready, 0u);
  EXPECT_EQ(shrunk.num_servers, 1u);
  EXPECT_EQ(shrunk.workload.max_weight, 1u);
  EXPECT_EQ(shrunk.workload.max_workflow_length, 1u);
  EXPECT_EQ(shrunk.workload.burstiness, 0.0);
  EXPECT_EQ(shrunk.workload.estimate_error, 0.0);
}

TEST(ChaosShrinkTest, AlwaysFailingCaseShrinksToTheFloor) {
  ChaosCase c = RandomChaosCase(1, 3);
  c.workload.num_transactions = 100;
  const ChaosCase shrunk =
      SimChaosProfile().Shrink(c, [](const ChaosCase&) { return true; });
  EXPECT_EQ(shrunk.workload.num_transactions, 1u);
  EXPECT_EQ(shrunk.num_servers, 1u);
  EXPECT_EQ(shrunk.fault.crash_rate, 0.0);
  EXPECT_EQ(shrunk.fault.outage_rate, 0.0);
  EXPECT_EQ(shrunk.fault.abort_rate, 0.0);
}

TEST(ChaosShrinkTest, KeepsTheCrashStreamWhenItIsTheCause) {
  // Behavioral predicate through the real simulator: the failure needs
  // at least one migration, so the crash stream must survive shrinking.
  ChaosCase c = CrashyCase();
  c.fault.crash_rate = 0.05;
  const CasePredicate<ChaosCase> predicate = [](const ChaosCase& x) {
    auto run = RunChaosCase(x);
    return run.ok() && run.ValueOrDie().num_migrations >= 1;
  };
  ASSERT_TRUE(predicate(c));
  const ChaosCase shrunk = SimChaosProfile().Shrink(c, predicate);
  EXPECT_TRUE(predicate(shrunk));
  EXPECT_GT(shrunk.fault.crash_rate, 0.0);
  EXPECT_LE(shrunk.workload.num_transactions, c.workload.num_transactions);
}

TEST(ChaosShrinkTest, BisectsTheCrashTimelineToLoadBearingInstants) {
  ChaosCase c = CrashyCase();
  c.fault.crash_rate = 0.04;  // several crash windows within the horizon
  auto initial = RunChaosCase(c);
  ASSERT_TRUE(initial.ok()) << initial.status();
  const size_t initial_crashes = initial.ValueOrDie().num_crashes;
  ASSERT_GE(initial_crashes, 3u) << "nothing to bisect";
  // The failure needs the full workload AND at least one crash. Pinning
  // the horizon forces the shrinker to thin the timeline itself instead
  // of halving the run until the crashes fall off the end.
  const CasePredicate<ChaosCase> predicate = [](const ChaosCase& x) {
    if (x.workload.num_transactions < 40) return false;
    auto run = RunChaosCase(x);
    return run.ok() && run.ValueOrDie().num_crashes >= 1;
  };
  ASSERT_TRUE(predicate(c));
  const ChaosCase shrunk = SimChaosProfile().Shrink(c, predicate);
  EXPECT_TRUE(predicate(shrunk));
  // Shrink quality: individual windows were suppressed, and the
  // surviving timeline is strictly thinner while still failing.
  EXPECT_FALSE(shrunk.fault.suppressed_crashes.empty());
  auto rerun = RunChaosCase(shrunk);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_LT(rerun.ValueOrDie().num_crashes, initial_crashes);
  EXPECT_GE(rerun.ValueOrDie().num_crashes, 1u);
}

TEST(ChaosShrinkTest, BisectsTheOutageTimelineToLoadBearingInstants) {
  ChaosCase c = CrashyCase();
  c.fault.crash_rate = 0.0;
  c.fault.mean_repair_duration = 0.0;
  c.fault.outage_rate = 0.05;
  c.fault.mean_outage_duration = 8.0;
  auto initial = RunChaosCase(c);
  ASSERT_TRUE(initial.ok()) << initial.status();
  const size_t initial_outages = initial.ValueOrDie().num_outages;
  ASSERT_GE(initial_outages, 3u) << "nothing to bisect";
  const CasePredicate<ChaosCase> predicate = [](const ChaosCase& x) {
    if (x.workload.num_transactions < 40) return false;
    auto run = RunChaosCase(x);
    return run.ok() && run.ValueOrDie().num_outages >= 1;
  };
  ASSERT_TRUE(predicate(c));
  const ChaosCase shrunk = SimChaosProfile().Shrink(c, predicate);
  EXPECT_TRUE(predicate(shrunk));
  EXPECT_FALSE(shrunk.fault.suppressed_outages.empty());
  auto rerun = RunChaosCase(shrunk);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_LT(rerun.ValueOrDie().num_outages, initial_outages);
  EXPECT_GE(rerun.ValueOrDie().num_outages, 1u);
}

// No profile reads the retired steal dialect: a file that opens with its
// header is not a replay, and no profile answers to its name.
TEST(ChaosReplayTest, RetiredStealHeaderIsRejected) {
  const std::string text = SimChaosProfile().Serialize(
      SimChaosProfile().random(2009, 4));
  auto profile =
      ReplayProfile("webtx-steal-replay v1" + text.substr(text.find('\n')));
  ASSERT_FALSE(profile.ok());
  EXPECT_EQ(profile.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FindChaosProfile("steal"), nullptr);
}

// -- live ------------------------------------------------------------------

LiveChaosCase SmallLiveCase() {
  LiveChaosCase c;
  c.workload_seed = 33;
  c.num_tasks = 30;
  c.mean_interarrival = 0.03;
  c.mean_duration = 0.08;
  c.max_weight = 4;
  c.dep_prob = 0.2;
  c.timeout_prob = 0.15;
  c.num_workers = 2;
  c.policy = "SRPT";
  c.faults.plan.outage_rate = 0.4;
  c.faults.plan.mean_outage_duration = 0.3;
  c.faults.plan.crash_rate = 0.25;
  c.faults.plan.mean_repair_duration = 0.4;
  c.faults.plan.abort_rate = 0.1;
  c.faults.plan.seed = 12;
  c.faults.latency_spike_prob = 0.2;
  c.faults.mean_latency_spike = 0.02;
  c.migration = MigrationPolicy::kCold;
  c.retry_max_attempts = 3;
  c.retry_backoff = 0.04;
  c.retry_max_backoff = 0.08;
  c.retry_budget = 3;
  c.watchdog = true;
  c.watchdog_stall_seconds = 0.06;
  return c;
}

TEST(LiveChaosTest, RunIsDigestStableAndPassesItsOwnInvariants) {
  const LiveChaosCase c = SmallLiveCase();
  auto first = RunLiveChaosCase(c);
  auto second = RunLiveChaosCase(c);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first.ValueOrDie().digest, second.ValueOrDie().digest);
  EXPECT_NE(first.ValueOrDie().digest, 0u);
  const Status verdict = CheckLiveChaosInvariants(c, first.ValueOrDie());
  EXPECT_TRUE(verdict.ok()) << verdict;
  // The case is fault-seasoned enough to mean something.
  EXPECT_GT(first.ValueOrDie().stats.crashes +
                first.ValueOrDie().stats.stalls +
                first.ValueOrDie().stats.forced_aborts,
            0u);
  // The replay text of the case runs the same timeline.
  const CaseProfile<LiveChaosCase>& p = LiveChaosProfile();
  auto replayed = p.Replay(p.Serialize(c));
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed.ValueOrDie().digest, first.ValueOrDie().digest);
}

// The executor CHECKs these; the runner returns ExecutorOptions'
// status before building it.
TEST(LiveChaosTest, RunRejectsInvalidExecutorOptions) {
  for (const double bad : {std::nan(""), -1.0}) {
    LiveChaosCase stall = SmallLiveCase();
    stall.watchdog_stall_seconds = bad;
    LiveChaosCase backoff = SmallLiveCase();
    backoff.retry_max_backoff = bad;
    for (const auto& [c, field] : {std::pair{stall, "watchdog_stall_seconds"},
                                   std::pair{backoff, "retry_max_backoff"}}) {
      const Status status = RunLiveChaosCase(c).status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << field << "=" << bad;
      EXPECT_NE(status.message().find(field), std::string::npos) << status;
    }
  }
}

TEST(LiveChaosTest, ShrinkPreservesThePredicate) {
  const LiveChaosCase original = SmallLiveCase();
  const LiveChaosCase shrunk = ExpectShrinkKeepsThePredicate(
      LiveChaosProfile(), original, [](const LiveChaosCase& c) {
        return c.num_tasks >= 10 && c.faults.plan.crash_rate > 0.0;
      });
  EXPECT_LE(shrunk.num_tasks, original.num_tasks);
  EXPECT_LE(shrunk.num_workers, original.num_workers);
}

// -- twin ------------------------------------------------------------------

TwinChaosCase SmallTwinCase() {
  TwinChaosCase c;
  c.workload.shape = LiveArrivalShape::kFlashCrowd;
  c.workload.seed = 41;
  c.workload.num_tasks = 50;
  c.workload.rate = 60.0;
  c.workload.spike_factor = 6.0;
  c.workload.spike_start = 0.3;
  c.workload.spike_duration = 0.4;
  c.workload.mean_duration = 0.05;
  c.workload.deadline_slack = 1.5;
  rt::TwinCandidate fcfs;
  rt::TwinCandidate edf_depth;
  edf_depth.policy = "EDF";
  edf_depth.admission = rt::TwinCandidate::Admission::kQueueDepth;
  edf_depth.max_ready = 12;
  rt::TwinCandidate srpt;
  srpt.policy = "SRPT";
  c.controller.candidates = {fcfs, edf_depth, srpt};
  c.controller.control_interval = 0.2;
  c.controller.forecast_horizon = 0.4;
  c.controller.dwell_ticks = 1;
  c.controller.num_workers = 2;
  c.controller.faults.plan.crash_rate = 0.1;
  c.controller.faults.plan.mean_repair_duration = 0.5;
  c.controller.faults.plan.seed = 9;
  return c;
}

TEST(TwinChaosTest, RunIsDigestStableAndPassesItsOwnInvariants) {
  const TwinChaosCase c = SmallTwinCase();
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
  // The replay text of the case runs the same timeline; its check adds
  // the forecast_threads 2 and 8 re-runs.
  const CaseProfile<TwinChaosCase>& p = TwinChaosProfile();
  auto replayed = p.Replay(p.Serialize(c));
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed.ValueOrDie().digest, first.ValueOrDie().digest);
  EXPECT_TRUE(replayed.ValueOrDie().verdict.ok())
      << replayed.ValueOrDie().verdict;
  EXPECT_EQ(p.neutral(c).size(), 2u);
}

TEST(TwinChaosTest, ShrinkPreservesThePredicate) {
  const TwinChaosCase original = SmallTwinCase();
  const TwinChaosCase shrunk = ExpectShrinkKeepsThePredicate(
      TwinChaosProfile(), original, [](const TwinChaosCase& c) {
        return c.workload.num_tasks >= 10 &&
               !c.controller.candidates.empty() &&
               c.controller.faults.plan.crash_rate > 0.0;
      });
  EXPECT_LE(shrunk.workload.num_tasks, original.workload.num_tasks);
  EXPECT_LE(shrunk.controller.num_workers, original.controller.num_workers);
  EXPECT_LE(shrunk.controller.candidates.size(),
            original.controller.candidates.size());
  EXPECT_LT(shrunk.controller.static_index,
            shrunk.controller.candidates.size());
}

TEST(TwinChaosTest, ControllerOffMeansNoDecisions) {
  TwinChaosCase c = SmallTwinCase();
  c.controller.controller_enabled = false;
  auto run = RunTwinChaosCase(c);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run.ValueOrDie().decisions.empty());
  EXPECT_EQ(run.ValueOrDie().switches, 0u);
  EXPECT_EQ(run.ValueOrDie().final_config, c.controller.static_index);
  const Status verdict = CheckTwinChaosInvariants(c, run.ValueOrDie());
  EXPECT_TRUE(verdict.ok()) << verdict;
  // Without a controller there is no forecast fan-out to sweep.
  EXPECT_TRUE(TwinChaosProfile().neutral(c).empty());
}

TEST(TwinChaosTest, CorruptedModelTripsTheGuard) {
  TwinChaosCase c = SmallTwinCase();
  // The shadow believes service times are 8x reality's, and the guard
  // is wound tight (any forecast miss above the absolute floor is a
  // strike, one strike trips): the model must be caught lying within
  // two ticks of congestion.
  c.controller.snapshot_corruption = 8.0;
  c.controller.guard_strikes = 1;
  c.controller.divergence_tolerance = 0.0;
  c.controller.divergence_abs_floor = 0.01;
  c.controller.faults.plan = {};  // isolate the guard from crash noise
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
    EXPECT_EQ(d.applied, c.controller.static_index);
  }
  EXPECT_TRUE(saw_fallback);
  const Status verdict = CheckTwinChaosInvariants(c, report);
  EXPECT_TRUE(verdict.ok()) << verdict;
}

}  // namespace
}  // namespace webtx
