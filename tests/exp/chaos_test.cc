#include "exp/chaos.h"

#include <gtest/gtest.h>

namespace webtx {
namespace {

ChaosCase CrashyCase() {
  ChaosCase c;
  c.workload_seed = 77;
  c.num_transactions = 60;
  c.utilization = 0.9;
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
  EXPECT_EQ(r.outcomes.size(), c.num_transactions);
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

TEST(ChaosReplayTest, SerializeParseRoundTrips) {
  const ChaosCase c = RandomChaosCase(123, 7);
  const std::string text = SerializeChaosCase(c);
  auto parsed = ParseChaosReplay(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // Value-exact round trip, doubles included.
  EXPECT_EQ(SerializeChaosCase(parsed.ValueOrDie()), text);
}

TEST(ChaosReplayTest, ParseToleratesCommentsAndBlankLines) {
  const std::string text = "# a comment\n\n" + SerializeChaosCase(CrashyCase());
  auto parsed = ParseChaosReplay(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.ValueOrDie().policy, "EDF");
}

TEST(ChaosReplayTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseChaosReplay("").ok());
  EXPECT_FALSE(ParseChaosReplay("not a replay\n").ok());
  const std::string good = SerializeChaosCase(CrashyCase());
  EXPECT_FALSE(ParseChaosReplay(good + "mystery_knob 3\n").ok());
  EXPECT_FALSE(ParseChaosReplay(good + "crash_rate banana\n").ok());
  EXPECT_FALSE(ParseChaosReplay(good + "migration lukewarm\n").ok());
  EXPECT_FALSE(ParseChaosReplay(good + "suppress_crash banana\n").ok());
  EXPECT_FALSE(ParseChaosReplay(good + "suppress_crash 1\n").ok());
  EXPECT_FALSE(ParseChaosReplay(good + "suppress_outage 1 pear\n").ok());
  // Keys of removed structure knobs are rejected like any unknown key.
  EXPECT_FALSE(ParseChaosReplay(good + "pending_queue wheel\n").ok());
  EXPECT_FALSE(ParseChaosReplay(good + "pending_queue heap\n").ok());
  EXPECT_FALSE(ParseChaosReplay(good + "txn_store soa\n").ok());
  EXPECT_FALSE(ParseChaosReplay(good + "txn_store vec\n").ok());
}

TEST(ChaosReplayTest, SuppressionLinesRoundTrip) {
  ChaosCase c = CrashyCase();
  c.fault.outage_rate = 0.01;
  c.fault.mean_outage_duration = 5.0;
  c.fault.suppressed_crashes = {EncodeFaultOrdinal(1, 3),
                                EncodeFaultOrdinal(0, 0)};
  c.fault.suppressed_outages = {EncodeFaultOrdinal(0, 2)};
  const std::string text = SerializeChaosCase(c);
  auto parsed = ParseChaosReplay(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeChaosCase(parsed.ValueOrDie()), text);
  EXPECT_EQ(parsed.ValueOrDie().fault.suppressed_crashes,
            c.fault.suppressed_crashes);
  EXPECT_EQ(parsed.ValueOrDie().fault.suppressed_outages,
            c.fault.suppressed_outages);
  // The parsed case must replay the suppressed timeline byte-identically.
  EXPECT_EQ(ScheduleDigest(RunChaosCase(parsed.ValueOrDie()).ValueOrDie()),
            ScheduleDigest(RunChaosCase(c).ValueOrDie()));
}

TEST(ChaosRandomTest, CasesAreDeterministic) {
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(SerializeChaosCase(RandomChaosCase(42, i)),
              SerializeChaosCase(RandomChaosCase(42, i)));
  }
  EXPECT_NE(SerializeChaosCase(RandomChaosCase(42, 0)),
            SerializeChaosCase(RandomChaosCase(42, 1)));
  EXPECT_NE(SerializeChaosCase(RandomChaosCase(42, 0)),
            SerializeChaosCase(RandomChaosCase(43, 0)));
}

TEST(ChaosShrinkTest, ShrinksToTheLoadBearingKnobs) {
  // Synthetic failure: reproduces iff the case still has >= 12
  // transactions AND a live abort stream. The shrinker must drop every
  // other knob and halve the horizon to just above the threshold.
  ChaosCase c = RandomChaosCase(1, 0);
  c.num_transactions = 200;
  c.fault.abort_rate = 0.01;
  const ChaosPredicate predicate = [](const ChaosCase& x) {
    return x.num_transactions >= 12 && x.fault.abort_rate > 0.0;
  };
  ASSERT_TRUE(predicate(c));
  const ChaosCase shrunk = ShrinkChaosCase(c, predicate);
  EXPECT_TRUE(predicate(shrunk));
  EXPECT_GE(shrunk.num_transactions, 12u);
  EXPECT_LT(shrunk.num_transactions, 24u);  // one more halving would pass
  EXPECT_GT(shrunk.fault.abort_rate, 0.0);
  EXPECT_EQ(shrunk.fault.crash_rate, 0.0);
  EXPECT_EQ(shrunk.fault.outage_rate, 0.0);
  EXPECT_EQ(shrunk.fault.correlated_crash_prob, 0.0);
  EXPECT_EQ(shrunk.admission_max_ready, 0u);
  EXPECT_EQ(shrunk.num_servers, 1u);
  EXPECT_EQ(shrunk.max_weight, 1u);
  EXPECT_EQ(shrunk.max_workflow_length, 1u);
  EXPECT_EQ(shrunk.burstiness, 0.0);
  EXPECT_EQ(shrunk.estimate_error, 0.0);
}

TEST(ChaosShrinkTest, AlwaysFailingCaseShrinksToTheFloor) {
  ChaosCase c = RandomChaosCase(1, 3);
  c.num_transactions = 100;
  const ChaosCase shrunk =
      ShrinkChaosCase(c, [](const ChaosCase&) { return true; });
  EXPECT_EQ(shrunk.num_transactions, 1u);
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
  const ChaosPredicate predicate = [](const ChaosCase& x) {
    auto run = RunChaosCase(x);
    return run.ok() && run.ValueOrDie().num_migrations >= 1;
  };
  ASSERT_TRUE(predicate(c));
  const ChaosCase shrunk = ShrinkChaosCase(c, predicate);
  EXPECT_TRUE(predicate(shrunk));
  EXPECT_GT(shrunk.fault.crash_rate, 0.0);
  EXPECT_LE(shrunk.num_transactions, c.num_transactions);
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
  const ChaosPredicate predicate = [](const ChaosCase& x) {
    if (x.num_transactions < 40) return false;
    auto run = RunChaosCase(x);
    return run.ok() && run.ValueOrDie().num_crashes >= 1;
  };
  ASSERT_TRUE(predicate(c));
  const ChaosCase shrunk = ShrinkChaosCase(c, predicate);
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
  const ChaosPredicate predicate = [](const ChaosCase& x) {
    if (x.num_transactions < 40) return false;
    auto run = RunChaosCase(x);
    return run.ok() && run.ValueOrDie().num_outages >= 1;
  };
  ASSERT_TRUE(predicate(c));
  const ChaosCase shrunk = ShrinkChaosCase(c, predicate);
  EXPECT_TRUE(predicate(shrunk));
  EXPECT_FALSE(shrunk.fault.suppressed_outages.empty());
  auto rerun = RunChaosCase(shrunk);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_LT(rerun.ValueOrDie().num_outages, initial_outages);
  EXPECT_GE(rerun.ValueOrDie().num_outages, 1u);
}

TEST(ChaosCampaignTest, HealthySimulatorPassesACampaign) {
  ChaosCampaignOptions options;
  options.master_seed = 7;
  options.num_cases = 40;
  size_t progress_calls = 0;
  options.progress = [&](size_t, const std::string& violation) {
    ++progress_calls;
    EXPECT_TRUE(violation.empty()) << violation;
  };
  auto campaign = RunChaosCampaign(options);
  ASSERT_TRUE(campaign.ok()) << campaign.status();
  const ChaosCampaignResult& r = campaign.ValueOrDie();
  EXPECT_EQ(r.cases_run, 40u);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_TRUE(r.first_violation.empty());
  EXPECT_EQ(progress_calls, 40u);
  // The campaign must actually exercise the crash machinery, not idle
  // on fault-free cases.
  EXPECT_GT(r.total_crashes, 0u);
  EXPECT_GT(r.total_migrations, 0u);
}

}  // namespace
}  // namespace webtx
