#include "sim/schedule_validator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.h"
#include "sched/policy_factory.h"
#include "sim/simulator.h"
#include "testing/fake_view.h"

namespace webtx {
namespace {

using testing::Txn;

RunResult RunRecorded(const std::vector<TransactionSpec>& txns,
                      const std::string& policy_name, size_t servers = 1) {
  SimOptions options;
  options.record_schedule = true;
  options.num_servers = servers;
  auto sim = Simulator::Create(txns, options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  auto policy = CreatePolicy(policy_name);
  EXPECT_TRUE(policy.ok());
  return sim.ValueOrDie().Run(*policy.ValueOrDie());
}

TEST(ScheduleValidatorTest, AcceptsARealSchedule) {
  const std::vector<TransactionSpec> txns = {
      Txn(0, 0, 4, 10), Txn(1, 1, 2, 5), Txn(2, 0, 3, 20, 1.0, {0})};
  const RunResult r = RunRecorded(txns, "SRPT");
  EXPECT_TRUE(ValidateSchedule(txns, r, 1).ok());
  EXPECT_FALSE(r.schedule.empty());
}

TEST(ScheduleValidatorTest, ScheduleIsOffByDefault) {
  const std::vector<TransactionSpec> txns = {Txn(0, 0, 1, 5)};
  auto sim = Simulator::Create(txns);
  ASSERT_TRUE(sim.ok());
  auto policy = CreatePolicy("EDF");
  ASSERT_TRUE(policy.ok());
  EXPECT_TRUE(sim.ValueOrDie().Run(*policy.ValueOrDie()).schedule.empty());
}

TEST(ScheduleValidatorTest, SegmentsCoverPreemptions) {
  // SRPT preempts T0 for T1: T0 must appear as two segments.
  const std::vector<TransactionSpec> txns = {Txn(0, 0, 10, 100),
                                             Txn(1, 3, 2, 100)};
  const RunResult r = RunRecorded(txns, "SRPT");
  size_t t0_segments = 0;
  for (const auto& s : r.schedule) {
    if (s.txn == 0) ++t0_segments;
  }
  EXPECT_EQ(t0_segments, 2u);
  EXPECT_TRUE(ValidateSchedule(txns, r, 1).ok());
}

TEST(ScheduleValidatorTest, RequiresOutcomes) {
  const std::vector<TransactionSpec> txns = {Txn(0, 0, 1, 5)};
  SimOptions options;
  options.record_schedule = true;
  options.record_outcomes = false;
  auto sim = Simulator::Create(txns, options);
  ASSERT_TRUE(sim.ok());
  auto policy = CreatePolicy("EDF");
  ASSERT_TRUE(policy.ok());
  const RunResult r = sim.ValueOrDie().Run(*policy.ValueOrDie());
  EXPECT_FALSE(ValidateSchedule(txns, r, 1).ok());
}

class CorruptionTest : public ::testing::Test {
 protected:
  CorruptionTest()
      : txns_({Txn(0, 0, 4, 10), Txn(1, 1, 2, 5),
               Txn(2, 0, 3, 20, 1.0, {0})}),
        result_(RunRecorded(txns_, "EDF")) {}

  std::vector<TransactionSpec> txns_;
  RunResult result_;
};

TEST_F(CorruptionTest, DetectsBadServerIndex) {
  result_.schedule[0].server = 7;
  EXPECT_FALSE(ValidateSchedule(txns_, result_, 1).ok());
}

TEST_F(CorruptionTest, DetectsEmptySegment) {
  result_.schedule[0].end = result_.schedule[0].start;
  EXPECT_FALSE(ValidateSchedule(txns_, result_, 1).ok());
}

TEST_F(CorruptionTest, DetectsRunBeforeArrival) {
  RunResult r = result_;
  for (auto& s : r.schedule) {
    if (s.txn == 1) {
      s.start -= 1.0;  // T1 arrives at 1; pull its start before that
      break;
    }
  }
  EXPECT_FALSE(ValidateSchedule(txns_, r, 1).ok());
}

TEST_F(CorruptionTest, DetectsServerOverlap) {
  RunResult r = result_;
  ASSERT_GE(r.schedule.size(), 2u);
  r.schedule[1].start = r.schedule[0].start + 0.1;
  EXPECT_FALSE(ValidateSchedule(txns_, r, 1).ok());
}

TEST_F(CorruptionTest, DetectsLostWork) {
  RunResult r = result_;
  r.schedule.pop_back();
  EXPECT_FALSE(ValidateSchedule(txns_, r, 1).ok());
}

TEST_F(CorruptionTest, DetectsFinishMismatch) {
  RunResult r = result_;
  r.outcomes[0].finish += 5.0;
  EXPECT_FALSE(ValidateSchedule(txns_, r, 1).ok());
}

TEST_F(CorruptionTest, DetectsPrecedenceViolation) {
  RunResult r = result_;
  // Claim T0 finished much later; T2 (which depends on it) now appears
  // to have started too early.
  r.outcomes[0].finish += 3.0;
  for (auto& s : r.schedule) {
    if (s.txn == 0 && TimeEq(s.end, result_.outcomes[0].finish)) {
      s.end += 3.0;
      s.start += 3.0;
    }
  }
  EXPECT_FALSE(ValidateSchedule(txns_, r, 1).ok());
}

TEST_F(CorruptionTest, DetectsExecutionDuringAnOutage) {
  // The recorded schedule is fault-free; claiming server 0 was down
  // while its first segment ran must be flagged.
  ValidationOptions options;
  options.outages.push_back(OutageWindow{
      0, result_.schedule[0].start, result_.schedule[0].end});
  EXPECT_FALSE(ValidateSchedule(txns_, result_, options).ok());
  // A window on another (hypothetical) server is harmless.
  options.num_servers = 2;
  options.outages[0].server = 1;
  EXPECT_TRUE(ValidateSchedule(txns_, result_, options).ok());
}

TEST_F(CorruptionTest, DetectsAbortedWorkCountedTowardCompletion) {
  RunResult r = result_;
  // Claim T0 aborted once: its recorded segments now belong to the
  // discarded attempt 0, so the "final attempt" executed nothing.
  r.outcomes[0].aborts = 1;
  EXPECT_FALSE(ValidateSchedule(txns_, r, 1).ok());
}

TEST_F(CorruptionTest, DetectsAttemptNumbersBeyondRecordedAborts) {
  RunResult r = result_;
  for (auto& s : r.schedule) {
    if (s.txn == 0) s.attempt = 2;  // outcomes[0].aborts is still 0
  }
  EXPECT_FALSE(ValidateSchedule(txns_, r, 1).ok());
}

TEST_F(CorruptionTest, DetectsDropWithoutRecordedCause) {
  RunResult r = result_;
  // Rewriting a completed fate breaks the counter partition: every
  // drop must carry its cause and be counted exactly once.
  r.outcomes[1].fate = TxnFate::kDroppedRetries;
  EXPECT_FALSE(ValidateSchedule(txns_, r, 1).ok());
}

TEST_F(CorruptionTest, DetectsCounterMismatch) {
  RunResult r = result_;
  r.num_completed -= 1;
  r.num_shed += 1;
  EXPECT_FALSE(ValidateSchedule(txns_, r, 1).ok());
}

TEST_F(CorruptionTest, DetectsDropNotCountedAsMiss) {
  RunResult r = result_;
  // A shed transaction that still claims to have met its deadline.
  r.outcomes[1].fate = TxnFate::kShedAdmission;
  r.outcomes[1].missed_deadline = false;
  r.num_completed -= 1;
  r.num_shed += 1;
  EXPECT_FALSE(ValidateSchedule(txns_, r, 1).ok());
}

// The validator is a debugging tool first: every rejection must name
// the offending event precisely enough to find it in a schedule dump —
// transaction id, server, and timestamp, not just the rule that fired.

TEST_F(CorruptionTest, DiagnosticsNameTheOffendingSegment) {
  RunResult r = result_;
  r.schedule[0].server = 7;
  const Status s = ValidateSchedule(txns_, r, 1);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown server"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("T" + std::to_string(r.schedule[0].txn)),
            std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("server7"), std::string::npos) << s.message();
}

TEST_F(CorruptionTest, DiagnosticsCarryTheViolationTimestamp) {
  RunResult r = result_;
  for (auto& seg : r.schedule) {
    if (seg.txn == 1) {
      seg.start -= 1.0;  // T1 arrives at 1
      break;
    }
  }
  const Status s = ValidateSchedule(txns_, r, 1);
  ASSERT_FALSE(s.ok());
  // Names the arrival it ran ahead of, and the transaction + server.
  EXPECT_NE(s.message().find("t=1.0"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("T1@server0"), std::string::npos)
      << s.message();
}

TEST_F(CorruptionTest, OverlapDiagnosticsNameBothSegments) {
  RunResult r = result_;
  ASSERT_GE(r.schedule.size(), 2u);
  // Stretch segment 0 into segment 1 (moving segment 1's start back
  // would trip the runs-before-arrival check first, not the overlap).
  r.schedule[0].end = r.schedule[1].start + 0.5;
  const Status s = ValidateSchedule(txns_, r, 1);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("overlap"), std::string::npos) << s.message();
  // Both colliding segments appear, each with txn, server, and window.
  EXPECT_NE(s.message().find("T" + std::to_string(r.schedule[0].txn)),
            std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("T" + std::to_string(r.schedule[1].txn)),
            std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("@server0"), std::string::npos) << s.message();
}

TEST_F(CorruptionTest, CrashWindowDiagnosticsNameServerAndWindow) {
  ValidationOptions options;
  options.crashes.push_back(OutageWindow{
      0, result_.schedule[0].start, result_.schedule[0].end});
  const Status s = ValidateSchedule(txns_, result_, options);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("crashed server"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("repair@server0"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("T" + std::to_string(result_.schedule[0].txn)),
            std::string::npos)
      << s.message();
}

// Check 7 looks each segment up among its own server's windows, sorted
// by start with a running maximum of their ends. The verdict and the
// message are those of a scan of every window: the first violating
// segment in schedule order, and for it the first window in list order,
// outages before crashes. The fixture's EDF schedule on server 0 is
// T0 [0, 1), T1 [1, 3), T0 [3, 6), T2 [6, 9).

TEST_F(CorruptionTest, OverlappingCrashWindowsNameTheFirstInListOrder) {
  // Correlated crashes are recorded as separate, overlapping windows.
  // Both hit T0 [3, 6); the later-starting one comes first in the list.
  ValidationOptions options;
  options.crashes = {OutageWindow{0, 5.0, 7.0}, OutageWindow{0, 4.0, 8.0}};
  EXPECT_EQ(ValidateSchedule(txns_, result_, options).message(),
            "executes on crashed server during repair@server0 [5.000000, "
            "7.000000): T0@server0 [3.000000, 6.000000) attempt 0");
}

TEST_F(CorruptionTest, LongEarlyWindowCoversASegmentPastShorterLaterOnes) {
  // The windows starting before T0 [0, 1) ends are, by start, a long one
  // covering it and two shorter, later ones that end before it: only the
  // running maximum of their ends sees the hit.
  ValidationOptions options;
  options.outages = {OutageWindow{0, -3.0, -2.0}, OutageWindow{0, -5.0, -4.0},
                     OutageWindow{0, -10.0, 0.5}};
  EXPECT_EQ(ValidateSchedule(txns_, result_, options).message(),
            "executes during outage@server0 [-10.000000, 0.500000): "
            "T0@server0 [0.000000, 1.000000) attempt 0");
}

TEST_F(CorruptionTest, WindowsAbuttingTheScheduleWithinEpsilonAreHarmless) {
  // Overlaps of at most the validator's 1e-6 tolerance at either end of
  // the busy period [0, 9), and a window starting exactly at its end.
  ValidationOptions options;
  options.outages = {OutageWindow{0, -5.0, 0.5e-6},
                     OutageWindow{0, 9.0 - 0.5e-6, 20.0},
                     OutageWindow{0, 9.0, 12.0}};
  EXPECT_TRUE(ValidateSchedule(txns_, result_, options).ok());
}

TEST_F(CorruptionTest, WindowsOfOtherServersAreHarmless) {
  // Server 1 is in the pool but idle; server 7 is past the pool.
  ValidationOptions options;
  options.num_servers = 2;
  options.outages = {OutageWindow{1, 0.0, 100.0}, OutageWindow{7, 0.0, 100.0}};
  options.crashes = {OutageWindow{7, 2.0, 4.0}};
  RunResult r = result_;
  r.num_crashes = 1;
  EXPECT_TRUE(ValidateSchedule(txns_, r, options).ok());
}

TEST_F(CorruptionTest, UnsortedSchedulesAreAuditedInTheirOwnOrder) {
  // ValidateSchedule is public: a caller may pass any segment order.
  RunResult r = result_;
  std::reverse(r.schedule.begin(), r.schedule.end());
  EXPECT_TRUE(ValidateSchedule(txns_, r, 1).ok());
  // The first violation is the first in the vector, here the latest.
  ValidationOptions options;
  options.outages = {OutageWindow{0, 0.5, 0.6}, OutageWindow{0, 7.0, 8.0}};
  EXPECT_EQ(ValidateSchedule(txns_, r, options).message(),
            "executes during outage@server0 [7.000000, 8.000000): "
            "T2@server0 [6.000000, 9.000000) attempt 0");
  // Per-server overlaps are found after sorting by start.
  r.schedule[2].end = 3.5;  // T1 [1, 3) now runs into T0 [3, 6)
  EXPECT_EQ(ValidateSchedule(txns_, r, 1).message(),
            "server overlap between T1@server0 [1.000000, 3.500000) "
            "attempt 0 and T0@server0 [3.000000, 6.000000) attempt 0");
}

TEST_F(CorruptionTest, WindowLookupMatchesAScanOfEveryWindow) {
  // Random window lists on two servers with bounds at and around the
  // segment boundaries, within and just past the 1e-6 tolerance, plus
  // NaN bounds and servers past the pool. The expected message comes
  // from the plain scan over every window of every segment.
  const SimTime kPoints[] = {-1.0, 0.0, 1.0, 3.0, 6.0, 9.0, 10.0};
  const SimTime kNudges[] = {-1.5e-6, -1e-6, -0.5e-6, 0.0,
                             0.5e-6,  1e-6,  1.5e-6};
  Rng rng(2009);
  const auto bound = [&] {
    if (rng.NextInRange(0, 19) == 0) return std::nan("");
    return kPoints[rng.NextInRange(0, 6)] + kNudges[rng.NextInRange(0, 6)];
  };
  const auto windows = [&] {
    std::vector<OutageWindow> list(rng.NextInRange(0, 4));
    for (OutageWindow& w : list) {
      w.server = static_cast<uint32_t>(rng.NextInRange(0, 2));
      w.start = bound();
      w.end = bound();
    }
    return list;
  };
  const auto first_hit = [](const std::vector<OutageWindow>& list,
                            const ScheduleSegment& s) -> const OutageWindow* {
    for (const OutageWindow& w : list) {
      if (w.server == s.server && s.start < w.end - 1e-6 &&
          s.end > w.start + 1e-6) {
        return &w;
      }
    }
    return nullptr;
  };
  size_t hits = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    ValidationOptions options;
    options.num_servers = 2;
    options.outages = windows();
    options.crashes = windows();
    RunResult r = result_;
    r.num_crashes = options.crashes.size();
    std::string expected;
    for (const ScheduleSegment& s : r.schedule) {
      if (const OutageWindow* w = first_hit(options.outages, s)) {
        expected = "executes during outage@server" +
                   std::to_string(w->server) + " [" +
                   std::to_string(w->start) + ", " + std::to_string(w->end) +
                   ")";
      } else if (const OutageWindow* c = first_hit(options.crashes, s)) {
        expected = "executes on crashed server during repair@server" +
                   std::to_string(c->server) + " [" +
                   std::to_string(c->start) + ", " + std::to_string(c->end) +
                   ")";
      } else {
        continue;
      }
      expected += ": T" + std::to_string(s.txn) + "@server0 [" +
                  std::to_string(s.start) + ", " + std::to_string(s.end) +
                  ") attempt 0";
      break;
    }
    hits += expected.empty() ? 0 : 1;
    EXPECT_EQ(ValidateSchedule(txns_, r, options).message(), expected)
        << "trial " << trial;
  }
  // Both verdicts are well represented.
  EXPECT_GT(hits, 200u);
  EXPECT_LT(hits, 1800u);
}

TEST_F(CorruptionTest, CounterDiagnosticsNameCounterAndBothValues) {
  RunResult r = result_;
  r.num_completed -= 1;
  r.num_shed += 1;
  const Status s = ValidateSchedule(txns_, r, 1);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("RunResult.num_"), std::string::npos)
      << s.message();
  // Both the claimed and the recomputed value are in the message.
  EXPECT_NE(s.message().find(std::to_string(r.num_completed)),
            std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find(std::to_string(r.num_completed + 1)),
            std::string::npos)
      << s.message();
}

TEST(ScheduleValidatorTest, MultiServerSchedulesValidate) {
  const std::vector<TransactionSpec> txns = {
      Txn(0, 0, 5, 10),  Txn(1, 0, 7, 12), Txn(2, 1, 2, 6),
      Txn(3, 2, 4, 20, 1.0, {0}), Txn(4, 2, 1, 9)};
  for (const char* name : {"FCFS", "EDF", "SRPT", "ASETS", "ASETS*"}) {
    for (const size_t servers : {1u, 2u, 3u}) {
      const RunResult r = RunRecorded(txns, name, servers);
      EXPECT_TRUE(ValidateSchedule(txns, r, servers).ok())
          << name << " k=" << servers << ": "
          << ValidateSchedule(txns, r, servers).ToString();
    }
  }
}

}  // namespace
}  // namespace webtx
