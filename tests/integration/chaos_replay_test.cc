// Re-runs every committed chaos reproducer byte-identically through the
// one replay parser (exp/campaign.h), the same path `tools/chaos
// --replay FILE` takes: the header picks the profile, the case runs
// twice (digests must match) plus its neutral variants, and the audit
// must pass. Each file was minted by `tools/chaos --mint FILE
// [--profile NAME]` — a randomized case shrunk to a local minimum
// against the behaviour it pins — or written by hand to load a
// structure. The pinned digests are the determinism contracts of the
// simulator, the live executor and the digital twin: if one drifts,
// that layer's observable behaviour changed and the golden value must
// be revisited deliberately.
//
// Three more tables feed hostile one-key edits of the same files: each
// must come back as an InvalidArgument, from the parser naming the line
// or, for a value that clashes with another key or a policy spec the
// parser keeps as text, from the run — never as an abort.

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "exp/campaign.h"
#include "exp/chaos.h"
#include "exp/live_chaos.h"

namespace webtx {
namespace {

struct Golden {
  const char* file;
  const char* profile;
  uint64_t digest;
  /// Counters the replay must reproduce exactly.
  Counters counters;
  /// The behaviour the case was minted or written for.
  void (*shape)(const std::string& text);
};

const Golden kGoldens[] = {
    {"cold_migration_minimal.chaos", "sim", 0x05c6252ae9c8b68fULL,
     {{"migrations", 4}},
     [](const std::string& text) {
       const ChaosCase c = SimChaosProfile().Parse(text).ValueOrDie();
       EXPECT_GT(c.fault.crash_rate, 0.0);
       EXPECT_EQ(c.fault.migration, MigrationPolicy::kCold);
     }},
    // 2000 transactions with workflows on 4 servers under ASETS*, with
    // outages, aborts + retries, and cold-migrating crashes all loading
    // the pending queue and the dependency graph at once.
    {"huge_structures_cold_migration.chaos", "sim", 0x4cc0232e8f78aba3ULL,
     {{"migrations", 1202}},
     [](const std::string& text) {
       const ChaosCase c = SimChaosProfile().Parse(text).ValueOrDie();
       EXPECT_EQ(c.policy, "ASETS*");
       EXPECT_EQ(c.num_servers, 4u);
       EXPECT_EQ(c.fault.migration, MigrationPolicy::kCold);
     }},
    // Real worker threads under the virtual clock: thread interleaving
    // must not leak into the recorded timeline.
    {"live_cold_migration_minimal.chaos", "live", 0x3f122a4cad36620bULL,
     {{"migrations", 1}, {"completed", 66}},
     [](const std::string& text) {
       const LiveChaosCase c = LiveChaosProfile().Parse(text).ValueOrDie();
       EXPECT_GT(c.faults.plan.crash_rate, 0.0);
       EXPECT_EQ(c.migration, MigrationPolicy::kCold);
     }},
    // A flash crowd with a corrupted shadow model: the guard falls back
    // to the static config amid real switches.
    {"twin_flash_guard_minimal.chaos", "twin", 0x1643c442aef88691ULL,
     {{"decisions", 12}, {"switches", 2}, {"fallbacks", 1}, {"completed", 59}},
     [](const std::string& text) {
       const TwinChaosCase c = TwinChaosProfile().Parse(text).ValueOrDie();
       EXPECT_TRUE(c.controller.controller_enabled);
       EXPECT_GT(c.controller.snapshot_corruption, 1.0);
       EXPECT_GE(c.controller.candidates.size(), 2u);
     }},
    // Candidate forecasts fanned out over 8 threads; the check's neutral
    // variants re-run it at 1 and 2 threads against the same digest.
    {"twin_parallel_forecast_minimal.chaos", "twin", 0x2a7eb7e5e14c0135ULL,
     {{"decisions", 13}, {"switches", 1}, {"completed", 73}},
     [](const std::string& text) {
       const TwinChaosCase c = TwinChaosProfile().Parse(text).ValueOrDie();
       EXPECT_EQ(c.controller.forecast_threads, 8u);
     }},
};

std::string ReadReplay(const char* file) {
  const std::string path = std::string(WEBTX_REPLAY_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing replay file: " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

const ChaosProfile& ProfileOf(const std::string& text) {
  auto profile = ReplayProfile(text);
  EXPECT_TRUE(profile.ok()) << profile.status();
  return *profile.ValueOrDie();
}

void ExpectParses(const Golden& g) {
  const std::string text = ReadReplay(g.file);
  EXPECT_EQ(ProfileOf(text).name, g.profile);
  g.shape(text);
}

void ExpectReplaysByteIdentically(const Golden& g) {
  const std::string text = ReadReplay(g.file);
  auto check = ProfileOf(text).Replay(text);
  ASSERT_TRUE(check.ok()) << check.status();
  const CaseRun& run = check.ValueOrDie();
  EXPECT_TRUE(run.verdict.ok()) << run.verdict;
  EXPECT_EQ(run.digest, g.digest);
  for (const auto& [counter, value] : g.counters) {
    EXPECT_EQ(CounterOf(run.counters, counter), value) << counter;
  }
}

void ExpectLosslessReserialization(const Golden& g) {
  const std::string text = ReadReplay(g.file);
  auto again = ProfileOf(text).Reserialize(text);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.ValueOrDie(), text);
}

TEST(ChaosReplayIntegrationTest, CommittedReproducerParses) {
  ExpectParses(kGoldens[0]);
}
TEST(ChaosReplayIntegrationTest, ReplaysByteIdentically) {
  ExpectReplaysByteIdentically(kGoldens[0]);
}
TEST(ChaosReplayIntegrationTest, ReserializingTheFileIsLossless) {
  ExpectLosslessReserialization(kGoldens[0]);
}
TEST(ChaosReplayIntegrationTest, HugeStructuresReproducerParses) {
  ExpectParses(kGoldens[1]);
}
TEST(ChaosReplayIntegrationTest, HugeStructuresReplayByteIdentical) {
  ExpectReplaysByteIdentically(kGoldens[1]);
}
TEST(ChaosReplayIntegrationTest, HugeStructuresFileIsLossless) {
  ExpectLosslessReserialization(kGoldens[1]);
}
TEST(LiveChaosReplayIntegrationTest, CommittedReproducerParses) {
  ExpectParses(kGoldens[2]);
}
TEST(LiveChaosReplayIntegrationTest, ReplaysByteIdentically) {
  ExpectReplaysByteIdentically(kGoldens[2]);
}
TEST(LiveChaosReplayIntegrationTest, ReserializingTheFileIsLossless) {
  ExpectLosslessReserialization(kGoldens[2]);
}
TEST(TwinReplayIntegrationTest, CommittedReproducerParses) {
  ExpectParses(kGoldens[3]);
}
TEST(TwinReplayIntegrationTest, ReplaysByteIdentically) {
  ExpectReplaysByteIdentically(kGoldens[3]);
}
TEST(TwinReplayIntegrationTest, ReserializingTheFileIsLossless) {
  ExpectLosslessReserialization(kGoldens[3]);
}
TEST(TwinReplayIntegrationTest, ParallelForecastReplayPinsItsDigest) {
  ExpectParses(kGoldens[4]);
  ExpectReplaysByteIdentically(kGoldens[4]);
  ExpectLosslessReserialization(kGoldens[4]);
}

// One-key edits that once tripped a library CHECK, wrapped a '-1' to
// 2^64-1, or named more ids than a uint32_t holds — two that were
// silently wrong (a truncated retry budget, weights drawn from the
// whole 64-bit range) — and values that fit their types but exhausted
// memory (std::bad_alloc under a 4 GB cap) or ran a case for more than
// 20 s.
struct HostileEdit {
  const char* file;
  const char* key;
  const char* value;
};

constexpr char kSim[] = "cold_migration_minimal.chaos";
constexpr char kHuge[] = "huge_structures_cold_migration.chaos";
constexpr char kLive[] = "live_cold_migration_minimal.chaos";
constexpr char kTwin[] = "twin_flash_guard_minimal.chaos";

const HostileEdit kHostileEdits[] = {
    {kSim, "num_servers", "0"},
    {kSim, "num_servers", "-1"},
    {kSim, "num_servers", "4294967297"},
    {kSim, "num_transactions", "-1"},
    {kSim, "num_transactions", "4294967297"},
    {kSim, "max_workflows_per_txn", "-1"},
    {kSim, "retry_max_attempts", "4294967297"},
    {kSim, "workload_seed", "18446744073709551616"},
    {kSim, "max_workflows_per_txn", "4294967297"},
    {kSim, "max_workflows_per_txn", "9999999"},
    {kSim, "outage_rate", "1000"},
    {kHuge, "max_workflows_per_txn", "4294967297"},
    {kHuge, "max_workflows_per_txn", "9999999"},
    {kHuge, "outage_rate", "1000"},
    {kLive, "num_tasks", "-1"},
    {kLive, "num_tasks", "4294967297"},
    {kLive, "num_workers", "-1"},
    {kLive, "num_workers", "4294967297"},
    {kLive, "max_weight", "0"},
    {kLive, "latency_spike_prob", "-1"},
    {kLive, "latency_spike_prob", "1e308"},
    {kLive, "latency_spike_prob", "4294967297"},
    {kLive, "retry_max_attempts", "4294967297"},
    {kLive, "retry_max_backoff", "-1"},
    {kLive, "watchdog_stall_seconds", "-1"},
    {kLive, "mean_interarrival", "4294967297"},
    {kLive, "mean_duration", "4294967297"},
    {kLive, "abort_rate", "4294967297"},
    {kLive, "crash_rate", "1000"},
    {kTwin, "num_tasks", "-1"},
    {kTwin, "num_tasks", "4294967297"},
    {kTwin, "num_workers", "-1"},
    {kTwin, "num_workers", "4294967297"},
    {kTwin, "forecast_threads", "-1"},
    {kTwin, "latency_spike_prob", "-1"},
    {kTwin, "latency_spike_prob", "1e308"},
    {kTwin, "latency_spike_prob", "4294967297"},
    {kTwin, "retry_max_backoff", "-1"},
    {kTwin, "watchdog_stall_seconds", "-1"},
    {kTwin, "deadline_slack", "-1"},
    {kTwin, "max_weight", "0"},
    {kTwin, "spike_factor", "0"},
    {kTwin, "spike_factor", "-1"},
    {kTwin, "spike_start", "-1"},
    {kTwin, "spike_duration", "-1"},
    {kTwin, "abort_rate", "4294967297"},
    {kTwin, "forecast_threads", "4294967297"},
    {kTwin, "rate", "2.3e-10"},
    {kTwin, "mean_duration", "4294967297"},
};

// Edits whose value is in range alone but that the runner rejects with
// the rest of the case, before the executor could CHECK them.
const HostileEdit kCrossFieldEdits[] = {
    {kLive, "admission", "depth"},         // admission_max_ready is 0
    {kLive, "latency_spike_prob", "0.5"},  // mean_latency_spike is 0
    {kTwin, "latency_spike_prob", "0.5"},  // mean_latency_spike is 0
};

// Policy specs are free text to the parser. A NaN parameter is refused
// by CreatePolicy when the run builds the policy, before MixPolicy or
// BalanceAwarePolicy could CHECK it. (A twin edit rewrites every
// candidate line.)
const HostileEdit kPolicySpecEdits[] = {
    {kSim, "policy", "MIX(nan)"},
    {kSim, "policy", "EDF-BA(count=nan)"},
    {kLive, "policy", "EDF-BA(time=nan)"},
    {kTwin, "candidate", "MIX(nan) none 64 0"},
    {kTwin, "candidate", "EDF-BA(time=nan) depth 29 0"},
};

std::string Edited(const HostileEdit& edit) {
  std::istringstream lines(ReadReplay(edit.file));
  std::string edited;
  bool found = false;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(std::string(edit.key) + " ", 0) == 0) {
      line = std::string(edit.key) + " " + edit.value;
      found = true;
    }
    edited += line + "\n";
  }
  EXPECT_TRUE(found) << edit.file << " has no " << edit.key;
  return edited;
}

std::string Describe(const HostileEdit& edit) {
  return std::string(edit.file) + ": " + edit.key + " " + edit.value;
}

// The 2000-transaction reproducer with outage_rate edited from 1/64 to
// 10: the run records about 389,000 outage and 50,000 repair windows.
// Scanning every window for every segment would audit it for minutes;
// the audit must look each segment up among its own server's windows.
TEST(ChaosReplayIntegrationTest, OutageHeavyHugeStructuresReplayIsAudited) {
  const std::string edited = Edited({kHuge, "outage_rate", "10"});
  auto check = ProfileOf(edited).Replay(edited);
  ASSERT_TRUE(check.ok()) << check.status();
  EXPECT_TRUE(check.ValueOrDie().verdict.ok()) << check.ValueOrDie().verdict;
  EXPECT_EQ(check.ValueOrDie().digest, 0x00c294203909f5d4ULL);
}

TEST(ReplayValidationTest, HostileEditsReturnAStatusNamingTheLine) {
  for (const HostileEdit& edit : kHostileEdits) {
    const std::string edited = Edited(edit);
    const Status parsed = ProfileOf(edited).Reserialize(edited).status();
    EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument) << Describe(edit);
    EXPECT_NE(parsed.ToString().find("line "), std::string::npos)
        << Describe(edit) << ": " << parsed.ToString();
    EXPECT_FALSE(ProfileOf(edited).Replay(edited).ok()) << Describe(edit);
  }
}

void ExpectRejectedByTheRun(const HostileEdit& edit) {
  const std::string edited = Edited(edit);
  EXPECT_TRUE(ProfileOf(edited).Reserialize(edited).ok()) << Describe(edit);
  EXPECT_EQ(ProfileOf(edited).Replay(edited).status().code(),
            StatusCode::kInvalidArgument)
      << Describe(edit);
}

TEST(ReplayValidationTest, CrossFieldEditsReturnAStatusFromTheRun) {
  for (const HostileEdit& edit : kCrossFieldEdits) ExpectRejectedByTheRun(edit);
}

TEST(ReplayValidationTest, PolicySpecEditsReturnAStatusFromTheRun) {
  for (const HostileEdit& edit : kPolicySpecEdits) ExpectRejectedByTheRun(edit);
}

// The simulator sizes its per-server arrays by num_servers and the
// executor starts one thread per worker, so a pool past kMaxServers is
// refused by the parser. Parsed only: such a case is never run.
TEST(ReplayValidationTest, PoolSizeEditsAreBoundedByTheParser) {
  const std::string at_bound = std::to_string(kMaxServers);
  const std::string past_bound = std::to_string(kMaxServers + 1);
  for (const auto& [file, key] : {std::pair{kSim, "num_servers"},
                                  std::pair{kLive, "num_workers"},
                                  std::pair{kTwin, "num_workers"}}) {
    const std::string legal = Edited({file, key, at_bound.c_str()});
    EXPECT_TRUE(ProfileOf(legal).Reserialize(legal).ok()) << file;
    const HostileEdit edit{file, key, past_bound.c_str()};
    const std::string edited = Edited(edit);
    EXPECT_EQ(ProfileOf(edited).Reserialize(edited).status().code(),
              StatusCode::kInvalidArgument)
        << Describe(edit);
  }
}

}  // namespace
}  // namespace webtx
