// Re-runs the committed chaos reproducer byte-identically. The replay
// file was minted by the chaos tool (`tools/chaos --mint`): a randomized
// cold-failover case shrunk to a local minimum against the predicate
// "still migrates work off a crashed server". The pinned digest is the
// cross-platform determinism contract — if it drifts, crash/migration
// semantics changed observably and the golden value (plus the fault
// model documentation) must be revisited deliberately.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exp/chaos.h"

namespace webtx {
namespace {

// Observable behavior of the committed replay, pinned at mint time.
constexpr uint64_t kGoldenDigest = 0x05c6252ae9c8b68fULL;
constexpr size_t kGoldenMigrations = 4;

// The huge-structures replay: same determinism contract on a denser
// case — 2000 transactions with workflows on 4 servers under ASETS*,
// with outages, aborts + retries, and cold-migrating crashes all
// loading the pending queue and the dependency graph at once.
constexpr uint64_t kHugeGoldenDigest = 0x4cc0232e8f78aba3ULL;
constexpr size_t kHugeGoldenMigrations = 1202;

std::string ReplayPath() {
  return std::string(WEBTX_REPLAY_DIR) + "/cold_migration_minimal.chaos";
}

std::string HugeReplayPath() {
  return std::string(WEBTX_REPLAY_DIR) +
         "/huge_structures_cold_migration.chaos";
}

std::string ReadFileAt(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << "missing replay file: " << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

std::string ReadReplayFile() { return ReadFileAt(ReplayPath()); }

TEST(ChaosReplayIntegrationTest, CommittedReproducerParses) {
  auto parsed = ParseChaosReplay(ReadReplayFile());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ChaosCase& c = parsed.ValueOrDie();
  // The minted case is a cold-failover crash scenario by construction.
  EXPECT_GT(c.fault.crash_rate, 0.0);
  EXPECT_EQ(c.fault.migration, MigrationPolicy::kCold);
}

TEST(ChaosReplayIntegrationTest, ReplaysByteIdentically) {
  auto parsed = ParseChaosReplay(ReadReplayFile());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ChaosCase c = std::move(parsed).ValueOrDie();

  auto first = RunChaosCase(c);
  ASSERT_TRUE(first.ok()) << first.status();
  const RunResult& r = first.ValueOrDie();

  // The run still exhibits the behavior it was shrunk for, passes the
  // full invariant audit, and reproduces the pinned digest bit for bit.
  EXPECT_EQ(r.num_migrations, kGoldenMigrations);
  const Status verdict = CheckChaosInvariants(c, r);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(ScheduleDigest(r), kGoldenDigest);

  // And a second run of the same parsed case is indistinguishable.
  auto second = RunChaosCase(c);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(ScheduleDigest(second.ValueOrDie()), kGoldenDigest);
}

TEST(ChaosReplayIntegrationTest, ReserializingTheFileIsLossless) {
  const std::string text = ReadReplayFile();
  auto parsed = ParseChaosReplay(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeChaosCase(parsed.ValueOrDie()), text);
}

TEST(ChaosReplayIntegrationTest, HugeStructuresReproducerParses) {
  auto parsed = ParseChaosReplay(ReadFileAt(HugeReplayPath()));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ChaosCase& c = parsed.ValueOrDie();
  EXPECT_EQ(c.policy, "ASETS*");
  EXPECT_EQ(c.num_servers, 4u);
  EXPECT_EQ(c.fault.migration, MigrationPolicy::kCold);
}

TEST(ChaosReplayIntegrationTest, HugeStructuresReplayByteIdentical) {
  auto parsed = ParseChaosReplay(ReadFileAt(HugeReplayPath()));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const ChaosCase c = std::move(parsed).ValueOrDie();

  auto run = RunChaosCase(c);
  ASSERT_TRUE(run.ok()) << run.status();
  const RunResult& r = run.ValueOrDie();
  EXPECT_EQ(r.num_migrations, kHugeGoldenMigrations);
  const Status verdict = CheckChaosInvariants(c, r);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(ScheduleDigest(r), kHugeGoldenDigest);

  // And a second run of the same parsed case is indistinguishable.
  auto second = RunChaosCase(c);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(ScheduleDigest(second.ValueOrDie()), kHugeGoldenDigest);
}

TEST(ChaosReplayIntegrationTest, HugeStructuresFileIsLossless) {
  const std::string text = ReadFileAt(HugeReplayPath());
  auto parsed = ParseChaosReplay(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeChaosCase(parsed.ValueOrDie()), text);
}

}  // namespace
}  // namespace webtx
