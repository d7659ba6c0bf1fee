// Re-runs the committed TWIN chaos reproducer byte-identically: a
// flash-crowd case with a corrupted shadow model, shrunk by
// `tools/chaos --mint-twin` against the predicate "the divergence guard
// fires and falls back, deterministically, and the timeline validates".
// The pinned digest is the digital twin's determinism contract — the
// live front end, the quiescent snapshots, the shadow forecasts, and
// the controller's switch/fallback sequence all feed it. If it drifts,
// the serving loop's observable behavior changed and the golden value
// must be revisited deliberately.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exp/twin_chaos.h"

namespace webtx {
namespace {

// Observable behavior of the committed replay, pinned at mint time.
constexpr uint64_t kGoldenDigest = 0x1643c442aef88691ULL;
constexpr size_t kGoldenDecisions = 12;
constexpr size_t kGoldenSwitches = 2;
constexpr size_t kGoldenFallbacks = 1;
constexpr size_t kGoldenCompleted = 59;

std::string ReplayPath() {
  return std::string(WEBTX_REPLAY_DIR) + "/twin_flash_guard_minimal.chaos";
}

std::string ReadReplayFile() {
  std::ifstream file(ReplayPath());
  EXPECT_TRUE(file.is_open()) << "missing replay file: " << ReplayPath();
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(TwinReplayIntegrationTest, CommittedReproducerParses) {
  auto parsed = ParseTwinChaosReplay(ReadReplayFile());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const TwinChaosCase& c = parsed.ValueOrDie();
  // The minted case is a guard-trip scenario by construction: the
  // controller is live and the shadow model is corrupted.
  EXPECT_TRUE(c.controller_enabled);
  EXPECT_GT(c.snapshot_corruption, 1.0);
  EXPECT_GE(c.candidates.size(), 2u);
}

TEST(TwinReplayIntegrationTest, ReplaysByteIdentically) {
  auto parsed = ParseTwinChaosReplay(ReadReplayFile());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const TwinChaosCase c = std::move(parsed).ValueOrDie();

  auto first = RunTwinChaosCase(c);
  ASSERT_TRUE(first.ok()) << first.status();
  const rt::TwinReport& report = first.ValueOrDie();

  // The run still exhibits the behavior it was shrunk for — the guard
  // fell back to the static config amid real switches — passes the
  // invariant audit, and reproduces the pinned digest bit for bit.
  EXPECT_EQ(report.decisions.size(), kGoldenDecisions);
  EXPECT_EQ(report.switches, kGoldenSwitches);
  EXPECT_EQ(report.fallbacks, kGoldenFallbacks);
  EXPECT_EQ(report.stats.completed, kGoldenCompleted);
  const Status verdict = CheckTwinChaosInvariants(c, report);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(report.digest, kGoldenDigest);

  // A second run on fresh threads is indistinguishable — thread
  // interleaving must not leak into the serving timeline or the
  // controller's decision sequence.
  auto second = RunTwinChaosCase(c);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.ValueOrDie().digest, kGoldenDigest);
}

TEST(TwinReplayIntegrationTest, ReserializingTheFileIsLossless) {
  const std::string text = ReadReplayFile();
  auto parsed = ParseTwinChaosReplay(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeTwinChaosCase(parsed.ValueOrDie()), text);
}

// ---------------------------------------------------------------------
// The committed parallel-forecast replay: a flash-crowd case whose
// controller fans candidate forecasts out over 8 threads. Its digest
// is pinned AND must be reproduced at every forecast_threads setting —
// the fan-out may only change decision-loop cost, never the decisions.

constexpr uint64_t kParallelGoldenDigest = 0x2a7eb7e5e14c0135ULL;
constexpr size_t kParallelGoldenDecisions = 13;
constexpr size_t kParallelGoldenSwitches = 1;
constexpr size_t kParallelGoldenCompleted = 73;

std::string ParallelReplayPath() {
  return std::string(WEBTX_REPLAY_DIR) +
         "/twin_parallel_forecast_minimal.chaos";
}

TEST(TwinReplayIntegrationTest, ParallelForecastReplayPinsItsDigest) {
  std::ifstream file(ParallelReplayPath());
  ASSERT_TRUE(file.is_open()) << "missing replay file: "
                              << ParallelReplayPath();
  std::ostringstream text;
  text << file.rdbuf();
  auto parsed = ParseTwinChaosReplay(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const TwinChaosCase base = std::move(parsed).ValueOrDie();
  EXPECT_EQ(base.forecast_threads, 8u);
  // Lossless round trip, same contract as the guard replay.
  EXPECT_EQ(SerializeTwinChaosCase(base), text.str());

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    TwinChaosCase c = base;
    c.forecast_threads = threads;
    auto run = RunTwinChaosCase(c);
    ASSERT_TRUE(run.ok()) << run.status();
    const rt::TwinReport& report = run.ValueOrDie();
    EXPECT_EQ(report.digest, kParallelGoldenDigest) << "threads=" << threads;
    EXPECT_EQ(report.decisions.size(), kParallelGoldenDecisions);
    EXPECT_EQ(report.switches, kParallelGoldenSwitches);
    EXPECT_EQ(report.stats.completed, kParallelGoldenCompleted);
    const Status verdict = CheckTwinChaosInvariants(c, report);
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  }
}

}  // namespace
}  // namespace webtx
