// Seeded mutation fuzzing of the untrusted text inputs: chaos replay
// files, webdb queries and workload traces. No external corpus — each
// target mutates a few valid seed texts (dropped, duplicated, swapped or
// truncated lines, flipped bytes, hostile values substituted for one
// token) with a fixed seed, so every run explores the same mutants. The
// contract is that a parser answers every mutant with a Status or a
// value and never crashes; the asan and ubsan presets run these too.
// Parsed traces go on through Simulator::Create and one FCFS run, so the
// spec validation and the flat precedence indexes see the mutants too.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exp/campaign.h"
#include "sched/policies/single_queue_policies.h"
#include "sim/simulator.h"
#include "webdb/query_parser.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace webtx {
namespace {

constexpr size_t kMutantsPerTarget = 3000;

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// Applies one to three random edits to a seed text.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(const std::string& seed_text) {
    std::vector<std::string> lines = SplitLines(seed_text);
    const uint64_t edits = rng_.NextInRange(1, 3);
    for (uint64_t e = 0; e < edits && !lines.empty(); ++e) {
      const size_t i = Pick(lines.size());
      switch (rng_.NextInRange(0, 5)) {
        case 0:
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1:
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                       lines[i]);
          break;
        case 2:
          std::swap(lines[i], lines[Pick(lines.size())]);
          break;
        case 3:
          lines[i].resize(Pick(lines[i].size() + 1));
          break;
        case 4:
          if (!lines[i].empty()) {
            lines[i][Pick(lines[i].size())] ^=
                static_cast<char>(1u << rng_.NextInRange(0, 7));
          }
          break;
        default:
          SubstituteToken(lines[i]);
          break;
      }
    }
    std::string out;
    for (const std::string& line : lines) out += line + "\n";
    return out;
  }

 private:
  size_t Pick(size_t n) { return rng_.NextInRange(0, n - 1); }

  // Replaces one space-, comma- or semicolon-delimited token.
  void SubstituteToken(std::string& line) {
    static const char* const kValues[] = {
        "0",   "-1",  "1e308", "18446744073709551616", "4294967297", "-0",
        "nan", "inf", "",      "1e-320",               "+1",         "0x10"};
    std::vector<size_t> starts = {0};
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == ' ' || line[i] == ',' || line[i] == ';') {
        starts.push_back(i + 1);
      }
    }
    const size_t begin = starts[Pick(starts.size())];
    size_t end = line.find_first_of(" ,;", begin);
    if (end == std::string::npos) end = line.size();
    line.replace(begin, end - begin,
                 kValues[rng_.NextInRange(0, std::size(kValues) - 1)]);
  }

  Rng rng_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(TextFuzzTest, ReplayParserAcceptsOnlyFixedPoints) {
  std::vector<std::string> seeds;
  for (const char* file :
       {"cold_migration_minimal.chaos", "huge_structures_cold_migration.chaos",
        "live_cold_migration_minimal.chaos", "twin_flash_guard_minimal.chaos",
        "twin_parallel_forecast_minimal.chaos"}) {
    seeds.push_back(ReadFile(std::string(WEBTX_REPLAY_DIR) + "/" + file));
  }
  Mutator mutator(2009);
  size_t parsed = 0;
  for (size_t i = 0; i < kMutantsPerTarget; ++i) {
    const std::string mutant = mutator.Mutate(seeds[i % seeds.size()]);
    auto profile = ReplayProfile(mutant);
    if (!profile.ok()) continue;
    auto text = profile.ValueOrDie()->Reserialize(mutant);
    if (!text.ok()) continue;
    ++parsed;
    // Whatever the parser accepted serializes to text that parses back
    // to itself.
    auto again = profile.ValueOrDie()->Reserialize(text.ValueOrDie());
    ASSERT_TRUE(again.ok()) << again.status() << "\n" << mutant;
    ASSERT_EQ(again.ValueOrDie(), text.ValueOrDie()) << mutant;
  }
  // Both outcomes must be common, or the mutator is not probing.
  EXPECT_GT(parsed, kMutantsPerTarget / 20);
  EXPECT_LT(parsed, kMutantsPerTarget);
}

TEST(TextFuzzTest, QueryParserNeverCrashes) {
  const std::vector<std::string> seeds = {
      "SELECT * FROM stocks",
      "SELECT * FROM stocks WHERE price >= 100 AND symbol != 'IBM'",
      "SELECT * FROM stocks JOIN portfolio ON symbol = symbol WHERE "
      "portfolio.user = 'alice'",
      "SELECT SUM(price) FROM stocks JOIN portfolio ON symbol = symbol",
      "SELECT COUNT(*) FROM stocks WHERE change_pct >= 5"};
  Mutator mutator(2009);
  size_t parsed = 0;
  for (size_t i = 0; i < kMutantsPerTarget; ++i) {
    std::string mutant = mutator.Mutate(seeds[i % seeds.size()]);
    if (!mutant.empty()) mutant.pop_back();  // the mutator's trailing '\n'
    if (webdb::ParseQuery(mutant).ok()) ++parsed;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, kMutantsPerTarget);
}

TEST(TextFuzzTest, TraceReaderNeverCrashes) {
  char buf[] = "/tmp/webtx_text_fuzz_XXXXXX";
  const int fd = mkstemp(buf);
  ASSERT_GE(fd, 0);
  close(fd);
  const std::string path = buf;
  WorkloadSpec spec;
  spec.num_transactions = 12;
  spec.max_workflow_length = 3;
  spec.max_workflows_per_txn = 2;
  spec.estimate_error = 0.2;
  auto generator = WorkloadGenerator::Create(spec);
  ASSERT_TRUE(generator.ok()) << generator.status();
  ASSERT_TRUE(WriteTrace(path, generator.ValueOrDie().Generate(7)).ok());
  const std::string seed = ReadFile(path);
  Mutator mutator(2009);
  size_t parsed = 0;
  size_t simulated = 0;
  for (size_t i = 0; i < kMutantsPerTarget; ++i) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << mutator.Mutate(seed);
    }
    auto txns = ReadTrace(path);
    if (!txns.ok()) continue;
    ++parsed;
    const size_t n = txns.ValueOrDie().size();
    for (size_t id = 0; id < n; ++id) {
      EXPECT_EQ(txns.ValueOrDie()[id].id, id);
    }
    auto sim = Simulator::Create(std::move(txns).ValueOrDie());
    if (!sim.ok()) continue;
    ++simulated;
    FcfsPolicy fcfs;
    EXPECT_EQ(sim.ValueOrDie().Run(fcfs).outcomes.size(), n);
  }
  std::remove(path.c_str());
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, kMutantsPerTarget);
  // Both outcomes of Create must be common too.
  EXPECT_GT(simulated, 0u);
  EXPECT_LT(simulated, parsed);
}

}  // namespace
}  // namespace webtx
