// chaos — randomized fault-injection campaigns, replays and regression
// minting over the campaign engine's profiles (exp/campaign.h): sim,
// huge, live, twin. Every case runs twice (digests must match),
// re-runs its decision-neutral variants and is audited; the first
// failure is shrunk and written as a replay file.
//
//   chaos [--profile NAME] [--cases N] [--seed S] [--out FILE] [--verbose]
//   chaos --replay FILE                 profile taken from the header
//   chaos --mint FILE [--profile NAME] [--seed S]
//
// --mint writes the first seeded case showing the profile's mint
// property, shrunk. Exit status: 0 when every case passed (or the replay
// validates), 1 on violations, 2 on usage, parse or IO errors.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/campaign.h"

namespace {

int Fail(const webtx::Status& status) {
  std::fprintf(stderr, "chaos: %s\n", status.ToString().c_str());
  return 2;
}

webtx::Status Write(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  file << text;
  return file.good() ? webtx::Status::OK()
                     : webtx::Status::IOError("cannot write " + path);
}

void Print(const std::string& prefix, const webtx::Counters& counters) {
  for (const auto& [name, value] : counters) {
    std::printf("%-17s %llu\n", (prefix + name).c_str(),
                static_cast<unsigned long long>(value));
  }
}

void Print(const webtx::CaseRun& run) {
  Print("", run.counters);
  std::printf("digest            %016llx\n",
              static_cast<unsigned long long>(run.digest));
  std::printf("verdict           %s\n", run.verdict.ToString().c_str());
}

int Replay(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Fail(webtx::Status::IOError("cannot open " + path));
  std::ostringstream text;
  text << file.rdbuf();
  auto profile = webtx::ReplayProfile(text.str());
  if (!profile.ok()) return Fail(profile.status());
  auto run = profile.ValueOrDie()->Replay(text.str());
  if (!run.ok()) return Fail(run.status());
  std::printf("profile           %s\n", profile.ValueOrDie()->name.c_str());
  Print(run.ValueOrDie());
  return run.ValueOrDie().verdict.ok() ? 0 : 1;
}

int Mint(const webtx::ChaosProfile& profile, const std::string& path,
         uint64_t master_seed) {
  auto minted = profile.Mint(master_seed);
  if (!minted.ok()) return Fail(minted.status());
  const webtx::Status written = Write(path, minted.ValueOrDie().replay);
  if (!written.ok()) return Fail(written);
  std::printf("minted %s (%s case %llu of seed %llu)\n", path.c_str(),
              profile.name.c_str(),
              static_cast<unsigned long long>(minted.ValueOrDie().index),
              static_cast<unsigned long long>(master_seed));
  Print(minted.ValueOrDie().run);
  return 0;
}

int Campaign(const webtx::ChaosProfile& profile,
             const webtx::CampaignOptions& options,
             const std::string& out_path) {
  auto campaign = profile.RunCampaign(options);
  if (!campaign.ok()) return Fail(campaign.status());
  const webtx::CampaignResult& r = campaign.ValueOrDie();
  std::printf("profile           %s\n", profile.name.c_str());
  std::printf("cases             %zu\n", r.cases_run);
  std::printf("violations        %zu\n", r.violations);
  Print("total_", r.totals);
  if (r.violations == 0) return 0;
  std::printf("first violation: %s\n", r.first_violation.c_str());
  if (out_path.empty()) {
    std::printf("shrunken reproducer:\n%s", r.first_reproducer.c_str());
    return 1;
  }
  const webtx::Status written = Write(out_path, r.first_reproducer);
  if (!written.ok()) return Fail(written);
  std::printf("shrunken reproducer written to %s\n", out_path.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  webtx::CampaignOptions options;
  std::string profile_name = "sim";
  std::string out_path;
  std::string replay_path;
  std::string mint_path;
  bool cases_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--verbose") {
      options.progress = [](size_t index, uint64_t digest,
                            const webtx::Status& verdict) {
        std::fprintf(stderr, "case %zu digest=%016llx %s\n", index,
                     static_cast<unsigned long long>(digest),
                     verdict.ToString().c_str());
      };
    } else if (value != nullptr && arg == "--profile") {
      profile_name = argv[++i];
    } else if (value != nullptr && arg == "--cases") {
      options.num_cases = std::strtoull(argv[++i], nullptr, 10);
      cases_given = true;
    } else if (value != nullptr && arg == "--seed") {
      options.master_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (value != nullptr && arg == "--out") {
      out_path = argv[++i];
    } else if (value != nullptr && arg == "--replay") {
      replay_path = argv[++i];
    } else if (value != nullptr && arg == "--mint") {
      mint_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--profile sim|huge|live|twin] "
                   "[--cases N] [--seed S] [--out FILE] [--verbose]\n"
                   "       %s --replay FILE\n"
                   "       %s --mint FILE [--profile NAME] [--seed S]\n",
                   argv[0], argv[0], argv[0]);
      return 2;
    }
  }
  if (!replay_path.empty()) return Replay(replay_path);
  const webtx::ChaosProfile* profile = webtx::FindChaosProfile(profile_name);
  if (profile == nullptr) {
    return Fail(webtx::Status::InvalidArgument("unknown profile '" +
                                               profile_name + "'"));
  }
  if (!mint_path.empty()) return Mint(*profile, mint_path, options.master_seed);
  if (!cases_given) options.num_cases = profile->default_cases;
  return Campaign(*profile, options, out_path);
}
