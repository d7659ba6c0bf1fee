#include "exp/campaign.h"

#include <charconv>
#include <iomanip>

#include "exp/chaos.h"
#include "exp/live_chaos.h"

namespace webtx {

std::string FormatDouble(double d) {
  std::ostringstream os;
  os << std::setprecision(17) << d;
  return os.str();
}

bool ParseU64(const std::string& text, uint64_t* out) {
  const char* const end = text.data() + text.size();
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseDouble(const std::string& text, double* out) {
  std::istringstream is(text);
  is >> *out;
  return !is.fail() && is.eof();
}

uint64_t CounterOf(const Counters& counters, std::string_view name) {
  for (const auto& [counter, value] : counters) {
    if (name == counter) return value;
  }
  return 0;
}

Status ViolationStatus(const std::string& what,
                       const std::vector<std::string>& violations) {
  if (violations.empty()) return Status::OK();
  std::ostringstream os;
  os << violations.size() << " " << what << " violation(s):";
  for (size_t i = 0; i < std::min<size_t>(violations.size(), 3); ++i) {
    os << " [" << violations[i] << "]";
  }
  return Status::InvalidArgument(os.str());
}

const std::vector<const ChaosProfile*>& ChaosProfiles() {
  static const std::vector<const ChaosProfile*> profiles = {
      &SimChaosProfile(), &HugeChaosProfile(), &LiveChaosProfile(),
      &TwinChaosProfile()};
  return profiles;
}

const ChaosProfile* FindChaosProfile(std::string_view name) {
  for (const ChaosProfile* profile : ChaosProfiles()) {
    if (profile->name == name) return profile;
  }
  return nullptr;
}

Result<const ChaosProfile*> ReplayProfile(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    for (const ChaosProfile* profile : ChaosProfiles()) {
      if (profile->header == line) return profile;
    }
    return Status::InvalidArgument("not a chaos replay file: unknown header '" +
                                   line + "'");
  }
  return Status::InvalidArgument("empty replay file (no header)");
}

}  // namespace webtx
