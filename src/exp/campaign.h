#ifndef WEBTX_EXP_CAMPAIGN_H_
#define WEBTX_EXP_CAMPAIGN_H_

// One chaos campaign engine for every harness. A profile supplies what
// differs between workloads (case struct and replay fields, random case
// stream, runner, shrink steps, neutral variants, mint property); the
// replay parser and serializer, the shrink driver, the per-case check
// and the campaign loop are written once here.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "sim/fault_plan.h"

namespace webtx {

// -- Replay fields -------------------------------------------------------

/// Text that parses back to the same double (max_digits10).
std::string FormatDouble(double d);
/// Decimal digits only: a sign, overflow or trailing text is an error.
bool ParseU64(const std::string& text, uint64_t* out);
bool ParseDouble(const std::string& text, double* out);

inline constexpr double kMaxDouble = std::numeric_limits<double>::max();
/// Lower bound of a "> 0" range.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();
/// Upper bound of a "< 1" range.
inline constexpr double kBelowOne =
    1.0 - std::numeric_limits<double>::epsilon() / 2;
/// Upper bound of counts that become TxnIds or server ids (uint32_t).
inline constexpr uint64_t kMaxIds = std::numeric_limits<uint32_t>::max();
/// Upper bound of the fault-rate keys, in events per unit of (simulated
/// or virtual) time per server. Each rate is an event budget: an outage
/// stream at rate r with windows of mean d multiplies a run's event
/// count by about r^2 * d, and the live fault injector gathers every
/// instant up to its next wake-up in one batch. At 1e3 a 5-transaction
/// sim case runs for more than 20 s; at 2^32 a live batch exhausts
/// memory. The campaigns draw at most 0.5, so 10 leaves a factor of 20
/// for hand-written stress cases.
inline constexpr double kMaxFaultRate = 10.0;
/// Upper bound of the server and worker counts (`num_servers`,
/// `num_workers`). The simulator sizes about ten per-server arrays by
/// `num_servers` and rt::Executor starts one OS thread per worker, so
/// at kMaxIds one edited replay line exhausts memory or threads. The
/// campaigns draw at most 4 and the tests run at most 8.
inline constexpr uint64_t kMaxServers = 64;

/// One "key value" line of a replay file: `write` gives the value of
/// every line it produces (a repeated field gives any number), `read`
/// applies one value and returns an error message, empty on success.
template <typename Case>
struct Field {
  const char* key;
  std::function<std::vector<std::string>(const Case&)> write;
  std::function<std::string(Case&, const std::string&)> read;
};

// Field builders; `get` is a data member pointer or a Member() accessor.

/// Unsigned integer in [lo, hi], hi capped at the member type's limit.
template <typename Case, typename Get>
Field<Case> UnsignedField(const char* key, Get get, uint64_t lo = 0,
                          uint64_t hi = std::numeric_limits<uint64_t>::max()) {
  using T = std::decay_t<decltype(std::invoke(get, std::declval<Case&>()))>;
  hi = std::min<uint64_t>(hi, std::numeric_limits<T>::max());
  return {key,
          [get](const Case& c) {
            return std::vector<std::string>{
                std::to_string(std::invoke(get, c))};
          },
          [get, lo, hi](Case& c, const std::string& value) {
            uint64_t u = 0;
            if (!ParseU64(value, &u) || u < lo || u > hi) {
              return "must be an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]";
            }
            std::invoke(get, c) = static_cast<T>(u);
            return std::string();
          }};
}

/// Double in [lo, hi].
template <typename Case, typename Get>
Field<Case> DoubleField(const char* key, Get get, double lo = -kMaxDouble,
                        double hi = kMaxDouble) {
  return {key,
          [get](const Case& c) {
            return std::vector<std::string>{FormatDouble(std::invoke(get, c))};
          },
          [get, lo, hi](Case& c, const std::string& value) {
            double d = 0.0;
            if (!ParseDouble(value, &d) || !(d >= lo && d <= hi)) {
              return "must be a number in [" + FormatDouble(lo) + ", " +
                     FormatDouble(hi) + "]";
            }
            std::invoke(get, c) = d;
            return std::string();
          }};
}

/// Value spelled by name; `names` lists (name, value) pairs.
template <typename Case, typename Get, typename Value>
Field<Case> NamedField(const char* key, Get get,
                       std::vector<std::pair<const char*, Value>> names) {
  return {key,
          [get, names](const Case& c) {
            std::vector<std::string> out = {"?"};
            for (const auto& [name, value] : names) {
              if (std::invoke(get, c) == value) out[0] = name;
            }
            return out;
          },
          [get, names](Case& c, const std::string& text) {
            for (const auto& [name, value] : names) {
              if (text != name) continue;
              std::invoke(get, c) = value;
              return std::string();
            }
            return std::string("unknown name");
          }};
}

template <typename Case, typename Get>
Field<Case> BoolField(const char* key, Get get) {
  return NamedField<Case>(key, get,
                          std::vector<std::pair<const char*, bool>>{
                              {"0", false}, {"1", true}});
}

/// Free-text field (a policy spec).
template <typename Case, typename Get>
Field<Case> TextField(const char* key, Get get) {
  return {key,
          [get](const Case& c) {
            return std::vector<std::string>{std::invoke(get, c)};
          },
          [get](Case& c, const std::string& value) {
            std::invoke(get, c) = value;
            return std::string();
          }};
}

/// Concatenates field blocks into one table.
template <typename Case>
std::vector<Field<Case>> JoinFields(
    std::initializer_list<std::vector<Field<Case>>> blocks) {
  std::vector<Field<Case>> out;
  for (const std::vector<Field<Case>>& block : blocks) {
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

/// Accessor of `inner` within what `outer` yields (each a data member
/// pointer or an accessor), for fields of a nested struct.
template <typename Outer, typename Inner>
auto Member(Outer outer, Inner inner) {
  return [outer, inner](auto& c) -> auto& {
    return std::invoke(inner, std::invoke(outer, c));
  };
}

/// The eight FaultPlanConfig keys in the order every dialect writes
/// them. `plan` reaches the case's FaultPlanConfig and `migration` its
/// failover policy (the live executor keeps that outside the plan).
template <typename Case, typename Plan, typename Migration>
std::vector<Field<Case>> FaultPlanFields(Plan plan, Migration migration) {
  using F = FaultPlanConfig;
  const auto fault = [plan](auto member) { return Member(plan, member); };
  return {
      DoubleField<Case>("outage_rate", fault(&F::outage_rate), 0.0,
                        kMaxFaultRate),
      DoubleField<Case>("mean_outage_duration", fault(&F::mean_outage_duration),
                        0.0),
      DoubleField<Case>("abort_rate", fault(&F::abort_rate), 0.0,
                        kMaxFaultRate),
      DoubleField<Case>("crash_rate", fault(&F::crash_rate), 0.0,
                        kMaxFaultRate),
      DoubleField<Case>("mean_repair_duration", fault(&F::mean_repair_duration),
                        0.0),
      NamedField<Case>("migration", migration,
                       std::vector<std::pair<const char*, MigrationPolicy>>{
                           {"warm", MigrationPolicy::kWarm},
                           {"cold", MigrationPolicy::kCold}}),
      DoubleField<Case>("correlated_crash_prob",
                        fault(&F::correlated_crash_prob), 0.0, 1.0),
      UnsignedField<Case>("fault_seed", fault(&F::seed)),
  };
}

// -- Runs, checks and results --------------------------------------------

/// Named event counts of one run; campaigns sum them.
using Counters = std::vector<std::pair<const char*, uint64_t>>;
/// The value of `name` in `counters` (0 when absent).
uint64_t CounterOf(const Counters& counters, std::string_view name);

/// OK, or an InvalidArgument counting `violations` and quoting three.
Status ViolationStatus(const std::string& what,
                       const std::vector<std::string>& violations);

/// What one run of a case produced: the byte-identity digest of its
/// observable behaviour, its invariant audit, and its counters.
struct CaseRun {
  uint64_t digest = 0;
  Status verdict;
  Counters counters;
};

/// A re-run that must leave the digest unchanged.
template <typename Case>
struct NeutralVariant {
  std::string label;
  Case c;
};

struct CampaignOptions {
  uint64_t master_seed = 1;
  size_t num_cases = 200;
  /// Per-case hook: index, digest and verdict of the case's check.
  std::function<void(size_t index, uint64_t digest, const Status& verdict)>
      progress;
};

struct CampaignResult {
  size_t cases_run = 0;
  size_t violations = 0;
  std::string first_violation;
  /// Replay text of the first failing case, shrunk to a local minimum.
  std::string first_reproducer;
  /// Counters summed over every case: proof the faults were exercised.
  Counters totals;
};

/// A minted regression replay and the campaign index it came from.
struct MintResult {
  uint64_t index = 0;
  std::string replay;
  CaseRun run;
};

/// A profile with its case type erased: what tools/chaos drives.
class ChaosProfile {
 public:
  std::string name;
  /// First line of this profile's replay files.
  std::string header;
  /// Campaign size when none is given.
  size_t default_cases = 200;

  /// Parses replay text and serializes it again.
  virtual Result<std::string> Reserialize(const std::string& text) const = 0;
  /// Parses and checks a replay (the `--replay` mode).
  virtual Result<CaseRun> Replay(const std::string& text) const = 0;
  virtual Result<CampaignResult> RunCampaign(
      const CampaignOptions& options) const = 0;
  /// Shrinks the first case of the campaign seeded `master_seed` that
  /// passes its check and shows the mint property, while both hold.
  virtual Result<MintResult> Mint(uint64_t master_seed) const = 0;

 protected:
  ~ChaosProfile() = default;  // profiles are never deleted through this
};

/// Every profile: sim, huge, live, twin.
const std::vector<const ChaosProfile*>& ChaosProfiles();
/// The profile called `name`, or nullptr.
const ChaosProfile* FindChaosProfile(std::string_view name);
/// The profile whose header opens `text` (comments and blank lines
/// skipped); `sim` for the dialect it shares with `huge`.
Result<const ChaosProfile*> ReplayProfile(const std::string& text);

// -- Shrinking and profiles ----------------------------------------------

/// Whether a (shrunk) case still shows the behaviour being chased.
template <typename Case>
using CasePredicate = std::function<bool(const Case&)>;

/// One simplification pass; keeps only changes the predicate survives.
template <typename Case>
using ShrinkStep = std::function<void(Case&, const CasePredicate<Case>&)>;

/// Commits `mutate` iff the predicate still holds; returns whether.
template <typename Case, typename Mutation>
bool TryMutation(Case& c, Mutation mutate, const CasePredicate<Case>& holds) {
  Case candidate = c;
  mutate(candidate);
  if (!holds(candidate)) return false;
  c = std::move(candidate);
  return true;
}

/// A step that tries `mutate` once.
template <typename Case>
ShrinkStep<Case> Once(std::function<void(Case&)> mutate) {
  return [mutate](Case& c, const CasePredicate<Case>& holds) {
    TryMutation(c, mutate, holds);
  };
}

/// A step that applies `mutate` while `applies` and the predicate hold.
template <typename Case>
ShrinkStep<Case> Repeat(std::function<bool(const Case&)> applies,
                        std::function<void(Case&)> mutate) {
  return [applies, mutate](Case& c, const CasePredicate<Case>& holds) {
    while (applies(c) && TryMutation(c, mutate, holds)) {
    }
  };
}

template <typename Case>
class CaseProfile final : public ChaosProfile {
 public:
  /// Replay lines in file order.
  std::vector<Field<Case>> fields;
  /// Case `index` of the campaign seeded `master_seed`.
  std::function<Case(uint64_t master_seed, uint64_t index)> random;
  /// One run; fails only on invalid case parameters.
  std::function<Result<CaseRun>(const Case&)> run;
  /// Greedy simplifications, applied in order.
  std::vector<ShrinkStep<Case>> shrink;
  /// Re-runs that must leave the digest unchanged (may be empty).
  std::function<std::vector<NeutralVariant<Case>>(const Case&)> neutral;
  /// The behaviour a minted replay pins.
  std::function<bool(const Case&, const CaseRun&)> mint;
  /// Pins the mint scenario onto a random case before it is tried.
  std::function<Case(Case)> mint_setup;

  /// A step that tries once to reset `keys` to a default Case's values.
  ShrinkStep<Case> Reset(const std::vector<std::string>& keys) const {
    std::vector<Field<Case>> reset;
    for (const Field<Case>& f : fields) {
      if (std::find(keys.begin(), keys.end(), f.key) != keys.end()) {
        reset.push_back(f);
      }
    }
    WEBTX_CHECK_EQ(reset.size(), keys.size()) << name << ": unknown key";
    return Once<Case>([reset](Case& c) {
      for (const Field<Case>& f : reset) f.read(c, f.write(Case{})[0]);
    });
  }

  std::string Serialize(const Case& c) const {
    std::string out = header + "\n";
    for (const Field<Case>& f : fields) {
      for (const std::string& value : f.write(c)) {
        out += std::string(f.key) + " " + value + "\n";
      }
    }
    return out;
  }

  /// Unknown keys and out-of-range values are errors (a replay must not
  /// silently lose a knob); missing keys keep the Case defaults.
  Result<Case> Parse(const std::string& text) const {
    std::istringstream is(text);
    std::string line;
    bool saw_header = false;
    Case c;
    for (size_t line_no = 1; std::getline(is, line); ++line_no) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      const std::string at = "line " + std::to_string(line_no) + ": ";
      if (!saw_header) {
        if (line != header) {
          return Status::InvalidArgument(at + "expected '" + header +
                                         "', got '" + line + "'");
        }
        saw_header = true;
        continue;
      }
      const size_t space = line.find(' ');
      if (space == std::string::npos) {
        return Status::InvalidArgument(at + "expected 'key value', got '" +
                                       line + "'");
      }
      const std::string key = line.substr(0, space);
      const std::string value = line.substr(space + 1);
      size_t i = 0;
      while (i < fields.size() && key != fields[i].key) ++i;
      if (i == fields.size()) {
        return Status::InvalidArgument(at + "unknown key '" + key + "'");
      }
      const std::string error = fields[i].read(c, value);
      if (!error.empty()) {
        return Status::InvalidArgument(at + "bad value for " + key + " '" +
                                       value + "': " + error);
      }
    }
    if (!saw_header) {
      return Status::InvalidArgument("empty replay file (no header)");
    }
    return c;
  }

  /// Greedily shrinks `c` while `holds` does; requires holds(c).
  Case Shrink(Case c, const CasePredicate<Case>& holds) const {
    for (const ShrinkStep<Case>& step : shrink) step(c, holds);
    return c;
  }

  /// The first run, its verdict replaced by the first failure among: a
  /// second run's digest, the audit, the neutral variants' digests.
  Result<CaseRun> Check(const Case& c) const {
    WEBTX_ASSIGN_OR_RETURN(CaseRun out, run(c));
    WEBTX_ASSIGN_OR_RETURN(const CaseRun again, run(c));
    if (again.digest != out.digest) {
      out.verdict = Status::Internal("determinism: identical runs digest " +
                                     Hex(out.digest) + " and " +
                                     Hex(again.digest));
      return out;
    }
    if (!out.verdict.ok() || !neutral) return out;
    for (const NeutralVariant<Case>& v : neutral(c)) {
      WEBTX_ASSIGN_OR_RETURN(const CaseRun variant, run(v.c));
      if (variant.digest == out.digest) continue;
      out.verdict = Status::Internal("neutrality: " + v.label +
                                     " moved the digest from " +
                                     Hex(out.digest) + " to " +
                                     Hex(variant.digest));
      break;
    }
    return out;
  }

  Result<std::string> Reserialize(const std::string& text) const override {
    WEBTX_ASSIGN_OR_RETURN(const Case c, Parse(text));
    return Serialize(c);
  }

  Result<CaseRun> Replay(const std::string& text) const override {
    WEBTX_ASSIGN_OR_RETURN(const Case c, Parse(text));
    return Check(c);
  }

  Result<CampaignResult> RunCampaign(
      const CampaignOptions& options) const override {
    CampaignResult out;
    for (size_t i = 0; i < options.num_cases; ++i) {
      const Case c = random(options.master_seed, i);
      WEBTX_ASSIGN_OR_RETURN(const CaseRun check, Check(c));
      if (i == 0) {
        out.totals = check.counters;
      } else {
        for (size_t k = 0; k < out.totals.size(); ++k) {
          out.totals[k].second += check.counters[k].second;
        }
      }
      ++out.cases_run;
      if (options.progress) options.progress(i, check.digest, check.verdict);
      if (check.verdict.ok() || ++out.violations > 1) continue;
      // Shrink only the first failure; an invalid shrink candidate is not
      // a reproducer.
      out.first_violation = check.verdict.ToString();
      out.first_reproducer = Serialize(Shrink(c, [this](const Case& x) {
        const auto rerun = Check(x);
        return rerun.ok() && !rerun.ValueOrDie().verdict.ok();
      }));
    }
    return out;
  }

  Result<MintResult> Mint(uint64_t master_seed) const override {
    const CasePredicate<Case> shows = [this](const Case& x) {
      const auto check = Check(x);
      return check.ok() && check.ValueOrDie().verdict.ok() &&
             mint(x, check.ValueOrDie());
    };
    constexpr uint64_t kMaxTries = 10000;
    for (uint64_t i = 0; i < kMaxTries; ++i) {
      Case c = random(master_seed, i);
      if (mint_setup) c = mint_setup(std::move(c));
      if (!shows(c)) continue;
      MintResult out;
      out.index = i;
      c = Shrink(std::move(c), shows);
      out.replay = Serialize(c);
      WEBTX_ASSIGN_OR_RETURN(out.run, run(c));
      return out;
    }
    return Status::NotFound("none of the first " + std::to_string(kMaxTries) +
                            " " + name + " cases shows the mint property");
  }

 private:
  static std::string Hex(uint64_t v) {
    std::ostringstream os;
    os << std::hex << v;
    return os.str();
  }
};

}  // namespace webtx

#endif  // WEBTX_EXP_CAMPAIGN_H_
