#include "sim/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace webtx {

namespace {

// Stream tags chained into DeriveSeed so a server's outage, abort,
// crash, and correlated-failure processes are independent of each other
// and of every other server's.
constexpr uint64_t kOutageStream = 0;
constexpr uint64_t kAbortStream = 1;
constexpr uint64_t kCrashStream = 2;
constexpr uint64_t kCorrelatedStream = 3;

// Inverse-CDF exponential draw; strictly positive (NextDouble < 1).
double DrawExponential(Rng& rng, double rate) {
  return -std::log(1.0 - rng.NextDouble()) / rate;
}

// Extracts `server`'s window ordinals from a plan-wide suppression list
// (EncodeFaultOrdinal keys), sorted for the binary search in the draw
// helpers.
std::vector<uint32_t> OrdinalsFor(const std::vector<uint64_t>& keys,
                                  uint32_t server) {
  std::vector<uint32_t> ordinals;
  for (const uint64_t key : keys) {
    if (FaultOrdinalServer(key) == server) {
      ordinals.push_back(FaultOrdinalIndex(key));
    }
  }
  std::sort(ordinals.begin(), ordinals.end());
  return ordinals;
}

bool IsSuppressed(const std::vector<uint32_t>& ordinals, uint32_t ordinal) {
  return std::binary_search(ordinals.begin(), ordinals.end(), ordinal);
}

}  // namespace

const char* MigrationPolicyName(MigrationPolicy policy) {
  switch (policy) {
    case MigrationPolicy::kWarm:
      return "warm";
    case MigrationPolicy::kCold:
      return "cold";
  }
  WEBTX_CHECK(false) << "unknown MigrationPolicy "
                     << static_cast<unsigned>(policy);
  return "?";
}

FaultStream::FaultStream(const FaultPlanConfig& config, uint32_t server)
    : suppressed_outage_ordinals_(
          OrdinalsFor(config.suppressed_outages, server)),
      suppressed_crash_ordinals_(
          OrdinalsFor(config.suppressed_crashes, server)),
      outage_rate_(config.outage_rate),
      mean_outage_duration_(config.mean_outage_duration),
      abort_rate_(config.abort_rate),
      crash_rate_(config.crash_rate),
      mean_repair_duration_(config.mean_repair_duration),
      correlated_crash_prob_(config.correlated_crash_prob),
      outage_rng_(DeriveSeed(config.seed, server, kOutageStream)),
      abort_rng_(DeriveSeed(config.seed, server, kAbortStream)),
      crash_rng_(DeriveSeed(config.seed, server, kCrashStream)),
      correlated_rng_(DeriveSeed(config.seed, server, kCorrelatedStream)) {
  if (outage_rate_ > 0.0) {
    DrawOutageWindow(0.0);
  } else {
    outage_start_ = kNeverTime;
    outage_end_ = kNeverTime;
  }
  next_abort_ = abort_rate_ > 0.0 ? DrawExponential(abort_rng_, abort_rate_)
                                  : kNeverTime;
  if (crash_rate_ > 0.0) {
    DrawCrashWindow(0.0);
  } else {
    crash_start_ = kNeverTime;
    crash_end_ = kNeverTime;
  }
}

void FaultStream::DrawOutageWindow(SimTime after) {
  for (;;) {
    outage_start_ = after + DrawExponential(outage_rng_, outage_rate_);
    outage_end_ =
        outage_start_ +
        DrawExponential(outage_rng_, 1.0 / mean_outage_duration_);
    if (!IsSuppressed(suppressed_outage_ordinals_, outage_ordinal_++)) break;
    // Suppressed window: drawn and discarded so the RNG consumption —
    // and with it every surviving window's time — is unchanged. The
    // next window is drawn past the phantom window's end, exactly
    // where it would have started anyway.
    after = outage_end_;
  }
}

void FaultStream::DrawCrashWindow(SimTime after) {
  for (;;) {
    crash_start_ = after + DrawExponential(crash_rng_, crash_rate_);
    crash_end_ = crash_start_ +
                 DrawExponential(crash_rng_, 1.0 / mean_repair_duration_);
    if (!IsSuppressed(suppressed_crash_ordinals_, crash_ordinal_++)) break;
    after = crash_end_;  // see DrawOutageWindow
  }
}

void FaultStream::AdvanceTransition() {
  if (!outage_down_) {
    outage_down_ = true;  // the window [outage_start_, outage_end_) begins
  } else {
    outage_down_ = false;
    DrawOutageWindow(outage_end_);
  }
}

void FaultStream::AdvanceAbort() {
  if (abort_rate_ <= 0.0) return;  // stays kNeverTime
  next_abort_ += DrawExponential(abort_rng_, abort_rate_);
}

bool FaultStream::AdvanceCrashTransition() {
  if (!crashed_) {
    // Natural crash instant: the pre-drawn window [crash_start_,
    // crash_end_) begins.
    crashed_ = true;
    repair_end_ = crash_end_;
    return true;
  }
  // Rejoin at repair_end_. Natural windows whose crash instant fell
  // inside the repair (possible when a forced crash extended it) are
  // thinned: a crash of an already-crashed server is a no-op, so those
  // windows are consumed and the next one is drawn past their end —
  // deterministically, since crash state is policy-independent.
  const SimTime rejoin = repair_end_;
  crashed_ = false;
  if (crash_rate_ > 0.0) {
    while (crash_start_ < rejoin) {
      DrawCrashWindow(crash_end_);
    }
  }
  return false;
}

void FaultStream::ForceCrash(SimTime now, SimTime repair_duration) {
  WEBTX_DCHECK(repair_duration > 0.0);
  if (crashed_) {
    // Overlapping correlated hit: the repair window only ever extends.
    if (now + repair_duration > repair_end_) {
      repair_end_ = now + repair_duration;
    }
    return;
  }
  crashed_ = true;
  repair_end_ = now + repair_duration;
}

bool FaultStream::DrawCorrelatedVictim(SimTime* repair_duration) {
  // Consumed once per other server per natural crash instant, in a
  // fixed order (see header), so the stream stays policy-independent.
  if (correlated_rng_.NextDouble() >= correlated_crash_prob_) return false;
  *repair_duration =
      DrawExponential(correlated_rng_, 1.0 / mean_repair_duration_);
  return true;
}

Result<FaultPlan> FaultPlan::Create(FaultPlanConfig config) {
  // Every range test is written so that NaN fails it. An infinite rate
  // or mean duration never lets a run's fault timeline move on, so both
  // are rejected too.
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"outage_rate", config.outage_rate},
        {"abort_rate", config.abort_rate},
        {"crash_rate", config.crash_rate},
        {"mean_outage_duration", config.mean_outage_duration},
        {"mean_repair_duration", config.mean_repair_duration}}) {
    if (!(value >= 0.0) || std::isinf(value)) {
      return Status::InvalidArgument(std::string(name) +
                                     " must be finite and non-negative");
    }
  }
  if (config.outage_rate > 0.0 && config.mean_outage_duration <= 0.0) {
    return Status::InvalidArgument(
        "mean_outage_duration must be positive when outages are enabled");
  }
  if (config.crash_rate > 0.0 && config.mean_repair_duration <= 0.0) {
    return Status::InvalidArgument(
        "mean_repair_duration must be positive when crashes are enabled");
  }
  if (!(config.correlated_crash_prob >= 0.0 &&
        config.correlated_crash_prob <= 1.0)) {
    return Status::InvalidArgument(
        "correlated_crash_prob must be in [0, 1]");
  }
  if (config.correlated_crash_prob > 0.0 && config.crash_rate <= 0.0) {
    return Status::InvalidArgument(
        "correlated_crash_prob requires crash_rate > 0");
  }
  return FaultPlan(config);
}

FaultPlan FaultPlan::WithDerivedSeed(uint64_t stream) const {
  FaultPlan derived(*this);
  derived.config_.seed = DeriveSeed(config_.seed, stream, 0);
  return derived;
}

}  // namespace webtx
