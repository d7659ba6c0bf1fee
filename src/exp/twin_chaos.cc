#include "exp/twin_chaos.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "rt/live_validator.h"

namespace webtx {

namespace {

constexpr char kReplayHeader[] = "webtx-twin-replay v1";

// DeriveSeed coordinates of the twin harness's own seed streams
// (arbitrary but fixed; reproducers depend on them). Distinct from the
// sim and live chaos streams so the campaigns never alias.
constexpr uint64_t kTwinCaseStream = 0x7714CA5Eull;
constexpr uint64_t kTwinFaultStream = 0x7714FA17ull;
constexpr uint64_t kTwinForecastStream = 0x7714F05Eull;

std::string FormatDouble(double d) {
  std::ostringstream os;
  os << std::setprecision(17) << d;
  return os.str();
}

bool ParseU64(const std::string& text, uint64_t* out) {
  std::istringstream is(text);
  is >> *out;
  return !is.fail() && is.eof();
}

bool ParseDouble(const std::string& text, double* out) {
  std::istringstream is(text);
  is >> *out;
  return !is.fail() && is.eof();
}

const char* AdmissionName(rt::TwinCandidate::Admission a) {
  switch (a) {
    case rt::TwinCandidate::Admission::kNone:
      return "none";
    case rt::TwinCandidate::Admission::kQueueDepth:
      return "depth";
    case rt::TwinCandidate::Admission::kBrownout:
      return "brownout";
  }
  return "?";
}

// Applies `mutate` to a copy; commits it iff the failure still
// reproduces. Returns whether the simplification was kept.
template <typename Mutation>
bool TryMutation(TwinChaosCase& c, Mutation mutate,
                 const TwinChaosPredicate& still_fails) {
  TwinChaosCase candidate = c;
  mutate(candidate);
  if (!still_fails(candidate)) return false;
  c = std::move(candidate);
  return true;
}

}  // namespace

rt::TwinOptions TwinOptionsFor(const TwinChaosCase& c) {
  rt::TwinOptions options;
  options.num_workers = c.num_workers;
  options.candidates = c.candidates;
  options.static_index = c.static_index;
  options.controller_enabled = c.controller_enabled;
  options.control_interval = c.control_interval;
  options.forecast_horizon = c.forecast_horizon;
  options.switch_margin = c.switch_margin;
  options.dwell_ticks = c.dwell_ticks;
  options.shed_penalty = c.shed_penalty;
  options.divergence_tolerance = c.divergence_tolerance;
  options.divergence_abs_floor = c.divergence_abs_floor;
  options.shed_divergence = c.shed_divergence;
  options.guard_strikes = c.guard_strikes;
  options.guard_cooldown_ticks = c.guard_cooldown_ticks;
  options.forecast_seed = c.forecast_seed;
  options.snapshot_corruption = c.snapshot_corruption;
  options.forecast_threads = c.forecast_threads;
  options.prune = c.prune;
  options.prune_prefix = c.prune_prefix;
  options.faults.plan = c.fault;
  options.faults.latency_spike_prob = c.latency_spike_prob;
  options.faults.mean_latency_spike = c.mean_latency_spike;
  options.migration = c.fault.migration;
  options.watchdog = c.watchdog;
  options.watchdog_stall_seconds = c.watchdog_stall_seconds;
  options.retry_max_attempts = c.retry_max_attempts;
  options.retry_backoff = c.retry_backoff;
  options.retry_backoff_multiplier = c.retry_backoff_multiplier;
  options.retry_max_backoff = c.retry_max_backoff;
  options.retry_budget = c.retry_budget;
  return options;
}

Result<rt::TwinReport> RunTwinChaosCase(const TwinChaosCase& c) {
  if (c.num_tasks == 0) {
    return Status::InvalidArgument("twin chaos case has no tasks");
  }
  if (!(c.rate > 0.0) || !(c.mean_duration > 0.0)) {
    return Status::InvalidArgument("rate and mean_duration must be > 0");
  }
  LiveArrivalOptions workload;
  workload.shape = c.shape;
  workload.seed = c.workload_seed;
  workload.num_tasks = c.num_tasks;
  workload.rate = c.rate;
  workload.burstiness = c.burstiness;
  workload.on_off_mean_cycle = c.on_off_mean_cycle;
  workload.spike_factor = c.spike_factor;
  workload.spike_start = c.spike_start;
  workload.spike_duration = c.spike_duration;
  workload.mean_duration = c.mean_duration;
  workload.deadline_slack = c.deadline_slack;
  workload.max_weight = c.max_weight;
  const std::vector<LiveArrival> arrivals = GenerateLiveArrivals(workload);
  rt::Twin twin(TwinOptionsFor(c));
  return twin.Run(arrivals);
}

Status CheckTwinChaosInvariants(const TwinChaosCase& c,
                                const rt::TwinReport& report) {
  std::vector<std::string> violations;
  const rt::LiveValidationResult verdict = rt::ValidateLiveTrace(
      report.trace, report.tasks, report.outcomes, report.stats,
      report.validator_options);
  violations.insert(violations.end(), verdict.violations.begin(),
                    verdict.violations.end());

  // Controller contract.
  if (!c.controller_enabled && !report.decisions.empty()) {
    violations.push_back("decisions recorded with the controller disabled");
  }
  double prev_time = 0.0;
  size_t pending_cooldown = 0;
  for (size_t i = 0; i < report.decisions.size(); ++i) {
    const rt::TwinDecision& d = report.decisions[i];
    std::ostringstream at;
    at << "decision " << i << " (t=" << d.time << "): ";
    if (!(d.time > prev_time)) {
      violations.push_back(at.str() + "tick times not strictly increasing");
    }
    prev_time = d.time;
    if (d.applied >= c.candidates.size() || d.best >= c.candidates.size()) {
      violations.push_back(at.str() + "candidate index out of range");
      continue;
    }
    switch (d.kind) {
      case rt::TwinDecision::Kind::kFallback:
        if (d.applied != c.static_index) {
          violations.push_back(at.str() +
                               "fallback did not pin the static config");
        }
        pending_cooldown = c.guard_cooldown_ticks;
        break;
      case rt::TwinDecision::Kind::kCooldown:
      case rt::TwinDecision::Kind::kReenable: {
        if (pending_cooldown == 0) {
          violations.push_back(at.str() + "cooldown tick without a fallback");
          break;
        }
        --pending_cooldown;
        const bool last = pending_cooldown == 0;
        const bool is_reenable = d.kind == rt::TwinDecision::Kind::kReenable;
        if (last != is_reenable) {
          violations.push_back(at.str() + "cooldown/reenable out of order");
        }
        if (d.applied != c.static_index) {
          violations.push_back(at.str() + "left static during cooldown");
        }
        break;
      }
      case rt::TwinDecision::Kind::kHold:
      case rt::TwinDecision::Kind::kSwitch:
        if (pending_cooldown != 0) {
          violations.push_back(at.str() + "forecast tick during cooldown");
        }
        break;
    }
  }
  const size_t fallbacks = static_cast<size_t>(
      std::count_if(report.decisions.begin(), report.decisions.end(),
                    [](const rt::TwinDecision& d) {
                      return d.kind == rt::TwinDecision::Kind::kFallback;
                    }));
  if (fallbacks != report.fallbacks) {
    violations.push_back("fallback counter disagrees with the decision log");
  }

  if (violations.empty()) return Status();
  std::ostringstream os;
  os << violations.size() << " twin invariant violation(s):";
  const size_t show = std::min<size_t>(violations.size(), 3);
  for (size_t i = 0; i < show; ++i) os << " [" << violations[i] << "]";
  return Status::InvalidArgument(os.str());
}

std::string SerializeTwinChaosCase(const TwinChaosCase& c) {
  std::ostringstream os;
  os << kReplayHeader << "\n";
  os << "shape " << LiveArrivalShapeName(c.shape) << "\n";
  os << "workload_seed " << c.workload_seed << "\n";
  os << "num_tasks " << c.num_tasks << "\n";
  os << "rate " << FormatDouble(c.rate) << "\n";
  os << "burstiness " << FormatDouble(c.burstiness) << "\n";
  os << "on_off_mean_cycle " << FormatDouble(c.on_off_mean_cycle) << "\n";
  os << "spike_factor " << FormatDouble(c.spike_factor) << "\n";
  os << "spike_start " << FormatDouble(c.spike_start) << "\n";
  os << "spike_duration " << FormatDouble(c.spike_duration) << "\n";
  os << "mean_duration " << FormatDouble(c.mean_duration) << "\n";
  os << "deadline_slack " << FormatDouble(c.deadline_slack) << "\n";
  os << "max_weight " << c.max_weight << "\n";
  for (const rt::TwinCandidate& cand : c.candidates) {
    os << "candidate " << cand.policy << " " << AdmissionName(cand.admission)
       << " " << cand.max_ready << " " << FormatDouble(cand.capacity_slo)
       << "\n";
  }
  os << "static_index " << c.static_index << "\n";
  os << "controller_enabled " << (c.controller_enabled ? 1 : 0) << "\n";
  os << "control_interval " << FormatDouble(c.control_interval) << "\n";
  os << "forecast_horizon " << FormatDouble(c.forecast_horizon) << "\n";
  os << "switch_margin " << FormatDouble(c.switch_margin) << "\n";
  os << "dwell_ticks " << c.dwell_ticks << "\n";
  os << "shed_penalty " << FormatDouble(c.shed_penalty) << "\n";
  os << "divergence_tolerance " << FormatDouble(c.divergence_tolerance)
     << "\n";
  os << "divergence_abs_floor " << FormatDouble(c.divergence_abs_floor)
     << "\n";
  os << "shed_divergence " << FormatDouble(c.shed_divergence) << "\n";
  os << "guard_strikes " << c.guard_strikes << "\n";
  os << "guard_cooldown_ticks " << c.guard_cooldown_ticks << "\n";
  os << "forecast_seed " << c.forecast_seed << "\n";
  os << "snapshot_corruption " << FormatDouble(c.snapshot_corruption) << "\n";
  os << "forecast_threads " << c.forecast_threads << "\n";
  os << "prune " << (c.prune ? 1 : 0) << "\n";
  os << "prune_prefix " << FormatDouble(c.prune_prefix) << "\n";
  os << "num_workers " << c.num_workers << "\n";
  os << "outage_rate " << FormatDouble(c.fault.outage_rate) << "\n";
  os << "mean_outage_duration " << FormatDouble(c.fault.mean_outage_duration)
     << "\n";
  os << "abort_rate " << FormatDouble(c.fault.abort_rate) << "\n";
  os << "crash_rate " << FormatDouble(c.fault.crash_rate) << "\n";
  os << "mean_repair_duration " << FormatDouble(c.fault.mean_repair_duration)
     << "\n";
  os << "migration " << MigrationPolicyName(c.fault.migration) << "\n";
  os << "correlated_crash_prob " << FormatDouble(c.fault.correlated_crash_prob)
     << "\n";
  os << "fault_seed " << c.fault.seed << "\n";
  os << "latency_spike_prob " << FormatDouble(c.latency_spike_prob) << "\n";
  os << "mean_latency_spike " << FormatDouble(c.mean_latency_spike) << "\n";
  os << "retry_max_attempts " << c.retry_max_attempts << "\n";
  os << "retry_backoff " << FormatDouble(c.retry_backoff) << "\n";
  os << "retry_backoff_multiplier "
     << FormatDouble(c.retry_backoff_multiplier) << "\n";
  os << "retry_max_backoff " << FormatDouble(c.retry_max_backoff) << "\n";
  os << "retry_budget " << c.retry_budget << "\n";
  os << "watchdog " << (c.watchdog ? 1 : 0) << "\n";
  os << "watchdog_stall_seconds " << FormatDouble(c.watchdog_stall_seconds)
     << "\n";
  return os.str();
}

Result<TwinChaosCase> ParseTwinChaosReplay(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  bool saw_header = false;
  TwinChaosCase c;
  c.candidates.clear();
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != kReplayHeader) {
        return Status::InvalidArgument("not a twin replay file: expected '" +
                                       std::string(kReplayHeader) +
                                       "', got '" + line + "'");
      }
      saw_header = true;
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected 'key value', got '" + line +
                                     "'");
    }
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    const auto bad = [&] {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": bad value for " + key + ": '" +
                                     value + "'");
    };
    uint64_t u = 0;
    if (key == "shape") {
      if (value == "poisson") {
        c.shape = LiveArrivalShape::kPoisson;
      } else if (value == "onoff") {
        c.shape = LiveArrivalShape::kOnOff;
      } else if (value == "flash") {
        c.shape = LiveArrivalShape::kFlashCrowd;
      } else {
        return bad();
      }
    } else if (key == "workload_seed") {
      if (!ParseU64(value, &c.workload_seed)) return bad();
    } else if (key == "num_tasks") {
      if (!ParseU64(value, &u)) return bad();
      c.num_tasks = u;
    } else if (key == "rate") {
      if (!ParseDouble(value, &c.rate)) return bad();
    } else if (key == "burstiness") {
      if (!ParseDouble(value, &c.burstiness)) return bad();
    } else if (key == "on_off_mean_cycle") {
      if (!ParseDouble(value, &c.on_off_mean_cycle)) return bad();
    } else if (key == "spike_factor") {
      if (!ParseDouble(value, &c.spike_factor)) return bad();
    } else if (key == "spike_start") {
      if (!ParseDouble(value, &c.spike_start)) return bad();
    } else if (key == "spike_duration") {
      if (!ParseDouble(value, &c.spike_duration)) return bad();
    } else if (key == "mean_duration") {
      if (!ParseDouble(value, &c.mean_duration)) return bad();
    } else if (key == "deadline_slack") {
      if (!ParseDouble(value, &c.deadline_slack)) return bad();
    } else if (key == "max_weight") {
      if (!ParseU64(value, &c.max_weight)) return bad();
    } else if (key == "candidate") {
      std::istringstream fields(value);
      rt::TwinCandidate cand;
      std::string admission;
      uint64_t max_ready = 0;
      if (!(fields >> cand.policy >> admission >> max_ready >>
            cand.capacity_slo) ||
          !fields.eof()) {
        return bad();
      }
      cand.max_ready = max_ready;
      if (admission == "none") {
        cand.admission = rt::TwinCandidate::Admission::kNone;
      } else if (admission == "depth") {
        cand.admission = rt::TwinCandidate::Admission::kQueueDepth;
      } else if (admission == "brownout") {
        cand.admission = rt::TwinCandidate::Admission::kBrownout;
      } else {
        return bad();
      }
      c.candidates.push_back(std::move(cand));
    } else if (key == "static_index") {
      if (!ParseU64(value, &u)) return bad();
      c.static_index = u;
    } else if (key == "controller_enabled") {
      if (!ParseU64(value, &u) || u > 1) return bad();
      c.controller_enabled = u == 1;
    } else if (key == "control_interval") {
      if (!ParseDouble(value, &c.control_interval)) return bad();
    } else if (key == "forecast_horizon") {
      if (!ParseDouble(value, &c.forecast_horizon)) return bad();
    } else if (key == "switch_margin") {
      if (!ParseDouble(value, &c.switch_margin)) return bad();
    } else if (key == "dwell_ticks") {
      if (!ParseU64(value, &u)) return bad();
      c.dwell_ticks = u;
    } else if (key == "shed_penalty") {
      if (!ParseDouble(value, &c.shed_penalty)) return bad();
    } else if (key == "divergence_tolerance") {
      if (!ParseDouble(value, &c.divergence_tolerance)) return bad();
    } else if (key == "divergence_abs_floor") {
      if (!ParseDouble(value, &c.divergence_abs_floor)) return bad();
    } else if (key == "shed_divergence") {
      if (!ParseDouble(value, &c.shed_divergence)) return bad();
    } else if (key == "guard_strikes") {
      if (!ParseU64(value, &u)) return bad();
      c.guard_strikes = u;
    } else if (key == "guard_cooldown_ticks") {
      if (!ParseU64(value, &u)) return bad();
      c.guard_cooldown_ticks = u;
    } else if (key == "forecast_seed") {
      if (!ParseU64(value, &c.forecast_seed)) return bad();
    } else if (key == "snapshot_corruption") {
      if (!ParseDouble(value, &c.snapshot_corruption)) return bad();
    } else if (key == "forecast_threads") {
      if (!ParseU64(value, &u)) return bad();
      c.forecast_threads = u;
    } else if (key == "prune") {
      if (!ParseU64(value, &u) || u > 1) return bad();
      c.prune = u == 1;
    } else if (key == "prune_prefix") {
      if (!ParseDouble(value, &c.prune_prefix)) return bad();
    } else if (key == "num_workers") {
      if (!ParseU64(value, &u)) return bad();
      c.num_workers = u;
    } else if (key == "outage_rate") {
      if (!ParseDouble(value, &c.fault.outage_rate)) return bad();
    } else if (key == "mean_outage_duration") {
      if (!ParseDouble(value, &c.fault.mean_outage_duration)) return bad();
    } else if (key == "abort_rate") {
      if (!ParseDouble(value, &c.fault.abort_rate)) return bad();
    } else if (key == "crash_rate") {
      if (!ParseDouble(value, &c.fault.crash_rate)) return bad();
    } else if (key == "mean_repair_duration") {
      if (!ParseDouble(value, &c.fault.mean_repair_duration)) return bad();
    } else if (key == "migration") {
      if (value == "warm") {
        c.fault.migration = MigrationPolicy::kWarm;
      } else if (value == "cold") {
        c.fault.migration = MigrationPolicy::kCold;
      } else {
        return bad();
      }
    } else if (key == "correlated_crash_prob") {
      if (!ParseDouble(value, &c.fault.correlated_crash_prob)) return bad();
    } else if (key == "fault_seed") {
      if (!ParseU64(value, &c.fault.seed)) return bad();
    } else if (key == "latency_spike_prob") {
      if (!ParseDouble(value, &c.latency_spike_prob)) return bad();
    } else if (key == "mean_latency_spike") {
      if (!ParseDouble(value, &c.mean_latency_spike)) return bad();
    } else if (key == "retry_max_attempts") {
      if (!ParseU64(value, &u)) return bad();
      c.retry_max_attempts = static_cast<uint32_t>(u);
    } else if (key == "retry_backoff") {
      if (!ParseDouble(value, &c.retry_backoff)) return bad();
    } else if (key == "retry_backoff_multiplier") {
      if (!ParseDouble(value, &c.retry_backoff_multiplier)) return bad();
    } else if (key == "retry_max_backoff") {
      if (!ParseDouble(value, &c.retry_max_backoff)) return bad();
    } else if (key == "retry_budget") {
      if (!ParseU64(value, &u)) return bad();
      c.retry_budget = u;
    } else if (key == "watchdog") {
      if (!ParseU64(value, &u) || u > 1) return bad();
      c.watchdog = u == 1;
    } else if (key == "watchdog_stall_seconds") {
      if (!ParseDouble(value, &c.watchdog_stall_seconds)) return bad();
    } else {
      // A replay must not silently lose a knob it doesn't understand.
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": unknown key '" + key + "'");
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument("empty replay file (no header)");
  }
  if (c.candidates.empty()) {
    return Status::InvalidArgument("twin replay has no candidate lines");
  }
  return c;
}

TwinChaosCase ShrinkTwinChaosCase(TwinChaosCase c,
                                  const TwinChaosPredicate& still_fails) {
  // Halve the workload first: every later probe re-runs the case (twice,
  // for the determinism audit), so a short horizon pays for the pass.
  while (c.num_tasks > 1 &&
         TryMutation(
             c, [](TwinChaosCase& x) { x.num_tasks /= 2; }, still_fails)) {
  }
  // Drop fault dimensions, least-suspect first.
  TryMutation(
      c,
      [](TwinChaosCase& x) {
        x.latency_spike_prob = 0.0;
        x.mean_latency_spike = 0.0;
      },
      still_fails);
  TryMutation(
      c, [](TwinChaosCase& x) { x.fault.abort_rate = 0.0; }, still_fails);
  TryMutation(
      c,
      [](TwinChaosCase& x) {
        x.watchdog = false;
        x.watchdog_stall_seconds = 0.0;
      },
      still_fails);
  TryMutation(
      c,
      [](TwinChaosCase& x) {
        x.fault.outage_rate = 0.0;
        x.fault.mean_outage_duration = 0.0;
      },
      still_fails);
  TryMutation(
      c,
      [](TwinChaosCase& x) {
        x.fault.crash_rate = 0.0;
        x.fault.mean_repair_duration = 0.0;
        x.fault.correlated_crash_prob = 0.0;
      },
      still_fails);
  TryMutation(
      c,
      [](TwinChaosCase& x) {
        x.retry_max_attempts = 1;
        x.retry_backoff = 0.0;
        x.retry_backoff_multiplier = 2.0;
        x.retry_max_backoff = 0.0;
        x.retry_budget = 0;
      },
      still_fails);
  // Make the model honest and the workload plain.
  TryMutation(
      c, [](TwinChaosCase& x) { x.snapshot_corruption = 1.0; }, still_fails);
  TryMutation(
      c, [](TwinChaosCase& x) { x.shape = LiveArrivalShape::kPoisson; },
      still_fails);
  TryMutation(c, [](TwinChaosCase& x) { x.max_weight = 1; }, still_fails);
  // Shrink the candidate table from the back (never dropping the static
  // config); with one candidate left, try disabling the controller
  // outright.
  while (c.candidates.size() > 1 &&
         TryMutation(
             c,
             [](TwinChaosCase& x) {
               const size_t victim = x.candidates.size() - 1;
               if (victim == x.static_index) {
                 std::swap(x.candidates[victim],
                           x.candidates[x.static_index == 0 ? 1 : 0]);
                 x.static_index = x.static_index == 0 ? 1 : 0;
               }
               x.candidates.pop_back();
               if (x.static_index >= x.candidates.size()) x.static_index = 0;
             },
             still_fails)) {
  }
  TryMutation(
      c, [](TwinChaosCase& x) { x.controller_enabled = false; }, still_fails);
  // Remove workers one at a time, then retry the workload halving.
  while (c.num_workers > 1 &&
         TryMutation(
             c, [](TwinChaosCase& x) { --x.num_workers; }, still_fails)) {
  }
  while (c.num_tasks > 1 &&
         TryMutation(
             c, [](TwinChaosCase& x) { x.num_tasks /= 2; }, still_fails)) {
  }
  return c;
}

TwinChaosCase RandomTwinChaosCase(uint64_t master_seed, uint64_t index) {
  Rng rng(DeriveSeed(master_seed, kTwinCaseStream, index));
  TwinChaosCase c;
  c.workload_seed = rng.Next();
  c.num_tasks = rng.NextInRange(40, 140);
  c.num_workers = rng.NextInRange(1, 4);
  c.mean_duration = 0.02 + 0.10 * rng.NextDouble();
  // Base load between 40% and 120% of capacity; the spike pushes far
  // beyond it — overload transitions are where the controller earns its
  // keep (and where a corrupted model visibly diverges).
  const double utilization = 0.4 + 0.8 * rng.NextDouble();
  c.rate = static_cast<double>(c.num_workers) * utilization / c.mean_duration;
  const double shape_draw = rng.NextDouble();
  if (shape_draw < 0.5) {
    c.shape = LiveArrivalShape::kFlashCrowd;
    c.spike_factor = 3.0 + 9.0 * rng.NextDouble();
    c.spike_start = 0.2 + 0.6 * rng.NextDouble();
    c.spike_duration = 0.2 + 0.8 * rng.NextDouble();
  } else if (shape_draw < 0.8) {
    c.shape = LiveArrivalShape::kOnOff;
    c.burstiness = 0.3 + 0.6 * rng.NextDouble();
    c.on_off_mean_cycle = 0.5 + 1.5 * rng.NextDouble();
  } else {
    c.shape = LiveArrivalShape::kPoisson;
  }
  c.deadline_slack = 0.5 + 3.0 * rng.NextDouble();
  c.max_weight = rng.NextDouble() < 0.5 ? 1 : 10;

  // Candidate table: static FCFS plus 1-3 alternatives.
  static const std::array<const char*, 4> kAltPolicies = {"EDF", "SRPT",
                                                          "HDF", "ASETS"};
  rt::TwinCandidate static_cand;
  static_cand.policy = "FCFS";
  c.candidates = {static_cand};
  const size_t num_alts = rng.NextInRange(1, 3);
  for (size_t i = 0; i < num_alts; ++i) {
    rt::TwinCandidate cand;
    cand.policy = kAltPolicies[rng.NextInRange(0, kAltPolicies.size() - 1)];
    const double admission_draw = rng.NextDouble();
    if (admission_draw < 0.4) {
      cand.admission = rt::TwinCandidate::Admission::kQueueDepth;
      cand.max_ready = rng.NextInRange(8, 48);
    } else if (admission_draw < 0.7) {
      cand.admission = rt::TwinCandidate::Admission::kBrownout;
      cand.capacity_slo =
          rng.NextDouble() < 0.5 ? 0.0 : 0.25 + 0.5 * rng.NextDouble();
    }
    c.candidates.push_back(std::move(cand));
  }
  c.static_index = 0;
  c.controller_enabled = rng.NextDouble() < 0.9;
  c.control_interval = 0.1 + 0.3 * rng.NextDouble();
  c.forecast_horizon = c.control_interval * (1.0 + 3.0 * rng.NextDouble());
  c.switch_margin = 0.05 + 0.2 * rng.NextDouble();
  c.dwell_ticks = rng.NextInRange(1, 3);
  c.shed_penalty = 0.5 + 2.0 * rng.NextDouble();
  c.guard_strikes = rng.NextInRange(1, 3);
  c.guard_cooldown_ticks = rng.NextInRange(1, 5);
  c.forecast_seed = DeriveSeed(master_seed, kTwinForecastStream, index);
  // A corrupted shadow model in a fifth of the cases: the guard must
  // catch it (and the validator must hold either way).
  const double corruption_draw = rng.NextDouble();
  if (corruption_draw < 0.1) {
    c.snapshot_corruption = 0.05 + 0.1 * rng.NextDouble();
  } else if (corruption_draw < 0.2) {
    c.snapshot_corruption = 4.0 + 8.0 * rng.NextDouble();
  }

  if (rng.NextDouble() < 0.6) {
    c.fault.crash_rate = 0.05 + 0.35 * rng.NextDouble();
    c.fault.mean_repair_duration = 0.2 + 1.3 * rng.NextDouble();
    c.fault.migration = rng.NextDouble() < 0.5 ? MigrationPolicy::kWarm
                                               : MigrationPolicy::kCold;
    if (rng.NextDouble() < 0.3) {
      c.fault.correlated_crash_prob = 0.1 + 0.6 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.4) {
    c.fault.outage_rate = 0.03 + 0.2 * rng.NextDouble();
    c.fault.mean_outage_duration = 0.2 + 1.0 * rng.NextDouble();
    if (rng.NextDouble() < 0.6) {
      c.watchdog = true;
      c.watchdog_stall_seconds = 0.05 + 0.3 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.4) {
    c.fault.abort_rate = 0.05 + 0.3 * rng.NextDouble();
  }
  if (rng.NextDouble() < 0.4) {
    c.latency_spike_prob = 0.1 + 0.3 * rng.NextDouble();
    c.mean_latency_spike = 0.01 + 0.05 * rng.NextDouble();
  }
  c.fault.seed = DeriveSeed(master_seed, kTwinFaultStream, index);
  c.retry_max_attempts = static_cast<uint32_t>(rng.NextInRange(1, 3));
  c.retry_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.01 + 0.1 * rng.NextDouble();
  c.retry_backoff_multiplier = 1.5 + 1.5 * rng.NextDouble();
  c.retry_max_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.05 + 0.3 * rng.NextDouble();
  c.retry_budget = rng.NextDouble() < 0.5 ? 0 : rng.NextInRange(4, 24);
  // Forecast-execution dimensions, drawn last so the case population
  // above is unchanged from earlier campaign versions. All of these are
  // digest-neutral by contract; the campaign's determinism audit and
  // neutrality sweep enforce it.
  const double threads_draw = rng.NextDouble();
  c.forecast_threads = threads_draw < 0.5 ? 1 : (threads_draw < 0.8 ? 2 : 8);
  if (rng.NextDouble() < 0.25) {
    c.prune = true;
    c.prune_prefix = 0.3 + 0.5 * rng.NextDouble();
  }
  return c;
}

Result<TwinChaosCampaignResult> RunTwinChaosCampaign(
    const TwinChaosCampaignOptions& options) {
  TwinChaosCampaignResult out;
  for (size_t i = 0; i < options.num_cases; ++i) {
    const TwinChaosCase c = RandomTwinChaosCase(options.master_seed, i);
    WEBTX_ASSIGN_OR_RETURN(rt::TwinReport first, RunTwinChaosCase(c));
    WEBTX_ASSIGN_OR_RETURN(rt::TwinReport second, RunTwinChaosCase(c));
    out.total_decisions += first.decisions.size();
    out.total_switches += first.switches;
    out.total_fallbacks += first.fallbacks;
    out.total_crashes += first.stats.crashes;
    out.total_migrations += first.stats.migrations;
    std::string verdict_text;
    bool mismatch = false;
    bool neutrality_broke = false;
    if (first.digest != second.digest) {
      mismatch = true;
      std::ostringstream os;
      os << "determinism: twin digests differ across identical runs ("
         << std::hex << first.digest << " vs " << second.digest << ")";
      verdict_text = os.str();
    } else {
      const Status verdict = CheckTwinChaosInvariants(c, first);
      if (!verdict.ok()) verdict_text = verdict.ToString();
    }
    if (verdict_text.empty() && c.controller_enabled) {
      // Digest-neutrality sweep: forecast_threads may only change how
      // fast the controller decides, never what it decides. Re-run the
      // case at the other two of 1/2/8 threads; every digest must match
      // the baseline.
      const size_t threads[] = {c.forecast_threads == 1 ? 2u : 1u,
                                c.forecast_threads == 8 ? 2u : 8u};
      for (const size_t t : threads) {
        TwinChaosCase variant = c;
        variant.forecast_threads = t;
        WEBTX_ASSIGN_OR_RETURN(rt::TwinReport swept, RunTwinChaosCase(variant));
        if (swept.digest != first.digest) {
          neutrality_broke = true;
          std::ostringstream os;
          os << "neutrality: forecast_threads=" << t
             << " changed the twin digest (" << std::hex << first.digest
             << " vs " << swept.digest << ")";
          verdict_text = os.str();
          break;
        }
      }
    }
    ++out.cases_run;
    if (options.progress) options.progress(i, verdict_text);
    if (verdict_text.empty()) continue;
    ++out.violations;
    if (mismatch) ++out.determinism_mismatches;
    if (neutrality_broke) ++out.neutrality_mismatches;
    if (out.violations > 1) continue;  // shrink only the first failure
    out.first_violation = verdict_text;
    const bool check_neutrality = neutrality_broke;
    const TwinChaosPredicate fails = [check_neutrality](
                                         const TwinChaosCase& x) {
      const auto a = RunTwinChaosCase(x);
      if (!a.ok()) return false;  // invalid shrink candidate
      const auto b = RunTwinChaosCase(x);
      if (!b.ok()) return false;
      if (a.ValueOrDie().digest != b.ValueOrDie().digest) return true;
      if (check_neutrality && x.controller_enabled) {
        for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
          TwinChaosCase v = x;
          v.forecast_threads = threads;
          const auto r = RunTwinChaosCase(v);
          if (r.ok() && r.ValueOrDie().digest != a.ValueOrDie().digest) {
            return true;
          }
        }
      }
      return !CheckTwinChaosInvariants(x, a.ValueOrDie()).ok();
    };
    out.first_reproducer = ShrinkTwinChaosCase(c, fails);
    if (!options.reproducer_path.empty()) {
      std::ofstream file(options.reproducer_path);
      file << SerializeTwinChaosCase(out.first_reproducer);
      if (!file.good()) {
        return Status::IOError("cannot write reproducer to " +
                               options.reproducer_path);
      }
    }
  }
  return out;
}

}  // namespace webtx
