#include "rt/live_validator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "common/check.h"
#include "common/digest.h"
#include "common/sim_time.h"

namespace webtx::rt {

namespace {

/// Tolerance of exact-instant comparisons. Virtual-clock timelines are
/// computed, not measured, so everything lands within rounding error.
constexpr double kEps = 1e-6;

/// Same-instant apply order of the executor, reconstructed for the
/// sorted replay of the trace: slot state changes land first (workers
/// pump fault events before anything else), then forced aborts, then
/// attempt ends (an interrupted sleep returns at the abort instant),
/// then bookkeeping, then dispatches (the completion barrier orders
/// same-instant completions before any dispatch).
int PhaseOf(LiveEventKind kind) {
  switch (kind) {
    case LiveEventKind::kSlotDown:
    case LiveEventKind::kSlotUp:
      return 0;
    case LiveEventKind::kForcedAbort:
      return 1;
    case LiveEventKind::kAttemptEnd:
    case LiveEventKind::kZombieEnd:
    case LiveEventKind::kFailover:
      return 2;
    case LiveEventKind::kDispatch:
      return 4;
    default:
      return 3;
  }
}

struct SortKey {
  bool operator()(const LiveTraceEvent& a, const LiveTraceEvent& b) const {
    if (a.time != b.time) return a.time < b.time;
    const int pa = PhaseOf(a.kind);
    const int pb = PhaseOf(b.kind);
    if (pa != pb) return pa < pb;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.txn != b.txn) return a.txn < b.txn;
    if (a.attempt != b.attempt) return a.attempt < b.attempt;
    return a.slot < b.slot;
  }
};

struct OpenAttempt {
  TxnId txn = kInvalidTxn;
  uint32_t attempt = 0;
  double dispatch_seconds = 0.0;
  bool forced_abort = false;
  double abort_seconds = 0.0;
};

struct StallWindow {
  double start = 0.0;
  double end = kNeverSeconds;  // still open
};

struct TaskTally {
  uint32_t submits = 0;
  uint32_t charged = 0;
  uint32_t migration_dispatches = 0;
  uint32_t failovers = 0;
  uint32_t zombie_ends = 0;
  uint32_t forced_aborts = 0;
  uint32_t terminals = 0;
  uint64_t terminal_aux = 0;
  double terminal_time = 0.0;
  struct Retry {
    double time = 0.0;
    uint32_t attempt = 0;
    double delay = 0.0;
  };
  std::vector<Retry> scheduled;
  std::vector<Retry> released;
};

}  // namespace

LiveValidationResult ValidateLiveTrace(
    const std::vector<LiveTraceEvent>& trace,
    const std::vector<LiveTaskRecord>& tasks,
    const std::vector<TaskOutcome>& outcomes, const ExecutorStats& stats,
    const LiveValidatorOptions& options) {
  LiveValidationResult result;
  auto fail = [&result](const std::string& message) {
    result.violations.push_back(message);
  };
  auto failf = [&fail](const std::ostringstream& os) { fail(os.str()); };

  if (tasks.size() != outcomes.size()) {
    fail("task records and outcomes disagree in size");
    return result;
  }
  const auto num_tasks = static_cast<TxnId>(tasks.size());

  std::vector<LiveTraceEvent> events(trace);
  std::stable_sort(events.begin(), events.end(), SortKey{});

  // Per-slot state, sized lazily as slots appear.
  std::vector<bool> stall_down;
  std::vector<bool> crash_down;
  std::vector<std::optional<OpenAttempt>> occupant;
  std::vector<std::vector<double>> crash_times;
  std::vector<std::vector<StallWindow>> stall_windows;
  auto ensure_slot = [&](uint32_t slot) {
    if (slot < stall_down.size()) return;
    stall_down.resize(slot + 1, false);
    crash_down.resize(slot + 1, false);
    occupant.resize(slot + 1);
    crash_times.resize(slot + 1);
    stall_windows.resize(slot + 1);
  };

  std::vector<TaskTally> tally(tasks.size());
  std::vector<uint32_t> pending_zombies(tasks.size(), 0);
  double last_time = 0.0;

  for (const LiveTraceEvent& event : events) {
    if (!std::isfinite(event.time) || event.time < 0.0) {
      std::ostringstream os;
      os << "non-finite or negative event time " << event.time;
      failf(os);
      continue;
    }
    last_time = std::max(last_time, event.time);
    const bool has_txn = event.txn != kInvalidTxn;
    if (has_txn && event.txn >= num_tasks) {
      std::ostringstream os;
      os << "event references unknown task " << event.txn;
      failf(os);
      continue;
    }
    if (event.slot != LiveTraceEvent::kNoSlot) ensure_slot(event.slot);

    switch (event.kind) {
      case LiveEventKind::kSubmit:
        ++tally[event.txn].submits;
        break;
      case LiveEventKind::kShedAdmission:
      case LiveEventKind::kDeferArrival:
      case LiveEventKind::kLatencySpike:
        break;
      case LiveEventKind::kSlotDown: {
        const bool crash = event.aux == 1;
        std::vector<bool>& channel = crash ? crash_down : stall_down;
        if (channel[event.slot]) {
          std::ostringstream os;
          os << "slot " << event.slot << " went down twice on the "
             << (crash ? "crash" : "stall") << " channel at " << event.time;
          failf(os);
        }
        channel[event.slot] = true;
        if (crash) {
          crash_times[event.slot].push_back(event.time);
        } else {
          stall_windows[event.slot].push_back(StallWindow{event.time});
        }
        break;
      }
      case LiveEventKind::kSlotUp: {
        const bool crash = event.aux == 1;
        std::vector<bool>& channel = crash ? crash_down : stall_down;
        if (!channel[event.slot]) {
          std::ostringstream os;
          os << "slot " << event.slot << " came up without being down on "
             << "the " << (crash ? "crash" : "stall") << " channel at "
             << event.time;
          failf(os);
        }
        channel[event.slot] = false;
        if (!crash && !stall_windows[event.slot].empty()) {
          stall_windows[event.slot].back().end = event.time;
        }
        break;
      }
      case LiveEventKind::kDispatch: {
        TaskTally& t = tally[event.txn];
        if (t.terminals > 0) {
          std::ostringstream os;
          os << "task " << event.txn << " dispatched at " << event.time
             << " after its terminal event";
          failf(os);
        }
        if (stall_down[event.slot] || crash_down[event.slot]) {
          std::ostringstream os;
          os << "task " << event.txn << " dispatched onto down slot "
             << event.slot << " at " << event.time;
          failf(os);
        }
        if (occupant[event.slot].has_value()) {
          std::ostringstream os;
          os << "task " << event.txn << " dispatched onto occupied slot "
             << event.slot << " at " << event.time << " (occupant: task "
             << occupant[event.slot]->txn << ")";
          failf(os);
        }
        const auto kind = static_cast<LiveDispatchKind>(event.aux);
        if (kind == LiveDispatchKind::kMigration) {
          ++t.migration_dispatches;
        } else {
          ++t.charged;
          if (event.attempt != t.charged) {
            std::ostringstream os;
            os << "task " << event.txn << " charged dispatch at "
               << event.time << " has attempt ordinal " << event.attempt
               << ", expected " << t.charged;
            failf(os);
          }
        }
        occupant[event.slot] =
            OpenAttempt{event.txn, event.attempt, event.time};
        break;
      }
      case LiveEventKind::kForcedAbort: {
        ++tally[event.txn].forced_aborts;
        if (!occupant[event.slot].has_value() ||
            occupant[event.slot]->txn != event.txn) {
          std::ostringstream os;
          os << "forced abort of task " << event.txn << " at " << event.time
             << " on slot " << event.slot
             << " does not match the in-flight attempt";
          failf(os);
        } else {
          occupant[event.slot]->forced_abort = true;
          occupant[event.slot]->abort_seconds = event.time;
        }
        break;
      }
      case LiveEventKind::kFailover: {
        TaskTally& t = tally[event.txn];
        ++t.failovers;
        ++pending_zombies[event.txn];
        if (!occupant[event.slot].has_value() ||
            occupant[event.slot]->txn != event.txn) {
          std::ostringstream os;
          os << "failover of task " << event.txn << " at " << event.time
             << " on slot " << event.slot
             << " does not match the in-flight attempt";
          failf(os);
          break;
        }
        occupant[event.slot].reset();
        const auto cause = static_cast<LiveFailoverCause>(event.aux);
        if (cause == LiveFailoverCause::kCrash) {
          const std::vector<double>& crashes = crash_times[event.slot];
          const bool at_crash =
              !crashes.empty() &&
              std::fabs(crashes.back() - event.time) <= kEps;
          if (!at_crash) {
            std::ostringstream os;
            os << "crash failover of task " << event.txn << " at "
               << event.time << " on slot " << event.slot
               << " without a crash at that instant";
            failf(os);
          }
        } else if (cause == LiveFailoverCause::kStall) {
          if (!options.watchdog) {
            std::ostringstream os;
            os << "stall failover of task " << event.txn << " at "
               << event.time << " with the watchdog disabled";
            failf(os);
            break;
          }
          bool at_deadline = false;
          for (const StallWindow& w : stall_windows[event.slot]) {
            if (std::fabs(w.start + options.watchdog_stall_seconds -
                          event.time) <= kEps &&
                w.end > event.time - kEps) {
              at_deadline = true;
              break;
            }
          }
          if (!at_deadline) {
            std::ostringstream os;
            os << "stall failover of task " << event.txn << " at "
               << event.time << " on slot " << event.slot
               << " not at a stall start + detection delay";
            failf(os);
          }
        }
        break;
      }
      case LiveEventKind::kAttemptEnd: {
        if (!occupant[event.slot].has_value() ||
            occupant[event.slot]->txn != event.txn) {
          std::ostringstream os;
          os << "attempt end of task " << event.txn << " at " << event.time
             << " on slot " << event.slot
             << " does not match the in-flight attempt";
          failf(os);
          break;
        }
        const OpenAttempt open = *occupant[event.slot];
        occupant[event.slot].reset();
        const double d = open.dispatch_seconds;
        const double e = event.time;
        // A crash strictly inside the execution interval must have
        // failed the attempt over; surviving to a normal end is the
        // core invariant violation ("execution on a crashed worker").
        for (const double c : crash_times[event.slot]) {
          if (c > d + kEps && c < e - kEps) {
            std::ostringstream os;
            os << "task " << event.txn << " attempt on slot " << event.slot
               << " ran across a crash at " << c << " (interval [" << d
               << ", " << e << "])";
            failf(os);
          }
        }
        const auto res = static_cast<LiveAttemptResult>(event.aux);
        if (options.watchdog && res != LiveAttemptResult::kShed) {
          const double wd = options.watchdog_stall_seconds;
          for (const StallWindow& w : stall_windows[event.slot]) {
            if (w.start < d - kEps) continue;  // began before dispatch?
            if (w.start >= e) continue;
            const double deadline = w.start + wd;
            const bool stalled_past_deadline = w.end > deadline + kEps;
            if (stalled_past_deadline && e > deadline + kEps) {
              std::ostringstream os;
              os << "task " << event.txn << " attempt on slot "
                 << event.slot << " outlived the watchdog deadline "
                 << deadline << " of the stall at " << w.start
                 << " (ended " << e << ")";
              failf(os);
            }
          }
        }
        if (open.forced_abort) {
          if (res != LiveAttemptResult::kAborted &&
              res != LiveAttemptResult::kShed) {
            std::ostringstream os;
            os << "force-aborted attempt of task " << event.txn
               << " ended with result " << static_cast<int>(res)
               << " instead of aborted/shed";
            failf(os);
          }
          if (tasks[event.txn].simulated &&
              std::fabs(e - open.abort_seconds) > kEps) {
            std::ostringstream os;
            os << "force-aborted simulated attempt of task " << event.txn
               << " ended at " << e << ", not at the abort instant "
               << open.abort_seconds;
            failf(os);
          }
        }
        break;
      }
      case LiveEventKind::kZombieEnd: {
        ++tally[event.txn].zombie_ends;
        if (pending_zombies[event.txn] == 0) {
          std::ostringstream os;
          os << "zombie end of task " << event.txn << " at " << event.time
             << " without a matching failover";
          failf(os);
        } else {
          --pending_zombies[event.txn];
        }
        break;
      }
      case LiveEventKind::kRetryScheduled:
        tally[event.txn].scheduled.push_back(TaskTally::Retry{
            event.time, event.attempt, BitsToDouble(event.aux)});
        break;
      case LiveEventKind::kRetryReleased:
        tally[event.txn].released.push_back(
            TaskTally::Retry{event.time, event.attempt, 0.0});
        break;
      case LiveEventKind::kTerminal: {
        TaskTally& t = tally[event.txn];
        ++t.terminals;
        t.terminal_aux = event.aux;
        t.terminal_time = event.time;
        break;
      }
    }
  }

  // Cross-checks against ground truth and final outcomes.
  size_t total_charged = 0;
  size_t total_failovers = 0;
  size_t total_aborts = 0;
  size_t clamped_retries = 0;
  size_t by_result[7] = {0, 0, 0, 0, 0, 0, 0};
  for (TxnId id = 0; id < num_tasks; ++id) {
    const LiveTaskRecord& task = tasks[id];
    const TaskOutcome& outcome = outcomes[id];
    const TaskTally& t = tally[id];
    total_charged += t.charged;
    total_failovers += t.failovers;
    total_aborts += t.forced_aborts;

    if (!outcome.finished) {
      std::ostringstream os;
      os << "task " << id << " never reached a terminal state";
      failf(os);
      continue;
    }
    by_result[static_cast<size_t>(outcome.result)]++;
    if (t.submits != 1) {
      std::ostringstream os;
      os << "task " << id << " has " << t.submits << " submit events";
      failf(os);
    }
    if (t.terminals != 1) {
      std::ostringstream os;
      os << "task " << id << " has " << t.terminals
         << " terminal events (every drop needs exactly one cause)";
      failf(os);
    } else {
      if (t.terminal_aux != static_cast<uint64_t>(outcome.result)) {
        std::ostringstream os;
        os << "task " << id << " terminal event cause " << t.terminal_aux
           << " disagrees with outcome result "
           << static_cast<int>(outcome.result);
        failf(os);
      }
      if (std::fabs(t.terminal_time - outcome.finish_seconds) > kEps) {
        std::ostringstream os;
        os << "task " << id << " terminal event at " << t.terminal_time
           << " disagrees with outcome finish " << outcome.finish_seconds;
        failf(os);
      }
    }
    if (outcome.fate != FateOf(outcome.result)) {
      std::ostringstream os;
      os << "task " << id << " fate does not match its result";
      failf(os);
    }
    if (t.charged != outcome.attempts) {
      std::ostringstream os;
      os << "task " << id << " has " << t.charged
         << " charged dispatches but outcome.attempts == "
         << outcome.attempts;
      failf(os);
    }
    if (t.charged > task.max_attempts) {
      std::ostringstream os;
      os << "task " << id << " charged " << t.charged
         << " attempts, over its budget of " << task.max_attempts;
      failf(os);
    }
    if (t.failovers != outcome.migrations) {
      std::ostringstream os;
      os << "task " << id << " has " << t.failovers
         << " failover events but outcome.migrations == "
         << outcome.migrations;
      failf(os);
    }
    if (t.zombie_ends != t.failovers) {
      std::ostringstream os;
      os << "task " << id << " has " << t.failovers << " failovers but "
         << t.zombie_ends << " zombie ends (trace not quiescent?)";
      failf(os);
    }
    if (t.migration_dispatches > t.failovers) {
      std::ostringstream os;
      os << "task " << id << " has more uncharged re-dispatches ("
         << t.migration_dispatches << ") than failovers (" << t.failovers
         << ")";
      failf(os);
    }
    if (t.forced_aborts != outcome.forced_aborts) {
      std::ostringstream os;
      os << "task " << id << " has " << t.forced_aborts
         << " forced-abort events but outcome.forced_aborts == "
         << outcome.forced_aborts;
      failf(os);
    }
    if (outcome.result == TaskResult::kShedAdmission &&
        t.charged + t.migration_dispatches > 0) {
      std::ostringstream os;
      os << "admission-shed task " << id << " was dispatched";
      failf(os);
    }
    if (outcome.result == TaskResult::kCompleted) {
      const double expect = std::max(
          0.0, outcome.finish_seconds - task.deadline_seconds);
      if (std::fabs(outcome.tardiness_seconds - expect) > kEps) {
        std::ostringstream os;
        os << "task " << id << " tardiness " << outcome.tardiness_seconds
           << " disagrees with finish - deadline = " << expect;
        failf(os);
      }
    }
    if (outcome.result == TaskResult::kDependencyFailed) {
      bool has_failed_dep = false;
      for (const TxnId dep : task.dependencies) {
        if (dep < num_tasks &&
            outcomes[dep].result != TaskResult::kCompleted) {
          has_failed_dep = true;
          break;
        }
      }
      if (!has_failed_dep) {
        std::ostringstream os;
        os << "task " << id
           << " was dropped as dependency-failed but every dependency "
              "completed";
        failf(os);
      }
    }

    // Retry backoff discipline.
    for (const TaskTally::Retry& retry : t.scheduled) {
      double raw = task.retry_backoff;
      for (uint32_t i = 1; i < retry.attempt; ++i) {
        raw *= task.backoff_multiplier;
      }
      double expect = raw;
      if (options.retry_max_backoff > 0.0 &&
          raw > options.retry_max_backoff) {
        expect = options.retry_max_backoff;
        ++clamped_retries;
      }
      if (std::fabs(retry.delay - expect) >
          kEps * std::max(1.0, std::fabs(expect))) {
        std::ostringstream os;
        os << "task " << id << " retry " << retry.attempt
           << " scheduled with delay " << retry.delay << ", expected "
           << expect;
        failf(os);
      }
      const double due = retry.time + retry.delay;
      bool released = false;
      for (const TaskTally::Retry& rel : t.released) {
        if (rel.attempt == retry.attempt &&
            std::fabs(rel.time - due) <= kEps) {
          released = true;
          break;
        }
      }
      if (!released && outcome.result != TaskResult::kShed &&
          outcome.result != TaskResult::kDependencyFailed) {
        std::ostringstream os;
        os << "task " << id << " retry " << retry.attempt
           << " scheduled for " << due
           << " was never released nor cancelled by a shed/drop";
        failf(os);
      }
    }
  }

  for (TxnId id = 0; id < num_tasks; ++id) {
    if (pending_zombies[id] != 0) {
      std::ostringstream os;
      os << "task " << id << " still has " << pending_zombies[id]
         << " unresolved zombie attempts at end of trace";
      failf(os);
    }
  }
  for (size_t slot = 0; slot < occupant.size(); ++slot) {
    if (occupant[slot].has_value()) {
      std::ostringstream os;
      os << "slot " << slot << " still occupied by task "
         << occupant[slot]->txn << " at end of trace";
      failf(os);
    }
  }

  // Stats partition: every submitted task lands in exactly one bucket.
  const size_t completed = by_result[static_cast<size_t>(
      TaskResult::kCompleted)];
  const size_t dropped_retries =
      by_result[static_cast<size_t>(TaskResult::kFailed)] +
      by_result[static_cast<size_t>(TaskResult::kTimedOut)];
  const size_t shed_shutdown =
      by_result[static_cast<size_t>(TaskResult::kShed)];
  const size_t shed_admission =
      by_result[static_cast<size_t>(TaskResult::kShedAdmission)];
  const size_t dropped_dependency =
      by_result[static_cast<size_t>(TaskResult::kDependencyFailed)];
  if (stats.submitted != tasks.size()) {
    std::ostringstream os;
    os << "stats.submitted == " << stats.submitted << ", expected "
       << tasks.size();
    failf(os);
  }
  if (stats.completed != completed || stats.shed_shutdown != shed_shutdown ||
      stats.shed_admission != shed_admission ||
      stats.dropped_retries != dropped_retries ||
      stats.dropped_dependency != dropped_dependency) {
    fail("stats fate counters disagree with per-task outcomes");
  }
  if (stats.completed + stats.shed_admission + stats.shed_shutdown +
          stats.dropped_retries + stats.dropped_dependency !=
      tasks.size()) {
    fail("stats fate counters do not partition the submitted tasks");
  }
  if (stats.attempts != total_charged) {
    std::ostringstream os;
    os << "stats.attempts == " << stats.attempts << ", trace charged "
       << total_charged;
    failf(os);
  }
  if (stats.migrations != total_failovers) {
    std::ostringstream os;
    os << "stats.migrations == " << stats.migrations << ", trace has "
       << total_failovers << " failovers";
    failf(os);
  }
  if (stats.forced_aborts != total_aborts) {
    std::ostringstream os;
    os << "stats.forced_aborts == " << stats.forced_aborts
       << ", trace has " << total_aborts;
    failf(os);
  }
  if (stats.retry_storm_suppressed < clamped_retries) {
    std::ostringstream os;
    os << "stats.retry_storm_suppressed == " << stats.retry_storm_suppressed
       << " but the trace shows " << clamped_retries
       << " clamped retry delays";
    failf(os);
  }
  return result;
}

}  // namespace webtx::rt
