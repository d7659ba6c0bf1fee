#include "sim/schedule_validator.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace webtx {

namespace {

constexpr double kEps = 1e-6;

std::string Describe(const ScheduleSegment& s) {
  return "T" + std::to_string(s.txn) + "@server" +
         std::to_string(s.server) + " [" + std::to_string(s.start) + ", " +
         std::to_string(s.end) + ") attempt " + std::to_string(s.attempt);
}

std::string Describe(const char* kind, const OutageWindow& w) {
  return std::string(kind) + "@server" + std::to_string(w.server) + " [" +
         std::to_string(w.start) + ", " + std::to_string(w.end) + ")";
}

std::string At(SimTime t) { return " at t=" + std::to_string(t); }

// Shared counter-mismatch diagnostic: names the counter and both values.
Status CounterMismatch(const char* counter, size_t in_result,
                       size_t from_outcomes) {
  return Status::FailedPrecondition(
      "RunResult." + std::string(counter) + " is " +
      std::to_string(in_result) + " but the recorded outcomes sum to " +
      std::to_string(from_outcomes));
}

/// Files the items 0..count-1 into `num_rows` compressed sparse rows by
/// `row_of(item)`: row r is items[offsets[r], offsets[r + 1]), in
/// ascending item order. After the running sum offsets[r] is the end of
/// row r; filling in descending item order walks each cursor back to
/// its row's start (the successor transpose of DependencyGraph).
template <typename RowOf>
void FileRows(size_t num_rows, size_t count, RowOf row_of,
              std::vector<size_t>& offsets, std::vector<size_t>& items) {
  offsets.assign(num_rows + 1, 0);
  for (size_t i = 0; i < count; ++i) ++offsets[row_of(i)];
  for (size_t r = 1; r <= num_rows; ++r) offsets[r] += offsets[r - 1];
  items.resize(count);
  for (size_t i = count; i-- > 0;) items[--offsets[row_of(i)]] = i;
}

/// Check 7's lookup over one window list (outages or crashes). Each
/// server's windows are sorted by start, each carrying the largest end
/// among itself and the windows before it. A window hits a segment iff
/// `s.start < w.end - kEps && s.end > w.start + kEps`. Both sides are
/// monotone in the window's bounds, rounding included, so the windows
/// passing the second form a sorted prefix, and the first holds for one
/// of them iff it holds for the prefix's running maximum: one binary
/// search decides whether any window hits.
class WindowIndex {
 public:
  WindowIndex(const std::vector<OutageWindow>& windows, size_t num_servers)
      : windows_(windows) {
    // Row num_servers gathers the windows no segment can hit: those of
    // servers past the pool, and those with a NaN bound (every
    // comparison with NaN is false).
    std::vector<size_t> items;
    FileRows(
        num_servers + 1, windows.size(),
        [&](size_t i) {
          const OutageWindow& w = windows[i];
          const bool live = w.server < num_servers && !std::isnan(w.start) &&
                            !std::isnan(w.end);
          return live ? size_t{w.server} : num_servers;
        },
        offsets_, items);
    bounds_.resize(offsets_[num_servers]);
    for (size_t j = 0; j < bounds_.size(); ++j) {
      bounds_[j] = {windows[items[j]].start, windows[items[j]].end};
    }
    for (size_t server = 0; server < num_servers; ++server) {
      std::sort(bounds_.begin() + offsets_[server],
                bounds_.begin() + offsets_[server + 1]);
      for (size_t j = offsets_[server] + 1; j < offsets_[server + 1]; ++j) {
        bounds_[j].second = std::max(bounds_[j].second, bounds_[j - 1].second);
      }
    }
  }

  /// The first window in list order that hits `s` on its server, or
  /// null. The list is scanned only once the lookup has found a hit.
  const OutageWindow* FirstHit(const ScheduleSegment& s) const {
    const auto first = bounds_.begin() + offsets_[s.server];
    const auto last = bounds_.begin() + offsets_[s.server + 1];
    const auto passed = std::partition_point(
        first, last, [&](const std::pair<SimTime, SimTime>& b) {
          return s.end > b.first + kEps;
        });
    if (passed == first || !(s.start < (passed - 1)->second - kEps)) {
      return nullptr;
    }
    for (const OutageWindow& w : windows_) {
      if (w.server == s.server && s.start < w.end - kEps &&
          s.end > w.start + kEps) {
        return &w;
      }
    }
    return nullptr;
  }

 private:
  const std::vector<OutageWindow>& windows_;
  std::vector<size_t> offsets_;
  /// Per server row: (start, running maximum of the ends), by start.
  std::vector<std::pair<SimTime, SimTime>> bounds_;
};

}  // namespace

Status ValidateSchedule(const std::vector<TransactionSpec>& specs,
                        const RunResult& result,
                        const ValidationOptions& options) {
  const size_t num_servers = options.num_servers;
  const bool cold = options.migration == MigrationPolicy::kCold;
  if (result.outcomes.size() != specs.size()) {
    return Status::FailedPrecondition(
        "outcomes were not recorded; enable record_outcomes");
  }

  const std::vector<ScheduleSegment>& schedule = result.schedule;
  const WindowIndex outages(options.outages, num_servers);
  const WindowIndex crashes(options.crashes, num_servers);
  for (const ScheduleSegment& s : schedule) {
    if (s.server >= num_servers) {
      return Status::FailedPrecondition("segment on unknown server: " +
                                        Describe(s));
    }
    if (s.txn >= specs.size()) {
      return Status::FailedPrecondition("segment for unknown transaction: " +
                                        Describe(s));
    }
    if (s.end <= s.start) {
      return Status::FailedPrecondition("empty or negative segment: " +
                                        Describe(s));
    }
    if (s.start < specs[s.txn].arrival - kEps) {
      return Status::FailedPrecondition(
          "runs before its arrival" + At(specs[s.txn].arrival) + ": " +
          Describe(s));
    }
    // 7. A down (outage) or crashed (awaiting repair) server executes
    // nothing.
    if (const OutageWindow* w = outages.FirstHit(s)) {
      return Status::FailedPrecondition(
          "executes during " + Describe("outage", *w) + ": " + Describe(s));
    }
    if (const OutageWindow* w = crashes.FirstHit(s)) {
      return Status::FailedPrecondition(
          "executes on crashed server during " + Describe("repair", *w) +
          ": " + Describe(s));
    }
  }

  // Segment indices filed per server, then (reusing the arrays) per
  // transaction, each row in schedule order and then sorted by start.
  std::vector<size_t> offsets;
  std::vector<size_t> rows;
  const auto by_start = [&](size_t a, size_t b) {
    return schedule[a].start < schedule[b].start;
  };

  // 2. No overlap per server.
  FileRows(
      num_servers, schedule.size(),
      [&](size_t i) { return size_t{schedule[i].server}; }, offsets, rows);
  for (size_t server = 0; server < num_servers; ++server) {
    std::sort(rows.begin() + offsets[server],
              rows.begin() + offsets[server + 1], by_start);
    for (size_t j = offsets[server] + 1; j < offsets[server + 1]; ++j) {
      const ScheduleSegment& prev = schedule[rows[j - 1]];
      const ScheduleSegment& cur = schedule[rows[j]];
      if (cur.start < prev.end - kEps) {
        return Status::FailedPrecondition("server overlap between " +
                                          Describe(prev) + " and " +
                                          Describe(cur));
      }
    }
  }

  // 3-6, 8. Per-transaction checks.
  FileRows(
      specs.size(), schedule.size(),
      [&](size_t i) { return size_t{schedule[i].txn}; }, offsets, rows);
  size_t completed = 0;
  size_t shed = 0;
  size_t dropped_retries = 0;
  size_t dropped_dependency = 0;
  size_t migrations = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const TxnOutcome& o = result.outcomes[i];
    switch (o.fate) {
      case TxnFate::kCompleted:
        ++completed;
        break;
      case TxnFate::kShedAdmission:
        ++shed;
        break;
      case TxnFate::kDroppedRetries:
        ++dropped_retries;
        break;
      case TxnFate::kDroppedDependency:
        ++dropped_dependency;
        break;
    }
    migrations += o.migrations;
    const bool is_completed = o.fate == TxnFate::kCompleted;
    if (!is_completed && !o.missed_deadline) {
      return Status::FailedPrecondition(
          "T" + std::to_string(i) + " was " + TxnFateName(o.fate) +
          At(o.finish) + " but not counted as a deadline miss");
    }
    // Work-discarding events start new attempts: aborts always, and
    // migrations exactly when the run used cold failover — warm
    // failover conserves the work, so a warm migration bumping the
    // attempt would silently discard it.
    const uint32_t max_attempt = o.aborts + (cold ? o.migrations : 0);
    // 6a. Fate consistency along dependency edges: a transaction whose
    // dependency never completed must itself be dropped as a dependent.
    for (const TxnId dep : specs[i].dependencies) {
      if (result.outcomes[dep].fate != TxnFate::kCompleted &&
          o.fate != TxnFate::kDroppedDependency) {
        return Status::FailedPrecondition(
            "T" + std::to_string(i) + " has fate " + TxnFateName(o.fate) +
            At(o.finish) + " although dependency T" + std::to_string(dep) +
            " was " + TxnFateName(result.outcomes[dep].fate) +
            At(result.outcomes[dep].finish));
      }
    }
    const size_t first = offsets[i];
    const size_t last = offsets[i + 1];
    if (first == last) {
      if (is_completed) {
        return Status::FailedPrecondition(
            "T" + std::to_string(i) + " completed" + At(o.finish) +
            " but never executed");
      }
      continue;  // shed/dropped before ever being dispatched
    }
    std::sort(rows.begin() + first, rows.begin() + last, by_start);
    const ScheduleSegment& front = schedule[rows[first]];
    const ScheduleSegment& back = schedule[rows[last - 1]];
    double final_attempt_work = 0.0;
    for (size_t j = first; j < last; ++j) {
      const ScheduleSegment& seg = schedule[rows[j]];
      if (j > first) {
        const ScheduleSegment& prev = schedule[rows[j - 1]];
        if (seg.start < prev.end - kEps) {
          return Status::FailedPrecondition(
              "T" + std::to_string(i) + " runs on two servers at once: " +
              Describe(prev) + " and " + Describe(seg));
        }
        if (seg.attempt < prev.attempt) {
          return Status::FailedPrecondition(
              "T" + std::to_string(i) + " attempt numbers go backwards: " +
              Describe(prev) + " then " + Describe(seg));
        }
      }
      if (seg.attempt > max_attempt) {
        return Status::FailedPrecondition(
            "T" + std::to_string(i) + " segment of attempt " +
            std::to_string(seg.attempt) + " (" + Describe(seg) +
            ") but only " + std::to_string(o.aborts) + " aborts and " +
            std::to_string(o.migrations) + " migrations (" +
            (cold ? "cold" : "warm") + " failover) recorded");
      }
      // 5. Only the final attempt's work counts toward completion;
      // earlier attempts were discarded by an abort or cold migration.
      if (seg.attempt == max_attempt) {
        final_attempt_work += seg.end - seg.start;
      }
    }
    if (is_completed) {
      if (std::fabs(final_attempt_work - specs[i].length) > kEps) {
        return Status::FailedPrecondition(
            "T" + std::to_string(i) + " final attempt executed " +
            std::to_string(final_attempt_work) + " != length " +
            std::to_string(specs[i].length) + " (finish" + At(o.finish) +
            ", " + std::to_string(o.aborts) + " aborts, " +
            std::to_string(o.migrations) + " migrations, " +
            (cold ? "cold" : "warm") + " failover)");
      }
      if (std::fabs(back.end - o.finish) > kEps) {
        return Status::FailedPrecondition(
            "T" + std::to_string(i) + " last segment ends" + At(back.end) +
            " (" + Describe(back) + ") but finish is" + At(o.finish));
      }
    } else {
      // A non-completed transaction must not have absorbed a full
      // attempt's worth of counted work.
      if (final_attempt_work > specs[i].length + kEps) {
        return Status::FailedPrecondition(
            "T" + std::to_string(i) + " was " + TxnFateName(o.fate) +
            At(o.finish) + " yet executed " +
            std::to_string(final_attempt_work) + " > length " +
            std::to_string(specs[i].length));
      }
    }
    // 6b. Precedence: starts only after every dependency's finish.
    for (const TxnId dep : specs[i].dependencies) {
      const TxnOutcome& od = result.outcomes[dep];
      if (od.fate != TxnFate::kCompleted) {
        // A dependent only becomes ready once the dependency completes,
        // so it can never have executed at all.
        return Status::FailedPrecondition(
            "T" + std::to_string(i) + " executed (" + Describe(front) +
            ") although dependency T" +
            std::to_string(dep) + " never completed (" +
            TxnFateName(od.fate) + At(od.finish) + ")");
      }
      if (front.start < od.finish - kEps) {
        return Status::FailedPrecondition(
            "T" + std::to_string(i) + " starts" + At(front.start) + " (" +
            Describe(front) + ") before T" +
            std::to_string(dep) + " finishes" + At(od.finish));
      }
    }
  }

  // 8. Per-fate and per-event counters partition the workload and match
  // the outcomes.
  if (result.num_completed != completed) {
    return CounterMismatch("num_completed", result.num_completed, completed);
  }
  if (result.num_shed != shed) {
    return CounterMismatch("num_shed", result.num_shed, shed);
  }
  if (result.num_dropped_retries != dropped_retries) {
    return CounterMismatch("num_dropped_retries", result.num_dropped_retries,
                           dropped_retries);
  }
  if (result.num_dropped_dependency != dropped_dependency) {
    return CounterMismatch("num_dropped_dependency",
                           result.num_dropped_dependency, dropped_dependency);
  }
  if (result.num_migrations != migrations) {
    return CounterMismatch("num_migrations", result.num_migrations,
                           migrations);
  }
  if (result.num_crashes != options.crashes.size()) {
    return CounterMismatch("num_crashes", result.num_crashes,
                           options.crashes.size());
  }
  if (completed + shed + dropped_retries + dropped_dependency !=
      specs.size()) {
    return Status::FailedPrecondition(
        "fate counts do not partition the workload: " +
        std::to_string(completed) + " completed + " + std::to_string(shed) +
        " shed + " + std::to_string(dropped_retries) + " dropped-retries + " +
        std::to_string(dropped_dependency) + " dropped-dependency != " +
        std::to_string(specs.size()));
  }
  return Status::OK();
}

Status ValidateSchedule(const std::vector<TransactionSpec>& specs,
                        const RunResult& result, size_t num_servers) {
  ValidationOptions options;
  options.num_servers = num_servers;
  return ValidateSchedule(specs, result, options);
}

}  // namespace webtx
