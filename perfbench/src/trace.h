#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Outside-in tracing: forwarding shims around the public SchedulerPolicy
// and AdmissionController interfaces, plus an in-memory span log for the
// coarse calls (Create, Run, RunSweep, Forecast, SnapshotAtQuiescence,
// Submit). Nothing here changes what the wrapped objects decide: every
// hook is forwarded, including PickBatch, WantsRemainingUpdates and
// AsShardedState, so the simulator and executor take the same paths as
// an untraced run (checked by perfbench_selftest against the digests).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "sched/admission.h"
#include "sched/scheduler_policy.h"

namespace perfbench {

/// Calls and wall time of one hook.
struct Timer {
  uint64_t calls = 0;
  int64_t ns = 0;
  double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer) : timer_(timer), start_(Clock::now()) {}
  ~ScopedTimer() {
    ++timer_.calls;
    timer_.ns += NanosSince(start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer& timer_;
  Clock::time_point start_;
};

/// Aggregated counters of the sched layer (policy and admission hooks).
/// Callers serialize access: the simulator is single-threaded and the
/// executor calls its policy and controller under its own mutex.
struct SchedCounters {
  Timer arrival, ready, completion, remaining, drop, migrated, pick, batch,
      admit, observe;
  uint64_t pick_idle = 0;  // PickNext/PickBatch rounds that chose nothing
  uint64_t admit_reject = 0;
  uint64_t admit_defer = 0;

  /// Wall time inside every wrapped hook (what sim.self_s excludes).
  int64_t total_ns() const {
    return arrival.ns + ready.ns + completion.ns + remaining.ns + drop.ns +
           migrated.ns + pick.ns + batch.ns + admit.ns + observe.ns;
  }
  /// Adds the sched.* per-layer metrics, each divided by `passes`.
  void EmitTo(std::map<std::string, double>& out, double passes) const;
};

/// Forwards every hook to `inner`, timing each into `counters`.
class TimedPolicy final : public webtx::SchedulerPolicy {
 public:
  TimedPolicy(std::unique_ptr<webtx::SchedulerPolicy> inner,
              SchedCounters* counters)
      : inner_(std::move(inner)), c_(counters) {}

  std::string name() const override { return inner_->name(); }
  void Bind(const webtx::SimView& view) override {
    webtx::SchedulerPolicy::Bind(view);
    inner_->Bind(view);
  }
  void OnArrival(webtx::TxnId id, webtx::SimTime now) override {
    ScopedTimer t(c_->arrival);
    inner_->OnArrival(id, now);
  }
  void OnReady(webtx::TxnId id, webtx::SimTime now) override {
    ScopedTimer t(c_->ready);
    inner_->OnReady(id, now);
  }
  void OnCompletion(webtx::TxnId id, webtx::SimTime now) override {
    ScopedTimer t(c_->completion);
    inner_->OnCompletion(id, now);
  }
  void OnRemainingUpdated(webtx::TxnId id, webtx::SimTime now) override {
    ScopedTimer t(c_->remaining);
    inner_->OnRemainingUpdated(id, now);
  }
  void OnDropped(webtx::TxnId id, webtx::SimTime now) override {
    ScopedTimer t(c_->drop);
    inner_->OnDropped(id, now);
  }
  void OnMigrated(webtx::TxnId id, webtx::SimTime now) override {
    ScopedTimer t(c_->migrated);
    inner_->OnMigrated(id, now);
  }
  webtx::TxnId PickNext(webtx::SimTime now) override {
    ScopedTimer t(c_->pick);
    const webtx::TxnId pick = inner_->PickNext(now);
    c_->pick_idle += pick == webtx::kInvalidTxn;
    return pick;
  }
  webtx::TxnId PickNextExcluding(
      webtx::SimTime now, const std::vector<webtx::TxnId>& exclude) override {
    ScopedTimer t(c_->pick);
    const webtx::TxnId pick = inner_->PickNextExcluding(now, exclude);
    c_->pick_idle += pick == webtx::kInvalidTxn;
    return pick;
  }
  void PickBatch(webtx::SimTime now, size_t k,
                 std::vector<webtx::TxnId>& out) override {
    ScopedTimer t(c_->batch);
    inner_->PickBatch(now, k, out);
    c_->pick_idle += out.empty();
  }
  bool WantsRemainingUpdates() const override {
    return inner_->WantsRemainingUpdates();
  }
  webtx::ShardedPolicyState* AsShardedState() override {
    return inner_->AsShardedState();
  }

 protected:
  void Reset() override {}

 private:
  std::unique_ptr<webtx::SchedulerPolicy> inner_;
  SchedCounters* c_;
};

/// Forwards every hook to `inner`, timing Decide and ObserveCompletion.
class TimedAdmission final : public webtx::AdmissionController {
 public:
  TimedAdmission(std::unique_ptr<webtx::AdmissionController> inner,
                 SchedCounters* counters)
      : inner_(std::move(inner)), c_(counters) {}

  std::string name() const override { return inner_->name(); }
  void Bind(const webtx::SimView& view) override {
    webtx::AdmissionController::Bind(view);
    inner_->Bind(view);
  }
  webtx::AdmissionDecision Decide(webtx::TxnId id,
                                  webtx::SimTime now) override {
    ScopedTimer t(c_->admit);
    const webtx::AdmissionDecision d = inner_->Decide(id, now);
    using Action = webtx::AdmissionDecision::Action;
    c_->admit_reject += d.action == Action::kReject;
    c_->admit_defer += d.action == Action::kDefer;
    return d;
  }
  void ObserveCompletion(webtx::TxnId id, webtx::SimTime tardiness,
                         webtx::SimTime now) override {
    ScopedTimer t(c_->observe);
    inner_->ObserveCompletion(id, tardiness, now);
  }

 private:
  std::unique_ptr<webtx::AdmissionController> inner_;
  SchedCounters* c_;
};

/// A factory whose products wrap `inner`'s in TimedAdmission (a null
/// factory stays null: no admission control).
webtx::AdmissionFactory TimedAdmissionFactory(webtx::AdmissionFactory inner,
                                              SchedCounters* counters);

/// In-memory span log of the coarse calls, written once at exit. Spans
/// nest by call order on the calling thread: a span's parent is the span
/// open when it began.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  int32_t Begin(const char* name);
  void End(int32_t id);
  /// Writes one JSON object per line: name, start_ns, end_ns, parent.
  bool WriteJsonl(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
