#ifndef WEBTX_SCHED_ADMISSION_H_
#define WEBTX_SCHED_ADMISSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "sched/sim_view.h"
#include "txn/transaction.h"

namespace webtx {

/// Verdict of an admission controller for one arriving transaction.
struct AdmissionDecision {
  enum class Action : uint8_t {
    kAdmit,   // enter the system normally
    kReject,  // shed: the transaction (and its dependents) never runs
    kDefer,   // re-present the arrival to the controller after a delay
  };

  Action action = Action::kAdmit;
  /// Delay until the deferred re-arrival; must be > 0 for kDefer.
  SimTime defer_delay = 0.0;

  static AdmissionDecision Admit() { return {}; }
  static AdmissionDecision Reject() {
    return {Action::kReject, 0.0};
  }
  static AdmissionDecision Defer(SimTime delay) {
    WEBTX_DCHECK(delay > 0.0);
    return {Action::kDefer, delay};
  }
};

/// Overload-shedding hook consulted by the simulator (and conceptually
/// by any executor front end) at every transaction arrival, BEFORE the
/// scheduling policy learns of the transaction. Rejected transactions
/// are shed with fate kShedAdmission and their dependents are dropped;
/// deferred transactions re-arrive (and are re-decided) defer_delay
/// later. Controllers observe system load through the same read-only
/// SimView policies use, so "estimated system tardiness" and
/// "ready-queue depth" bounds are expressible without new plumbing.
///
/// Controllers are stateful (e.g. per-transaction defer budgets) and
/// NOT thread-safe; a simulator builds one instance from
/// SimOptions::admission and re-binds it on every run, as it does the
/// policy it runs.
class AdmissionController {
 public:
  virtual ~AdmissionController() = default;

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Display name, e.g. "queue-depth(64)".
  virtual std::string name() const = 0;

  /// Attaches the controller to a run and clears internal state.
  virtual void Bind(const SimView& view) {
    view_ = &view;
    Reset();
  }

  /// Decides the fate of arriving transaction `id` at time `now`. The
  /// transaction is not yet arrived/ready in the view. Called again on
  /// every deferred re-arrival; controllers must eventually answer
  /// kAdmit or kReject for the run to terminate.
  virtual AdmissionDecision Decide(TxnId id, SimTime now) = 0;

  /// Feedback hook: the host reports every completion with its observed
  /// tardiness (live executors report measured wall/virtual-clock
  /// tardiness, not the oracle estimate). Default: ignored. Adaptive
  /// controllers (BrownoutAdmission) steer shedding with it.
  virtual void ObserveCompletion(TxnId id, SimTime tardiness, SimTime now) {
    (void)id;
    (void)tardiness;
    (void)now;
  }

 protected:
  AdmissionController() = default;

  /// Restores the state the controller was constructed with. Called by
  /// Bind: a simulator reuses one controller across its runs, so state a
  /// Reset leaves behind would leak from one run into the next.
  virtual void Reset() {}

  const SimView& view() const {
    WEBTX_DCHECK(view_ != nullptr) << "controller used before Bind()";
    return *view_;
  }

 private:
  const SimView* view_ = nullptr;
};

/// Creates the controller of one simulator (or executor), which re-binds
/// it on every run. Factories are invoked from sweep worker threads (one
/// controller per simulator, never shared), so they must be thread-safe
/// and deterministic.
using AdmissionFactory =
    std::function<std::unique_ptr<AdmissionController>()>;

// ---------------------------------------------------------------------------
// Shipped strategies.

struct QueueDepthAdmissionOptions {
  /// Reject (or defer) dependency-free arrivals once the ready queue
  /// holds at least this many transactions.
  size_t max_ready = 64;
  /// When > 0, an over-cap arrival is deferred by this delay instead of
  /// rejected, up to max_defers times; afterwards it is rejected.
  SimTime defer_delay = 0.0;
  uint32_t max_defers = 4;
};

/// Queue-depth cap: the classic bounded-run-queue shed. Only
/// dependency-free (workflow-root) transactions are ever shed —
/// rejecting a mid-workflow transaction would waste its predecessors'
/// finished work.
class QueueDepthAdmission final : public AdmissionController {
 public:
  explicit QueueDepthAdmission(QueueDepthAdmissionOptions options = {});

  std::string name() const override;
  AdmissionDecision Decide(TxnId id, SimTime now) override;

 protected:
  void Reset() override;

 private:
  QueueDepthAdmissionOptions options_;
  std::vector<uint32_t> defers_;  // per-txn defer count, sized lazily
};

struct FeasibilityAdmissionOptions {
  /// Admit while the predicted tardiness of the arrival stays within
  /// this bound (0 = admit only transactions predicted to meet their
  /// deadline).
  SimTime tardiness_bound = 0.0;
};

/// Feasibility-based rejection: predicts the arrival's completion time
/// from the policy-visible remaining times of the current ready set
/// (backlog / num_servers + own estimated length) and sheds
/// dependency-free transactions whose predicted tardiness exceeds the
/// bound — transactions that would finish hopelessly late are cheaper
/// to reject at the door than to time out in the queue.
class FeasibilityAdmission final : public AdmissionController {
 public:
  explicit FeasibilityAdmission(FeasibilityAdmissionOptions options = {});

  std::string name() const override;
  AdmissionDecision Decide(TxnId id, SimTime now) override;

 private:
  FeasibilityAdmissionOptions options_;
};

struct BrownoutAdmissionOptions {
  /// Observed-tardiness EWMA considered "at capacity" (severity 1.0).
  SimTime tardiness_slo = 0.5;
  /// Ready-queue depth per up-server considered "at capacity".
  double depth_slo = 16.0;
  /// EWMA smoothing factor in (0, 1]: applied per completion to the
  /// tardiness signal and per arrival to the depth signal.
  double ewma_alpha = 0.2;
  /// SLA weight tiers, strictly ascending. At brownout level k
  /// (1-based), dependency-free arrivals with weight below
  /// weight_tiers[min(k, tiers) - 1] are shed; deeper overload raises
  /// the admitted-weight floor tier by tier.
  std::vector<double> weight_tiers = {1.0, 4.0, 16.0};
  /// Severity at which the circuit breaker trips wide open.
  double breaker_trip_severity = 4.0;
  /// Seconds the breaker stays open before probing again (half-open).
  SimTime breaker_cooldown = 5.0;
  /// Crash-aware severity: fraction of servers down considered "at
  /// capacity" (severity 1.0). 0 disables the signal (the historical
  /// behavior — severity then reacts to crashes only indirectly,
  /// through the tardiness/depth the shrunken pool causes). With e.g.
  /// capacity_slo = 0.5, half the farm being down alone browns the
  /// controller out, so admission tightens the moment workers crash
  /// instead of waiting for the backlog to build.
  double capacity_slo = 0.0;
};

/// Brownout / circuit-breaker admission driven by *observed* load, not
/// oracle estimates: the host reports measured completion tardiness via
/// ObserveCompletion and the controller maintains EWMAs of tardiness
/// and ready-queue depth (normalized per up-server). Severity is the
/// worse of the two signals relative to its SLO:
///   - severity <= 1: healthy, admit everything;
///   - 1 < severity < trip: browned out — shed low-SLA-weight arrivals,
///     raising the admitted-weight floor one tier per unit of overload;
///   - severity >= trip: the breaker opens — only top-tier arrivals are
///     admitted for breaker_cooldown seconds, then ONE probe arrival is
///     admitted (half-open) and its observed tardiness decides between
///     closing the breaker and re-opening it.
/// Only dependency-free (root) arrivals are ever shed, matching the
/// other controllers. Deterministic given the same call sequence.
class BrownoutAdmission final : public AdmissionController {
 public:
  explicit BrownoutAdmission(BrownoutAdmissionOptions options = {});

  std::string name() const override;
  AdmissionDecision Decide(TxnId id, SimTime now) override;
  void ObserveCompletion(TxnId id, SimTime tardiness, SimTime now) override;

  /// Introspection for tests and benches.
  double tardiness_ewma() const { return tardy_ewma_; }
  double depth_ewma() const { return depth_ewma_; }
  enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };
  BreakerState breaker_state() const { return breaker_; }

 protected:
  void Reset() override;

 private:
  double SeverityLocked() const;

  BrownoutAdmissionOptions options_;
  double tardy_ewma_ = 0.0;
  double depth_ewma_ = 0.0;
  BreakerState breaker_ = BreakerState::kClosed;
  SimTime open_until_ = 0.0;
  TxnId probe_ = kInvalidTxn;  // half-open probe awaiting its completion
};

/// Convenience factories for SimOptions::admission.
AdmissionFactory MakeQueueDepthAdmission(
    QueueDepthAdmissionOptions options = {});
AdmissionFactory MakeFeasibilityAdmission(
    FeasibilityAdmissionOptions options = {});
AdmissionFactory MakeBrownoutAdmission(BrownoutAdmissionOptions options = {});

}  // namespace webtx

#endif  // WEBTX_SCHED_ADMISSION_H_
