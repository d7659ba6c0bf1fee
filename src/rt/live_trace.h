#ifndef WEBTX_RT_LIVE_TRACE_H_
#define WEBTX_RT_LIVE_TRACE_H_

#include <cstdint>
#include <vector>

#include "txn/transaction.h"

namespace webtx::rt {

/// Event kinds of the live executor trace. One enum value per
/// observable state change; the validator (rt/live_validator.h) checks
/// the crash-era invariants over these, and the chaos harness digests
/// them for replay byte-identity.
enum class LiveEventKind : uint8_t {
  kSubmit = 0,        // task accepted (aux: weight bits)
  kShedAdmission,     // admission controller rejected the arrival
  kDeferArrival,      // admission deferred the arrival (aux: delay bits)
  kDispatch,          // attempt starts on `slot` (attempt: charged
                      // ordinal; aux: LiveDispatchKind)
  kLatencySpike,      // injected extra latency on this dispatch
                      // (aux: seconds bits)
  kForcedAbort,       // fault stream aborted the in-flight attempt
  kFailover,          // in-flight attempt migrated off `slot`
                      // (aux: LiveFailoverCause)
  kAttemptEnd,        // attempt returned and was accounted
                      // (aux: LiveAttemptResult)
  kZombieEnd,         // a failed-over attempt's thread returned; the
                      // result was discarded
  kRetryScheduled,    // backoff timer armed (aux: delay bits)
  kRetryReleased,     // delayed retry re-entered the ready set
  kSlotDown,          // slot left the pool (aux: 0 stall, 1 crash)
  kSlotUp,            // slot rejoined the pool (aux: 0 stall, 1 crash)
  kTerminal,          // task reached its terminal TaskResult (aux: it)
};

/// kDispatch aux values.
enum class LiveDispatchKind : uint8_t {
  kFresh = 0,   // first charged attempt
  kRetry,       // later charged attempt (after a failure)
  kMigration,   // uncharged re-dispatch after a failover
};

/// kFailover aux values.
enum class LiveFailoverCause : uint8_t {
  kCrash = 0,     // slot crashed with the attempt in flight
  kStall,         // watchdog detected the attempt on a stalled slot
  kShutdown = 2,  // reserved
};

/// kAttemptEnd aux values.
enum class LiveAttemptResult : uint8_t {
  kCompleted = 0,
  kFailed,        // the attempt threw
  kTimedOut,
  kAborted,       // forced abort (fault injection)
  kShed,          // ShutdownNow tripped the token mid-flight
};

/// One recorded event. `slot` and `attempt` are meaningful only for
/// the kinds that reference them (otherwise kNoSlot / 0).
struct LiveTraceEvent {
  double time = 0.0;
  LiveEventKind kind = LiveEventKind::kSubmit;
  TxnId txn = kInvalidTxn;
  uint32_t slot = kNoSlot;
  uint32_t attempt = 0;  // charged attempt ordinal (1-based) at the event
  uint64_t aux = 0;

  static constexpr uint32_t kNoSlot = 0xffffffffu;
};

/// Append-only event log of one executor run. The executor records
/// under its own mutex, so appends are already serialized; the recorder
/// itself is not thread-safe.
class LiveTraceRecorder {
 public:
  void Record(LiveTraceEvent event) { events_.push_back(event); }

  const std::vector<LiveTraceEvent>& events() const { return events_; }
  std::vector<LiveTraceEvent> TakeEvents() { return std::move(events_); }
  void Clear() { events_.clear(); }

 private:
  std::vector<LiveTraceEvent> events_;
};

/// FNV-1a digest over the canonically ordered trace. Worker threads are
/// an anonymous pool, so events that land at the same virtual instant
/// may be appended in either order; the digest sorts events by (time,
/// txn, kind, slot, attempt, aux) first, making it a pure function of
/// the executed timeline — the replay byte-identity contract of
/// `tools/chaos --profile live`.
uint64_t LiveTraceDigest(const std::vector<LiveTraceEvent>& events);

}  // namespace webtx::rt

#endif  // WEBTX_RT_LIVE_TRACE_H_
