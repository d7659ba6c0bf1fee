#include "rt/live_trace.h"

#include <algorithm>
#include <tuple>

#include "common/digest.h"

namespace webtx::rt {
namespace {

auto CanonicalKey(const LiveTraceEvent& e) {
  return std::make_tuple(e.time, e.txn, static_cast<uint8_t>(e.kind), e.slot,
                         e.attempt, e.aux);
}

}  // namespace

uint64_t LiveTraceDigest(const std::vector<LiveTraceEvent>& events) {
  std::vector<LiveTraceEvent> sorted = events;
  std::sort(sorted.begin(), sorted.end(),
            [](const LiveTraceEvent& a, const LiveTraceEvent& b) {
              return CanonicalKey(a) < CanonicalKey(b);
            });
  uint64_t hash = kFnvOffsetBasis;
  hash = Fnv1a(hash, sorted.size());
  for (const LiveTraceEvent& e : sorted) {
    hash = Fnv1a(hash, DoubleBits(e.time));
    hash = Fnv1a(hash, static_cast<uint64_t>(e.kind));
    hash = Fnv1a(hash, e.txn);
    hash = Fnv1a(hash, e.slot);
    hash = Fnv1a(hash, e.attempt);
    hash = Fnv1a(hash, e.aux);
  }
  return hash;
}

}  // namespace webtx::rt
