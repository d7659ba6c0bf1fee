#ifndef WEBTX_COMMON_DIGEST_H_
#define WEBTX_COMMON_DIGEST_H_

#include <cstdint>
#include <cstring>

namespace webtx {

/// FNV-1a offset basis: the digest of no input.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// One FNV-1a step per byte of `value`, least significant byte first, so
/// a digest does not depend on the platform's byte order.
inline uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The bit pattern of `value`: how a double enters a digest, and how one
/// travels in an integer field (LiveTraceEvent::aux).
inline uint64_t DoubleBits(double value) {
  static_assert(sizeof(uint64_t) == sizeof(double));
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// Inverse of DoubleBits.
inline double BitsToDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

}  // namespace webtx

#endif  // WEBTX_COMMON_DIGEST_H_
