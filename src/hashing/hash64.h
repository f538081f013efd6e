// 64-bit hash mixers.
//
// The algorithm assumes a uniform hash from keys into [n^k] with k > 2
// (§3, step 1); with 64-bit outputs and n ≤ 10^9 that is k > 2 as required,
// and collisions among distinct keys have probability ≲ n²/2⁶⁵. These are
// finalizer-style bijective mixers, so distinct 64-bit inputs can never
// collide at all — the Monte-Carlo caveat only applies to hashing wider
// key types (strings etc., see hash_bytes).
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "util/rng.h"

namespace parsemi {

// MurmurHash3 fmix64 (Austin Appleby, public domain). Bijective.
inline constexpr uint64_t murmur_mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Default key hash: splitmix64's finalizer (also bijective; passes the
// PractRand / BigCrush avalanche batteries).
inline constexpr uint64_t hash64(uint64_t x) { return splitmix64(x); }

// Seeded variant — for re-hashing on a Las-Vegas restart.
inline constexpr uint64_t hash64_seeded(uint64_t x, uint64_t seed) {
  return splitmix64(x ^ (0x9e3779b97f4a7c15ULL * seed + seed));
}

// Word-wise byte hash, finalized with murmur_mix64 — the "arbitrary key
// type" entry point (e.g. strings in the word-count example). Processes 8
// bytes per multiply (FNV-style fold over words instead of bytes, ~8×
// fewer multiplies than the old byte loop) with a single memcpy-masked
// tail read. The length is folded into the initial state so a short
// buffer can never alias a longer one whose tail bytes are zero
// ("ab" vs "ab\0"). Nothing persists these values, so changing them from
// the old byte-at-a-time FNV-1a is fine; the distribution properties the
// tests assert (every byte matters, length matters, few collisions) hold
// because every step is injective in (h, word) and the finalizer
// avalanches.
inline uint64_t hash_bytes(const void* data, size_t len,
                           uint64_t seed = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  constexpr uint64_t kPrime = 0x100000001b3ULL;  // FNV-1a 64-bit prime
  uint64_t h = seed ^ (static_cast<uint64_t>(len) * kPrime);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    h = (h ^ w) * kPrime;
    h ^= h >> 32;  // odd-multiply diffuses upward only; fold back down
  }
  if (i < len) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, len - i);  // masked tail read, high bytes zero
    h = (h ^ w) * kPrime;
  }
  return murmur_mix64(h);
}

inline uint64_t hash_string(std::string_view s) {
  return hash_bytes(s.data(), s.size());
}

}  // namespace parsemi
