// Shared verification helpers for the parsemi test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hashing/hash64.h"
#include "workloads/record.h"

namespace parsemi::testing {

// Multiset equality: `out` contains exactly the records of `in`.
template <typename T>
bool is_permutation_of(std::span<const T> out, std::span<const T> in,
                       auto less) {
  if (out.size() != in.size()) return false;
  std::vector<T> a(out.begin(), out.end());
  std::vector<T> b(in.begin(), in.end());
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  return std::equal(a.begin(), a.end(), b.begin(),
                    [&](const T& x, const T& y) {
                      return !less(x, y) && !less(y, x);
                    });
}

inline bool records_permutation(std::span<const record> out,
                                std::span<const record> in) {
  auto less = [](const record& a, const record& b) {
    return a.key != b.key ? a.key < b.key : a.payload < b.payload;
  };
  return is_permutation_of(out, in, less);
}

// The semisort contract: records with equal keys are contiguous — i.e. no
// key appears in two separated runs.
template <typename T, typename GetKey>
bool is_semisorted(std::span<const T> out, GetKey get_key) {
  std::unordered_set<uint64_t> closed;
  size_t i = 0;
  while (i < out.size()) {
    uint64_t key = get_key(out[i]);
    if (closed.contains(key)) return false;
    closed.insert(key);
    while (i < out.size() && get_key(out[i]) == key) ++i;
  }
  return true;
}

inline bool records_semisorted(std::span<const record> out) {
  return is_semisorted(out, record_key{});
}

// Exact key multiplicities of an input.
template <typename T, typename GetKey>
std::unordered_map<uint64_t, size_t> key_counts(std::span<const T> in,
                                                GetKey get_key) {
  std::unordered_map<uint64_t, size_t> counts;
  counts.reserve(in.size());
  for (const T& r : in) counts[get_key(r)]++;
  return counts;
}

// Full semisort validation: permutation + contiguous groups + group sizes
// matching the input multiplicities.
inline bool valid_semisort(std::span<const record> out,
                           std::span<const record> in) {
  return records_permutation(out, in) && records_semisorted(out);
}

// Hashes under which distinct keys collide: eight hash values for any
// number of keys, and one. The tag-spine operators must still group by the
// real key under both.
inline uint64_t colliding_hash(uint64_t k) { return hash64(k % 8); }
inline uint64_t constant_hash(uint64_t) { return 42; }
inline constexpr uint64_t (*kCollidingHashes[])(uint64_t) = {colliding_hash,
                                                             constant_hash};

// A key with equality only: a mixed hash run is regrouped by the
// first-seen class scan, not by a sort.
struct eq_only_key {
  uint64_t v;
  bool operator==(const eq_only_key&) const = default;
};

}  // namespace parsemi::testing
