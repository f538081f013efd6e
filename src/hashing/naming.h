// The naming problem (§2): given n keys with m distinct values, assign each
// distinct key a unique dense label in [O(m)].
//
// Solved with the phase-concurrent hash table as the paper describes:
// insert every key, assign dense labels to the distinct keys, then a lookup
// phase labels every position. O(n) expected work plus O(m log m) for the
// label order, O(log n) depth w.h.p. for the table phases.
//
// Used by the Rajasekaran–Reif-style semisort (§3.2's comparison path,
// which must reduce hash values to the range [n] before integer sorting)
// and available as a standalone primitive.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hashing/phase_concurrent_hash_table.h"
#include "primitives/pack.h"
#include "scheduler/scheduler.h"

namespace parsemi {

struct naming_result {
  std::vector<uint32_t> labels;  // labels[i] = dense label of keys[i]
  size_t num_distinct = 0;       // labels take values in [0, num_distinct)
};

// Assigns dense labels in [0, m) to n keys with m distinct values.
// `expected_distinct` sizes the table (defaults to n).
inline naming_result name_keys(std::span<const uint64_t> keys,
                               size_t expected_distinct = 0) {
  size_t n = keys.size();
  naming_result result;
  result.labels.resize(n);
  if (n == 0) return result;

  // Insert phase: value is a placeholder; the winner's slot index is what
  // identifies the distinct key.
  phase_concurrent_hash_table<uint32_t> table(
      expected_distinct == 0 ? n : expected_distinct);
  parallel_for(0, n, [&](size_t i) { table.insert(keys[i], 0); });

  // Dense labels in key order. Slot order depends on which concurrent
  // insert won each collision, so labelling slots in order would make the
  // labels differ from run to run; the rank of the key does not.
  std::vector<uint64_t> distinct;
  table.for_each([&](uint64_t key, uint32_t) { distinct.push_back(key); });
  std::sort(distinct.begin(), distinct.end());
  table.for_each_mutable([&](uint64_t key, uint32_t& value) {
    value = static_cast<uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), key) -
        distinct.begin());
  });
  result.num_distinct = distinct.size();

  // Lookup phase: label every position.
  parallel_for(0, n, [&](size_t i) {
    result.labels[i] = *table.find(keys[i]);
  });
  return result;
}

}  // namespace parsemi
