// Phase-concurrent linear-probing hash table (Shun & Blelloch, SPAA'14
// style), the substrate for the naming problem inside light buckets (§3
// step 7c variant). The heavy-key table T is not one of these: it is built
// on one thread, so the bucket plan keeps its own read-only two-choice
// table (core/bucket_plan.h).
//
// "Phase-concurrent" means operations of the same kind may run concurrently,
// but insert and find phases must be separated by a barrier (in parsemi a
// parallel_for join is such a barrier), which lets finds run with zero
// atomics.
//
// Keys are 64-bit; one key value is reserved as the empty sentinel and is
// handled via a dedicated side slot so the table is correct for *all* 2^64
// key values. Values are a trivially-copyable payload written only by the
// CAS winner of a slot, so they need no atomics (the phase barrier
// publishes them).
//
// Storage is plain owned arrays accessed through std::atomic_ref.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "hashing/hash64.h"

namespace parsemi {

template <typename Value>
class phase_concurrent_hash_table {
 public:
  static constexpr uint64_t kEmpty = ~0ULL;

  // Capacity for at least `expected` distinct keys at ≤ 50% load.
  explicit phase_concurrent_hash_table(size_t expected) {
    size_t cap = capacity_for(expected);
    owned_keys_ = std::make_unique_for_overwrite<uint64_t[]>(cap);
    owned_values_ = std::make_unique<Value[]>(cap);
    keys_ = owned_keys_.get();
    values_ = owned_values_.get();
    clear_keys(cap);
  }

  size_t capacity() const { return mask_ + 1; }

  // Insert phase. Returns true if this call inserted the key, false if the
  // key was already present (the existing value is kept — first writer
  // wins, matching the deterministic-reservations-free "any winner" policy
  // the semisort needs, where all writers of a key carry the same value).
  bool insert(uint64_t key, const Value& value) {
    if (key == kEmpty) {
      bool expected = false;
      if (!sentinel_present_.compare_exchange_strong(expected, true,
                                                     std::memory_order_acq_rel)) {
        return false;
      }
      sentinel_value_ = value;
      return true;
    }
    size_t i = murmur_mix64(key) & mask_;
    for (size_t probes = 0; probes <= mask_; ++probes) {
      uint64_t slot = key_at(i).load(std::memory_order_acquire);
      if (slot == key) return false;
      if (slot == kEmpty) {
        uint64_t expected = kEmpty;
        if (key_at(i).compare_exchange_strong(expected, key,
                                              std::memory_order_acq_rel)) {
          values_[i] = value;
          return true;
        }
        if (expected == key) return false;  // lost the race to the same key
        // lost to a different key: fall through and keep probing from here
        continue;  // re-examine slot i? no — the slot now holds another key
      }
      i = (i + 1) & mask_;
    }
    std::fprintf(stderr, "parsemi: phase-concurrent hash table full\n");
    std::abort();
  }

  // Find phase. No atomics beyond relaxed loads — callers guarantee a
  // barrier since the last insert.
  std::optional<Value> find(uint64_t key) const {
    if (key == kEmpty) {
      if (sentinel_present_.load(std::memory_order_relaxed))
        return sentinel_value_;
      return std::nullopt;
    }
    size_t i = murmur_mix64(key) & mask_;
    for (size_t probes = 0; probes <= mask_; ++probes) {
      uint64_t slot = key_at(i).load(std::memory_order_relaxed);
      if (slot == key) return values_[i];
      if (slot == kEmpty) return std::nullopt;
      i = (i + 1) & mask_;
    }
    return std::nullopt;
  }

  bool contains(uint64_t key) const { return find(key).has_value(); }

  bool empty_table() const {
    if (sentinel_present_.load(std::memory_order_relaxed)) return false;
    for (size_t i = 0; i <= mask_; ++i)
      if (key_at(i).load(std::memory_order_relaxed) != kEmpty) return false;
    return true;
  }

  // Enumerates occupied slots with mutable access to the value — for
  // post-insert fix-up passes like dense label assignment (naming problem).
  // Must not run concurrently with inserts or finds.
  template <typename F>
  void for_each_mutable(F&& f) {
    if (sentinel_present_.load(std::memory_order_relaxed))
      f(kEmpty, sentinel_value_);
    for (size_t i = 0; i <= mask_; ++i) {
      uint64_t k = key_at(i).load(std::memory_order_relaxed);
      if (k != kEmpty) f(k, values_[i]);
    }
  }

  // Enumerates occupied (key, value) pairs; find-phase only.
  template <typename F>
  void for_each(F&& f) const {
    if (sentinel_present_.load(std::memory_order_relaxed))
      f(kEmpty, sentinel_value_);
    for (size_t i = 0; i <= mask_; ++i) {
      uint64_t k = key_at(i).load(std::memory_order_relaxed);
      if (k != kEmpty) f(k, values_[i]);
    }
  }

  size_t size() const {
    size_t count = sentinel_present_.load(std::memory_order_relaxed) ? 1 : 0;
    for (size_t i = 0; i <= mask_; ++i)
      if (key_at(i).load(std::memory_order_relaxed) != kEmpty) ++count;
    return count;
  }

 private:
  static size_t capacity_for(size_t expected) {
    return std::bit_ceil(std::max<size_t>(16, expected * 2));
  }

  void clear_keys(size_t cap) {
    mask_ = cap - 1;
    for (size_t i = 0; i < cap; ++i)
      key_at(i).store(kEmpty, std::memory_order_relaxed);
  }

  std::atomic_ref<uint64_t> key_at(size_t i) const {
    return std::atomic_ref<uint64_t>(keys_[i]);
  }

  size_t mask_ = 0;
  uint64_t* keys_ = nullptr;   // owned_keys_.get()
  Value* values_ = nullptr;
  std::unique_ptr<uint64_t[]> owned_keys_;
  std::unique_ptr<Value[]> owned_values_;
  std::atomic<bool> sentinel_present_{false};
  Value sentinel_value_{};
};

}  // namespace parsemi
