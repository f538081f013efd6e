// Phase 3 — the scatter engine (§4 Phase 3; steps 6b and 7b of Alg. 1).
//
// Two placement strategies:
//
//   * blocked — exact-count distribution, the general path (Dong/Wu et
//     al. 2023 style): the library's one stable distribution kernel
//     (distribute_stable, primitives/counting_sort.h) with the bucket plan
//     as its bucket function. Exact bucket totals lay the buckets out back
//     to back with no holes, and every record goes straight to its
//     destination with zero atomics. One slot per record, no sentinel, no
//     capacity, so no overflow and no retry; the layout is deterministic
//     and stable at every worker count.
//   * CAS — the paper's §4 scatter, kept as the reference ablation: every
//     record claims a random slot of its α·f(s)-sized bucket with a
//     compare-and-swap, linear-probing on collision — one atomic and one
//     random cache-line miss per record. Buckets keep holes, so this path
//     needs the Phase 5 pack, and an overflow restarts the attempt.
//
// choose_scatter_path picks blocked for every input (CAS only when pinned
// or under random probing); semisort_params::scatter_with pins one.
//
// Slot claiming on the CAS path has two modes:
//   * key-CAS (the paper's): for standard-layout records whose first 8
//     bytes are the `key` word, the slot's key word doubles as the occupancy
//     flag — empty slots hold a per-run random sentinel, and the CAS that
//     claims a slot simultaneously writes the key. One atomic op and one
//     cache line per record. A record whose key happens to equal the
//     sentinel (probability n·2⁻⁶⁴) is detected and triggers a restart with
//     a fresh sentinel, so correctness never depends on luck.
//   * flag-array: for arbitrary record types, a byte per slot is CAS'd from
//     0→1 and the record is then stored plainly (the parallel_for join that
//     ends the phase publishes the stores).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "core/bucket_plan.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "primitives/counting_sort.h"
#include "scheduler/scheduler.h"
#include "util/rng.h"

namespace parsemi {

namespace internal {

template <typename Record>
constexpr bool key_cas_eligible() {
  if constexpr (requires(Record r) {
                  requires std::same_as<std::remove_cvref_t<decltype(r.key)>,
                                        uint64_t>;
                }) {
    return std::is_standard_layout_v<Record> &&
           std::is_trivially_copyable_v<Record> && alignof(Record) >= 8 &&
           offsetof(Record, key) == 0;
  } else {
    return false;
  }
}

}  // namespace internal

// The CAS path's bucket backing array plus occupancy metadata for one run.
// The (large) slot array and flag bytes are served from the call's arena,
// so repeated semisorts skip both the allocation and its first-touch page
// faults.
template <typename Record>
struct scatter_storage {
  static constexpr bool kKeyCas = internal::key_cas_eligible<Record>();

  // Slot array view into the context's arena.
  struct slot_view {
    Record* ptr = nullptr;
    size_t count = 0;
    Record& operator[](size_t i) const { return ptr[i]; }
    Record* data() const { return ptr; }
    size_t size() const { return count; }
  };

  slot_view slots;
  uint8_t* flags = nullptr;  // used only when !kKeyCas; atomic_ref-accessed
  uint64_t sentinel = 0;

  scatter_storage(size_t total_slots, uint64_t sentinel_value,
                  pipeline_context& ctx)
      : sentinel(sentinel_value) {
    slots.ptr = ctx.scratch.alloc<Record>(total_slots);
    slots.count = total_slots;
    if constexpr (kKeyCas) {
      // Only the key words need initializing; payload bytes are written by
      // the claiming CAS's winner before anyone reads them.
      parallel_for(0, total_slots, [&](size_t i) { slots[i].key = sentinel; });
    } else {
      flags = ctx.scratch.alloc<uint8_t>(total_slots);
      parallel_for(0, total_slots, [&](size_t i) {
        flag_at(i).store(0, std::memory_order_relaxed);
      });
    }
  }

 private:
  std::atomic_ref<uint8_t> flag_at(size_t i) const {
    return std::atomic_ref<uint8_t>(flags[i]);
  }

 public:
  // Valid between phases (after a parallel_for join).
  bool occupied(size_t i) const {
    if constexpr (kKeyCas) {
      return slots[i].key != sentinel;
    } else {
      return flag_at(i).load(std::memory_order_relaxed) != 0;
    }
  }

  // Attempts to claim slot `i` for `rec`; false if the slot is taken.
  bool try_claim(size_t i, const Record& rec) {
    if constexpr (kKeyCas) {
      std::atomic_ref<uint64_t> key_word(slots[i].key);
      uint64_t expected = sentinel;
      if (key_word.load(std::memory_order_relaxed) != sentinel) return false;
      if (!key_word.compare_exchange_strong(expected, rec.key,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
        return false;
      }
      // The CAS already published the key word; copy the rest of the record
      // without touching the first 8 bytes (they stay atomic-only).
      if constexpr (sizeof(Record) > 8) {
        std::memcpy(reinterpret_cast<char*>(&slots[i]) + 8,
                    reinterpret_cast<const char*>(&rec) + 8,
                    sizeof(Record) - 8);
      }
      return true;
    } else {
      uint8_t expected = 0;
      if (flag_at(i).load(std::memory_order_relaxed) != 0) return false;
      if (!flag_at(i).compare_exchange_strong(expected, 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {
        return false;
      }
      slots[i] = rec;
      return true;
    }
  }
};

enum class scatter_result { ok, overflow, sentinel_clash };

namespace internal {

// Probe-length → histogram bin (semisort_stats::probe_hist convention):
// bin = bit_width(d), capped at the last bin.
inline size_t probe_bin(size_t d) {
  return std::min<size_t>(std::bit_width(d), semisort_stats::kProbeBins - 1);
}

}  // namespace internal

// Concurrent probe-length accumulator, copied into semisort_stats by the
// attempt loop. The caller passes it only when stats were requested; the
// nullptr fast path costs nothing.
struct scatter_probe_stats {
  std::atomic<size_t> bins[semisort_stats::kProbeBins] = {};
  std::atomic<size_t> max{0};

  void note(size_t probe_distance) {
    bins[internal::probe_bin(probe_distance)].fetch_add(
        1, std::memory_order_relaxed);
    size_t cur = max.load(std::memory_order_relaxed);
    while (probe_distance > cur &&
           !max.compare_exchange_weak(cur, probe_distance,
                                      std::memory_order_relaxed)) {
    }
  }
};

// Places every input record into a slot of its bucket. Returns `overflow`
// if some bucket had no free slot (caller retries with larger α), and
// `sentinel_clash` in key-CAS mode if an input key equals the sentinel
// (caller retries with a fresh sentinel).
//
// When `probe` is non-null, each successful claim notes its probe distance
// (one relaxed atomic per record).
template <typename Record, typename GetKey>
scatter_result scatter_records(std::span<const Record> in,
                               scatter_storage<Record>& storage,
                               const bucket_plan& plan, GetKey get_key,
                               const semisort_params& params, rng base,
                               scatter_probe_stats* probe = nullptr) {
  std::atomic<bool> overflow{false};
  std::atomic<bool> clash{false};
  const bool random_probing =
      params.probing == semisort_params::probe_strategy::random;

  parallel_for(0, in.size(), [&](size_t i) {
    if (overflow.load(std::memory_order_relaxed) ||
        clash.load(std::memory_order_relaxed))
      return;
    const Record& rec = in[i];
    uint64_t key = get_key(rec);
    if constexpr (scatter_storage<Record>::kKeyCas) {
      if (rec.key == storage.sentinel) {
        clash.store(true, std::memory_order_relaxed);
        return;
      }
    }
    size_t b = plan.bucket_of(key);
    size_t off = plan.bucket_offset[b];
    size_t cap = plan.capacity_of(b);

    if (random_probing) {
      // §3's theoretical placement: fresh random slot per round.
      rng r = base.split(i);
      size_t max_attempts = 16 * cap + 64;
      for (size_t t = 0; t < max_attempts; ++t) {
        if (storage.try_claim(off + r.next_below(cap), rec)) {
          if (probe != nullptr) probe->note(t);
          return;
        }
      }
      overflow.store(true, std::memory_order_relaxed);
    } else {
      // §4's practical placement: one random start, then linear probing —
      // collisions land on the same cache line.
      size_t start = base.ith_below(i, cap);
      size_t pos = start;
      for (size_t t = 0; t < cap; ++t) {
        if (storage.try_claim(off + pos, rec)) {
          if (probe != nullptr) probe->note(t);
          return;
        }
        if (++pos == cap) pos = 0;
      }
      overflow.store(true, std::memory_order_relaxed);
    }
  });

  if (clash.load(std::memory_order_relaxed)) return scatter_result::sentinel_clash;
  if (overflow.load(std::memory_order_relaxed)) return scatter_result::overflow;
  return scatter_result::ok;
}

// Exact-count distribution into `dest` (n records, never aliasing `in`):
// one distribute_stable pass (primitives/counting_sort.h) by bucket id —
// zero atomics, and a deterministic, stable layout (input order preserved
// within each bucket) at every worker count. `plan` supplies the routing
// only; its α·f(s) capacities belong to the CAS path. A plan with heavy
// keys classifies each record once: the kernel keeps the count pass's ids
// for the place pass (below 65,535 buckets). Returns the layout
// (num_buckets() + 1 entries from ctx's arena): bucket b is
// dest[start[b], start[b+1]), so start[plan.num_heavy] is the heavy-record
// count and start.back() is n.
template <typename Record, typename GetKey>
std::span<size_t> scatter_exact(std::span<const Record> in,
                                std::span<Record> dest, const bucket_plan& plan,
                                GetKey get_key, pipeline_context& ctx) {
  const Record* src = in.data();
  Record* dst = dest.data();
  const bucket_plan* routing = &plan;
  return distribute_stable(
      in.size(), plan.num_buckets(),
      [src, routing, get_key](size_t i) {
        return routing->bucket_of(get_key(src[i]));
      },
      [src, dst](size_t i, size_t pos) { dst[pos] = src[i]; }, ctx.scratch,
      /*store_ids=*/plan.num_heavy > 0);
}

// --- path selection --------------------------------------------------------

// Picks the Phase 3 path for one run. params.scatter_with pins a path;
// `adaptive` takes the exact-count path at every n and bucket count (it
// measured faster than CAS from n = 2^10 up — EXPERIMENTS.md, "Exact-count
// distribution"). Random probing pins CAS — the probing ablation only
// exists there.
inline scatter_path choose_scatter_path(const semisort_params& params) {
  switch (params.scatter_with) {
    case semisort_params::scatter_strategy::cas: return scatter_path::cas;
    case semisort_params::scatter_strategy::blocked:
      return scatter_path::blocked;
    case semisort_params::scatter_strategy::adaptive: break;
  }
  if (params.probing == semisort_params::probe_strategy::random)
    return scatter_path::cas;
  return scatter_path::blocked;
}

}  // namespace parsemi
