// Phase 3 — the scatter engine (§4 Phase 3; steps 6b and 7b of Alg. 1).
//
// Two placement strategies behind one dispatch:
//
//   * CAS (the paper's §4 scatter, kept as baseline and ablation): every
//     record claims a random slot of its bucket with a compare-and-swap,
//     linear-probing on collision — one atomic and one random cache-line
//     miss per record.
//   * blocked: two-pass exact counting for runs whose bucket count keeps
//     the count matrix cache-friendly (Wu et al. 2023 style). Pass 1 builds
//     per-block bucket histograms (primitives/histogram.h); a strided
//     column scan over the (block × bucket) matrix (primitives/scan.h)
//     turns them into exact placement offsets — overflow is detected here,
//     before any slot is written; pass 2 places contention-free with zero
//     atomics. Placement is deterministic and stable at every worker count.
//
// choose_scatter_path picks a strategy per run from n and the bucket
// count; semisort_params::scatter_with pins one, and the
// PARSEMI_SCATTER_PATH environment variable overrides both (ablation
// without recompiling).
//
// Slot claiming on the CAS path has two modes (the occupancy metadata they
// maintain — key word vs flag byte — is shared by both paths):
//   * key-CAS (the paper's): for standard-layout records whose first 8
//     bytes are the `key` word, the slot's key word doubles as the occupancy
//     flag — empty slots hold a per-run random sentinel, and the CAS that
//     claims a slot simultaneously writes the key. One atomic op and one
//     cache line per record. A record whose key happens to equal the
//     sentinel (probability n·2⁻⁶⁴) is detected and triggers a restart with
//     a fresh sentinel, so correctness never depends on luck — the blocked
//     path performs the same check while counting.
//   * flag-array: for arbitrary record types, a byte per slot is CAS'd from
//     0→1 and the record is then stored plainly (the parallel_for join that
//     ends the phase publishes the stores).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>

#include "core/bucket_plan.h"
#include "core/params.h"
#include "core/pipeline_context.h"
#include "primitives/histogram.h"
#include "primitives/scan.h"
#include "util/default_init_buffer.h"
#include "scheduler/scheduler.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/simd.h"

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

// The bucket backing array plus occupancy metadata for one semisort run.
// With a pipeline_context the (large) slot array and flag bytes are served
// from its arena — repeated semisorts then skip both the allocation and its
// first-touch page faults; without one the storage is owned (one fresh
// allocation per run, as before the arena).
template <typename Record>
struct scatter_storage {
  static constexpr bool kKeyCas = internal::key_cas_eligible<Record>();

  // Slot array view: backed by owned_ or by the context's arena.
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

  explicit scatter_storage(size_t total_slots, uint64_t sentinel_value,
                           pipeline_context* ctx = nullptr)
      : sentinel(sentinel_value),
        owned_(ctx != nullptr ? 0 : total_slots) {
    slots.ptr =
        ctx != nullptr ? ctx->scratch.alloc<Record>(total_slots) : owned_.data();
    slots.count = total_slots;
    if constexpr (kKeyCas) {
      // Only the key words need initializing; payload bytes are written by
      // the claiming CAS's winner before anyone reads them.
      parallel_for(0, total_slots, [&](size_t i) { slots[i].key = sentinel; });
    } else {
      if (ctx != nullptr) {
        flags = ctx->scratch.alloc<uint8_t>(total_slots);
      } else {
        owned_flags_ = std::make_unique_for_overwrite<uint8_t[]>(total_slots);
        flags = owned_flags_.get();
      }
      parallel_for(0, total_slots, [&](size_t i) {
        flag_at(i).store(0, std::memory_order_relaxed);
      });
    }
  }

 private:
  internal::default_init_buffer<Record> owned_;
  std::unique_ptr<uint8_t[]> owned_flags_;

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

  // Exclusive-ownership store for the blocked path: the counting pass
  // gave the caller slot `i`, so a plain write suffices — the parallel_for
  // join that ends the scatter publishes it. Marks the slot occupied (flag
  // byte in flag mode; in key-CAS mode the copied key word does it, the
  // sentinel clash having been ruled out upstream).
  void place(size_t i, const Record& rec) {
    slots[i] = rec;
    if constexpr (!kKeyCas) flags[i] = 1;
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
    } else if constexpr (scatter_storage<Record>::kKeyCas && simd::kEnabled &&
                         !simd::kTsan) {
      // §4's linear probing, prescanned 4 slots per step: compare 4 key
      // words against the empty sentinel (one vector compare for 16-byte
      // records, 4 independent scalar loads otherwise) and CAS only lanes
      // that looked empty, first hit by ctz. The prescan is advisory — a
      // stale lane just fails its CAS and the scan moves on — and slots
      // never revert to empty, so skipping non-sentinel lanes is safe.
      // (try_claim's CAS remains the sole authority; TSan builds keep the
      // plain-load prescan compiled out so the race checker stays precise.)
      size_t pos = base.ith_below(i, cap);
      size_t t = 0;
      while (t < cap) {
        if (pos + 4 <= cap) {
          unsigned mask = simd::match_key4<sizeof(Record)>(
              &storage.slots[off + pos], storage.sentinel);
          while (mask != 0) {
            unsigned lane = static_cast<unsigned>(std::countr_zero(mask));
            if (storage.try_claim(off + pos + lane, rec)) {
              if (probe != nullptr) probe->note(t + lane);
              return;
            }
            mask &= mask - 1;
          }
          t += 4;
          pos += 4;
          if (pos == cap) pos = 0;
        } else {
          if (storage.try_claim(off + pos, rec)) {
            if (probe != nullptr) probe->note(t);
            return;
          }
          ++t;
          if (++pos == cap) pos = 0;
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

// Blocked two-pass counting scatter: per-block bucket histograms, a strided
// column scan converting them to absolute destinations (with the overflow
// check folded in, before any slot is touched), then contention-free
// placement — zero atomics on the placement pass, and a deterministic,
// stable layout (input order preserved within each bucket) at every worker
// count. All scratch comes from ctx's arena.
template <typename Record, typename GetKey>
scatter_result scatter_blocked(std::span<const Record> in,
                               scatter_storage<Record>& storage,
                               const bucket_plan& plan, GetKey get_key,
                               pipeline_context& ctx) {
  size_t n = in.size();
  size_t num_buckets = plan.num_buckets();
  size_t block = histogram_block_size(n, num_buckets);
  size_t num_blocks = histogram_num_blocks(n, block);
  size_t* counts = ctx.scratch.alloc<size_t>(num_blocks * num_buckets);

  // Pass 1 — count, folding in the sentinel-clash scan (the CAS path pays
  // the same check per record).
  std::atomic<bool> clash{false};
  histogram_blocks(n, block, num_buckets, counts, [&](size_t i) {
    const Record& rec = in[i];
    if constexpr (scatter_storage<Record>::kKeyCas) {
      if (rec.key == storage.sentinel)
        clash.store(true, std::memory_order_relaxed);
    }
    return plan.bucket_of(get_key(rec));
  });
  if (clash.load(std::memory_order_relaxed))
    return scatter_result::sentinel_clash;

  // Column scan: counts[blk][b] becomes the absolute slot where block blk
  // starts writing bucket b. Exact totals are known here, so overflow is
  // detected before a single record moves.
  std::atomic<bool> overflow{false};
  parallel_for(0, num_buckets, [&](size_t b) {
    size_t end = scan_exclusive_strided(counts + b, num_blocks, num_buckets,
                                        plan.bucket_offset[b]);
    if (end - plan.bucket_offset[b] > plan.capacity_of(b))
      overflow.store(true, std::memory_order_relaxed);
  });
  if (overflow.load(std::memory_order_relaxed))
    return scatter_result::overflow;

  // Pass 2 — place. Each block owns disjoint destination ranges per bucket.
  parallel_for_blocks(n, block, [&](size_t blk, size_t lo, size_t hi) {
    size_t* local = counts + blk * num_buckets;
    for (size_t i = lo; i < hi; ++i) {
      storage.place(local[plan.bucket_of(get_key(in[i]))]++, in[i]);
    }
  });
  return scatter_result::ok;
}

// --- adaptive path selection ----------------------------------------------

namespace internal {

// Selection thresholds (rationale in DESIGN.md "Phase 3 — scattering"):
// below kScatterSmallN the CAS path's constant factor wins and the count
// matrix's setup dominates; above kBlockedMaxBuckets the (block × bucket)
// count matrix stops being cache-friendly.
inline constexpr size_t kScatterSmallN = size_t{1} << 15;
inline constexpr size_t kBlockedMaxBuckets = size_t{1} << 15;

// PARSEMI_SCATTER_PATH=cas|blocked forces a path; "adaptive" or anything
// unrecognized falls through to params + heuristic. getenv only — no
// allocation (the zero-heap steady state covers this check).
inline bool scatter_path_from_env(scatter_path& out) {
  const char* v = env_cstr("PARSEMI_SCATTER_PATH");
  if (v == nullptr) return false;
  if (std::strcmp(v, "cas") == 0) return out = scatter_path::cas, true;
  if (std::strcmp(v, "blocked") == 0)
    return out = scatter_path::blocked, true;
  return false;
}

}  // namespace internal

// Picks the Phase 3 path for one run. Precedence: PARSEMI_SCATTER_PATH env
// override, then params.scatter_with, then the (n, bucket count)
// heuristic: blocked when n ≥ 2^15 and there are ≤ 2^15 buckets, else the
// paper's CAS. Random probing pins CAS — the probing ablation only exists
// there.
inline scatter_path choose_scatter_path(size_t n, size_t num_buckets,
                                        const semisort_params& params) {
  scatter_path forced;
  if (internal::scatter_path_from_env(forced)) return forced;
  switch (params.scatter_with) {
    case semisort_params::scatter_strategy::cas: return scatter_path::cas;
    case semisort_params::scatter_strategy::blocked:
      return scatter_path::blocked;
    case semisort_params::scatter_strategy::adaptive: break;
  }
  if (params.probing == semisort_params::probe_strategy::random)
    return scatter_path::cas;
  if (n >= internal::kScatterSmallN &&
      num_buckets <= internal::kBlockedMaxBuckets)
    return scatter_path::blocked;
  return scatter_path::cas;
}

// Runs the chosen path. `probe` (optional, CAS only) receives the probe
// histogram.
template <typename Record, typename GetKey>
scatter_result scatter_dispatch(scatter_path path, std::span<const Record> in,
                                scatter_storage<Record>& storage,
                                const bucket_plan& plan, GetKey get_key,
                                const semisort_params& params, rng base,
                                pipeline_context& ctx,
                                scatter_probe_stats* probe = nullptr) {
  if (path == scatter_path::blocked)
    return scatter_blocked(in, storage, plan, get_key, ctx);
  return scatter_records(in, storage, plan, get_key, params, base, probe);
}

}  // namespace parsemi
