// The tag-semisort-permute spine shared by every derived operator.
//
// group_by_index, collect_reduce, count_by_key, map_reduce's shuffle,
// equi_join, group_aggregate and the general-key `semisort` all follow the
// same shape: tag every position with (hashed key, index), semisort the
// 16-byte tags (key-first layout → the scatter's key-CAS fast path), then
// read the grouping off the sorted tags. Pre-hashed 64-bit keys group by
// hash runs outright; operators over arbitrary keys take the hash runs as
// candidate groups, verify them inside their own pass over the records and
// repair 64-bit hash collisions only on a mismatch (tag_group_pass). This
// header is that shape, written once: the tag arrays live in the
// operator's pipeline_context arena, the inner semisort runs on the same
// context (so one warm context makes the whole derived operator
// allocation-free apart from its actual output), and the operator's stats
// cover the tags plus the inner semisort.
//
// Included from core/semisort.h (which it also includes — #pragma once
// makes either inclusion order work); user code never needs it directly.
#pragma once

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/params.h"
#include "core/pipeline_context.h"
#include "core/semisort.h"
#include "primitives/pack.h"
#include "scheduler/scheduler.h"
#include "util/simd.h"

namespace parsemi {

namespace internal {

// The 16-byte tag: hashed key first so the scatter claims slots with a
// single key-CAS.
struct key_tag {
  uint64_t key;
  uint64_t index;  // position in the operator's input
};

// The tag layout must stay key-CAS eligible: every derived operator's inner
// semisort rides the scatter engine (the tag call below copies the caller's
// params, so scatter_with and the adaptive path selection flow through
// unchanged — as does dispatch_with: when an operator's hash values land in
// a small dense domain, e.g. an identity hash over dense integer keys, the
// inner semisort's front-end dispatch counting-sorts the tags instead of
// running the pipeline), and at 16 trivially-copyable bytes the tags
// qualify for all of its fast claiming/placement variants.
static_assert(key_cas_eligible<key_tag>());

// Tags positions [0, n) with (key_at(i), i) and semisorts the tags through
// `ctx`. Returns the sorted tags, arena-backed — valid until the caller's
// context_binding frame is rewound. `key_at(i)` must return the position's
// 64-bit hashed key.
template <typename KeyAt>
std::span<key_tag> tag_semisort(size_t n, KeyAt&& key_at,
                                const semisort_params& params,
                                pipeline_context& ctx) {
  if (n == 0) return {};
  key_tag* tags = ctx.scratch.alloc<key_tag>(n);
  if constexpr (simd::kEnabled) {
    // 4-wide tagging: key_at calls are independent, so unrolling lets four
    // hash chains (typically hash64's multiply sequences) overlap in
    // flight instead of serializing behind one store each.
    parallel_for_blocks(n, size_t{1024}, [&](size_t, size_t blo, size_t bhi) {
      size_t i = blo;
      for (; i + 4 <= bhi; i += 4) {
        uint64_t k0 = key_at(i), k1 = key_at(i + 1), k2 = key_at(i + 2),
                 k3 = key_at(i + 3);
        tags[i] = key_tag{k0, static_cast<uint64_t>(i)};
        tags[i + 1] = key_tag{k1, static_cast<uint64_t>(i + 1)};
        tags[i + 2] = key_tag{k2, static_cast<uint64_t>(i + 2)};
        tags[i + 3] = key_tag{k3, static_cast<uint64_t>(i + 3)};
      }
      for (; i < bhi; ++i)
        tags[i] = key_tag{key_at(i), static_cast<uint64_t>(i)};
    });
  } else {
    parallel_for(0, n, [&](size_t i) {
      tags[i] = key_tag{key_at(i), static_cast<uint64_t>(i)};
    });
  }
  key_tag* sorted = ctx.scratch.alloc<key_tag>(n);
  semisort_params inner = params;
  inner.context = &ctx;  // re-enter the same arena (depth > 0: not owner)
  semisort_hashed(std::span<const key_tag>(tags, n),
                  std::span<key_tag>(sorted, n),
                  [](const key_tag& t) { return t.key; }, inner);
  return std::span<key_tag>(sorted, n);
}

// Whether a mixed hash run can be regrouped by sorting on the real key: the
// caller's equality is the key's own operator==, and the key declares a
// strong ordering — integral keys, std::string, std::string_view, or a
// user type whose operator<=> returns std::strong_ordering. Under a strong
// ordering equivalent keys are equal, so a sort brings each class
// together. (A partial order such as a double's, where NaN is unordered,
// would not.)
template <typename Key, typename Eq>
inline constexpr bool sort_repairable =
    (std::is_same_v<Eq, std::equal_to<>> ||
     std::is_same_v<Eq, std::equal_to<Key>>) &&
    std::three_way_comparable<Key, std::strong_ordering>;

// Repairs runs of equal hashes that mix distinct real keys (a 64-bit hash
// collision, probability ≲ n²/2⁶⁵): each mixed run is stably regrouped in
// place by real key. `key_at(i)` returns the key of the record at input
// position i; `eq` is the caller's equality. Finding the mixed runs reads
// every record of every run of length 2 or more, which is why the spine
// calls this only after a verifying pass has seen a mismatch
// (tag_group_pass below). A sort-repairable key regroups its run with
// std::stable_sort, O(run log run) comparisons; a key that supports only
// equality is bucketed into classes in first-seen order, the one
// O(run·distinct) case. Either way the call terminates under an
// adversarially bad user hash, making every collision-prone operator Las
// Vegas rather than Monte Carlo.
template <typename KeyAt, typename Eq>
void repair_hash_collisions(std::span<key_tag> sorted, KeyAt& key_at, Eq& eq,
                            pipeline_context& ctx) {
  using key_type = std::remove_cvref_t<decltype(key_at(uint64_t{}))>;
  size_t n = sorted.size();
  if (n < 2) return;
  arena_scope scope(ctx.scratch);
  std::span<size_t> run_start = pack_index_arena(
      n,
      [&](size_t i) { return i == 0 || sorted[i].key != sorted[i - 1].key; },
      ctx.scratch);
  size_t runs = run_start.size();
  parallel_for(
      0, runs,
      [&](size_t r) {
        size_t lo = run_start[r], hi = r + 1 < runs ? run_start[r + 1] : n;
        if (hi - lo < 2) return;
        bool mixed = false;
        for (size_t i = lo + 1; i < hi && !mixed; ++i)
          mixed = !eq(key_at(sorted[i].index), key_at(sorted[lo].index));
        if (!mixed) return;
        // Distinct keys collided in the hash. Cold path (never taken with
        // an honest 64-bit hash), so the heap is fine here.
        if constexpr (sort_repairable<key_type, std::remove_cvref_t<Eq>>) {
          auto run = sorted.subspan(lo, hi - lo);
          std::stable_sort(run.begin(), run.end(),
                           [&](const key_tag& a, const key_tag& b) {
                             return key_at(a.index) < key_at(b.index);
                           });
          return;
        }
        // Equality only: bucket the run's tags into equality classes,
        // first-seen order.
        std::vector<std::vector<key_tag>> classes;
        for (size_t i = lo; i < hi; ++i) {
          bool placed = false;
          for (auto& cls : classes) {
            if (eq(key_at(sorted[i].index), key_at(cls.front().index))) {
              cls.push_back(sorted[i]);
              placed = true;
              break;
            }
          }
          if (!placed) classes.push_back({sorted[i]});
        }
        size_t w = lo;
        for (auto& cls : classes)
          for (auto& t : cls) sorted[w++] = t;
      },
      1);
}

// Group-start positions over sorted (and, if needed, repaired) tags:
// position i opens a group iff its hash differs from its predecessor's or
// the real keys differ (`eq_at(a, b)` compares the records at input
// positions a and b; pass tag_eq_trivial for the hash runs alone, which is
// the grouping when hash equality IS key equality, i.e. pre-hashed 64-bit
// keys). Arena-backed, no trailing n sentinel — callers append that to
// their own output vectors.
template <typename EqAt>
std::span<size_t> tag_group_starts(std::span<const key_tag> sorted,
                                   pipeline_context& ctx, EqAt&& eq_at) {
  return pack_index_arena(
      sorted.size(),
      [&](size_t i) {
        return i == 0 || sorted[i].key != sorted[i - 1].key ||
               !eq_at(sorted[i].index, sorted[i - 1].index);
      },
      ctx.scratch);
}

inline constexpr auto tag_eq_trivial = [](uint64_t, uint64_t) { return true; };

// Runs group(g, lo, hi) on every group of `starts` (group g spans sorted
// positions [lo, hi) of n); returns whether every call returned true.
// Tasks halve the group range until it holds one group or at most
// kGroupTaskRecords records, so a task costs about the same whether its
// groups are many and small (a fork per group would dominate a pass over
// millions of them) or one and large.
inline constexpr size_t kGroupTaskRecords = 4096;

template <typename Group>
bool all_groups(std::span<const size_t> starts, size_t n, Group&& group) {
  size_t k = starts.size();
  auto end = [&](size_t g) { return g < k ? starts[g] : n; };
  std::atomic<bool> all{true};
  auto run = [&](auto& self, size_t glo, size_t ghi) -> void {
    if (ghi - glo > 1 && end(ghi) - starts[glo] > kGroupTaskRecords) {
      size_t mid = glo + (ghi - glo) / 2;
      par_do([&] { self(self, glo, mid); }, [&] { self(self, mid, ghi); });
      return;
    }
    bool ok = true;
    for (size_t g = glo; g < ghi; ++g)
      ok = group(g, starts[g], end(g + 1)) && ok;
    if (!ok) all.store(false, std::memory_order_relaxed);
  };
  if (k > 0) run(run, 0, k);
  return all.load(std::memory_order_relaxed);
}

// The post-pass of every operator whose keys can collide under the user's
// hash. The candidate groups are the hash runs of `sorted`, found from the
// tags alone, in order. `pass(starts)` is the operator's one pass over its
// records on those groups (fold, count or permute); as it reads each
// record it also checks the record's key against its group's first key
// with `eq`, and returns false if any differs. Under an honest 64-bit hash
// it returns true and that one read per record is the whole post-pass.
// Otherwise the spine repairs the mixed runs, finds the true group starts
// by real equality, and runs `pass` again on them (its check then holds by
// construction, so its result is not consulted).
template <typename KeyAt, typename Eq, typename Pass>
void tag_group_pass(std::span<key_tag> sorted, KeyAt&& key_at, Eq&& eq,
                    pipeline_context& ctx, Pass&& pass) {
  if (pass(std::span<const size_t>(
          tag_group_starts(sorted, ctx, tag_eq_trivial)))) {
    return;
  }
  repair_hash_collisions(sorted, key_at, eq, ctx);
  pass(std::span<const size_t>(tag_group_starts(
      sorted, ctx,
      [&](uint64_t a, uint64_t b) { return eq(key_at(a), key_at(b)); })));
}

// The pass of group_by and the general semisort: gathers the records into
// `out` in tag order, then checks each group on the output, where its
// records now sit side by side.
template <typename T, typename KeyFn, typename Eq>
bool permute_verified(std::span<const T> in, std::span<T> out,
                      std::span<const key_tag> sorted,
                      std::span<const size_t> starts, KeyFn& key_of, Eq& eq) {
  parallel_for(0, in.size(),
               [&](size_t i) { out[i] = in[sorted[i].index]; });
  return all_groups(starts, in.size(), [&](size_t, size_t lo, size_t hi) {
    auto&& first = key_of(out[lo]);
    for (size_t i = lo + 1; i < hi; ++i)
      if (!eq(key_of(out[i]), first)) return false;
    return true;
  });
}

}  // namespace internal

// General semisort for arbitrary key types: hashes keys to 64 bits, runs
// the tag spine, and permutes the input into a fresh vector, verifying the
// grouping on the output (and repairing hash collisions if it fails).
//
//   KeyFn : T → K       (key of a record)
//   HashFn: K → uint64  (64-bit hash; parsemi::hash64 / hash_string / …)
//   Eq    : K × K → bool (defaults to operator==)
template <typename T, typename KeyFn, typename HashFn,
          typename Eq = std::equal_to<>>
std::vector<T> semisort(std::span<const T> in, KeyFn key_of, HashFn hash,
                        Eq eq = {}, const semisort_params& params = {}) {
  size_t n = in.size();
  std::vector<T> out(n);
  if (n == 0) return out;
  internal::operator_frame_keep_stats(params, [&](pipeline_context& ctx) {
    std::span<internal::key_tag> sorted = internal::tag_semisort(
        n, [&](size_t i) { return hash(key_of(in[i])); }, params, ctx);
    internal::tag_group_pass(
        sorted, [&](uint64_t i) -> decltype(auto) { return key_of(in[i]); },
        eq, ctx, [&](std::span<const size_t> starts) {
          return internal::permute_verified(in, std::span<T>(out), sorted,
                                            starts, key_of, eq);
        });
  });
  return out;
}

}  // namespace parsemi
