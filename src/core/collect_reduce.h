// collect_reduce — the MapReduce "shuffle + reduce" built on the semisort.
//
// Takes (key, value) pairs, groups pairs with equal keys using the
// tag-semisort spine (core/tag_semisort.h), and folds each group's values
// with a user monoid. This is the paper's flagship application (§1: "the
// core of the MapReduce paradigm"). The pairs themselves are never moved:
// the spine semisorts 16-byte (hash, index) tags and the fold walks the
// pairs through the sorted indices — checking each pair's key against its
// group's first as it goes, so the grouping is verified in the same single
// read — and the only heap allocation is the result vector.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/semisort.h"
#include "scheduler/scheduler.h"

namespace parsemi {

// Reduces values of equal keys: returns one (key, reduced value) per
// distinct key, in no particular key order (semisort semantics).
//
//   HashFn:   K → uint64_t
//   ReduceFn: (V, V) → V, associative; `identity` is its unit.
template <typename K, typename V, typename HashFn, typename ReduceFn,
          typename Eq = std::equal_to<>>
std::vector<std::pair<K, V>> collect_reduce(
    std::span<const std::pair<K, V>> pairs, HashFn hash, ReduceFn reduce_fn,
    V identity = V{}, Eq eq = {}, const semisort_params& params = {}) {
  size_t n = pairs.size();
  if (n == 0) return {};
  std::vector<std::pair<K, V>> out;
  internal::operator_frame_keep_stats(params, [&](pipeline_context& ctx) {
    std::span<internal::key_tag> sorted = internal::tag_semisort(
        n, [&](size_t i) { return hash(pairs[i].first); }, params, ctx);
    internal::tag_group_pass(
        sorted, [&](uint64_t i) -> const K& { return pairs[i].first; }, eq,
        ctx, [&](std::span<const size_t> starts) {
          out.resize(starts.size());
          return internal::all_groups(
              starts, n, [&](size_t g, size_t lo, size_t hi) {
                const auto& [key, first] = pairs[sorted[lo].index];
                V acc = identity;
                acc = reduce_fn(acc, first);
                bool same = true;
                for (size_t i = lo + 1; i < hi; ++i) {
                  const auto& [k, v] = pairs[sorted[i].index];
                  if (!eq(k, key)) same = false;
                  acc = reduce_fn(acc, v);
                }
                out[g] = {key, acc};
                return same;
              });
        });
  });
  return out;
}

// Histogram convenience: counts occurrences of each distinct key.
//
// Result shape is offset-only: when the keys are integers in a small dense
// domain with trivial equality, the default path is a pure histogram
// (core/dispatch.h's `offsets` path) — no tags are built and no record is
// ever grouped just to be counted, so peak_scratch_bytes is O(domain)
// instead of O(n) tag arrays. Everything else runs on the tag spine.
template <typename K, typename HashFn, typename Eq = std::equal_to<>>
std::vector<std::pair<K, size_t>> count_by_key(
    std::span<const K> keys, HashFn hash, Eq eq = {},
    const semisort_params& params = {}) {
  size_t n = keys.size();
  if (n == 0) return {};
  std::vector<std::pair<K, size_t>> out;
  internal::operator_frame(params, [&](pipeline_context& ctx) {
    // The offsets path counts exact key values, so it requires integral
    // keys compared by value — a custom Eq could identify keys the
    // histogram would count apart.
    if constexpr (std::is_integral_v<K> &&
                  (std::is_same_v<Eq, std::equal_to<>> ||
                   std::is_same_v<Eq, std::equal_to<K>>)) {
      if (internal::try_dispatch_count_by_key(keys, out, params, ctx)) {
        return;
      }
    }
    std::span<internal::key_tag> sorted = internal::tag_semisort(
        n, [&](size_t i) { return hash(keys[i]); }, params, ctx);
    internal::tag_group_pass(
        sorted, [&](uint64_t i) -> const K& { return keys[i]; }, eq, ctx,
        [&](std::span<const size_t> starts) {
          out.resize(starts.size());
          return internal::all_groups(
              starts, n, [&](size_t g, size_t lo, size_t hi) {
                const K& key = keys[sorted[lo].index];
                out[g] = {key, hi - lo};
                for (size_t i = lo + 1; i < hi; ++i)
                  if (!eq(keys[sorted[i].index], key)) return false;
                return true;
              });
        });
  });
  return out;
}

}  // namespace parsemi
