// A miniature in-memory MapReduce engine with the semisort as its shuffle —
// the paper's flagship motivation (§1: "the most expensive step is
// typically the so-called shuffle step").
//
//   map:     every input item emits zero or more (key, value) pairs
//   shuffle: semisort brings equal keys together       ← the paper's result
//   reduce:  each key's values fold to one output
//
// The map phase runs in parallel over input blocks, emitting into
// per-block vectors that are concatenated with a scan (no locks, no
// concurrent containers). The shuffle runs on the tag-semisort spine
// (core/tag_semisort.h): the emitted pairs stay put and the reduce walks
// them through the sorted tag indices.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/semisort.h"
#include "primitives/scan.h"
#include "scheduler/scheduler.h"

namespace parsemi {

// Runs the full pipeline.
//   MapFn:    (const Input&, emit) → void, where emit(K, V) may be called
//             any number of times.
//   HashFn:   K → uint64_t
//   ReduceFn: (Acc, const V&) → Acc, folded left over the group's values
//             starting from `init`.
// Returns one (key, accumulated value) pair per distinct emitted key.
template <typename Input, typename K, typename V, typename Acc,
          typename MapFn, typename HashFn, typename ReduceFn,
          typename Eq = std::equal_to<>>
std::vector<std::pair<K, Acc>> map_reduce(std::span<const Input> inputs,
                                          MapFn map_fn, HashFn hash,
                                          ReduceFn reduce_fn, Acc init,
                                          Eq eq = {},
                                          const semisort_params& params = {}) {
  size_t n = inputs.size();
  std::vector<std::pair<K, Acc>> out;
  internal::run_with_pool_override(params, [&] {
    size_t p = static_cast<size_t>(num_workers());
    size_t block = std::max<size_t>(1, n / (8 * p) + 1);
    size_t num_blocks = n == 0 ? 0 : (n + block - 1) / block;

    // Map phase: per-block emission buffers.
    std::vector<std::vector<std::pair<K, V>>> emitted(num_blocks);
    parallel_for_blocks(n, block, [&](size_t b, size_t lo, size_t hi) {
      auto emit = [&](K key, V value) {
        emitted[b].emplace_back(std::move(key), std::move(value));
      };
      for (size_t i = lo; i < hi; ++i) map_fn(inputs[i], emit);
    });

    // Concatenate the buffers (scan over sizes, parallel move).
    std::vector<size_t> offsets(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) offsets[b] = emitted[b].size();
    size_t total = scan_exclusive_inplace(std::span<size_t>(offsets));
    std::vector<std::pair<K, V>> pairs(total);
    parallel_for(
        0, num_blocks,
        [&](size_t b) {
          std::move(emitted[b].begin(), emitted[b].end(),
                    pairs.begin() + static_cast<ptrdiff_t>(offsets[b]));
        },
        1);
    if (total == 0) return;

    // Shuffle + reduce on the tag spine. The frame's own pool routing is a
    // no-op here (we already run on the pool), so this is just the binding
    // plus memory-plan publication.
    internal::operator_frame_keep_stats(params, [&](pipeline_context& ctx) {
      std::span<internal::key_tag> sorted = internal::tag_semisort(
          total, [&](size_t i) { return hash(pairs[i].first); }, params, ctx);
      internal::tag_group_pass(
          sorted, [&](uint64_t i) -> const K& { return pairs[i].first; }, eq,
          ctx, [&](std::span<const size_t> starts) {
            out.resize(starts.size());
            return internal::all_groups(
                starts, total, [&](size_t g, size_t lo, size_t hi) {
                  const auto& [key, first] = pairs[sorted[lo].index];
                  Acc acc = init;
                  acc = reduce_fn(std::move(acc), first);
                  bool same = true;
                  for (size_t i = lo + 1; i < hi; ++i) {
                    const auto& [k, v] = pairs[sorted[i].index];
                    if (!eq(k, key)) same = false;
                    acc = reduce_fn(std::move(acc), v);
                  }
                  out[g] = {key, std::move(acc)};
                  return same;
                });
          });
    });
  });
  return out;
}

}  // namespace parsemi
