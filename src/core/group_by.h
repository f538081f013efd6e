// group_by — semisort plus group boundaries.
//
// The "groupBy" operation the paper's introduction motivates (database
// group-by, the MapReduce shuffle): semisort the records, then report where
// each group of equal keys starts. Boundaries are found with a parallel
// pack over key-change positions, so the extra cost over the semisort is
// one linear pass. The index- and general-key variants run on the shared
// tag-semisort spine (core/tag_semisort.h); all scratch comes from the
// call's pipeline_context, so only the results themselves are heap
// allocations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/semisort.h"
#include "primitives/pack.h"
#include "workloads/record.h"

namespace parsemi {

template <typename Record>
struct grouped {
  std::vector<Record> records;      // semisorted: equal keys contiguous
  std::vector<size_t> group_start;  // k+1 boundaries for k groups

  size_t num_groups() const {
    return group_start.empty() ? 0 : group_start.size() - 1;
  }
  std::span<const Record> group(size_t g) const {
    return std::span<const Record>(records.data() + group_start[g],
                                   group_start[g + 1] - group_start[g]);
  }
};

// Groups records by their pre-hashed 64-bit key. The output vector is
// copy-constructed from the input (no zero initialization) and semisorted
// in place.
template <typename Record, typename GetKey = record_key>
grouped<Record> group_by_hashed(std::span<const Record> in, GetKey get_key = {},
                                const semisort_params& params = {}) {
  grouped<Record> result;
  result.records.assign(in.begin(), in.end());
  internal::run_with_pool_override(params, [&] {
    semisort_hashed_inplace(std::span<Record>(result.records), get_key,
                            params);
    if (in.empty()) return;
    result.group_start = pack_index(result.records.size(), [&](size_t i) {
      return i == 0 ||
             get_key(result.records[i]) != get_key(result.records[i - 1]);
    });
    result.group_start.push_back(result.records.size());
  });
  return result;
}

// group_by_hashed plus a deterministic order *within* each group: after
// grouping, every group is sorted with `within` (e.g. by timestamp, or by
// original index for a stable semisort). Costs one extra sort per group,
// parallel across groups.
template <typename Record, typename GetKey, typename Within>
grouped<Record> group_by_hashed_sorted(std::span<const Record> in,
                                       GetKey get_key, Within within,
                                       const semisort_params& params = {}) {
  grouped<Record> result;
  internal::run_with_pool_override(params, [&] {
    result = group_by_hashed(in, get_key, params);
    parallel_for(
        0, result.num_groups(),
        [&](size_t g) {
          auto lo = result.records.begin() +
                    static_cast<ptrdiff_t>(result.group_start[g]);
          auto hi = result.records.begin() +
                    static_cast<ptrdiff_t>(result.group_start[g + 1]);
          std::sort(lo, hi, within);
        },
        1);
  });
  return result;
}

// Index-based grouping: like group_by_hashed, but the records themselves
// are never moved — the result is a permutation of [0, n) plus group
// boundaries, so out-of-line or large records can be grouped at 16 bytes of
// traffic per record regardless of sizeof(Record).
struct grouped_indices {
  std::vector<size_t> order;        // permutation: process in[order[i]]
  std::vector<size_t> group_start;  // k+1 boundaries for k groups

  size_t num_groups() const {
    return group_start.empty() ? 0 : group_start.size() - 1;
  }
  std::span<const size_t> group(size_t g) const {
    return std::span<const size_t>(order.data() + group_start[g],
                                   group_start[g + 1] - group_start[g]);
  }
};

template <typename Record, typename GetKey = record_key>
grouped_indices group_by_index(std::span<const Record> in, GetKey get_key = {},
                               const semisort_params& params = {}) {
  size_t n = in.size();
  grouped_indices result;
  if (n == 0) return result;
  internal::operator_frame(params, [&](pipeline_context& ctx) {
    // Dense integer keys: counting-sort the indices directly
    // (core/dispatch.h) — same never-move-the-records contract, no tags.
    if (internal::try_dispatch_group_by_index(in, get_key, params, result,
                                              ctx)) {
      return;
    }
    std::span<internal::key_tag> sorted = internal::tag_semisort(
        n, [&](size_t i) { return get_key(in[i]); }, params, ctx);
    std::span<size_t> starts =
        internal::tag_group_starts(sorted, ctx, internal::tag_eq_trivial);
    result.order.resize(n);
    parallel_for(0, n, [&](size_t i) {
      result.order[i] = static_cast<size_t>(sorted[i].index);
    });
    result.group_start.assign(starts.begin(), starts.end());
    result.group_start.push_back(n);
  });
  return result;
}

// Groups records by an arbitrary key (hashes internally, Las Vegas — the
// grouping is verified on the output, and hash collisions between distinct
// keys are repaired when it fails).
template <typename T, typename KeyFn, typename HashFn,
          typename Eq = std::equal_to<>>
grouped<T> group_by(std::span<const T> in, KeyFn key_of, HashFn hash,
                    Eq eq = {}, const semisort_params& params = {}) {
  size_t n = in.size();
  grouped<T> result;
  if (n == 0) return result;
  internal::operator_frame_keep_stats(params, [&](pipeline_context& ctx) {
    std::span<internal::key_tag> sorted = internal::tag_semisort(
        n, [&](size_t i) { return hash(key_of(in[i])); }, params, ctx);
    result.records.resize(n);
    internal::tag_group_pass(
        sorted, [&](uint64_t i) -> decltype(auto) { return key_of(in[i]); },
        eq, ctx, [&](std::span<const size_t> starts) {
          result.group_start.assign(starts.begin(), starts.end());
          return internal::permute_verified(
              in, std::span<T>(result.records), sorted, starts, key_of, eq);
        });
    result.group_start.push_back(n);
  });
  return result;
}

}  // namespace parsemi
