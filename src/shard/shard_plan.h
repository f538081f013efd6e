// shard_plan — sizes out-of-core shards from a byte budget.
//
// A shard is a contiguous range of hash-prefix bins: bin(key) = the top
// `prefix_bits` bits of the already-computed 64-bit key hash (free and
// uniformly distributed, Wu et al. 2023), so concatenating shard outputs in
// shard order keeps every key's group contiguous globally — keys never span
// bins, bins never span shards.
//
// The plan combines two inputs, following the splitter-from-sample recipe
// of Histogram Sort with Sampling (Harsh et al.):
//   1. the scratch model (core/planner.h) turns the byte budget into a
//      per-shard record capacity (input + engine scratch must fit);
//   2. a strided sample of key prefixes estimates the records per bin, so
//      skewed prefixes get their own shard instead of silently blowing the
//      budget — the cap holds w.h.p., not just for uniform inputs.
// Bins are grouped greedily left-to-right, closing a shard when the next
// bin's estimate would overflow the capacity. A single bin that alone
// exceeds the capacity still becomes its own shard: one key (one prefix)
// cannot be split without breaking group contiguity; the budget degrades to
// best-effort exactly there (as it does below the model's budget floor)
// and the driver reports the real footprint via shard_peak_scratch_bytes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace parsemi {

struct shard_plan {
  int prefix_bits = 0;                  // bin(key) = key >> (64 - prefix_bits)
  size_t num_shards = 1;                // 1 ⇒ run the in-memory engine as-is
  size_t shard_record_cap = 0;          // capacity the plan packed against
  std::vector<uint32_t> bin_to_shard;   // size 1 << prefix_bits; monotone
  std::vector<size_t> est_records;      // sampled per-shard record estimate

  size_t shard_of_key(uint64_t key) const {
    return bin_to_shard[key >> (64 - prefix_bits)];
  }
};

namespace internal {

// Bin count for a target shard count: enough bins that greedy grouping has
// slack to balance (8× the required shards), clamped to [64, 4096] so the
// bin→shard table stays trivially small and the sampled histogram (≤ 64Ki
// samples) keeps ≥ 16 expected samples per bin at the top end.
inline int choose_prefix_bits(size_t required_shards) {
  size_t want = std::min<size_t>(std::max<size_t>(required_shards * 8, 64), 4096);
  return static_cast<int>(std::bit_width(std::bit_ceil(want)) - 1);
}

// Greedy contiguous grouping of bins into shards of ≤ cap estimated
// records. Returns the monotone bin→shard map; per-shard estimates land in
// *est. Exposed for shard_plan_test's synthetic-histogram cases.
inline std::vector<uint32_t> group_bins(std::span<const size_t> bin_records,
                                        size_t cap, size_t* num_shards,
                                        std::vector<size_t>* est) {
  std::vector<uint32_t> map(bin_records.size(), 0);
  est->clear();
  uint32_t shard = 0;
  size_t cur = 0;
  for (size_t b = 0; b < bin_records.size(); ++b) {
    // An empty bin never opens a new shard — otherwise a run of trailing
    // empty bins after one dominant bin would manufacture an empty shard.
    if (cur > 0 && bin_records[b] > 0 && cur + bin_records[b] > cap) {
      est->push_back(cur);
      ++shard;
      cur = 0;
    }
    map[b] = shard;
    cur += bin_records[b];
  }
  est->push_back(cur);
  *num_shards = static_cast<size_t>(shard) + 1;
  return map;
}

}  // namespace internal

// Builds the plan for semisorting `in` in shards of at most `cap` records
// (the planner's scratch model turns a byte budget into cap). Deterministic
// (strided sample, no rng). num_shards == 1 means the whole input fits — or
// cannot be split (single dominant prefix); either way the caller should
// run the in-memory engine directly.
template <typename Record, typename GetKey>
shard_plan plan_shards(std::span<const Record> in, GetKey&& get_key,
                       size_t cap) {
  shard_plan plan;
  size_t n = in.size();
  if (n == 0) return plan;
  if (cap >= n) {
    plan.est_records = {n};
    return plan;
  }
  // Leave 1/8 headroom under the capacity: the bin estimates are sampled,
  // so pack shards slightly loose to keep the real counts under budget.
  size_t target = std::max<size_t>(cap - cap / 8, 1);
  size_t required = (n + target - 1) / target;
  plan.prefix_bits = internal::choose_prefix_bits(required);
  plan.shard_record_cap = cap;

  size_t bins = size_t{1} << plan.prefix_bits;
  size_t m = std::min<size_t>(n, size_t{1} << 16);
  size_t stride = n / m;
  std::vector<size_t> hist(bins, 0);
  for (size_t i = 0; i < m; ++i) {
    ++hist[get_key(in[i * stride]) >> (64 - plan.prefix_bits)];
  }
  // Scale sampled counts to estimated records, rounding up so empty-looking
  // bins with one sample are not written off as empty.
  for (size_t b = 0; b < bins; ++b) hist[b] = (hist[b] * n + m - 1) / m;

  plan.bin_to_shard = internal::group_bins(std::span<const size_t>(hist),
                                           target, &plan.num_shards,
                                           &plan.est_records);
  return plan;
}

}  // namespace parsemi
