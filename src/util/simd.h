// The record copy of the pack and staging passes, and the build's ISA
// label.
//
// Design contract (see DESIGN.md "Hot loops"):
//   - Every target compiles the same loop shapes, with no intrinsics. The
//     unrolled hot loops (4-wide keys in histogram_blocks, sample_keys and
//     tag_semisort) are independent scalar chains, and the local-sort
//     radix kernel (core/local_sort.h) is portable C++.
//   - No allocation anywhere: every helper works on caller memory only, so
//     the warm-path zero-alloc contract (alloc_regression_test) holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace parsemi {
namespace simd {

// The compiler's target ISA, read from its predefined macros. A label for
// reports (the benchmark's build{} object); no code path depends on it.
inline constexpr const char* isa_name() {
#if defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "generic";
#endif
}

// copy_records — the pack kernel. For trivially-copyable records one
// memcpy covers the run (glibc's memcpy is already vector-widened and
// beats an element loop from ~2 records up); the generic form keeps
// assignment semantics for everything else. An empty range may come with
// null pointers, which memcpy must not be passed even for zero bytes.
template <typename Record>
inline void copy_records(Record* dst, const Record* src, size_t count) {
  if (count == 0) return;
  if constexpr (std::is_trivially_copyable_v<Record>) {
    std::memcpy(static_cast<void*>(dst), static_cast<const void*>(src),
                count * sizeof(Record));
  } else {
    for (size_t i = 0; i < count; ++i) dst[i] = src[i];
  }
}

}  // namespace simd
}  // namespace parsemi
