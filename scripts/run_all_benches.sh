#!/usr/bin/env bash
# Regenerates every table/figure of the paper plus the ablations.
# Usage: scripts/run_all_benches.sh [output_dir] [scale args passed to all binaries]
# Results land in one .txt per binary; defaults are laptop-scale (see README
# for the paper-scale flags).
set -u
BUILD=${BUILD:-build}
OUT=${1:-bench_results}
mkdir -p "$OUT"
shift || true

run() {
  local name=$1; shift
  echo "=== $name $* ==="
  "$BUILD/bench/$name" "$@" > "$OUT/$name.txt" 2> >(grep -v '^  done:' >&2 || true)
  echo "    -> $OUT/$name.txt"
}

run table1_distributions "$@"
run fig1_consistency "$@"
run table2_breakdown "$@"
run table3_breakdown "$@"
run fig2_thread_scaling "$@"
run table4_size_scaling "$@"

# Out-of-core variant: the same size ladder under an enforced memory budget
# (the semisort shards; the shard counts land in the table and the sidecar).
echo "=== table4_size_scaling --budget ${PARSEMI_BENCH_BUDGET:-256M} (out-of-core) ==="
"$BUILD/bench/table4_size_scaling" --budget "${PARSEMI_BENCH_BUDGET:-256M}" "$@" \
  > "$OUT/table4_size_scaling_budgeted.txt" 2> >(grep -v '^  done:' >&2 || true)
echo "    -> $OUT/table4_size_scaling_budgeted.txt"
run fig4_sort_comparison "$@"
run fig5_scatter_pack "$@"
run table5_other_sorts "$@"
run seq_baselines "$@"
run rr_comparison "$@"
run optimized_radix "$@"
run ablation_scatter_paths "$@"
run ablation_dispatch "$@"

for ab in ablation_params ablation_probing ablation_estimator ablation_primitives; do
  echo "=== $ab ==="
  "$BUILD/bench/$ab" --benchmark_min_time=0.2 > "$OUT/$ab.txt" 2>&1
  echo "    -> $OUT/$ab.txt"
done

# Per-phase SIMD perf gate: rerun table2_breakdown out of a forced-scalar
# tree (BUILD_SCALAR, configured with -DPARSEMI_SIMD=OFF) and require the
# SIMD build's local sort, the phase only its radix kernel runs, to beat
# the scalar one with no phase more than 5% slower
# (scripts/bench_compare.py check_breakdown). Skipped with a note when the
# scalar tree is absent.
BUILD_SCALAR=${BUILD_SCALAR:-build-scalar}
if [ -x "$BUILD_SCALAR/bench/table2_breakdown" ]; then
  echo "=== simd-vs-scalar breakdown gate ==="
  root=$(pwd)
  gate_dir=$(mktemp -d)
  (cd "$gate_dir" && "$root/$BUILD/bench/table2_breakdown" "$@" \
      > simd_breakdown.txt)
  mv "$gate_dir/BENCH_table2_breakdown.json" "$OUT/table2_breakdown_simd.json"
  (cd "$gate_dir" && "$root/$BUILD_SCALAR/bench/table2_breakdown" "$@" \
      > scalar_breakdown.txt)
  mv "$gate_dir/BENCH_table2_breakdown.json" \
     "$OUT/table2_breakdown_scalar.json"
  rm -rf "$gate_dir"
  python3 scripts/bench_compare.py --json "$OUT/table2_breakdown_simd.json" \
    --baseline "$OUT/table2_breakdown_scalar.json" || exit 1
  echo "    -> breakdown gate passed"
else
  echo "note: $BUILD_SCALAR/bench/table2_breakdown not built; skipping the"
  echo "      simd-vs-scalar gate (cmake -B $BUILD_SCALAR -DPARSEMI_SIMD=OFF ...)"
fi
echo "all benches complete"
