#!/usr/bin/env python3
"""Differential gate over bench sidecars.

Runs a bench binary (or takes an existing BENCH_<name>.json via --json) and
checks its correctness invariants. Which checks run is dispatched on the
sidecar's "bench" field:

  ablation_scatter_paths (default): per distribution, every scatter path
    produced the SAME output — identical order-insensitive multiset checksum
    and identical key-run count. A path that corrupts, drops, or mis-groups
    records differs here even when it "looks fast".

  throughput_concurrent: every concurrent submitter's output matched the
    sequential reference (checksum_ok on every row, checksum and key_runs
    constant down each distribution's submitter ladder) and not a single
    sequential fallback was counted — concurrency changed nothing but the
    wall clock.

  ablation_dispatch: per (distribution, key form), every dispatch strategy
    produced the SAME output as the forced-general baseline, pre-hashed
    keys never took a fast path (the domain probe must reject 64-bit hash
    values), and at least one raw-key run actually exercised the counting
    path — the ablation is vacuous if the probe never accepts.

  table4_size_scaling: every row reports a well-formed shard{} sidecar
    (shards >= 1; spill accounting zero on single-shard rows; spilled and
    peak-scratch telemetry present on sharded rows). With --require-sharded
    the run is additionally required to have actually gone out of core: at
    least one budgeted row with shards > 1 — the gate the 10^9-record
    reproduction point runs under.

  Additionally, EVERY sidecar whose rows carry a nested plan{} object (the
  execution plan of core/exec_plan.h) gets the structural plan check:
  required keys present, the single-probe contract (probe_passes <= 1,
  zero on reused plans), known path names, shard accounting consistent
  with the flat legacy keys.

  table2_breakdown / table3_breakdown: every row carries positive per-phase
    times that sum to the total, both seq and par modes, and a well-formed
    simd{} object (per-phase kernel widths). With --baseline OTHER.json the
    check becomes the per-phase perf gate: on matching (distribution, n,
    mode=par) rows, no phase may regress more than --max-phase-regress over
    the baseline, and at least --require-wins of the hot phases {scatter,
    local sort, pack} must be strictly faster — how the SIMD build is held
    to beating the forced-scalar build without robbing another phase.

The sidecar is parsed with the standard json module, so this doubles as a
strict validity check on the bench JSON writer (escaping, empty metric
maps, non-finite floats).

Usage:
  scripts/bench_compare.py --bench build/bench/ablation_scatter_paths \
      [--n 200000] [--reps 1] [-- extra bench args]
  scripts/bench_compare.py --bench build/bench/throughput_concurrent
  scripts/bench_compare.py --json BENCH_ablation_scatter_paths.json

Exit status: 0 when every check passes, 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

EXPECTED_PATHS = {"cas", "blocked", "adaptive"}
VALID_USED = {"cas", "blocked"}

EXPECTED_DISPATCH = {"general", "counting", "adaptive"}
VALID_DISPATCH_USED = {"general", "counting", "offsets"}


def _refuse_constant(name):
    raise ValueError(f"non-finite number in sidecar: {name}")


def load_sidecar_text(text):
    """Strict parse: bare NaN/Infinity (which json.loads accepts by
    default) means the bench's JSON writer is broken — refuse it."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_bench(bench, n, reps, extra):
    """Run the bench in a scratch directory; return the parsed sidecar.
    The sidecar name follows the bench binary's name: a binary called
    <name> writes BENCH_<name>.json into its working directory."""
    with tempfile.TemporaryDirectory(prefix="bench_compare.") as tmp:
        cmd = [os.path.abspath(bench), "--n", str(n), "--reps", str(reps)]
        cmd += extra
        print("+ " + " ".join(cmd), file=sys.stderr)
        subprocess.run(cmd, cwd=tmp, check=True)
        name = os.path.basename(bench)
        path = os.path.join(tmp, f"BENCH_{name}.json")
        with open(path) as f:
            return load_sidecar_text(f.read())


def check_scatter_paths(doc):
    rows = doc.get("rows", [])
    if not rows:
        print("FAIL: sidecar has no rows", file=sys.stderr)
        return False
    by_dist = {}
    ok = True
    for row in rows:
        for key in ("distribution", "path_requested", "checksum", "key_runs",
                    "scatter_path"):
            if key not in row:
                print(f"FAIL: row missing '{key}': {row}", file=sys.stderr)
                return False
        if row["scatter_path"] not in VALID_USED:
            print(f"FAIL: unknown scatter_path '{row['scatter_path']}'",
                  file=sys.stderr)
            ok = False
        by_dist.setdefault(row["distribution"], []).append(row)

    for dist, dist_rows in sorted(by_dist.items()):
        seen = {r["path_requested"] for r in dist_rows}
        missing = EXPECTED_PATHS - seen
        if missing:
            print(f"FAIL: {dist}: paths never ran: {sorted(missing)}",
                  file=sys.stderr)
            ok = False
        baseline = next((r for r in dist_rows
                         if r["path_requested"] == "cas"), dist_rows[0])
        for r in dist_rows:
            if r["checksum"] != baseline["checksum"]:
                print(f"FAIL: {dist}: path {r['path_requested']} checksum "
                      f"{r['checksum']} != cas baseline "
                      f"{baseline['checksum']}", file=sys.stderr)
                ok = False
            if r["key_runs"] != baseline["key_runs"]:
                print(f"FAIL: {dist}: path {r['path_requested']} key_runs "
                      f"{r['key_runs']} != cas baseline "
                      f"{baseline['key_runs']}", file=sys.stderr)
                ok = False
        if ok:
            print(f"ok: {dist}: {len(dist_rows)} rows agree "
                  f"(checksum {baseline['checksum']}, "
                  f"{baseline['key_runs']} key runs)")
    return ok


def check_throughput(doc):
    """The concurrent-throughput invariants: every row's checksum matched
    the sequential reference in-binary (checksum_ok), checksum/key_runs are
    constant down each distribution's submitter ladder, and zero sequential
    fallbacks were counted anywhere."""
    rows = doc.get("rows", [])
    if not rows:
        print("FAIL: sidecar has no rows", file=sys.stderr)
        return False
    by_dist = {}
    ok = True
    for row in rows:
        for key in ("distribution", "submitters", "checksum", "checksum_ok",
                    "key_runs", "sequential_fallbacks"):
            if key not in row:
                print(f"FAIL: row missing '{key}': {row}", file=sys.stderr)
                return False
        if row["checksum_ok"] != "yes":
            print(f"FAIL: {row['distribution']} @ {row['submitters']} "
                  f"submitters: a concurrent job's output did not match "
                  f"the sequential reference", file=sys.stderr)
            ok = False
        if row["sequential_fallbacks"] != 0:
            print(f"FAIL: {row['distribution']} @ {row['submitters']} "
                  f"submitters: {row['sequential_fallbacks']} sequential "
                  f"fallbacks (a caller was silently serialized)",
                  file=sys.stderr)
            ok = False
        by_dist.setdefault(row["distribution"], []).append(row)

    for dist, dist_rows in sorted(by_dist.items()):
        baseline = dist_rows[0]
        for r in dist_rows:
            if r["checksum"] != baseline["checksum"]:
                print(f"FAIL: {dist}: {r['submitters']} submitters checksum "
                      f"{r['checksum']} != {baseline['submitters']}-submitter "
                      f"baseline {baseline['checksum']}", file=sys.stderr)
                ok = False
            if r["key_runs"] != baseline["key_runs"]:
                print(f"FAIL: {dist}: {r['submitters']} submitters key_runs "
                      f"{r['key_runs']} != baseline {baseline['key_runs']}",
                      file=sys.stderr)
                ok = False
        if ok:
            print(f"ok: {dist}: {len(dist_rows)} ladder rows agree with the "
                  f"sequential reference, zero fallbacks")
    return ok


def check_dispatch(doc):
    """The dispatch-ablation invariants: per (distribution, keys) group all
    three requested strategies ran, every row's checksum/key_runs match the
    forced-general baseline, hashed-key rows never report a fast path
    (except the degenerate single-key input, where one distinct hash value
    IS a dense domain of width 1), and at least one raw-key row reports the
    counting path."""
    rows = doc.get("rows", [])
    if not rows:
        print("FAIL: sidecar has no rows", file=sys.stderr)
        return False
    by_group = {}
    ok = True
    counting_seen = False
    for row in rows:
        for key in ("distribution", "keys", "path_requested", "checksum",
                    "key_runs", "dispatch_path"):
            if key not in row:
                print(f"FAIL: row missing '{key}': {row}", file=sys.stderr)
                return False
        if row["dispatch_path"] not in VALID_DISPATCH_USED:
            print(f"FAIL: unknown dispatch_path '{row['dispatch_path']}'",
                  file=sys.stderr)
            ok = False
        if (row["keys"] == "hashed" and row["dispatch_path"] != "general"
                and row["key_runs"] > 1):
            # With >1 distinct key, random 64-bit hashes span far beyond any
            # dense domain; a fast path here means the probe accepted
            # hash-range values it must reject.
            print(f"FAIL: {row['distribution']} hashed keys took the "
                  f"'{row['dispatch_path']}' path — the domain probe "
                  f"accepted 64-bit hash values", file=sys.stderr)
            ok = False
        if row["keys"] == "raw" and row["dispatch_path"] == "counting":
            counting_seen = True
        by_group.setdefault((row["distribution"], row["keys"]),
                            []).append(row)

    for (dist, keys), group_rows in sorted(by_group.items()):
        seen = {r["path_requested"] for r in group_rows}
        missing = EXPECTED_DISPATCH - seen
        if missing:
            print(f"FAIL: {dist}/{keys}: strategies never ran: "
                  f"{sorted(missing)}", file=sys.stderr)
            ok = False
        baseline = next((r for r in group_rows
                         if r["path_requested"] == "general"), group_rows[0])
        for r in group_rows:
            if r["checksum"] != baseline["checksum"]:
                print(f"FAIL: {dist}/{keys}: strategy {r['path_requested']} "
                      f"checksum {r['checksum']} != general baseline "
                      f"{baseline['checksum']}", file=sys.stderr)
                ok = False
            if r["key_runs"] != baseline["key_runs"]:
                print(f"FAIL: {dist}/{keys}: strategy {r['path_requested']} "
                      f"key_runs {r['key_runs']} != general baseline "
                      f"{baseline['key_runs']}", file=sys.stderr)
                ok = False
        if ok:
            print(f"ok: {dist}/{keys}: {len(group_rows)} rows agree "
                  f"(checksum {baseline['checksum']}, "
                  f"{baseline['key_runs']} key runs)")
    if ok and any(r["keys"] == "raw" for r in rows) and not counting_seen:
        print("FAIL: no raw-key row took the counting path — the ablation "
              "never exercised the fast path", file=sys.stderr)
        ok = False
    return ok


def check_size_scaling(doc, require_sharded=False):
    """The out-of-core size-scaling invariants: every row carries a
    well-formed shard{} object (the budget-aware front door always reports
    shards >= 1), single-shard rows spilled nothing, sharded rows carry the
    spill/peak-scratch telemetry, and — under --require-sharded — at least
    one budgeted row actually went out of core."""
    rows = doc.get("rows", [])
    if not rows:
        print("FAIL: sidecar has no rows", file=sys.stderr)
        return False
    ok = True
    sharded_rows = 0
    last_n = {}
    for row in rows:
        for key in ("distribution", "n", "memory_budget", "par_s", "shard"):
            if key not in row:
                print(f"FAIL: row missing '{key}': {row}", file=sys.stderr)
                return False
        label = f"{row['distribution']} n={row['n']}"
        # The bench emits each distribution's size ladder in ascending
        # order; a non-monotone n means rows were dropped or reordered.
        if row["n"] <= last_n.get(row["distribution"], 0):
            print(f"FAIL: {label}: n not strictly increasing within the "
                  f"distribution's ladder", file=sys.stderr)
            ok = False
        last_n[row["distribution"]] = row["n"]
        shard = row["shard"]
        if not isinstance(shard, dict) or "shards" not in shard:
            print(f"FAIL: {label}: shard sidecar missing or empty "
                  f"(the run never went through the budget front door)",
                  file=sys.stderr)
            ok = False
            continue
        if shard["shards"] < 1:
            print(f"FAIL: {label}: shards = {shard['shards']} < 1",
                  file=sys.stderr)
            ok = False
        if shard["shards"] == 1 and shard.get("spilled_bytes", 0) != 0:
            print(f"FAIL: {label}: single-shard row reports "
                  f"{shard['spilled_bytes']} spilled bytes", file=sys.stderr)
            ok = False
        if shard["shards"] > 1:
            sharded_rows += 1
            if row["memory_budget"] == 0:
                print(f"FAIL: {label}: sharded with no budget set",
                      file=sys.stderr)
                ok = False
            for key in ("spilled_bytes", "peak_scratch_bytes"):
                if key not in shard:
                    print(f"FAIL: {label}: sharded row missing shard.{key}",
                          file=sys.stderr)
                    ok = False
        if not (isinstance(row["par_s"], (int, float))
                and row["par_s"] is not True and row["par_s"] > 0):
            print(f"FAIL: {label}: par_s = {row['par_s']!r} is not a "
                  f"positive time", file=sys.stderr)
            ok = False
    if require_sharded and sharded_rows == 0:
        print("FAIL: --require-sharded: no row ran with shards > 1 — the "
              "budget never forced the run out of core", file=sys.stderr)
        ok = False
    if ok:
        print(f"ok: {len(rows)} size-scaling rows well-formed "
              f"({sharded_rows} ran sharded)")
    return ok


PLAN_REQUIRED_KEYS = ("reused", "probe_passes", "probe_records",
                      "dispatch_path", "scatter_path", "shards")


def check_plan(doc):
    """Structural validation of the nested plan{} objects (core/exec_plan.h)
    any bench's rows may carry. Rows without a "plan" key are skipped —
    sidecars predating the plan layer, or rows that never ran a semisort.
    Checked per planned row: required keys, the single-probe contract
    (probe_passes <= 1; a reused plan performed zero probes), known
    dispatch/scatter path names, and shards >= 1 consistent with the flat
    shard{} object."""
    ok = True
    planned = 0
    for row in doc.get("rows", []):
        plan = row.get("plan")
        if plan is None:
            continue
        planned += 1
        label = f"{row.get('distribution', '?')} row {planned}"
        if not isinstance(plan, dict):
            print(f"FAIL: {label}: plan is not an object: {plan!r}",
                  file=sys.stderr)
            ok = False
            continue
        missing = [k for k in PLAN_REQUIRED_KEYS if k not in plan]
        if missing:
            print(f"FAIL: {label}: plan missing {missing}", file=sys.stderr)
            ok = False
            continue
        if plan["probe_passes"] not in (0, 1):
            print(f"FAIL: {label}: plan.probe_passes = "
                  f"{plan['probe_passes']!r} breaks the single-probe "
                  f"contract", file=sys.stderr)
            ok = False
        if plan["reused"] and (plan["probe_passes"] != 0
                               or plan["probe_records"] != 0):
            print(f"FAIL: {label}: reused plan reports probe work "
                  f"(passes={plan['probe_passes']}, "
                  f"records={plan['probe_records']})", file=sys.stderr)
            ok = False
        if plan["dispatch_path"] not in VALID_DISPATCH_USED:
            print(f"FAIL: {label}: unknown plan.dispatch_path "
                  f"'{plan['dispatch_path']}'", file=sys.stderr)
            ok = False
        if plan["scatter_path"] not in VALID_USED:
            print(f"FAIL: {label}: unknown plan.scatter_path "
                  f"'{plan['scatter_path']}'", file=sys.stderr)
            ok = False
        if not (isinstance(plan["shards"], int) and plan["shards"] >= 1):
            print(f"FAIL: {label}: plan.shards = {plan['shards']!r} < 1",
                  file=sys.stderr)
            ok = False
        shard = row.get("shard")
        if (isinstance(shard, dict) and "shards" in shard
                and shard["shards"] != plan["shards"]):
            print(f"FAIL: {label}: plan.shards = {plan['shards']} but the "
                  f"flat shard.shards = {shard['shards']}", file=sys.stderr)
            ok = False
        # The plan IS the execution now: where a row also carries the flat
        # legacy keys, they must agree with what was planned.
        if (plan["shards"] == 1 and "scatter_path" in row
                and plan["dispatch_path"] == "general"
                and row["scatter_path"] != plan["scatter_path"]):
            print(f"FAIL: {label}: executed scatter_path "
                  f"'{row['scatter_path']}' differs from planned "
                  f"'{plan['scatter_path']}'", file=sys.stderr)
            ok = False
        if (plan["shards"] == 1 and "dispatch_path" in row
                and row["dispatch_path"] != plan["dispatch_path"]):
            print(f"FAIL: {label}: executed dispatch_path "
                  f"'{row['dispatch_path']}' differs from planned "
                  f"'{plan['dispatch_path']}'", file=sys.stderr)
            ok = False
    if ok and planned:
        print(f"ok: {planned} plan{{}} objects well-formed")
    return ok


BREAKDOWN_HOT_PHASES = ("scatter", "local sort", "pack")
VALID_SIMD_WIDTHS = {0, 64, 128, 256}


def _breakdown_phases(row):
    """The per-phase times of one breakdown row, keyed by phase name (the
    JSON keys embed the human-readable name: "phase_local sort_s")."""
    return {k[len("phase_"):-len("_s")]: v for k, v in row.items()
            if k.startswith("phase_") and k.endswith("_s")}


def check_breakdown(doc, baseline=None, max_phase_regress=0.05,
                    require_wins=2, min_phase_s=0.005):
    """The phase-breakdown invariants. Structurally: every row carries a
    positive total, per-phase times that are non-negative and sum to the
    total (phase_timer::total() is defined as that sum), a well-formed
    simd{} object, and each (distribution, n) appears in both seq and par
    mode. With a baseline doc the check becomes the per-phase perf gate:
    phase times are summed over the matching par rows, no phase may be more
    than max_phase_regress slower than the baseline, and at least
    require_wins of the hot phases (scatter / local sort / pack) must be
    strictly faster. Phases whose baseline time is below min_phase_s are
    too short to time reliably and are excluded from both counts."""
    rows = doc.get("rows", [])
    if not rows:
        print("FAIL: sidecar has no rows", file=sys.stderr)
        return False
    ok = True
    modes_seen = {}
    for row in rows:
        for key in ("distribution", "n", "threads", "mode", "total_s",
                    "simd"):
            if key not in row:
                print(f"FAIL: row missing '{key}': {row}", file=sys.stderr)
                return False
        label = f"{row['distribution']} n={row['n']} {row['mode']}"
        if row["mode"] not in ("seq", "par"):
            print(f"FAIL: {label}: unknown mode", file=sys.stderr)
            ok = False
            continue
        total = row["total_s"]
        if not (isinstance(total, (int, float)) and total is not True
                and total > 0):
            print(f"FAIL: {label}: total_s = {total!r} is not a positive "
                  f"time", file=sys.stderr)
            ok = False
            continue
        phases = _breakdown_phases(row)
        if not phases:
            print(f"FAIL: {label}: no phase_*_s fields", file=sys.stderr)
            ok = False
            continue
        bad = {p: t for p, t in phases.items()
               if not (isinstance(t, (int, float)) and t is not True
                       and t >= 0)}
        if bad:
            print(f"FAIL: {label}: non-numeric or negative phase times "
                  f"{bad}", file=sys.stderr)
            ok = False
            continue
        psum = sum(phases.values())
        if abs(psum - total) > max(1e-4 * total, 1e-6):
            print(f"FAIL: {label}: phases sum to {psum:.6f}s but total_s is "
                  f"{total:.6f}s — a phase was dropped or double-counted",
                  file=sys.stderr)
            ok = False
        simd = row["simd"]
        if not isinstance(simd, dict):
            print(f"FAIL: {label}: simd sidecar missing or not an object",
                  file=sys.stderr)
            ok = False
            continue
        width = simd.get("width_bits")
        if width not in (64, 128, 256):
            print(f"FAIL: {label}: simd.width_bits = {width!r} is not a "
                  f"known tier width", file=sys.stderr)
            ok = False
        if not (isinstance(simd.get("isa"), str) and simd["isa"]):
            print(f"FAIL: {label}: simd.isa missing or empty",
                  file=sys.stderr)
            ok = False
        for field in ("hash", "scatter", "local_sort", "pack"):
            w = simd.get(field)
            if w not in VALID_SIMD_WIDTHS:
                print(f"FAIL: {label}: simd.{field} = {w!r} is not a valid "
                      f"per-phase width", file=sys.stderr)
                ok = False
            elif isinstance(width, int) and w > width:
                print(f"FAIL: {label}: simd.{field} = {w} exceeds the "
                      f"build's width_bits = {width}", file=sys.stderr)
                ok = False
        modes_seen.setdefault((row["distribution"], row["n"]),
                              set()).add(row["mode"])
    for (dist, n), modes in sorted(modes_seen.items()):
        missing = {"seq", "par"} - modes
        if missing:
            print(f"FAIL: {dist} n={n}: modes never ran: {sorted(missing)}",
                  file=sys.stderr)
            ok = False
    if ok:
        print(f"ok: {len(rows)} breakdown rows well-formed "
              f"(isa {rows[0]['simd'].get('isa')}, "
              f"width {rows[0]['simd'].get('width_bits')})")
    if baseline is None or not ok:
        return ok

    def par_keys(d):
        return {(r.get("distribution"), r.get("n"))
                for r in d.get("rows", []) if r.get("mode") == "par"}

    matched = par_keys(doc) & par_keys(baseline)
    if not matched:
        print("FAIL: baseline shares no (distribution, n) par rows with the "
              "candidate — nothing to gate on", file=sys.stderr)
        return False

    def phase_sums(d):
        sums = {}
        for r in d.get("rows", []):
            if (r.get("mode") == "par"
                    and (r.get("distribution"), r.get("n")) in matched):
                for ph, t in _breakdown_phases(r).items():
                    sums[ph] = sums.get(ph, 0.0) + t
        return sums

    cand, base = phase_sums(doc), phase_sums(baseline)
    if set(cand) != set(base):
        print(f"FAIL: phase sets differ: candidate {sorted(cand)} vs "
              f"baseline {sorted(base)}", file=sys.stderr)
        return False
    wins = 0
    for ph in sorted(cand):
        c, b = cand[ph], base[ph]
        if b < min_phase_s:
            print(f"  {ph}: baseline {b:.4f}s below --min-phase-s, skipped")
            continue
        note = ""
        if c > b * (1 + max_phase_regress):
            print(f"FAIL: phase '{ph}' regressed: {c:.4f}s vs baseline "
                  f"{b:.4f}s (> {100 * max_phase_regress:.0f}% slower)",
                  file=sys.stderr)
            ok = False
        if ph in BREAKDOWN_HOT_PHASES and c < b:
            wins += 1
            note = "  (win)"
        print(f"  {ph}: {c:.4f}s vs baseline {b:.4f}s "
              f"({c / b:.2f}x){note}")
    if wins < require_wins:
        print(f"FAIL: only {wins} of the hot phases "
              f"{list(BREAKDOWN_HOT_PHASES)} beat the baseline "
              f"(need {require_wins})", file=sys.stderr)
        ok = False
    if ok:
        print(f"ok: {wins} hot-phase wins over the baseline, no phase "
              f"regressed more than {100 * max_phase_regress:.0f}%")
    return ok


def check(doc, require_sharded=False, baseline=None, max_phase_regress=0.05,
          require_wins=2, min_phase_s=0.005):
    """Dispatch on the sidecar's bench name. Sidecars without a "bench"
    field (or from the scatter ablation) get the scatter-path check — the
    historical behaviour this module's unit tests pin down. The plan{}
    structural check runs on every sidecar regardless of bench name (rows
    without a plan are skipped)."""
    ok = check_plan(doc)
    if doc.get("bench") == "throughput_concurrent":
        return check_throughput(doc) and ok
    if doc.get("bench") == "ablation_dispatch":
        return check_dispatch(doc) and ok
    if doc.get("bench") == "table4_size_scaling":
        return check_size_scaling(doc, require_sharded) and ok
    if doc.get("bench") in ("table2_breakdown", "table3_breakdown"):
        return check_breakdown(doc, baseline=baseline,
                               max_phase_regress=max_phase_regress,
                               require_wins=require_wins,
                               min_phase_s=min_phase_s) and ok
    return check_scatter_paths(doc) and ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", help="path to the ablation_scatter_paths binary")
    ap.add_argument("--json", help="pre-existing sidecar to check instead")
    ap.add_argument("--n", type=int, default=200000)
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--require-sharded", action="store_true",
                    help="table4_size_scaling only: fail unless at least "
                         "one row ran with shards > 1")
    ap.add_argument("--baseline",
                    help="breakdown benches only: sidecar to gate against "
                         "(e.g. a forced-scalar build's table2_breakdown)")
    ap.add_argument("--max-phase-regress", type=float, default=0.05,
                    help="breakdown gate: max fractional slowdown allowed "
                         "on any phase vs the baseline (default 0.05)")
    ap.add_argument("--require-wins", type=int, default=2,
                    help="breakdown gate: hot phases (scatter / local sort "
                         "/ pack) that must beat the baseline (default 2)")
    ap.add_argument("--min-phase-s", type=float, default=0.005,
                    help="breakdown gate: baseline phases shorter than this "
                         "are too noisy to gate on (default 0.005)")
    ap.add_argument("extra", nargs="*",
                    help="extra args forwarded to the bench binary")
    args = ap.parse_args()

    if args.json:
        with open(args.json) as f:
            doc = load_sidecar_text(f.read())
    elif args.bench:
        doc = run_bench(args.bench, args.n, args.reps, args.extra)
    else:
        ap.error("one of --bench or --json is required")

    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = load_sidecar_text(f.read())

    if not check(doc, require_sharded=args.require_sharded,
                 baseline=baseline,
                 max_phase_regress=args.max_phase_regress,
                 require_wins=args.require_wins,
                 min_phase_s=args.min_phase_s):
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
