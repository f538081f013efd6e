#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py (run: python3 -m unittest
scripts.test_bench_compare, or directly). No third-party deps — stdlib
unittest only, registered in ctest under the `tooling` label.

The check() contract under test: per distribution, every requested scatter
path must be present and agree with the cas baseline on checksum and
key-run count; rows must carry the full key set and a known scatter_path;
the sidecar must be strict JSON (the CLI path rejects non-finite floats and
other almost-JSON the bench writer could emit).
"""

import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def make_row(dist="uniform", requested="cas", used=None, checksum="deadbeef",
             key_runs=42):
    return {
        "distribution": dist,
        "path_requested": requested,
        "scatter_path": used if used is not None else
            (requested if requested != "adaptive" else "blocked"),
        "checksum": checksum,
        "key_runs": key_runs,
        "millis": 1.25,
    }


def make_doc(dists=("uniform", "zipf")):
    rows = []
    for d in dists:
        for p in sorted(bench_compare.EXPECTED_PATHS):
            rows.append(make_row(dist=d, requested=p))
    return {"rows": rows}


def run_check(doc):
    """check() with captured output; returns (ok, stderr_text)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        ok = bench_compare.check(doc)
    return ok, err.getvalue()


class CheckAgreement(unittest.TestCase):
    def test_agreeing_doc_passes(self):
        ok, _ = run_check(make_doc())
        self.assertTrue(ok)

    def test_empty_doc_fails(self):
        ok, err = run_check({"rows": []})
        self.assertFalse(ok)
        self.assertIn("no rows", err)

    def test_checksum_mismatch_fails_and_names_the_path(self):
        doc = make_doc(dists=("uniform",))
        for row in doc["rows"]:
            if row["path_requested"] == "blocked":
                row["checksum"] = "0badf00d"
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("blocked", err)
        self.assertIn("checksum", err)

    def test_key_runs_mismatch_fails(self):
        doc = make_doc(dists=("uniform",))
        doc["rows"][-1]["key_runs"] = 7
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("key_runs", err)

    def test_missing_path_fails(self):
        doc = make_doc(dists=("uniform",))
        doc["rows"] = [r for r in doc["rows"]
                       if r["path_requested"] != "blocked"]
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("blocked", err)
        self.assertIn("never ran", err)

    def test_mismatch_in_one_distribution_does_not_hide_in_another(self):
        doc = make_doc(dists=("uniform", "zipf"))
        for row in doc["rows"]:
            if row["distribution"] == "zipf" and \
                    row["path_requested"] == "adaptive":
                row["checksum"] = "f00"
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("zipf", err)


class CheckRowValidity(unittest.TestCase):
    def test_row_missing_key_fails(self):
        for key in ("distribution", "path_requested", "checksum", "key_runs",
                    "scatter_path"):
            doc = make_doc(dists=("uniform",))
            del doc["rows"][0][key]
            ok, err = run_check(doc)
            self.assertFalse(ok, key)
            self.assertIn(key, err)

    def test_unknown_scatter_path_fails(self):
        doc = make_doc(dists=("uniform",))
        doc["rows"][0]["scatter_path"] = "warp_drive"
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("warp_drive", err)

    def test_adaptive_must_resolve_to_a_concrete_path(self):
        doc = make_doc(dists=("uniform",))
        for row in doc["rows"]:
            if row["path_requested"] == "adaptive":
                row["scatter_path"] = "adaptive"  # writer failed to resolve
        ok, _ = run_check(doc)
        self.assertFalse(ok)

    def test_null_metric_does_not_crash_check(self):
        # Extra metric fields may be null/absent; check() must not trip on
        # them as long as the required keys agree.
        doc = make_doc(dists=("uniform",))
        for row in doc["rows"]:
            row["millis"] = None
        ok, _ = run_check(doc)
        self.assertTrue(ok)


def make_dispatch_row(dist="uniform", keys="raw", requested="general",
                      used=None, checksum="deadbeef", key_runs=42):
    if used is None:
        if keys == "hashed":
            used = "general"
        elif requested == "general":
            used = "general"
        else:  # counting / adaptive on raw dense keys
            used = "counting"
    return {
        "distribution": dist,
        "keys": keys,
        "path_requested": requested,
        "dispatch_path": used,
        "checksum": checksum,
        "key_runs": key_runs,
        "time_s": 1.25,
    }


def make_dispatch_doc(dists=("uniform", "zipf"), key_forms=("hashed", "raw")):
    rows = []
    for d in dists:
        for k in key_forms:
            for p in sorted(bench_compare.EXPECTED_DISPATCH):
                rows.append(make_dispatch_row(dist=d, keys=k, requested=p))
    return {"bench": "ablation_dispatch", "rows": rows}


class CheckDispatch(unittest.TestCase):
    """check() dispatches on doc["bench"]: ablation_dispatch sidecars get
    the path-equivalence gate (checksums vs the general baseline, probe
    rejects hashed keys, counting path actually exercised)."""

    def test_agreeing_doc_passes(self):
        ok, err = run_check(make_dispatch_doc())
        self.assertTrue(ok, err)

    def test_dispatch_goes_to_dispatch_check(self):
        # A dispatch doc has no scatter_path key; if check() regressed to
        # the scatter gate this would fail on missing keys.
        doc = make_dispatch_doc(dists=("uniform",), key_forms=("raw",))
        ok, err = run_check(doc)
        self.assertTrue(ok, err)

    def test_empty_doc_fails(self):
        ok, err = run_check({"bench": "ablation_dispatch", "rows": []})
        self.assertFalse(ok)
        self.assertIn("no rows", err)

    def test_checksum_mismatch_fails_and_names_the_strategy(self):
        doc = make_dispatch_doc(dists=("uniform",), key_forms=("raw",))
        for row in doc["rows"]:
            if row["path_requested"] == "counting":
                row["checksum"] = "0badf00d"
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("counting", err)
        self.assertIn("checksum", err)

    def test_key_runs_mismatch_fails(self):
        doc = make_dispatch_doc(dists=("uniform",), key_forms=("raw",))
        doc["rows"][-1]["key_runs"] = 7
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("key_runs", err)

    def test_missing_strategy_fails(self):
        doc = make_dispatch_doc(dists=("uniform",), key_forms=("raw",))
        doc["rows"] = [r for r in doc["rows"]
                       if r["path_requested"] != "counting"]
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("counting", err)
        self.assertIn("never ran", err)

    def test_hashed_keys_taking_a_fast_path_fails(self):
        doc = make_dispatch_doc(dists=("uniform",))
        for row in doc["rows"]:
            if row["keys"] == "hashed" and \
                    row["path_requested"] == "adaptive":
                row["dispatch_path"] = "counting"
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("probe", err)

    def test_single_key_hashed_may_take_a_fast_path(self):
        # uniform(1): one distinct key hashes to one distinct value, which
        # IS a dense domain of width 1 — the probe is right to accept it.
        doc = make_dispatch_doc(dists=("uniform",))
        for row in doc["rows"]:
            row["key_runs"] = 1
            if row["keys"] == "hashed" and \
                    row["path_requested"] in ("counting", "adaptive"):
                row["dispatch_path"] = "counting"
        ok, err = run_check(doc)
        self.assertTrue(ok, err)

    def test_unknown_dispatch_path_fails(self):
        doc = make_dispatch_doc(dists=("uniform",), key_forms=("raw",))
        doc["rows"][0]["dispatch_path"] = "warp_drive"
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("warp_drive", err)

    def test_counting_never_exercised_fails(self):
        # Raw-key rows that all fell back to general: valid outputs, but
        # the ablation proved nothing about the fast path.
        doc = make_dispatch_doc(dists=("uniform",), key_forms=("raw",))
        for row in doc["rows"]:
            row["dispatch_path"] = "general"
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("never exercised", err)

    def test_hashed_only_doc_needs_no_counting_row(self):
        doc = make_dispatch_doc(dists=("uniform",), key_forms=("hashed",))
        ok, err = run_check(doc)
        self.assertTrue(ok, err)

    def test_row_missing_key_fails(self):
        for key in ("distribution", "keys", "path_requested", "checksum",
                    "key_runs", "dispatch_path"):
            doc = make_dispatch_doc(dists=("uniform",), key_forms=("raw",))
            del doc["rows"][0][key]
            ok, err = run_check(doc)
            self.assertFalse(ok, key)
            self.assertIn(key, err)


def make_scaling_row(dist="uniform(n)", n=1000000, budget=0, par_s=0.5,
                     shards=1, spilled=0, peak=1 << 20):
    shard = {"shards": shards}
    if shards > 1 or spilled:
        shard["spilled_bytes"] = spilled
        shard["peak_scratch_bytes"] = peak
    else:
        shard["spilled_bytes"] = 0
        shard["peak_scratch_bytes"] = peak
    return {
        "distribution": dist,
        "n": n,
        "memory_budget": budget,
        "par_s": par_s,
        "shard": shard,
    }


def make_scaling_doc(rows=None):
    if rows is None:
        rows = [
            make_scaling_row(n=1000000),
            make_scaling_row(n=100000000, budget=1 << 30, shards=8,
                             spilled=16 * 100000000),
        ]
    return {"bench": "table4_size_scaling", "rows": rows}


def run_scaling_check(doc, require_sharded=False):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        ok = bench_compare.check(doc, require_sharded=require_sharded)
    return ok, err.getvalue()


class CheckSizeScaling(unittest.TestCase):
    """check() dispatches on doc["bench"]: table4_size_scaling sidecars get
    the out-of-core gate (well-formed shard{} objects, spill accounting,
    and — with require_sharded — proof the run actually sharded)."""

    def test_well_formed_doc_passes(self):
        ok, err = run_scaling_check(make_scaling_doc())
        self.assertTrue(ok, err)

    def test_dispatch_goes_to_scaling_check(self):
        # A scaling doc has no scatter_path key; if check() regressed to
        # the scatter gate this would fail on missing keys.
        ok, err = run_scaling_check(make_scaling_doc())
        self.assertTrue(ok, err)

    def test_empty_doc_fails(self):
        ok, err = run_scaling_check({"bench": "table4_size_scaling",
                                     "rows": []})
        self.assertFalse(ok)
        self.assertIn("no rows", err)

    def test_row_missing_key_fails(self):
        for key in ("distribution", "n", "memory_budget", "par_s", "shard"):
            doc = make_scaling_doc()
            del doc["rows"][0][key]
            ok, err = run_scaling_check(doc)
            self.assertFalse(ok, key)
            self.assertIn(key, err)

    def test_empty_shard_object_fails(self):
        # A `{}` shard sidecar means the run bypassed the budget front door.
        doc = make_scaling_doc()
        doc["rows"][0]["shard"] = {}
        ok, err = run_scaling_check(doc)
        self.assertFalse(ok)
        self.assertIn("front door", err)

    def test_single_shard_row_must_not_spill(self):
        doc = make_scaling_doc(rows=[
            make_scaling_row(shards=1, spilled=4096)])
        ok, err = run_scaling_check(doc)
        self.assertFalse(ok)
        self.assertIn("spilled", err)

    def test_sharded_row_without_budget_fails(self):
        doc = make_scaling_doc(rows=[
            make_scaling_row(budget=0, shards=4, spilled=0)])
        ok, err = run_scaling_check(doc)
        self.assertFalse(ok)
        self.assertIn("no budget", err)

    def test_sharded_row_missing_telemetry_fails(self):
        doc = make_scaling_doc()
        del doc["rows"][1]["shard"]["peak_scratch_bytes"]
        ok, err = run_scaling_check(doc)
        self.assertFalse(ok)
        self.assertIn("peak_scratch_bytes", err)

    def test_nonpositive_time_fails(self):
        doc = make_scaling_doc()
        doc["rows"][0]["par_s"] = 0
        ok, err = run_scaling_check(doc)
        self.assertFalse(ok)
        self.assertIn("par_s", err)

    def test_non_monotone_n_within_a_distribution_fails(self):
        doc = make_scaling_doc(rows=[
            make_scaling_row(n=2000000),
            make_scaling_row(n=1000000)])
        ok, err = run_scaling_check(doc)
        self.assertFalse(ok)
        self.assertIn("increasing", err)

    def test_size_ladders_are_per_distribution(self):
        # A second distribution restarting its ladder at a smaller n is
        # fine; only within-distribution order matters.
        doc = make_scaling_doc(rows=[
            make_scaling_row(dist="exponential(n/1e3)", n=2000000),
            make_scaling_row(dist="uniform(n)", n=1000000)])
        ok, err = run_scaling_check(doc)
        self.assertTrue(ok, err)

    def test_require_sharded_fails_on_all_in_memory_run(self):
        doc = make_scaling_doc(rows=[make_scaling_row(shards=1)])
        ok, err = run_scaling_check(doc, require_sharded=True)
        self.assertFalse(ok)
        self.assertIn("out of core", err)

    def test_require_sharded_passes_when_a_row_sharded(self):
        ok, err = run_scaling_check(make_scaling_doc(), require_sharded=True)
        self.assertTrue(ok, err)


BREAKDOWN_PHASE_TIMES = {
    "sample and sort": 0.08,
    "construct buckets": 0.03,
    "scatter": 0.40,
    "local sort": 0.25,
    "pack": 0.12,
}


def make_simd_obj(width=256, isa="avx2"):
    return {"width_bits": width, "isa": isa}


def make_breakdown_row(dist="uniform", n=10000000, mode="par", threads=None,
                       phases=None, simd=None):
    phases = dict(BREAKDOWN_PHASE_TIMES if phases is None else phases)
    row = {
        "distribution": dist,
        "n": n,
        "threads": threads if threads is not None
            else (1 if mode == "seq" else 4),
        "mode": mode,
        "total_s": sum(phases.values()),
    }
    for ph, t in phases.items():
        row[f"phase_{ph}_s"] = t
    row["simd"] = make_simd_obj() if simd is None else simd
    return row


def make_breakdown_doc(bench="table2_breakdown", dists=("uniform",),
                       scale=1.0, gated_scale=1.0, simd=None):
    """Both modes per distribution; gated_scale additionally multiplies the
    gated phase (local sort) so tests can build a baseline the candidate
    beats (gated_scale > 1) or loses to (gated_scale < 1)."""
    rows = []
    for d in dists:
        for mode in ("seq", "par"):
            mode_scale = scale * (3.0 if mode == "seq" else 1.0)
            phases = {
                p: t * mode_scale *
                   (gated_scale if p == bench_compare.BREAKDOWN_GATED_PHASE
                    else 1.0)
                for p, t in BREAKDOWN_PHASE_TIMES.items()
            }
            rows.append(make_breakdown_row(dist=d, mode=mode, phases=phases,
                                           simd=copy.deepcopy(simd)))
    return {"bench": bench, "rows": rows}


def run_breakdown_check(doc, **kwargs):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        ok = bench_compare.check(doc, **kwargs)
    return ok, err.getvalue()


class CheckBreakdown(unittest.TestCase):
    """check() dispatches on doc["bench"]: breakdown sidecars get the
    structural phase/simd{} validation, and — with a baseline — the
    per-phase perf gate (no regression, local sort wins)."""

    def test_well_formed_doc_passes(self):
        ok, err = run_breakdown_check(make_breakdown_doc())
        self.assertTrue(ok, err)

    def test_dispatch_goes_to_breakdown_check(self):
        # A breakdown doc has no scatter_path/checksum keys; if check()
        # regressed to the scatter gate this would fail on missing keys.
        for bench in ("table2_breakdown", "table3_breakdown"):
            ok, err = run_breakdown_check(make_breakdown_doc(bench=bench))
            self.assertTrue(ok, f"{bench}: {err}")

    def test_empty_doc_fails(self):
        ok, err = run_breakdown_check({"bench": "table2_breakdown",
                                       "rows": []})
        self.assertFalse(ok)
        self.assertIn("no rows", err)

    def test_row_missing_key_fails(self):
        for key in ("distribution", "n", "threads", "mode", "total_s",
                    "simd"):
            doc = make_breakdown_doc()
            del doc["rows"][0][key]
            ok, err = run_breakdown_check(doc)
            self.assertFalse(ok, key)
            self.assertIn(key, err)

    def test_unknown_mode_fails(self):
        doc = make_breakdown_doc()
        doc["rows"][0]["mode"] = "warp"
        ok, err = run_breakdown_check(doc)
        self.assertFalse(ok)
        self.assertIn("mode", err)

    def test_nonpositive_total_fails(self):
        doc = make_breakdown_doc()
        doc["rows"][0]["total_s"] = 0
        ok, err = run_breakdown_check(doc)
        self.assertFalse(ok)
        self.assertIn("total_s", err)

    def test_row_without_phase_fields_fails(self):
        doc = make_breakdown_doc()
        doc["rows"][0] = {k: v for k, v in doc["rows"][0].items()
                          if not k.startswith("phase_")}
        ok, err = run_breakdown_check(doc)
        self.assertFalse(ok)
        self.assertIn("phase_", err)

    def test_negative_phase_time_fails(self):
        doc = make_breakdown_doc()
        doc["rows"][0]["phase_scatter_s"] = -0.1
        ok, err = run_breakdown_check(doc)
        self.assertFalse(ok)
        self.assertIn("negative", err)

    def test_phases_not_summing_to_total_fails(self):
        # phase_timer::total() is the sum of phases; a mismatch means the
        # writer dropped or double-counted a phase.
        doc = make_breakdown_doc()
        doc["rows"][0]["total_s"] *= 2
        ok, err = run_breakdown_check(doc)
        self.assertFalse(ok)
        self.assertIn("sum", err)

    def test_missing_mode_fails(self):
        doc = make_breakdown_doc()
        doc["rows"] = [r for r in doc["rows"] if r["mode"] != "par"]
        ok, err = run_breakdown_check(doc)
        self.assertFalse(ok)
        self.assertIn("par", err)

    def test_forced_scalar_widths_pass(self):
        # width_bits == 64 is the forced-scalar/reference tier — valid.
        doc = make_breakdown_doc(simd=make_simd_obj(width=64, isa="scalar"))
        ok, err = run_breakdown_check(doc)
        self.assertTrue(ok, err)

    def test_unknown_tier_width_fails(self):
        doc = make_breakdown_doc(simd=make_simd_obj(width=32))
        ok, err = run_breakdown_check(doc)
        self.assertFalse(ok)
        self.assertIn("width_bits", err)

    def test_empty_isa_fails(self):
        doc = make_breakdown_doc(simd=make_simd_obj(isa=""))
        ok, err = run_breakdown_check(doc)
        self.assertFalse(ok)
        self.assertIn("isa", err)

    def test_sidecar_without_per_phase_widths_passes(self):
        # The sidecar's simd{} carries the build's tier only.
        doc = make_breakdown_doc()
        self.assertEqual(set(doc["rows"][0]["simd"]), {"width_bits", "isa"})
        ok, err = run_breakdown_check(doc)
        self.assertTrue(ok, err)

    def test_gate_passes_when_local_sort_wins(self):
        cand = make_breakdown_doc()
        base = make_breakdown_doc(gated_scale=1.3,
                                  simd=make_simd_obj(width=64, isa="scalar"))
        ok, err = run_breakdown_check(cand, baseline=base)
        self.assertTrue(ok, err)

    def test_gate_fails_when_local_sort_ties(self):
        # Identical timings: local sort is not strictly faster.
        ok, err = run_breakdown_check(make_breakdown_doc(),
                                      baseline=make_breakdown_doc())
        self.assertFalse(ok)
        self.assertIn("local sort", err)

    def test_gate_fails_on_phase_regression(self):
        # Local sort wins, but "sample and sort" got 20% slower — the SIMD
        # build must not rob one phase to pay another.
        cand = make_breakdown_doc()
        base = make_breakdown_doc(gated_scale=1.3)
        for row in cand["rows"]:
            row["phase_sample and sort_s"] *= 1.2
            row["total_s"] = sum(v for k, v in row.items()
                                 if k.startswith("phase_"))
        ok, err = run_breakdown_check(cand, baseline=base)
        self.assertFalse(ok)
        self.assertIn("regressed", err)

    def test_gate_tolerates_small_regressions(self):
        cand = make_breakdown_doc()
        base = make_breakdown_doc(gated_scale=1.3)
        for row in cand["rows"]:
            row["phase_sample and sort_s"] *= 1.03  # under the 5% default
            row["total_s"] = sum(v for k, v in row.items()
                                 if k.startswith("phase_"))
        ok, err = run_breakdown_check(cand, baseline=base)
        self.assertTrue(ok, err)

    def test_gate_skips_sub_resolution_phases(self):
        # A 10x regression on a phase whose baseline is below min_phase_s
        # is timer noise, not a finding.
        cand = make_breakdown_doc()
        base = make_breakdown_doc(gated_scale=1.3)
        for row in base["rows"]:
            row["phase_construct buckets_s"] = 0.001
            row["total_s"] = sum(v for k, v in row.items()
                                 if k.startswith("phase_"))
        for row in cand["rows"]:
            row["phase_construct buckets_s"] = 0.01
            row["total_s"] = sum(v for k, v in row.items()
                                 if k.startswith("phase_"))
        ok, err = run_breakdown_check(cand, baseline=base)
        self.assertTrue(ok, err)

    def test_gate_fails_on_disjoint_row_sets(self):
        cand = make_breakdown_doc(dists=("uniform",))
        base = make_breakdown_doc(dists=("zipf",), gated_scale=1.3)
        ok, err = run_breakdown_check(cand, baseline=base)
        self.assertFalse(ok)
        self.assertIn("nothing to gate on", err)

    def test_gate_fails_on_differing_phase_sets(self):
        cand = make_breakdown_doc()
        base = make_breakdown_doc(gated_scale=1.3)
        for row in base["rows"]:
            t = row.pop("phase_pack_s")
            row["phase_unpack_s"] = t
        ok, err = run_breakdown_check(cand, baseline=base)
        self.assertFalse(ok)
        self.assertIn("phase sets differ", err)

    def test_gate_ignores_seq_rows(self):
        # seq rows regress badly, but the gate reads par rows only (the
        # configuration the paper's tables measure).
        cand = make_breakdown_doc()
        base = make_breakdown_doc(gated_scale=1.3)
        for row in cand["rows"]:
            if row["mode"] == "seq":
                for k in list(row):
                    if k.startswith("phase_"):
                        row[k] *= 10
                row["total_s"] = sum(v for k, v in row.items()
                                     if k.startswith("phase_"))
        ok, err = run_breakdown_check(cand, baseline=base)
        self.assertTrue(ok, err)

    def test_structural_failure_blocks_the_gate(self):
        cand = make_breakdown_doc()
        del cand["rows"][0]["simd"]
        base = make_breakdown_doc(gated_scale=1.3)
        ok, err = run_breakdown_check(cand, baseline=base)
        self.assertFalse(ok)

    def test_scatter_and_pack_wins_do_not_stand_in_for_local_sort(self):
        # Scatter and pack win, local sort ties: the gate names its phase
        # instead of counting wins, so this fails.
        cand = make_breakdown_doc()
        base = make_breakdown_doc()
        for row in base["rows"]:
            row["phase_scatter_s"] *= 1.3
            row["phase_pack_s"] *= 1.3
            row["total_s"] = sum(v for k, v in row.items()
                                 if k.startswith("phase_"))
        ok, err = run_breakdown_check(cand, baseline=base)
        self.assertFalse(ok)
        self.assertIn("local sort", err)

    def test_gate_fails_when_local_sort_is_too_short_to_time(self):
        # A baseline local sort below min_phase_s cannot show a win.
        cand = make_breakdown_doc()
        base = make_breakdown_doc(gated_scale=1.3)
        for doc, t in ((base, 0.004), (cand, 0.002)):
            for row in doc["rows"]:
                row["phase_local sort_s"] = t
                row["total_s"] = sum(v for k, v in row.items()
                                     if k.startswith("phase_"))
        ok, err = run_breakdown_check(cand, baseline=base)
        self.assertFalse(ok)
        self.assertIn("too short", err)


def make_plan_obj(reused=0, probe_passes=1, probe_records=1000,
                  dispatch="general", scatter="cas", shards=1):
    return {
        "reused": reused,
        "probe_passes": probe_passes,
        "probe_records": probe_records,
        "dispatch_path": dispatch,
        "scatter_path": scatter,
        "key_domain_width": 0,
        "predicted_buckets": 130,
        "shards": shards,
        "memory_budget": 0,
        "pool_workers": 4,
    }


def make_plan_doc(plans):
    """A bench-nameless doc whose rows carry only plan{} objects — routed to
    the scatter check, which they'd fail, so wrap them as valid scatter rows
    with the plan attached."""
    rows = []
    for d in ("uniform",):
        for p in sorted(bench_compare.EXPECTED_PATHS):
            rows.append(make_row(dist=d, requested=p))
    for row, plan in zip(rows, plans):
        row["plan"] = plan
        # Keep the flat/plan cross-check satisfiable by default.
        row["scatter_path"] = plan.get("scatter_path", row["scatter_path"])
    return {"rows": rows}


def run_plan_check(doc):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        ok = bench_compare.check_plan(doc)
    return ok, err.getvalue()


class CheckPlan(unittest.TestCase):
    """The plan{} structural validator runs on every sidecar: rows without
    a plan are skipped, planned rows must satisfy the single-probe and
    shard accounting contracts."""

    def test_rows_without_plan_are_skipped(self):
        ok, err = run_plan_check(make_doc())
        self.assertTrue(ok, err)

    def test_well_formed_plan_passes(self):
        doc = make_plan_doc([make_plan_obj()])
        ok, err = run_plan_check(doc)
        self.assertTrue(ok, err)

    def test_plan_check_runs_inside_check_dispatch(self):
        # check() must run the plan validator on top of the bench gate.
        doc = make_plan_doc([make_plan_obj(probe_passes=3)])
        ok, err = run_check(doc)
        self.assertFalse(ok)
        self.assertIn("single-probe", err)

    def test_two_probe_passes_fail(self):
        doc = make_plan_doc([make_plan_obj(probe_passes=2)])
        ok, err = run_plan_check(doc)
        self.assertFalse(ok)
        self.assertIn("single-probe", err)

    def test_reused_plan_must_report_zero_probes(self):
        doc = make_plan_doc([make_plan_obj(reused=1, probe_passes=1)])
        ok, err = run_plan_check(doc)
        self.assertFalse(ok)
        self.assertIn("reused", err)

    def test_reused_plan_with_zero_probes_passes(self):
        doc = make_plan_doc([make_plan_obj(reused=1, probe_passes=0,
                                           probe_records=0)])
        ok, err = run_plan_check(doc)
        self.assertTrue(ok, err)

    def test_missing_key_fails(self):
        for key in bench_compare.PLAN_REQUIRED_KEYS:
            plan = make_plan_obj()
            del plan[key]
            ok, err = run_plan_check(make_plan_doc([plan]))
            self.assertFalse(ok, key)
            self.assertIn(key, err)

    def test_unknown_paths_fail(self):
        ok, err = run_plan_check(
            make_plan_doc([make_plan_obj(scatter="warp_drive")]))
        self.assertFalse(ok)
        self.assertIn("warp_drive", err)
        ok, err = run_plan_check(
            make_plan_doc([make_plan_obj(dispatch="warp_drive")]))
        self.assertFalse(ok)
        self.assertIn("warp_drive", err)

    def test_zero_shards_fail(self):
        ok, err = run_plan_check(make_plan_doc([make_plan_obj(shards=0)]))
        self.assertFalse(ok)
        self.assertIn("shards", err)

    def test_plan_shards_must_match_flat_shard_object(self):
        doc = make_plan_doc([make_plan_obj(shards=4)])
        doc["rows"][0]["shard"] = {"shards": 2}
        ok, err = run_plan_check(doc)
        self.assertFalse(ok)
        self.assertIn("shard.shards", err)

    def test_executed_scatter_path_must_match_the_plan(self):
        doc = make_plan_doc([make_plan_obj(scatter="blocked")])
        doc["rows"][0]["scatter_path"] = "cas"
        ok, err = run_plan_check(doc)
        self.assertFalse(ok)
        self.assertIn("differs from planned", err)


class CliJsonStrictness(unittest.TestCase):
    """End-to-end over the CLI: --json files with hostile content."""

    def run_cli(self, text, *extra):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write(text)
            path = f.name
        try:
            script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "bench_compare.py")
            return subprocess.run(
                [sys.executable, script, "--json", path, *extra],
                capture_output=True, text=True)
        finally:
            os.unlink(path)

    def test_agreeing_sidecar_exits_zero(self):
        res = self.run_cli(json.dumps(make_doc()))
        self.assertEqual(res.returncode, 0, res.stderr)

    def test_checksum_mismatch_exits_nonzero(self):
        doc = make_doc(dists=("uniform",))
        doc["rows"][2]["checksum"] = "feedface"
        res = self.run_cli(json.dumps(doc))
        self.assertEqual(res.returncode, 1, res.stderr)

    def test_non_finite_float_in_sidecar_is_rejected(self):
        # json.dumps would escape these; a buggy C++ writer can emit bare
        # NaN/Infinity, which strict parsing must refuse.
        doc = make_doc(dists=("uniform",))
        text = json.dumps(doc).replace("1.25", "NaN", 1)
        res = self.run_cli(text)
        self.assertNotEqual(res.returncode, 0)

    def test_truncated_json_is_rejected(self):
        res = self.run_cli(json.dumps(make_doc())[:-20])
        self.assertNotEqual(res.returncode, 0)

    def test_require_sharded_flag_reaches_the_scaling_check(self):
        doc = make_scaling_doc(rows=[make_scaling_row(shards=1)])
        res = self.run_cli(json.dumps(doc), "--require-sharded")
        self.assertEqual(res.returncode, 1, res.stderr)
        self.assertIn("out of core", res.stderr)

    def test_baseline_flag_reaches_the_breakdown_gate(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write(json.dumps(make_breakdown_doc()))  # local sort ties
            base_path = f.name
        try:
            res = self.run_cli(json.dumps(make_breakdown_doc()),
                               "--baseline", base_path)
            self.assertEqual(res.returncode, 1, res.stderr)
            self.assertIn("local sort", res.stderr)
        finally:
            os.unlink(base_path)

    def test_breakdown_gate_passes_over_a_slower_baseline(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            f.write(json.dumps(make_breakdown_doc(gated_scale=1.3)))
            base_path = f.name
        try:
            res = self.run_cli(json.dumps(make_breakdown_doc()),
                               "--baseline", base_path)
            self.assertEqual(res.returncode, 0, res.stderr)
        finally:
            os.unlink(base_path)


class NonFiniteParse(unittest.TestCase):
    def test_parse_constant_hook_refuses_non_finite(self):
        # Guard the module-level expectation the CLI test relies on: the
        # stdlib parser accepts NaN by default, so bench_compare must parse
        # with parse_constant set to raise. If this starts failing, the
        # strict-JSON contract in bench_compare.py was dropped.
        text = json.dumps(make_doc()).replace("1.25", "Infinity", 1)
        with self.assertRaises(ValueError):
            bench_compare.load_sidecar_text(text)


if __name__ == "__main__":
    unittest.main()
