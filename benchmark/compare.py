#!/usr/bin/env python3
"""Compares two result sets of the repository benchmark.

    python3 benchmark/compare.py BASE CAND [--claim WORKLOAD:METRIC ...]

BASE and CAND are runs.jsonl files written by run.py, or directories that
hold one. For every (workload, end-to-end metric) the report gives each
side's median and quartiles, and a verdict against the metric's bound in
BENCHMARK.json:

  ok          the candidate's median is not worse than the base's by more
              than the bound;
  regression  it is worse by more than the bound;
  unresolved  one side's quartile spread, as a share of its median, is wider
              than the bound, so the sets cannot tell — unless every
              candidate run reads better than every base run (then ok).

fail_frac, the share of calls that threw or failed verification across a
set, may not increase at all.

--claim WORKLOAD:METRIC applies the rule for claiming a gain: pair base and
candidate runs by seed (run them alternately); the candidate must win at
least 9 of every 10 pairs, ties counting for neither, over at least 10
pairs, and the medians must differ by more than the base's quartile spread.

Exit status: 1 when a metric regressed, fail_frac rose, or a claim is not
met; 0 otherwise (unresolved metrics are reported, not failed).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    """Every non-smoke run in a runs.jsonl (or a directory holding one)."""
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                run = json.loads(line)
                if not run.get("smoke"):
                    runs.append(run)
    return runs


def summarize(values):
    """(median, first quartile, third quartile) of a list of numbers."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    """Quartile distance as a share of the median."""
    med, q1, q3 = summarize(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(base, cand, better):
    """How much worse `cand` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (cand - base) / abs(base)
    return change if better == "lower" else -change


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(base, cand, bound, better):
    """ok / regression / unresolved for one metric's two lists of values."""
    if max(spread(base), spread(cand)) > bound:
        if all(beats(c, b, better) for c in cand for b in base):
            return "ok"
        return "unresolved"
    if worse_by(statistics.median(base), statistics.median(cand), better) > bound:
        return "regression"
    return "ok"


def pair_wins(pairs, better):
    """(wins, ties, losses) of the candidate over (base, cand) pairs."""
    wins = sum(1 for b, c in pairs if beats(c, b, better))
    ties = sum(1 for b, c in pairs if b == c)
    return wins, ties, len(pairs) - wins - ties


def claim_met(base_by_seed, cand_by_seed, better):
    """Applies the gain rule; returns (met, explanation)."""
    seeds = sorted(set(base_by_seed) & set(cand_by_seed))
    if len(seeds) < MIN_PAIRS:
        return False, "%d paired runs, at least %d needed" % (len(seeds), MIN_PAIRS)
    pairs = [(base_by_seed[s], cand_by_seed[s]) for s in seeds]
    wins, ties, losses = pair_wins(pairs, better)
    if wins < WIN_SHARE * len(pairs):
        return False, "won %d of %d pairs (%d ties, %d losses)" % (
            wins, len(pairs), ties, losses)
    base = [b for b, _ in pairs]
    med, q1, q3 = summarize(base)
    gap = statistics.median([c for _, c in pairs]) - med
    if not beats(med + gap, med, better) or abs(gap) <= q3 - q1:
        return False, "median moved %g, base quartile spread is %g" % (
            gap, q3 - q1)
    return True, "won %d of %d pairs; median moved %g (base spread %g)" % (
        wins, len(pairs), gap, q3 - q1)


def by_workload(runs, trace):
    out = {}
    for run in runs:
        if run.get("trace", 0) == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def fail_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(base_runs, cand_runs, spec, claims=(), out=sys.stdout):
    """Prints the report; returns True when nothing regressed or failed."""
    ok = True
    base, cand = by_workload(base_runs, 0), by_workload(cand_runs, 0)
    fmt = "%-18s %-12s %12s %25s %12s %25s %8s  %s"
    print(fmt % ("workload", "metric", "base median", "base [q1, q3]",
                 "cand median", "cand [q1, q3]", "worse", "verdict"), file=out)
    for workload in sorted(set(base) | set(cand)):
        b_runs, c_runs = base.get(workload, []), cand.get(workload, [])
        if not b_runs or not c_runs:
            print("%-18s missing from %s" % (
                workload, "base" if not b_runs else "candidate"), file=out)
            ok = False
            continue
        for m in spec["end_to_end"]:
            b, c = values(b_runs, m["name"]), values(c_runs, m["name"])
            if not b or not c:
                continue
            bm, bq1, bq3 = summarize(b)
            cm, cq1, cq3 = summarize(c)
            v = verdict(b, c, m["bound"], m["better"])
            ok = ok and v != "regression"
            print(fmt % (workload, m["name"], "%.6g" % bm,
                         "[%.6g, %.6g]" % (bq1, bq3), "%.6g" % cm,
                         "[%.6g, %.6g]" % (cq1, cq3),
                         "%+.1f%%" % (100 * worse_by(bm, cm, m["better"])),
                         v), file=out)
        bf, cf = fail_frac(b_runs), fail_frac(c_runs)
        if cf > bf:
            ok = False
        print(fmt % (workload, "fail_frac", "%.6g" % bf, "", "%.6g" % cf, "",
                     "", "regression" if cf > bf else "ok"), file=out)

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for claim in claims:
        workload, _, metric = claim.partition(":")
        if metric not in better:
            print("claim %s: unknown end-to-end metric" % claim, file=out)
            ok = False
            continue
        seeded = lambda runs: {r["seed"]: r["metrics"][metric]["value"]
                               for r in runs if metric in r["metrics"]}
        met, why = claim_met(seeded(base.get(workload, [])),
                             seeded(cand.get(workload, [])), better[metric])
        ok = ok and met
        print("claim %s: %s — %s" % (claim, "met" if met else "NOT met", why),
              file=out)
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        spec = json.load(f)
    ok = compare(load_runs(args.base), load_runs(args.candidate), spec,
                 args.claim)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
