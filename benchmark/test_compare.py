#!/usr/bin/env python3
"""Unit tests for compare.py (stdlib unittest).

    python3 benchmark/test_compare.py
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "call_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "mrec_per_s", "unit": "Mrec/s", "better": "higher", "bound": 0.1},
    ]
}


def run(workload, seed, p50, mrec=50.0, failed=0, attempted=40, trace=0):
    return {"workload": workload, "seed": seed, "trace": trace,
            "attempted": attempted, "failed": failed,
            "metrics": {"call_p50_s": {"value": p50, "unit": "s"},
                        "mrec_per_s": {"value": mrec, "unit": "Mrec/s"}}}


class Verdicts(unittest.TestCase):
    def test_within_bound_is_ok(self):
        self.assertEqual(compare.verdict([1.0, 1.01, 0.99], [1.05, 1.06, 1.04],
                                         0.1, "lower"), "ok")

    def test_worse_beyond_bound_is_regression(self):
        self.assertEqual(compare.verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19],
                                         0.1, "lower"), "regression")

    def test_higher_is_better_direction(self):
        self.assertEqual(compare.verdict([50, 51, 49], [40, 41, 39], 0.1,
                                         "higher"), "regression")
        self.assertEqual(compare.verdict([50, 51, 49], [60, 61, 59], 0.1,
                                         "higher"), "ok")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
        self.assertGreater(compare.spread(noisy), 0.1)
        self.assertEqual(compare.verdict([1.0, 1.0, 1.0], noisy, 0.1, "lower"),
                         "unresolved")
        # The same holds when the noise is on the base side, even though the
        # candidate's median is unchanged.
        self.assertEqual(compare.verdict(noisy, [1.0, 1.0, 1.0], 0.1, "lower"),
                         "unresolved")

    def test_unresolved_unless_every_candidate_run_is_better(self):
        base = [1.0, 1.3, 1.6]
        self.assertEqual(compare.verdict(base, [0.5, 0.7, 0.9], 0.1, "lower"),
                         "ok")
        self.assertEqual(compare.verdict(base, [0.5, 0.7, 1.1], 0.1, "lower"),
                         "unresolved")

    def test_single_run_has_zero_spread(self):
        self.assertEqual(compare.summarize([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(compare.spread([2.0]), 0.0)


class PairRule(unittest.TestCase):
    def seeded(self, values):
        return {seed: v for seed, v in enumerate(values)}

    def test_nine_wins_and_one_loss_is_met(self):
        base = self.seeded([1.0] * 10)
        cand = self.seeded([0.8] * 9 + [1.1])
        met, _ = compare.claim_met(base, cand, "lower")
        self.assertTrue(met)

    def test_ties_count_for_neither_side(self):
        base = self.seeded([1.0] * 10)
        # 9 wins + 1 tie: 9 of 10 pairs won.
        self.assertTrue(compare.claim_met(base, self.seeded([0.8] * 9 + [1.0]),
                                          "lower")[0])
        # 8 wins + 2 ties: ties do not make up the missing win.
        met, why = compare.claim_met(base, self.seeded([0.8] * 8 + [1.0] * 2),
                                     "lower")
        self.assertFalse(met)
        self.assertIn("2 ties", why)
        self.assertEqual(compare.pair_wins([(1, 1), (1, 0.5), (1, 2)], "lower"),
                         (1, 1, 1))

    def test_fewer_than_ten_pairs_is_not_met(self):
        base = self.seeded([1.0] * 9)
        cand = self.seeded([0.5] * 9)
        met, why = compare.claim_met(base, cand, "lower")
        self.assertFalse(met)
        self.assertIn("9 paired runs", why)

    def test_pairs_match_by_seed(self):
        base = {s: 1.0 for s in range(10)}
        cand = {s + 100: 0.5 for s in range(10)}
        self.assertFalse(compare.claim_met(base, cand, "lower")[0])

    def test_gap_must_exceed_base_spread(self):
        # Every pair won, but by less than the base's own quartile distance.
        base = self.seeded([1.0, 1.2, 1.4, 1.6, 1.8, 1.0, 1.2, 1.4, 1.6, 1.8])
        cand = self.seeded([b - 0.01 for b in base.values()])
        met, why = compare.claim_met(base, cand, "lower")
        self.assertFalse(met)
        self.assertIn("spread", why)

    def test_higher_is_better_claim(self):
        base = self.seeded([50.0] * 10)
        self.assertTrue(compare.claim_met(base, self.seeded([60.0] * 10),
                                          "higher")[0])
        self.assertFalse(compare.claim_met(base, self.seeded([40.0] * 10),
                                           "higher")[0])


class EndToEnd(unittest.TestCase):
    def write(self, runs):
        f = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
        for r in runs:
            f.write(json.dumps(r) + "\n")
        f.close()
        self.addCleanup(os.remove, f.name)
        return f.name

    def report(self, base, cand, claims=()):
        out = io.StringIO()
        ok = compare.compare(compare.load_runs(self.write(base)),
                             compare.load_runs(self.write(cand)), SPEC,
                             claims, out=out)
        return ok, out.getvalue()

    def test_same_code_passes(self):
        base = [run("w", s, 1.0 + 0.001 * s) for s in range(5)]
        cand = [run("w", s, 1.0 + 0.0012 * s) for s in range(5)]
        ok, text = self.report(base, cand)
        self.assertTrue(ok, text)
        self.assertNotIn("regression", text)

    def test_regression_fails(self):
        base = [run("w", s, 1.0) for s in range(5)]
        cand = [run("w", s, 1.3) for s in range(5)]
        ok, text = self.report(base, cand)
        self.assertFalse(ok)
        self.assertIn("regression", text)

    def test_any_failure_increase_fails(self):
        base = [run("w", s, 1.0) for s in range(5)]
        cand = [run("w", s, 1.0, failed=1 if s == 0 else 0) for s in range(5)]
        ok, text = self.report(base, cand)
        self.assertFalse(ok)

    def test_claim_through_the_report(self):
        base = [run("w", s, 1.0 + 0.01 * (s % 3)) for s in range(10)]
        cand = [run("w", s, 0.8 + 0.01 * (s % 3)) for s in range(10)]
        ok, text = self.report(base, cand, ["w:call_p50_s"])
        self.assertTrue(ok, text)
        self.assertIn("claim w:call_p50_s: met", text)
        ok, text = self.report(base, base, ["w:call_p50_s"])
        self.assertFalse(ok)

    def test_traced_and_smoke_runs_are_not_compared(self):
        base = [run("w", s, 1.0) for s in range(3)]
        noise = [run("w", 9, 5.0, trace=1), dict(run("w", 8, 5.0), smoke=True)]
        ok, text = self.report(base, base + noise)
        self.assertTrue(ok, text)


if __name__ == "__main__":
    unittest.main()
