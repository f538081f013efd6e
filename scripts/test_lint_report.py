"""Unit tests for scripts/lint_report.py (stdlib only). Run via
`python3 -m unittest scripts.test_lint_report` from the repo root, or
through the `lint_report_unit` ctest."""

import io
import unittest

from scripts import lint_report


def doc(findings=(), index_errors=(), files=3):
    hard = sum(1 for f in findings if not f["waived"])
    waived = sum(1 for f in findings if f["waived"])
    return {
        "version": 1,
        "files_scanned": files,
        "counts": {"hard": hard, "waived": waived},
        "index_errors": list(index_errors),
        "findings": list(findings),
    }


def finding(rule="arena-escape", file="src/a.h", line=10, waived=False,
            message="escapes", reason=None):
    f = {"rule": rule, "file": file, "line": line, "waived": waived,
         "message": message}
    if reason is not None:
        f["waiver_reason"] = reason
    return f


class LoadDocTest(unittest.TestCase):
    def test_round_trip(self):
        import json
        d = doc([finding()])
        self.assertEqual(lint_report.load_doc(json.dumps(d)), d)

    def test_rejects_wrong_version(self):
        with self.assertRaises(ValueError):
            lint_report.load_doc('{"version": 2, "files_scanned": 0, '
                                 '"counts": {}, "index_errors": [], '
                                 '"findings": []}')

    def test_rejects_missing_sections(self):
        with self.assertRaises(ValueError):
            lint_report.load_doc('{"version": 1}')

    def test_rejects_non_object(self):
        with self.assertRaises(ValueError):
            lint_report.load_doc('[1, 2]')

    def test_rejects_incomplete_finding(self):
        with self.assertRaises(ValueError):
            lint_report.load_doc('{"version": 1, "files_scanned": 1, '
                                 '"counts": {"hard": 1, "waived": 0}, '
                                 '"index_errors": [], '
                                 '"findings": [{"rule": "arena-escape"}]}')

    def test_rejects_nan(self):
        with self.assertRaises(ValueError):
            lint_report.load_doc('{"version": 1, "files_scanned": NaN, '
                                 '"counts": {}, "index_errors": [], '
                                 '"findings": []}')


class ReportTest(unittest.TestCase):
    def test_clean_document_passes(self):
        self.assertTrue(lint_report.report(doc()))

    def test_hard_finding_fails(self):
        self.assertFalse(lint_report.report(doc([finding()])))

    def test_waived_finding_passes(self):
        self.assertTrue(lint_report.report(
            doc([finding(waived=True, reason="historical")])))

    def test_index_error_fails(self):
        self.assertFalse(lint_report.report(
            doc(index_errors=[{"file": "src/x.h",
                               "message": "unbalanced '{'"}])))

    def test_tampered_counts_fail(self):
        d = doc([finding()])
        d["counts"]["hard"] = 0  # document says clean; findings disagree
        self.assertFalse(lint_report.report(d))


class AnnotateTest(unittest.TestCase):
    def test_hard_finding_is_an_error_annotation(self):
        out = io.StringIO()
        lint_report.annotate(doc([finding(file="src/a.h", line=12)]), out)
        self.assertIn("::error file=src/a.h,line=12::[arena-escape]",
                      out.getvalue())

    def test_waived_finding_is_a_notice(self):
        out = io.StringIO()
        lint_report.annotate(
            doc([finding(waived=True, reason="historical")]), out)
        text = out.getvalue()
        self.assertIn("::notice", text)
        self.assertIn("(waived: historical)", text)
        self.assertNotIn("::error", text)

    def test_index_error_annotation_has_no_line(self):
        out = io.StringIO()
        lint_report.annotate(
            doc(index_errors=[{"file": "src/x.h", "message": "boom"}]), out)
        self.assertIn("::error file=src/x.h::parsemi-check index error: "
                      "boom", out.getvalue())


class DiffTest(unittest.TestCase):
    def test_identical_sets_pass(self):
        d = doc([finding()])
        self.assertTrue(lint_report.diff(d, d))

    def test_new_hard_finding_fails(self):
        self.assertFalse(lint_report.diff(doc([finding()]), doc()))

    def test_new_waived_finding_passes(self):
        self.assertTrue(lint_report.diff(
            doc([finding(waived=True, reason="r")]), doc()))

    def test_fixed_finding_passes(self):
        self.assertTrue(lint_report.diff(doc(), doc([finding()])))

    def test_message_rewording_is_not_a_new_finding(self):
        # Same (rule, file, line, waived): analyzer message changes must
        # not read as regressions.
        new = doc([finding(message="new wording")])
        old = doc([finding(message="old wording")])
        self.assertTrue(lint_report.diff(new, old))

    def test_same_site_waiver_flip_is_reported(self):
        # A finding flipping hard -> waived is both an add and a remove;
        # the add is waived, so the gate still passes.
        new = doc([finding(waived=True, reason="r")])
        old = doc([finding()])
        self.assertTrue(lint_report.diff(new, old))

    def test_moved_hard_finding_fails(self):
        self.assertFalse(lint_report.diff(doc([finding(line=20)]),
                                          doc([finding(line=10)])))


if __name__ == "__main__":
    unittest.main()
