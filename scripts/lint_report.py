#!/usr/bin/env python3
"""CI reporter over parsemi_check --format=json findings.

Two modes (stdlib only, strict JSON, exit 0/1):

  report (default): validate the findings document, print a human summary,
    and — with --annotate — emit GitHub Actions workflow commands
    (::error / ::warning file=...,line=...) so findings land inline on the
    PR diff. Exit 1 on any hard finding or index error.

  diff (--baseline OLD.json): compare two findings documents as sets keyed
    by (rule, file, line, waived-ness) and report what appeared and what
    went away. Exit 1 when a hard finding was introduced — waiver churn
    and fixed findings are reported but do not fail the gate (the waiver
    *budget* is parsemi_check's own baseline-drift check).

The document is parsed with the standard json module, so this doubles as a
strict validity check on the analyzer's JSON writer.

Usage:
  scripts/lint_report.py --json lint_findings.json [--annotate]
  scripts/lint_report.py --json lint_findings.json --baseline old.json

Exit status: 0 clean, 1 on hard findings / index errors / new findings,
2 on unreadable or malformed input.
"""

import argparse
import json
import sys

SUPPORTED_VERSION = 1


def _refuse_constant(name):
    raise ValueError(f"non-finite number in findings document: {name}")


def load_doc(text):
    """Strict parse + shape check of a parsemi_check --format=json
    document. Raises ValueError on anything a consumer could misread."""
    doc = json.loads(text, parse_constant=_refuse_constant)
    if not isinstance(doc, dict):
        raise ValueError("findings document is not a JSON object")
    if doc.get("version") != SUPPORTED_VERSION:
        raise ValueError(f"unsupported findings version {doc.get('version')!r}"
                         f" (this reader speaks {SUPPORTED_VERSION})")
    for key in ("files_scanned", "counts", "index_errors", "findings"):
        if key not in doc:
            raise ValueError(f"findings document missing '{key}'")
    for f in doc["findings"]:
        for key in ("rule", "file", "line", "waived", "message"):
            if key not in f:
                raise ValueError(f"finding missing '{key}': {f}")
    return doc


def finding_key(f):
    """Identity of a finding for set-diff purposes. The message is
    excluded: wording changes between analyzer versions should not read
    as a new finding at the same site."""
    return (f["rule"], f["file"], f["line"], bool(f["waived"]))


def annotate(doc, out=sys.stdout):
    """GitHub Actions inline annotations: hard findings as errors, waived
    ones as notices (visible but not failing), index errors as errors."""
    for e in doc["index_errors"]:
        print(f"::error file={e['file']}::parsemi-check index error: "
              f"{e['message']}", file=out)
    for f in doc["findings"]:
        level = "notice" if f["waived"] else "error"
        msg = f"[{f['rule']}] {f['message']}"
        if f["waived"]:
            msg += f" (waived: {f.get('waiver_reason', '')})"
        print(f"::{level} file={f['file']},line={f['line']}::{msg}",
              file=out)


def report(doc):
    """Human summary; returns True when the document is clean (no hard
    findings, no index errors)."""
    hard = [f for f in doc["findings"] if not f["waived"]]
    waived = [f for f in doc["findings"] if f["waived"]]
    counts = doc["counts"]
    if counts.get("hard") != len(hard) or counts.get("waived") != len(waived):
        print(f"FAIL: counts {counts} disagree with the findings array "
              f"({len(hard)} hard, {len(waived)} waived) — the document "
              f"was truncated or hand-edited", file=sys.stderr)
        return False
    ok = True
    for e in doc["index_errors"]:
        print(f"FAIL: index error: {e['file']}: {e['message']}",
              file=sys.stderr)
        ok = False
    for f in hard:
        print(f"FAIL: {f['file']}:{f['line']}: [{f['rule']}] {f['message']}",
              file=sys.stderr)
        ok = False
    if ok:
        print(f"ok: {doc['files_scanned']} files scanned, 0 hard findings, "
              f"{len(waived)} waived")
    return ok


def diff(new_doc, old_doc):
    """Finding-set diff: what appeared, what went away. Returns True when
    no *hard* finding was introduced."""
    new = {finding_key(f): f for f in new_doc["findings"]}
    old = {finding_key(f): f for f in old_doc["findings"]}
    added = [new[k] for k in sorted(new.keys() - old.keys())]
    removed = [old[k] for k in sorted(old.keys() - new.keys())]
    ok = True
    for f in added:
        if f["waived"]:
            print(f"note: new waived finding {f['file']}:{f['line']} "
                  f"[{f['rule']}]")
        else:
            print(f"FAIL: new finding {f['file']}:{f['line']} "
                  f"[{f['rule']}] {f['message']}", file=sys.stderr)
            ok = False
    for f in removed:
        print(f"fixed: {f['file']}:{f['line']} [{f['rule']}]"
              f"{' (was waived)' if f['waived'] else ''}")
    if not added and not removed:
        print("finding sets identical")
    elif ok:
        print(f"ok: {len(added)} added (none hard), {len(removed)} resolved")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", required=True,
                    help="parsemi_check --format=json output to report on")
    ap.add_argument("--baseline",
                    help="older findings JSON to diff against (diff mode)")
    ap.add_argument("--annotate", action="store_true",
                    help="emit GitHub Actions ::error/::notice annotations")
    args = ap.parse_args()

    try:
        with open(args.json) as f:
            doc = load_doc(f.read())
    except (OSError, ValueError) as ex:
        print(f"lint_report: cannot load {args.json}: {ex}", file=sys.stderr)
        sys.exit(2)

    if args.annotate:
        annotate(doc)

    if args.baseline:
        try:
            with open(args.baseline) as f:
                old = load_doc(f.read())
        except (OSError, ValueError) as ex:
            print(f"lint_report: cannot load {args.baseline}: {ex}",
                  file=sys.stderr)
            sys.exit(2)
        if not diff(doc, old):
            sys.exit(1)
        return

    if not report(doc):
        sys.exit(1)


if __name__ == "__main__":
    main()
