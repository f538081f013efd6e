#!/bin/sh
# End-to-end test of the semisort_cli tool: generate → sort → verify, plus
# the line-grouping mode. $1 = path to the semisort_cli binary.
set -e
CLI=$1
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

"$CLI" --mode generate --n 200000 --dist zipf --param 5000 --seed 3 \
       --out "$DIR/records.bin"
[ "$(stat -c %s "$DIR/records.bin")" -eq 3200000 ] || {
  echo "generate: wrong file size"; exit 1;
}

"$CLI" --mode sort --in "$DIR/records.bin" --out "$DIR/grouped.bin"
"$CLI" --mode verify --in "$DIR/grouped.bin" | grep -q '^OK:' || {
  echo "verify: output not semisorted"; exit 1;
}

# The raw input must NOT verify (zipf data is interleaved) — guards against
# a vacuous verifier.
if "$CLI" --mode verify --in "$DIR/records.bin" >/dev/null 2>&1; then
  echo "verify: accepted unsorted input"; exit 1
fi

# lines mode: grouped counts must match the obvious reference.
printf 'a\nb\na\nc\nb\na\n' > "$DIR/lines.txt"
"$CLI" --mode lines < "$DIR/lines.txt" | sort > "$DIR/got.txt"
printf '1\tc\n2\tb\n3\ta\n' | sort > "$DIR/want.txt"
cmp -s "$DIR/got.txt" "$DIR/want.txt" || {
  echo "lines: counts differ"; cat "$DIR/got.txt"; exit 1;
}

# Budgeted (out-of-core) sort: a budget far below the footprint must shard,
# still verify as semisorted, and hold the same record multiset as the
# unbudgeted output (canonicalize: one hex line per 16-byte record, sorted).
"$CLI" --mode sort --in "$DIR/records.bin" --out "$DIR/grouped_budget.bin" \
       --memory-budget 512K > "$DIR/sort_budget.txt"
grep -q 'shards=' "$DIR/sort_budget.txt" || {
  echo "budgeted sort: no shard count reported"; exit 1;
}
if grep -q 'shards=1 ' "$DIR/sort_budget.txt"; then
  echo "budgeted sort: tiny budget did not shard"; exit 1
fi
"$CLI" --mode verify --in "$DIR/grouped_budget.bin" | grep -q '^OK:' || {
  echo "budgeted sort: output not semisorted"; exit 1;
}
od -An -v -tx8 -w16 "$DIR/grouped.bin"        | sort > "$DIR/canon_plain.txt"
od -An -v -tx8 -w16 "$DIR/grouped_budget.bin" | sort > "$DIR/canon_budget.txt"
cmp -s "$DIR/canon_plain.txt" "$DIR/canon_budget.txt" || {
  echo "budgeted sort: record multiset differs from unbudgeted"; exit 1;
}

# --explain prints the execution plan without executing (no output file),
# and the plan names the same dispatch/scatter paths the executed run's
# report does.
"$CLI" --mode sort --in "$DIR/records.bin" --out "$DIR/never_written.bin" \
       --explain > "$DIR/plan.txt"
[ ! -f "$DIR/never_written.bin" ] || {
  echo "explain: wrote output despite --explain"; exit 1;
}
grep -q '^semisort_plan v1$' "$DIR/plan.txt" || {
  echo "explain: missing plan header"; cat "$DIR/plan.txt"; exit 1;
}
grep -q '^probe_passes [01]$' "$DIR/plan.txt" || {
  echo "explain: probe_passes missing or > 1"; cat "$DIR/plan.txt"; exit 1;
}
PLAN_DISPATCH=$(awk '$1=="dispatch"{print $2}' "$DIR/plan.txt")
PLAN_SCATTER=$(awk '$1=="scatter"{print $2}' "$DIR/plan.txt")
"$CLI" --mode sort --in "$DIR/records.bin" --out "$DIR/grouped_replan.bin" \
       > "$DIR/sort_report.txt"
grep -q "dispatch=$PLAN_DISPATCH scatter=$PLAN_SCATTER " \
    "$DIR/sort_report.txt" || {
  echo "explain: executed run took different paths than the plan";
  cat "$DIR/plan.txt" "$DIR/sort_report.txt"; exit 1;
}

# A budgeted --explain names the scatter path its shards run: the same
# path as the executed budgeted run's report and as the unbudgeted run.
"$CLI" --mode sort --in "$DIR/records.bin" --out "$DIR/never_written.bin" \
       --explain --memory-budget 512K > "$DIR/plan_budget.txt"
BUDGET_SCATTER=$(awk '$1=="scatter"{print $2}' "$DIR/plan_budget.txt")
if [ "$BUDGET_SCATTER" != "$PLAN_SCATTER" ] ||
   ! grep -q "scatter=$BUDGET_SCATTER shards=" "$DIR/sort_budget.txt"; then
  echo "explain: budgeted plan names a different scatter path"
  grep '^scatter ' "$DIR/plan_budget.txt"; cat "$DIR/sort_budget.txt"; exit 1
fi

# A second --explain over the same input must be byte-identical (the
# planner is deterministic for fixed input, params, and seed).
"$CLI" --mode sort --in "$DIR/records.bin" --out "$DIR/never_written.bin" \
       --explain > "$DIR/plan2.txt"
cmp -s "$DIR/plan.txt" "$DIR/plan2.txt" || {
  echo "explain: plan not deterministic"; exit 1;
}

# Malformed numeric flag must exit 2 with a named error, not terminate().
if "$CLI" --mode generate --n abc --out "$DIR/z.bin" 2> "$DIR/err.txt"; then
  echo "generate: accepted garbage --n"; exit 1
fi
grep -q 'invalid value for --n' "$DIR/err.txt" || {
  echo "generate: missing clear error for bad --n"; cat "$DIR/err.txt"; exit 1;
}

echo "cli roundtrip OK"
