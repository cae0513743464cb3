#!/usr/bin/env bash
# Sim-vs-bounds crosscheck smoke: run `bhive-eval -exp boundcheck` over
# the decodable subset of the blocklint fixture corpus on every modeled
# microarchitecture (including Ice Lake, which the paper tables omit) and
# require zero violations. Then run `bhive-eval -exp table5 -crosscheck`
# over the same subset and require zero static/dynamic status mismatches.
#
# The bounds are sound by construction (lower·n ≤ cycles(n) ≤ upper·n at
# the measured unroll factor n), and so are the static verdicts (the
# linter reads them from the profiler's own functional pass), so ANY
# violation or mismatch is a bug — the tolerance is zero, not a threshold.
#
# Used by CI (.github/workflows/ci.yml, job boundcheck-smoke) and
# runnable locally: ./scripts/boundcheck_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# The raw fixture ends in deliberately-undecodable lint rows; strip them
# the same way serve_smoke.sh does.
grep -v '^pathological,' internal/blocklint/testdata/example_corpus.csv \
  > "$WORK/corpus.csv"

echo "boundcheck-smoke: crosschecking bounds against the simulator"
go run ./cmd/bhive-eval -exp boundcheck -corpus "$WORK/corpus.csv" \
  | tee "$WORK/boundcheck.txt"

grep -q "total violations: 0" "$WORK/boundcheck.txt" || {
  echo "boundcheck-smoke: FAIL: bound violations found (see table above)" >&2
  exit 1
}
echo "boundcheck-smoke: OK (zero violations on all microarchitectures)"

echo "boundcheck-smoke: crosschecking static verdicts against the profiler"
go run ./cmd/bhive-eval -exp table5 -corpus "$WORK/corpus.csv" -crosscheck \
  >/dev/null 2> "$WORK/crosscheck.txt" || {
  cat "$WORK/crosscheck.txt" >&2
  echo "boundcheck-smoke: FAIL: bhive-eval -crosscheck failed" >&2
  exit 1
}
cat "$WORK/crosscheck.txt"
grep -q "crosscheck: 0 static/dynamic mismatches" "$WORK/crosscheck.txt" || {
  echo "boundcheck-smoke: FAIL: static/dynamic status mismatches (see above)" >&2
  exit 1
}
echo "boundcheck-smoke: OK (zero static/dynamic mismatches)"
