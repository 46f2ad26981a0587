#!/usr/bin/env bash
# Counts non-blank, non-comment, non-test Go lines in two buckets: the
# simulator with its CLIs and examples, and the custom lint stack
# (internal/lint plus cmd/simlint). Test files, lint fixtures under
# testdata/ and the separate _perfbench module are excluded. Only //
# comments are recognised; the repository writes no /* */ blocks outside
# tests. Run via `make loc`.
set -euo pipefail
cd "$(dirname "$0")/.."

gofiles() {
  find . -name '*.go' ! -name '*_test.go' \
    ! -path './_perfbench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' "$@"
}

# count prints the code-line total of the files named on stdin.
count() {
  xargs -r cat | grep -cvE '^[[:space:]]*(//|$)' || true
}

sim=$(gofiles ! -path './internal/lint/*' ! -path './cmd/simlint/*' | count)
lint=$(gofiles \( -path './internal/lint/*' -o -path './cmd/simlint/*' \) | count)
echo "simulator+CLIs+examples: $sim"
echo "lint stack:              $lint"
echo "total:                   $((sim + lint))"
