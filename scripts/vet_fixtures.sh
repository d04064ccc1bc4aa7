#!/usr/bin/env bash
# Keep the analysis fixtures honest: every testdata/src package must
# still compile and pass go vet.  `go vet ./...` skips testdata by
# design, so the fixture directories are vetted explicitly here.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for dir in internal/analysis/testdata/src/*/; do
  if ! go vet "./${dir%/}"; then
    echo "vet_fixtures: FAIL ./${dir%/}" >&2
    fail=1
  fi
done
exit $fail
