#!/usr/bin/env bash
# Runs the full set twice on the same commit and compares the pair:
# every end-to-end metric of every workload should agree within its own
# bound.  Usage: benchmark/repeat.sh [seed] [runs] [outdir]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
runs="${2:-1}"
out="${3:-$here/results}"
mkdir -p "$out"
a="$out/seed${seed}-a.json"
b="$out/seed${seed}-b.json"
"$here/run.sh" -seed "$seed" -runs "$runs" -out "$a"
"$here/run.sh" -seed "$seed" -runs "$runs" -out "$b"
"$here/run.sh" -compare "$a" "$b"
