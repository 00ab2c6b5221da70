#!/usr/bin/env bash
# Repeatability: two full sets of runs of the same commit, then `compare`.
# Exits non-zero if any workload x end-to-end metric of the second set is
# outside its bound of the first, or counts / digests differ.
# Usage (from anywhere):  bench/run_twice.sh [extra `run` flags, e.g. --quick]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
bench=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)
mkdir -p "$here/out"
"${bench[@]}" run --out "$here/out/set-a.json" "$@" > "$here/out/set-a.txt"
"${bench[@]}" run --out "$here/out/set-b.json" "$@" > "$here/out/set-b.txt"
"${bench[@]}" compare "$here/out/set-a.json" "$here/out/set-b.json"
