#!/usr/bin/env bash
# Runs every paper bench (bench/bench_*.cpp except bench_micro and
# bench_netsim, which print timings) and every example binary from two
# build trees with their default arguments, and diffs the stdout of
# each pair. A change that must not move any paper number shows
# "same" on every line.
#
# Usage: scripts/compare_outputs.sh BUILD_A BUILD_B
#   e.g. scripts/compare_outputs.sh ../parent/build build
#
# Stdout of each run is kept in a temporary directory (printed at the
# end) for inspection. Exit status: 0 when every pair is identical,
# 1 when any pair differs or a binary is missing or fails, 64 on bad
# usage.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 64
fi
build_a=$(cd "$1" && pwd) || exit 64
build_b=$(cd "$2" && pwd) || exit 64
cd "$(dirname "$0")/.."

binaries=()
for src in bench/bench_*.cpp examples/*.cpp; do
  name=$(basename "$src" .cpp)
  [[ $name == bench_micro || $name == bench_netsim ]] && continue
  binaries+=("$name")
done

out=$(mktemp -d)
status=0
for name in "${binaries[@]}"; do
  result=same
  for side in a b; do
    build=$build_a
    [[ $side == b ]] && build=$build_b
    if [[ ! -x $build/$name ]]; then
      result="MISSING in $build"
      break
    fi
    if ! "$build/$name" > "$out/$name.$side" 2> /dev/null; then
      result="FAILED in $build"
      break
    fi
  done
  if [[ $result == same ]] && ! cmp -s "$out/$name.a" "$out/$name.b"; then
    result=DIFFERS
  fi
  [[ $result == same ]] || status=1
  printf '%-22s %s\n' "$name" "$result"
done
echo "${#binaries[@]} binaries compared; outputs in $out"
exit "$status"
