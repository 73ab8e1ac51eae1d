#!/usr/bin/env bash
# The repository benchmark: builds blitzbench and blitzd (Release, from
# benchmark/CMakeLists.txt), runs workloads, checks every answer, prints
# `workload metric value unit` lines and writes
# benchmark/out/<run>/results.json. See benchmark/README.md.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last stdout line is its JSON result
#   benchmark/run.sh [--workloads a,b] [--seed S] [--seconds S] [--trace]
#                    [--repeat N] [--out NAME]
#       every (or the named) workload, N times with seeds S..S+N-1, with the
#       SLO search, then the median and quartiles of each metric
#   benchmark/run.sh --smoke
#       every workload for 3 s at its fixed rate; fails on a wrong answer or
#       an error share above 0.001
#
# Compare two result directories with
#   .bench_build/cmake/blitzbench compare benchmark/out/<a> benchmark/out/<b>
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workloads="cold-mixed,hot-isomorph,churn-noest,embed-parallel"
single=""
seed=1
seconds=""
trace=0
smoke=0
repeat=1
run=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) single="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --out) run="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

build=".bench_build/cmake"
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
{
  generator=()
  if [[ ! -f "$build/CMakeCache.txt" ]] && command -v ninja >/dev/null; then
    generator=(-G Ninja)
  fi
  cmake -S benchmark -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target blitzbench -j "$jobs"
} >&2 || { echo "run.sh: build failed" >&2; exit 1; }
bench="$build/blitzbench"
blitzd="$build/repo/tools/blitzd"

out="benchmark/out/${run:-$(date +%Y%m%d-%H%M%S)-$$}"
mkdir -p "$out"

if [[ -n "$single" && "$repeat" == 1 && "$smoke" == 0 ]]; then
  exec "$bench" run --workload "$single" --seed "$seed" \
    --seconds "${seconds:-25}" --trace "$trace" --blitzd "$blitzd" --out "$out"
fi

[[ -n "$single" ]] && workloads="$single"
flags=(--slo)
if [[ "$smoke" == 1 ]]; then
  flags=(--smoke)
  seconds=3
  repeat=1
fi
status=0
for ((r = 0; r < repeat; r++)); do
  for w in ${workloads//,/ }; do
    "$bench" run --workload "$w" --seed "$((seed + r))" \
      --seconds "${seconds:-25}" --trace "$trace" --blitzd "$blitzd" \
      --out "$out" "${flags[@]}" || status=1
  done
done
"$bench" summarize "$out"
exit "$status"
