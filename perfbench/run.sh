#!/usr/bin/env bash
# Build the benchmark and the dct binary from this checkout, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --all [--seed N] [--seconds S]
#   bash perfbench/run.sh --self-test
#
# Build output goes to _perfbench_build/ and to standard error, so the
# last line of standard output is the benchmark's JSON result.  --all
# runs every workload, timed and then traced, and fails if any run does.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=_perfbench_build

# no shared dune cache: read and write only inside this checkout
DUNE_CACHE=disabled dune build --root . --profile release --build-dir "$build" \
  ./perfbench/main.exe ./bin/dct.exe 1>&2

bench=("$build/default/perfbench/main.exe" --dct "$build/default/bin/dct.exe" --workdir "$build")

if [[ "${1:-}" != "--all" ]]; then
  exec "${bench[@]}" "$@"
fi

shift
seed=1
seconds=25  # run_seconds in BENCHMARK.json: the length its bounds were measured at
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) echo "run.sh --all: unknown argument $1" >&2; exit 2 ;;
  esac
done
status=0
for workload in sched-churn sched-gc-noncurrent engine-tpcc serve-ycsb-b; do
  for trace in 0 1; do
    "${bench[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      | grep -v '^{' || status=1
  done
done
exit "$status"
