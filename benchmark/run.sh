#!/usr/bin/env bash
# Builds the benchmark once, runs the four workloads untraced and then traced,
# and collects the full results into one JSON array.
#
#   benchmark/run.sh                       # seed 0 -> benchmark/out/results.json
#   SEEDS="1 2 3" benchmark/run.sh set.json   # one untraced run per seed
#
# SEEDS    seeds of the untraced runs (default "0"); the traced runs use the
#          first one
# SECONDS_PER_RUN   --seconds for every run (default: run_seconds of
#          BENCHMARK.json, which is also the binary's default)
# Any run that exits non-zero fails the script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:-$here/out/results.json}"
seeds=(${SEEDS:-0})
seconds=(${SECONDS_PER_RUN:+--seconds "$SECONDS_PER_RUN"})
workloads=(sweep_events sweep_transfer cluster_ticks fleet_fluid)

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/msplayer-benchmark"

results=()
run() { # workload seed trace
  echo "== $1 seed=$2 trace=$3" >&2
  "$bin" run --workload "$1" --seed "$2" --trace "$3" "${seconds[@]}"
  results+=("$here/out/result-$1-seed$2-trace$3.json")
}
for seed in "${seeds[@]}"; do
  for w in "${workloads[@]}"; do run "$w" "$seed" 0; done
done
for w in "${workloads[@]}"; do run "$w" "${seeds[0]}" 1; done

mkdir -p "$(dirname "$out")"
{
  echo "["
  for i in "${!results[@]}"; do
    if [ "$i" -gt 0 ]; then echo ","; fi
    cat "${results[$i]}"
  done
  echo "]"
} > "$out"
echo "wrote $out (${#results[@]} results)" >&2
