#!/usr/bin/env bash
# Runs every CI-gated bench binary and reports PASS/FAIL per gate.
#
#   bench/run_gates.sh [build-dir]     (default: build)
#
# This is the one list of gated benches: .github/workflows/ci.yml runs this
# script. Each bench exits non-zero when one of its gates fails. The script
# runs them all, even after a failure, keeps each one's output in
# <build-dir>/gates/<bench>.log, prints the tail of a failing bench's log,
# and exits non-zero if any gate failed. BENCH_*.json artifacts land in the
# working directory.
set -u

build_dir="${1:-build}"
gates=(
  bench_fig_tiered
  bench_fig_plan_cache
  bench_fig_service_throughput
  bench_fig_calibration
  bench_fig_search
  bench_fig_obs
  bench_fig_placement
)

log_dir="$build_dir/gates"
mkdir -p "$log_dir"
failed=()
for gate in "${gates[@]}"; do
  bin="$build_dir/$gate"
  log="$log_dir/$gate.log"
  if [ ! -x "$bin" ]; then
    echo "FAIL  $gate (not built: $bin)"
    failed+=("$gate")
    continue
  fi
  start=$(date +%s)
  if "$bin" >"$log" 2>&1; then
    echo "PASS  $gate ($(($(date +%s) - start)) s)"
  else
    echo "FAIL  $gate (exit $?, $(($(date +%s) - start)) s; log: $log)"
    tail -n 15 "$log" | sed 's/^/      /'
    failed+=("$gate")
  fi
done

echo
if [ ${#failed[@]} -eq 0 ]; then
  echo "all ${#gates[@]} gates passed"
  exit 0
fi
echo "${#failed[@]} of ${#gates[@]} gates failed: ${failed[*]}"
exit 1
