#!/usr/bin/env bash
# Build everything, regenerate every paper table/figure plus the
# ablations into results/, then run the full test suite. Each harness
# writes its table to results/<name>.txt and a machine-readable run
# report to results/<name>.json (see docs/OBSERVABILITY.md); the
# fafnir_sim event-replay goldens go to results/fafnir_sim_event*. The
# tests run last because the bench_<name> and tool_fafnir_sim_golden_*
# ctests compare those outputs with results/: a change that means to
# move one gets it regenerated here, and the tests then check that the
# run prints it again.
#
# Usage: scripts/run_all.sh [-j N] [build-dir]
#   -j N   worker threads for sweep-parallel harnesses (default: nproc).
#          Sweep output is bit-identical at any N; only wall time moves.
set -euo pipefail

jobs="$(nproc)"
while getopts "j:" opt; do
    case "$opt" in
      j) jobs="$OPTARG" ;;
      *) echo "usage: $0 [-j N] [build-dir]" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
results_dir="$repo_root/results"

# Harnesses whose sweep points run under parallelFor (--jobs flag).
parallel_benches=" ablation_tree_scale ablation_query_size ablation_batching "

# Respect an existing cache's generator; prefer Ninja for fresh trees.
if [ ! -f "$build_dir/CMakeCache.txt" ] && command -v ninja >/dev/null; then
    cmake -B "$build_dir" -G Ninja -S "$repo_root"
else
    cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" -j "$(nproc)"

mkdir -p "$results_dir"
failed=()
timing_names=()
timing_secs=()
for bench in "$build_dir"/bench/*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    start="$(date +%s.%N)"
    case "$name" in
      micro_primitives)
        # google-benchmark output: keep it, but don't let jitter into the
        # table outputs.
        if ! "$bench" --benchmark_min_time=0.01 \
            > "$results_dir/$name.txt" 2>&1; then
            failed+=("$name")
        fi
        ;;
      micro_hotpath)
        # Hot-path throughput report, with speedups against the recorded
        # baseline so performance PRs leave a trajectory.
        echo "== $name =="
        if ! "$bench" --report="$results_dir/BENCH_hotpath.json" \
            --baseline="$repo_root/results/BENCH_hotpath_baseline.json" \
            | tee "$results_dir/$name.txt"; then
            failed+=("$name")
        fi
        echo
        ;;
      *)
        echo "== $name =="
        extra=()
        case "$parallel_benches" in
          *" $name "*) extra+=("--jobs=$jobs") ;;
        esac
        if ! "$bench" --report="$results_dir/$name.json" "${extra[@]}" \
            | tee "$results_dir/$name.txt"; then
            failed+=("$name")
        fi
        echo
        ;;
    esac
    timing_names+=("$name")
    timing_secs+=("$(echo "$start" "$(date +%s.%N)" | awk '{printf "%.2f", $2 - $1}')")
done

# The fafnir_sim goldens the tool_fafnir_sim_golden_* ctests pin, with
# the command lines tools/CMakeLists.txt gives them.
echo "== fafnir_sim goldens =="
sim="$build_dir/tools/fafnir_sim"
golden_event=(--mode=lookup --engine=event --batches=4)
if ! "$sim" "${golden_event[@]}" \
        --stats-json="$results_dir/fafnir_sim_event.stats.json" \
        --attrib="$results_dir/fafnir_sim_event.attrib.json" \
        > "$results_dir/fafnir_sim_event.txt"; then
    failed+=("fafnir_sim_event")
fi
if ! "$sim" "${golden_event[@]}" \
        --faults=pe_backpressure:0.05,dram_latency:0.05 --fault-seed=7 \
        --attrib="$results_dir/fafnir_sim_event_faults.attrib.json" \
        > "$results_dir/fafnir_sim_event_faults.txt"; then
    failed+=("fafnir_sim_event_faults")
fi
if ! "$sim" --mode=lookup --engine=event --batches=8 --batch=32 \
        --query-size=24 --skew=0 \
        --stats-json="$results_dir/fafnir_sim_event_uniform.stats.json" \
        --attrib="$results_dir/fafnir_sim_event_uniform.attrib.json" \
        > "$results_dir/fafnir_sim_event_uniform.txt"; then
    failed+=("fafnir_sim_event_uniform")
fi
echo

echo "== harness wall time (jobs=$jobs) =="
printf '%-28s %10s\n' "harness" "seconds"
total=0
for i in "${!timing_names[@]}"; do
    printf '%-28s %10s\n' "${timing_names[$i]}" "${timing_secs[$i]}"
    total="$(echo "$total" "${timing_secs[$i]}" | awk '{printf "%.2f", $1 + $2}')"
done
printf '%-28s %10s\n' "total" "$total"

if ! ctest --test-dir "$build_dir" --output-on-failure; then
    failed+=("ctest")
fi

if [ "${#failed[@]}" -gt 0 ]; then
    echo "FAILED: ${failed[*]}" >&2
    exit 1
fi
echo "results written to $results_dir"
