#!/usr/bin/env bash
# The whole benchmark in one command: builds the benchmark crate, runs
# one untraced and one traced process per workload, prints one
# `name unit value q1 q3 n mad` line per metric per workload and merges the
# result objects into benchmark/out/results.json.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--quick]
#   benchmark/run.sh --aa [--seed N] [--workload W] [--seconds S]
#
# --seconds defaults to run_seconds of BENCHMARK.json (15).
# --quick  smoke form: 4 s feed, one repetition, oracles only (<30 s).
# --aa     A/A self-check: the untraced suite twice on the same build;
#          exits non-zero if any end-to-end metric's two medians differ
#          by more than its bound in BENCHMARK.json, or any metric's
#          spread (2*MAD/median) over a run's repetitions exceeds that
#          bound.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=()
workloads="ss_inline hh_inline ss_sharded ss_durable mq_shared"
quick=()
aa=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=(--seconds "$2"); shift 2 ;;
        --workload) workloads=$2; shift 2 ;;
        --quick) quick=(--quick); shift ;;
        --aa) aa=1; shift ;;
        *) echo "unknown argument $1" >&2; sed -n '2,16p' "$0" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/sso-benchmark"
out=benchmark/out
status=0

# run_one DIR WORKLOAD TRACE: one process; its output lands in
# DIR/<workload>.trace<mode>.txt and its metric lines on stdout.
run_one() {
    mkdir -p "$1"
    "$bin" --workload "$2" --seed "$seed" --trace "$3" "${seconds[@]}" "${quick[@]}" \
        --out "$out" >"$1/$2.trace$3.txt" || status=1
    grep -v '^{' "$1/$2.trace$3.txt" || true
}

if [[ $aa -eq 1 ]]; then
    rm -rf "$out/aa1" "$out/aa2"
    # The two suites are interleaved per workload, so that a slow drift
    # of the host falls on both runs of a workload alike.
    for w in $workloads; do
        run_one "$out/aa1" "$w" 0
        run_one "$out/aa2" "$w" 0
    done
    "$bin" --aa "$out/aa1" "$out/aa2" || status=1
else
    for w in $workloads; do
        run_one "$out" "$w" 0
        run_one "$out" "$w" 1
    done
    {
        printf '{"seed": %s, "runs": {' "$seed"
        sep=""
        for w in $workloads; do
            printf '%s\n"%s": {"end_to_end": %s, "per_layer": %s}' "$sep" "$w" \
                "$(tail -n 1 "$out/$w.trace0.txt")" "$(tail -n 1 "$out/$w.trace1.txt")"
            sep=","
        done
        printf '\n}}\n'
    } >"$out/results.json"
    echo "# results merged into $out/results.json"
fi
exit $status
