#!/usr/bin/env bash
# The benchmark's one command. Builds the repository's release binaries
# (`reproduce`, `sprout-control`) and the benchmark package, offline, then
# runs the harness:
#
#   benchmark/run.sh                      every workload, untraced then traced;
#                                         prints every metric, checks outputs,
#                                         writes benchmark/out/report.json and
#                                         benchmark/out/trace.jsonl
#   benchmark/run.sh --workload NAME      only that workload
#   benchmark/run.sh --seed N             the request seed (default 20130401)
#   benchmark/run.sh --reps K             K timed repetitions instead of a time budget
#   benchmark/run.sh --seconds S          S seconds of timed repetitions per pass
#   benchmark/run.sh --smoke              1 repetition, durations / 6, checks only
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one pass; the last line of standard
#                                         output is its result as one JSON object
#   benchmark/run.sh compare A.json B.json
#                                         two reports, row by row, against the
#                                         bounds in BENCHMARK.json
#
# Works under benchmark/out/tmp only (never ./.sprout-cache or results/),
# and kills the daemon and any worker it started on every exit path.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# One target directory for both builds when the caller names one (a
# relative name is relative to where the caller stands).
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    [[ "$CARGO_TARGET_DIR" = /* ]] || CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
    export CARGO_TARGET_DIR
    root_target=$CARGO_TARGET_DIR
    bench_target=$CARGO_TARGET_DIR
else
    root_target=$root/target
    bench_target=$here/target
fi

# Build output goes to standard error: standard output is the harness's.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p sprout-bench -p sprout-control --bins >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
harness=$bench_target/release/sprout-benchmark

if [[ "${1:-}" == compare ]]; then
    shift
    exec "$harness" compare --benchmark-json "$root/BENCHMARK.json" "$@"
fi

# /proc/<pid>/exe names physical paths.
root_bins=$(cd "$root_target/release" && pwd -P)
harness_exe=$(cd "$bench_target/release" && pwd -P)/sprout-benchmark
pids=$here/out/tmp/pids

# Kill every noted process whose executable is one of the arguments.
kill_noted() {
    local f pid exe binary
    for f in "$pids"/*; do
        [[ -e "$f" ]] || continue
        pid=$(basename "$f")
        exe=$(readlink "/proc/$pid/exe" 2>/dev/null || true)
        for binary in "$@"; do
            # A rebuilt binary reads "<path> (deleted)".
            if [[ "$exe" == "$binary" || "$exe" == "$binary (deleted)" ]]; then
                kill -9 "$pid" 2>/dev/null || true
            fi
        done
    done
}

harness_pid=
cleanup() {
    trap - EXIT INT TERM
    if [[ -n "$harness_pid" ]]; then
        kill "$harness_pid" 2>/dev/null || true
        wait "$harness_pid" 2>/dev/null || true
    fi
    # Whatever the harness noted and did not reap itself: first its own
    # per-workload child, then the daemon and the workers.
    kill_noted "$harness_exe"
    kill_noted "$root_bins/reproduce" "$root_bins/sprout-control"
    rm -rf "$here/out/tmp"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

"$harness" run --root "$root" --bin-dir "$root_target/release" "$@" &
harness_pid=$!
status=0
wait "$harness_pid" || status=$?
harness_pid=
exit "$status"
