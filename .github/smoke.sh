#!/usr/bin/env bash
# The sweep contract, for one experiment:
#
#   .github/smoke.sh EXPERIMENT [ARGS...]
#
# runs `reproduce EXPERIMENT ARGS...` five ways into $SMOKE_DIR/EXPERIMENT
# (default /tmp/smoke/EXPERIMENT, emptied first):
#
#   ref/      --threads 1 on a fresh cache, ref-cache/ (the reference)
#   threads/  --threads 4 --no-cache
#   merged/   --shard 0/2 and --shard 1/2 into shared-cache/, then --merge
#   resumed/  --resume against ref-cache/
#
# Every `*_sweep.json` and `*.tsv` of ref/ must `cmp` equal to the same
# file of every other run, and the merge and the resume must each print
# the zero-miss line (every cell a hit: nothing executed). A caller's own
# checks read the directories it leaves. $REPRODUCE names the binary
# (default ./target/release/reproduce).
set -euo pipefail
exp="$1"
shift
bin="${REPRODUCE:-./target/release/reproduce}"
dir="${SMOKE_DIR:-/tmp/smoke}/$exp"
rm -rf "$dir"
mkdir -p "$dir"
run() { "$bin" "$exp" "$@"; }

run "$@" --threads 1 --out "$dir/ref" --cache-dir "$dir/ref-cache"
run "$@" --threads 4 --no-cache --out "$dir/threads"
run "$@" --shard 0/2 --cache-dir "$dir/shared-cache"
run "$@" --shard 1/2 --cache-dir "$dir/shared-cache"
run "$@" --merge --out "$dir/merged" --cache-dir "$dir/shared-cache" | tee "$dir/merged.log"
run "$@" --resume --out "$dir/resumed" --cache-dir "$dir/ref-cache" | tee "$dir/resumed.log"

compared=0
for f in "$dir"/ref/*_sweep.json "$dir"/ref/*.tsv; do
  test -e "$f" || continue
  for other in threads merged resumed; do
    cmp "$f" "$dir/$other/${f##*/}"
  done
  compared=$((compared + 1))
done
test "$compared" -gt 0 || { echo "$exp wrote no *_sweep.json or *.tsv to compare"; exit 1; }
zero="^cell cache \[$exp\]: [0-9]+ hits, 0 misses, 0 stores, 0 quarantined \| cells: 0 failed, 0 timed out \| layout: 0 workers, 0 batches$"
for log in merged resumed; do
  grep -qE "$zero" "$dir/$log.log" || { echo "$exp: the $log run executed cells"; exit 1; }
done
echo "$exp: $compared artifacts identical over threads 1/4, 2 shards + merge and resume"
