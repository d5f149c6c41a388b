#!/usr/bin/env bash
# The sweep contract, for one experiment:
#
#   .github/smoke.sh EXPERIMENT [ARGS...]
#
# runs `reproduce EXPERIMENT ARGS...` seven ways into $SMOKE_DIR/EXPERIMENT
# (default /tmp/smoke/EXPERIMENT, emptied first):
#
#   ref/         --threads 1 on a fresh cache, ref-cache/ (the reference)
#   threads/     --threads 4 --no-cache
#   merged/      --shard 0/2 and --shard 1/2 into shared-cache/, then --merge
#   resumed/     --resume against ref-cache/
#   merged-3t/   --merge --threads 3 against shared-cache/
#   resumed-3t/  --resume --threads 3 against ref-cache/
#
# Three threads claim cached cells unevenly: their last claims end at
# different cells. Every `*_sweep.json` and `*.tsv` of ref/ must `cmp`
# equal to the same file of every other run, and every merge and resume
# must print the zero-miss line (every cell a hit: nothing executed). A caller's own
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
run "$@" --merge --threads 3 --out "$dir/merged-3t" --cache-dir "$dir/shared-cache" | tee "$dir/merged-3t.log"
run "$@" --resume --threads 3 --out "$dir/resumed-3t" --cache-dir "$dir/ref-cache" | tee "$dir/resumed-3t.log"

compared=0
for f in "$dir"/ref/*_sweep.json "$dir"/ref/*.tsv; do
  test -e "$f" || continue
  for other in threads merged resumed merged-3t resumed-3t; do
    cmp "$f" "$dir/$other/${f##*/}"
  done
  compared=$((compared + 1))
done
test "$compared" -gt 0 || { echo "$exp wrote no *_sweep.json or *.tsv to compare"; exit 1; }
zero="^cell cache \[$exp\]: [0-9]+ hits, 0 misses, 0 stores, 0 quarantined \| cells: 0 failed, 0 timed out \| layout: 0 workers, 0 batches$"
for log in merged resumed merged-3t resumed-3t; do
  grep -qE "$zero" "$dir/$log.log" || { echo "$exp: the $log run executed cells"; exit 1; }
done
echo "$exp: $compared artifacts identical over threads 1/4, 2 shards + merge and resume (auto and 3 threads)"
