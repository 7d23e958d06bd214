#!/usr/bin/env bash
# Dispatch a sharded aql_bench run into a shared cell cache, then render
# canonical BENCH_<name>.json files from that cache with an ordinary
# unsharded run (every cell a cache hit).
#
#   scripts/run_sharded.sh [options] [-- extra aql_bench args...]
#
# Options:
#   -b BIN       aql_bench binary (default: ./build/aql_bench)
#   -n N         shard count (default: 4)
#   -o DIR       output directory (default: ./sharded-out); the shards'
#                cell cache is DIR/cells, the rendered files DIR/merged
#   -s SWEEPS    comma-separated sweep names (default: every sweep, --all)
#   -H FILE      optional ssh host list, one host per line: shard k runs on
#                host ((k-1) % #hosts) via ssh. Hosts must see BIN at the
#                same path (shared checkout or identical deploy); each
#                host's cache entries are copied back into DIR/cells with
#                scp. Without -H every shard runs as a local background
#                process writing DIR/cells directly.
#   -q           quick mode (CI-smoke simulated durations)
#   -t           self-test: after merging, run the same sweeps unsharded
#                and uncached with --stable-json and cmp every merged
#                BENCH_*.json byte-for-byte against that output
#
# Examples:
#   scripts/run_sharded.sh -q -t                 # local 4-way self-test
#   scripts/run_sharded.sh -n 8 -s fig5_validation -H hosts.txt
set -euo pipefail

BIN=./build/aql_bench
SHARDS=4
OUT=./sharded-out
SWEEPS=""
HOSTFILE=""
QUICK=""
SELF_TEST=0

while getopts "b:n:o:s:H:qth" opt; do
  case "$opt" in
    b) BIN=$OPTARG ;;
    n) SHARDS=$OPTARG ;;
    o) OUT=$OPTARG ;;
    s) SWEEPS=$OPTARG ;;
    H) HOSTFILE=$OPTARG ;;
    q) QUICK="--quick" ;;
    t) SELF_TEST=1 ;;
    h) sed -n '2,27p' "$0"; exit 0 ;;
    *) echo "run_sharded.sh: bad option (try -h)" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
EXTRA=("$@")

if [ ! -x "$BIN" ]; then
  echo "run_sharded.sh: $BIN is not executable (build aql_bench first)" >&2
  exit 2
fi

SELECT=(--all)
if [ -n "$SWEEPS" ]; then
  SELECT=()
  IFS=',' read -ra names <<< "$SWEEPS"
  for name in "${names[@]}"; do
    SELECT+=(--run "$name")
  done
fi

HOSTS=()
if [ -n "$HOSTFILE" ]; then
  while IFS= read -r host; do
    [ -n "$host" ] && HOSTS+=("$host")
  done < "$HOSTFILE"
  if [ ${#HOSTS[@]} -eq 0 ]; then
    echo "run_sharded.sh: $HOSTFILE lists no hosts" >&2
    exit 2
  fi
fi

mkdir -p "$OUT"
rm -rf "$OUT"/cells "$OUT"/merged
mkdir -p "$OUT/cells/cells"

# --- dispatch ---------------------------------------------------------------
pids=()
for ((k = 1; k <= SHARDS; ++k)); do
  if [ ${#HOSTS[@]} -gt 0 ]; then
    host=${HOSTS[$(((k - 1) % ${#HOSTS[@]}))]}
    remote_dir="/tmp/aql-shard-$$-$k"
    (
      ssh "$host" "mkdir -p $remote_dir && $BIN ${SELECT[*]} $QUICK \
        --shard $k/$SHARDS --cache-dir $remote_dir ${EXTRA[*]:-}" &&
      scp -q -r "$host:$remote_dir/cells" "$OUT/cells/" &&
      ssh "$host" "rm -rf $remote_dir"
    ) > "$OUT/shard-$k.log" 2>&1 &
  else
    "$BIN" "${SELECT[@]}" $QUICK --shard "$k/$SHARDS" --cache-dir "$OUT/cells" \
      ${EXTRA[@]+"${EXTRA[@]}"} > "$OUT/shard-$k.log" 2>&1 &
  fi
  pids+=($!)
done

fail=0
for ((k = 1; k <= SHARDS; ++k)); do
  if ! wait "${pids[$((k - 1))]}"; then
    echo "run_sharded.sh: shard $k/$SHARDS failed — $OUT/shard-$k.log:" >&2
    tail -5 "$OUT/shard-$k.log" >&2 || true
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1

# --- merge ------------------------------------------------------------------
# An ordinary unsharded run over the shards' cache: every cell is a hit.
mkdir -p "$OUT/merged"
"$BIN" "${SELECT[@]}" $QUICK --cache-dir "$OUT/cells" --stable-json \
  --out "$OUT/merged" ${EXTRA[@]+"${EXTRA[@]}"} > "$OUT/merge.log" 2>&1 || {
  echo "run_sharded.sh: merge failed — $OUT/merge.log:" >&2
  tail -10 "$OUT/merge.log" >&2
  exit 1
}
echo "merged $(ls "$OUT"/merged/BENCH_*.json | wc -l) sweeps into $OUT/merged"

# --- self-test --------------------------------------------------------------
if [ "$SELF_TEST" -eq 1 ]; then
  mkdir -p "$OUT/golden"
  "$BIN" "${SELECT[@]}" $QUICK --stable-json --out "$OUT/golden" \
    ${EXTRA[@]+"${EXTRA[@]}"} > "$OUT/golden.log" 2>&1
  status=0
  for golden in "$OUT"/golden/BENCH_*.json; do
    merged="$OUT/merged/$(basename "$golden")"
    if cmp -s "$golden" "$merged"; then
      echo "self-test OK: $(basename "$golden") byte-identical"
    else
      echo "self-test FAIL: $(basename "$golden") differs from merged output" >&2
      status=1
    fi
  done
  exit "$status"
fi
