#!/bin/sh
# Drives `spatial_join_cli serve` over the built-in demo's WKT files at
# --shards=1 and --shards=3: both must answer join, explain and per-shard
# stats, and report the same join result count.
#
# Usage: cli_serve_test.sh path/to/spatial_join_cli
set -u
cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
  echo "FAIL: $*" >&2
  cat "$work"/*.out >&2 2>/dev/null
  exit 1
}

# With no arguments the CLI writes its demo files and joins them.
"$cli" > "$work/demo.out" || fail "demo run"
cp /tmp/pbsm_cli_demo/parks.wkt /tmp/pbsm_cli_demo/lakes.wkt "$work/" ||
  fail "demo files missing"

# Serves the demo at $1 shards and prints the join's result count.
serve() {
  out="$work/serve$1.out"
  printf 'join intersects auto\nexplain contains pbsm\nstats\nquit\n' |
    "$cli" serve "$work/parks.wkt" "$work/lakes.wkt" --shards="$1" \
      > "$out" || fail "serve --shards=$1 exited non-zero"
  grep -q '^OK [0-9][0-9]* results .*shards=' "$out" ||
    fail "--shards=$1: no OK line"
  grep -q '^EXPLAIN method=pbsm (forced)' "$out" ||
    fail "--shards=$1: no EXPLAIN line"
  [ "$(grep -c 'pbsm filter' "$out")" -ge 1 ] ||
    fail "--shards=$1: explain shows no pbsm operator tree"
  [ "$(grep -c '^shard [0-9]*: cache' "$out")" -eq "$1" ] ||
    fail "--shards=$1: expected one stats line per shard"
  grep '^OK ' "$out" | awk '{print $2}'
}

one=$(serve 1) || exit 1
three=$(serve 3) || exit 1
[ "$one" = "$three" ] || fail "result count $one at 1 shard, $three at 3"
# Each of the two parks intersects exactly one lake.
[ "$one" = "2" ] || fail "expected 2 results, got $one"
echo "cli serve OK: $one results at 1 and 3 shards"
