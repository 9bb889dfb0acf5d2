#!/usr/bin/env bash
# Hostile-network smoke: three chaos cells against a leased rtas-svc.
#
# Run from anywhere after building the release binaries:
#
#   cargo build --release -p rtas-svc -p rtas-load -p rtas-bench --bins
#   scripts/chaos-smoke.sh
#   target/release/bench-diff baselines bench-out --no-wall
#
# The server leases admissions (a vanished holder's slot is reclaimed
# after 200 ms) and sets per-connection read deadlines (a stalled client
# cannot pin a handler). The three fault cells share one chaos seed.
# Each run enforces the safety bar fail-fast: a second winner for any
# server epoch panics rtas-load and fails the script. The delay-only
# cell is fully deterministic (closed loop, fixed seeds), so it writes
# bench-out/BENCH_svc_chaos.json to gate structurally against the
# committed baseline; the lossier cells assert survival, not a report.
# Server stats are printed and the server is stopped on every exit.
set -euo pipefail

cd "$(dirname "$0")/.."
bin=target/release
addr=127.0.0.1:7046

"$bin/rtas-svc" serve --addr "$addr" \
  --backend combined --shards 8 --capacity 8 \
  --lease-ms 200 --read-timeout-ms 2000 &
svc=$!
trap '"$bin/rtas-svc" stats --addr "$addr" || true; kill "$svc" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  (exec 3<>/dev/tcp/127.0.0.1/7046) 2>/dev/null && break
  sleep 0.2
done

# cell <preset> [extra rtas-load flags...]
cell() {
  local preset=$1
  shift
  "$bin/rtas-load" --backend remote --addr "$addr" \
    --mode closed --ops 20000 --threads 4 --shards 2 --seed 1 \
    --chaos "$preset" --chaos-seed 7 "$@"
}

mkdir -p bench-out
echo "chaos cell 1/3: delay-only (writes bench-out/BENCH_svc_chaos.json)"
RTAS_BENCH_DIR=bench-out cell delay-only
echo "chaos cell 2/3: drop-heavy"
cell drop-heavy --no-json
echo "chaos cell 3/3: byzantine-reset"
cell byzantine-reset --no-json
