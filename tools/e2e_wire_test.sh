#!/usr/bin/env bash
# End-to-end wire-protocol test, the way CI runs it: for every engine,
# start vchain_spd as a real daemon against a persisted store, query it
# with sp_query from a *separate process*, and require that
#   1. client-side verification accepts (trust ends at the socket), and
#   2. the VO bytes received over the wire hash-match the in-process
#      Service::Query answer (vchain_spd prints demo_query_hash at startup;
#      sp_query fails unless its received bytes hash to --expect-hash).
# Each engine also exercises the restart path: the daemon is killed,
# reopened from the same store directory, and must serve identical bytes.
#
# Observability ride-along: GET /metrics is scraped mid-run — once before
# and once after the client's queries — and both expositions are linted by
# tools/check_metrics.py (structure, naming scheme, histogram math, counter
# monotonicity across the two scrapes, and span-vs-stage reconciliation).
# The daemon runs with --debug-endpoints --canary 1, so the run also curls
# GET /debug/traces and /debug/events mid-run (both must parse as strict
# JSON and show live content) and requires the canary to have verified at
# least one query with zero failures by the second scrape.
#
# Usage: tools/e2e_wire_test.sh <build-dir> [work-dir]

set -euo pipefail

BUILD_DIR=${1:?usage: e2e_wire_test.sh <build-dir> [work-dir]}
WORK_DIR=${2:-$(mktemp -d)}
SPD="$BUILD_DIR/vchain_spd"
CLIENT="$BUILD_DIR/sp_query"
DEMO_BLOCKS=16

SPD_PID=""
cleanup() {
  if [[ -n "$SPD_PID" ]] && kill -0 "$SPD_PID" 2>/dev/null; then
    kill "$SPD_PID" 2>/dev/null || true
    wait "$SPD_PID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

start_spd() {  # engine store log [extra-flags...] -> sets SPD_PID, PORT, HASH
  local engine=$1 store=$2 log=$3
  shift 3
  "$SPD" --engine "$engine" --store "$store" --demo "$DEMO_BLOCKS" \
         --port 0 --threads 2 --debug-endpoints --canary 1 "$@" > "$log" 2>&1 &
  SPD_PID=$!
  for _ in $(seq 1 100); do
    grep -q "serving" "$log" 2>/dev/null && break
    if ! kill -0 "$SPD_PID" 2>/dev/null; then
      echo "vchain_spd exited early:"; cat "$log"; exit 1
    fi
    sleep 0.1
  done
  grep -q "serving" "$log" || { echo "vchain_spd never came up:"; cat "$log"; exit 1; }
  PORT=$(grep -oE 'on 127\.0\.0\.1:[0-9]+' "$log" | grep -oE '[0-9]+$')
  HASH=$(grep -oE 'demo_query_hash=[0-9a-f]+' "$log" | cut -d= -f2)
  [[ -n "$PORT" && -n "$HASH" ]] || { echo "missing port/hash:"; cat "$log"; exit 1; }
}

stop_spd() {
  kill "$SPD_PID"
  wait "$SPD_PID" 2>/dev/null || true
  SPD_PID=""
}

scrape_metrics() {  # port out-file
  local port=$1 out=$2
  if command -v curl >/dev/null 2>&1; then
    curl -fsS "http://127.0.0.1:$port/metrics" -o "$out"
  else
    python3 -c "import sys, urllib.request; \
sys.stdout.write(urllib.request.urlopen('http://127.0.0.1:$port/metrics', timeout=10).read().decode())" > "$out"
  fi
}

fetch_url() {  # url out-file
  local url=$1 out=$2
  if command -v curl >/dev/null 2>&1; then
    curl -fsS "$url" -o "$out"
  else
    python3 -c "import sys, urllib.request; \
sys.stdout.write(urllib.request.urlopen('$url', timeout=10).read().decode())" > "$out"
  fi
}

check_debug_plane() {  # port work-prefix
  local port=$1 prefix=$2
  fetch_url "http://127.0.0.1:$port/debug/traces" "$prefix-traces.json"
  fetch_url "http://127.0.0.1:$port/debug/events" "$prefix-events.json"
  python3 - "$prefix-traces.json" "$prefix-events.json" <<'PYEOF'
import json, sys
traces = json.load(open(sys.argv[1]))
assert traces["offered"] >= 1, f"no traces offered: {traces}"
assert isinstance(traces["traces"], list) and traces["traces"],     "trace ring is empty mid-run"
assert traces["traces"][0]["spans"], "retained trace has no spans"
events = json.load(open(sys.argv[2]))
assert events["next_seq"] >= 1, "flight recorder recorded nothing"
assert isinstance(events["events"], list) and events["events"],     "flight recorder ring is empty"
print(f"debug plane OK: {traces['occupancy']} trace(s), "
      f"{len(events['events'])} event(s)")
PYEOF
}

check_canary() {  # port (polls: the canary audits asynchronously)
  python3 - "$1" <<'PYEOF'
import sys, time, urllib.request
port = sys.argv[1]
verified = failed = None
for _ in range(100):
    text = urllib.request.urlopen(
        "http://127.0.0.1:%s/metrics" % port, timeout=10).read().decode()
    verified = failed = None
    for line in text.splitlines():
        if line.startswith("vchain_canary_verified_total"):
            verified = float(line.split()[-1])
        elif line.startswith("vchain_canary_failed_total"):
            failed = float(line.split()[-1])
    assert verified is not None and failed is not None, (
        "canary families missing from /metrics")
    if verified >= 1:
        break
    time.sleep(0.1)
assert verified >= 1, "canary never verified a query"
assert failed == 0, "canary failures on a clean chain: %s" % failed
print("canary OK: verified=%d failed=0" % verified)
PYEOF
}

for engine in mock-acc1 mock-acc2 acc1 acc2; do
  store="$WORK_DIR/spd-$engine"
  rm -rf "$store"

  echo "=== $engine: fresh store, separate-process query + verify ==="
  start_spd "$engine" "$store" "$WORK_DIR/spd-$engine.log"
  scrape_metrics "$PORT" "$WORK_DIR/metrics-$engine-1.txt"
  "$CLIENT" --engine "$engine" --port "$PORT" --demo-query \
            --expect-hash "$HASH" --timing | tee "$WORK_DIR/timing-$engine.txt"
  # The X-Vchain-Trace header keys, pinned across a process boundary.
  for key in '"match_walk_ns":' '"prove_ns":'; do
    grep -qF "$key" "$WORK_DIR/timing-$engine.txt" || {
      echo "sp_query --timing output lacks $key"; exit 1; }
  done
  scrape_metrics "$PORT" "$WORK_DIR/metrics-$engine-2.txt"
  # The service-state gauges /metrics carries (the server's one stats
  # surface): the demo chain's height, and not degraded.
  grep -qx "vchain_service_blocks $DEMO_BLOCKS" \
          "$WORK_DIR/metrics-$engine-2.txt" || {
    echo "vchain_service_blocks != $DEMO_BLOCKS in /metrics"; exit 1; }
  grep -qx "vchain_service_degraded 0" "$WORK_DIR/metrics-$engine-2.txt" || {
    echo "vchain_service_degraded != 0 in /metrics"; exit 1; }
  echo "=== $engine: debug plane + canary mid-run ==="
  check_debug_plane "$PORT" "$WORK_DIR/debug-$engine"
  check_canary "$PORT"
  echo "=== $engine: /metrics exposition lint (two scrapes) ==="
  python3 "$(dirname "$0")/check_metrics.py" \
          "$WORK_DIR/metrics-$engine-1.txt" "$WORK_DIR/metrics-$engine-2.txt"
  grep -q "vchain_store_appends_total" "$WORK_DIR/metrics-$engine-2.txt" || {
    echo "store tier missing from /metrics"; exit 1; }
  grep -q "vchain_service_query_stage_seconds_bucket" \
          "$WORK_DIR/metrics-$engine-2.txt" || {
    echo "service stage histograms missing from /metrics"; exit 1; }
  first_hash=$HASH
  stop_spd

  echo "=== $engine: restart from the persisted store ==="
  start_spd "$engine" "$store" "$WORK_DIR/spd-$engine-reopen.log"
  if [[ "$HASH" != "$first_hash" ]]; then
    echo "reopened store answered with different bytes: $HASH vs $first_hash"
    exit 1
  fi
  "$CLIENT" --engine "$engine" --port "$PORT" --demo-query \
            --expect-hash "$HASH"
  stop_spd

  echo "=== $engine: live subscription (subscribe -> mine -> notify -> verify) ==="
  # In-memory chain that keeps mining while serving: the client registers
  # the demo query as a standing subscription over the wire, then every
  # notification must decode from its canonical bytes and verify against
  # the client's own header chain before it counts. No --expect-hash here:
  # the chain grows underneath the query, so the startup hash is stale by
  # design.
  start_spd "$engine" "" "$WORK_DIR/spd-$engine-sub.log" --mine-every 150
  "$CLIENT" --engine "$engine" --port "$PORT" --demo-query \
            --subscribe 2 --subscribe-timeout-s 30
  stop_spd
done

echo "e2e wire test: all engines OK"
