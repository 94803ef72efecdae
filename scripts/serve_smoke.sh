#!/usr/bin/env bash
# Serve smoke test: boot parcfld on a random port, exercise the full client
# path (single query, batch query, snapshot save), restart warm from the
# snapshot, and assert the warm daemon returns identical points-to results
# and exposes the parcfl_server_* metric series.
#
# On any failure while a daemon is still up, the trap captures a diagnostic
# bundle into $WORK/failure-bundle.tar.gz for the CI artifact upload.
#
# Usage: scripts/serve_smoke.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
BENCH="${SMOKE_BENCH:-_200_check}"
SCALE="${SMOKE_SCALE:-0.002}"
NVARS="${SMOKE_NVARS:-8}"
cd "$(dirname "$0")/.."

go build -o "$WORK/parcfld" ./cmd/parcfld
go build -o "$WORK/parcflq" ./cmd/parcflq

DPID=""
cleanup() {
  status=$?
  # Black-box recovery: a failing smoke with a live daemon captures its
  # diagnostic bundle so the CI artifact holds the evidence.
  if [ "$status" -ne 0 ] && [ -n "$DPID" ] && kill -0 "$DPID" 2>/dev/null && [ -n "${ADDR:-}" ]; then
    echo "smoke failed (exit $status): capturing diagnostic bundle from $ADDR"
    curl -sf "http://$ADDR/debug/traces?limit=0" -o "$WORK/failure-traces.json" 2>/dev/null || true
    curl -sf "http://$ADDR/debug/bundle?trigger=1&reason=smoke-failure" >/dev/null 2>&1 || true
    FID=$(curl -sf "http://$ADDR/debug/bundle" 2>/dev/null \
      | python3 -c 'import json,sys; bs=json.load(sys.stdin)["bundles"]; print(bs[-1]["id"] if bs else "")' 2>/dev/null || true)
    if [ -n "$FID" ]; then
      curl -sf "http://$ADDR/debug/bundle/$FID" -o "$WORK/failure-bundle.tar.gz" 2>/dev/null || true
      echo "failure bundle saved to $WORK/failure-bundle.tar.gz"
    fi
  fi
  if [ -n "$DPID" ] && kill -0 "$DPID" 2>/dev/null; then
    kill -TERM "$DPID" 2>/dev/null || true
    wait "$DPID" 2>/dev/null || true
  fi
}
trap cleanup EXIT

start_daemon() { # $1 = log file
  rm -f "$WORK/addr.txt"
  "$WORK/parcfld" -bench "$BENCH" -scale "$SCALE" \
    -addr localhost:0 -addr-file "$WORK/addr.txt" \
    -bundle-dir "$WORK/bundles" \
    -snapshot "$WORK/warm.pag" >"$WORK/$1" 2>&1 &
  DPID=$!
  for _ in $(seq 100); do
    [ -s "$WORK/addr.txt" ] && break
    sleep 0.1
  done
  [ -s "$WORK/addr.txt" ] || { echo "FAIL: daemon never bound"; cat "$WORK/$1"; exit 1; }
  ADDR=$(cat "$WORK/addr.txt")
}

stop_daemon() {
  kill -TERM "$DPID"
  wait "$DPID"
  DPID=""
}

# Results comparison strips the per-query cost field: a warm start answers
# from the cache in fewer steps — the point — but the points-to sets,
# context counts and abort flags must be byte-identical.
normalize() { # $1 = in, $2 = out
  python3 - "$1" "$2" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
# Run-specific telemetry differs cold vs warm; only the answers must match.
r.pop("request_id", None)
r.pop("trace_id", None)
for res in r["results"]:
    res.pop("steps", None)
    res.pop("timings", None)
json.dump(r, open(sys.argv[2], "w"), indent=1, sort_keys=True)
EOF
}

echo "== cold start =="
start_daemon cold.log
grep -q "cold start" "$WORK/cold.log"

mapfile -t VARS < <("$WORK/parcflq" -addr "$ADDR" -list "$NVARS" | head -n "$NVARS")
[ "${#VARS[@]}" -ge 2 ] || { echo "FAIL: need >=2 query vars"; exit 1; }

# Single query, then the whole set as one batch.
"$WORK/parcflq" -addr "$ADDR" "${VARS[0]}"
"$WORK/parcflq" -addr "$ADDR" -json "${VARS[@]}" >"$WORK/cold.json"
"$WORK/parcflq" -addr "$ADDR" -stats | sed -n 1,3p

# Explicit snapshot trigger via the API (the shutdown save then overwrites
# it with strictly warmer state).
"$WORK/parcflq" -addr "$ADDR" -save
[ -s "$WORK/warm.pag" ] || { echo "FAIL: /v1/snapshot wrote nothing"; exit 1; }

# /metrics must expose the server series.
curl -sf "http://$ADDR/metrics" >"$WORK/metrics-cold.txt"
for series in parcfl_server_requests_total parcfl_server_batches_total \
  parcfl_server_queue_depth parcfl_server_batch_size parcfl_server_latency_ns; do
  grep -q "^$series" "$WORK/metrics-cold.txt" \
    || { echo "FAIL: /metrics missing $series"; exit 1; }
done
stop_daemon
grep -q "snapshot saved" "$WORK/cold.log"

echo "== warm restart =="
start_daemon warm.log
grep -q "warm start" "$WORK/warm.log" || { echo "FAIL: daemon did not warm-start"; cat "$WORK/warm.log"; exit 1; }

"$WORK/parcflq" -addr "$ADDR" -json "${VARS[@]}" >"$WORK/warm.json"
normalize "$WORK/cold.json" "$WORK/cold.norm.json"
normalize "$WORK/warm.json" "$WORK/warm.norm.json"
if ! cmp -s "$WORK/cold.norm.json" "$WORK/warm.norm.json"; then
  echo "FAIL: warm results differ from cold"
  diff "$WORK/cold.norm.json" "$WORK/warm.norm.json" || true
  exit 1
fi

# The warm run must actually reuse state: cache hits or steps saved > 0.
"$WORK/parcflq" -addr "$ADDR" -stats -json >"$WORK/warm-stats.json"
python3 - "$WORK/warm-stats.json" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
reused = st["cache"]["Hits"] + st["steps_saved"]
assert reused > 0, f"warm daemon reused nothing: {st}"
print(f"warm reuse: {st['cache']['Hits']} cache hits, {st['steps_saved']} steps saved")
EOF
stop_daemon

echo "serve smoke OK (results identical cold vs warm, $((${#VARS[@]})) vars, workdir $WORK)"
