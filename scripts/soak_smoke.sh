#!/usr/bin/env bash
# Soak smoke test: boot parcfld cold, snapshot it, restart warm with request
# tracing on, soak it with open-loop load (parcflload), and assert:
#   - the soak report is well-formed parcfl-soak/v1 with zero error-class
#     responses and a top-K slowest-request list;
#   - every top-K slow rid resolves LIVE against the daemon's tail-sampled
#     trace store via parcflctl traces get, to a Perfetto trace whose serve
#     span duration equals the total_ns the report recorded for it;
#   - the parcfl_trace_* metrics are live and the store respects its bound;
#   - the parcfl_slo_* gauges and /debug/slo burn-rate snapshot are live and
#     nonzero after the load;
#   - the shutdown trace contains the lifecycle lane of a chosen request
#     whose serve span matches the timings breakdown its reply carried;
#   - injected overload fires the diagnostic-bundle watchdog, and the bundle
#     validates end to end: manifest sha256s match, an OpenMetrics-negotiated
#     /metrics scrape carries exemplars naming a request whose "req <seq>"
#     lane exists in the bundled trace, while the default (v0.0.4) scrape
#     body stays exemplar-free and parseable by classic Prometheus.
#
# On any failure while a daemon is still up, the trap captures a diagnostic
# bundle into $WORK/failure-bundle.tar.gz for the CI artifact upload.
#
# Usage: scripts/soak_smoke.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
BENCH="${SMOKE_BENCH:-_200_check}"
SCALE="${SMOKE_SCALE:-0.002}"
RATE="${SOAK_RATE:-150}"
DUR="${SOAK_DURATION:-3s}"
cd "$(dirname "$0")/.."

go build -o "$WORK/parcfld" ./cmd/parcfld
go build -o "$WORK/parcflq" ./cmd/parcflq
go build -o "$WORK/parcflload" ./cmd/parcflload
go build -o "$WORK/parcflctl" ./cmd/parcflctl

DPID=""
cleanup() {
  status=$?
  # Black-box recovery: a failing smoke with a live daemon captures the
  # daemon's diagnostic bundle so the CI artifact holds the evidence.
  if [ "$status" -ne 0 ] && [ -n "$DPID" ] && kill -0 "$DPID" 2>/dev/null && [ -n "${ADDR:-}" ]; then
    echo "smoke failed (exit $status): capturing diagnostic bundle from $ADDR"
    # Every retained request trace rides along with the bundle: the tail
    # the store kept is exactly the evidence a failed smoke needs.
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

start_daemon() { # $1 = log file, rest = extra flags
  local log="$1"; shift
  rm -f "$WORK/addr.txt"
  # Every daemon runs with the bundle watchdog mounted (manual trigger
  # only, unless a phase passes rule flags) so the failure trap above can
  # always capture a bundle.
  "$WORK/parcfld" -bench "$BENCH" -scale "$SCALE" \
    -addr localhost:0 -addr-file "$WORK/addr.txt" \
    -bundle-dir "$WORK/bundles" \
    -snapshot "$WORK/warm.pag" "$@" >"$WORK/$log" 2>&1 &
  DPID=$!
  for _ in $(seq 100); do
    [ -s "$WORK/addr.txt" ] && break
    sleep 0.1
  done
  [ -s "$WORK/addr.txt" ] || { echo "FAIL: daemon never bound"; cat "$WORK/$log"; exit 1; }
  ADDR=$(cat "$WORK/addr.txt")
}

stop_daemon() {
  kill -TERM "$DPID"
  wait "$DPID"
  DPID=""
}

echo "== prime a snapshot =="
start_daemon cold.log
"$WORK/parcflq" -addr "$ADDR" -list 4 >/dev/null
"$WORK/parcflq" -addr "$ADDR" -save
stop_daemon
[ -s "$WORK/warm.pag" ] || { echo "FAIL: no snapshot to warm-start from"; exit 1; }

echo "== warm start with tracing, soak =="
# -trace-sample 1 retains every request (capacity 2048 > everything the
# soak sends), so resolving each top-K slow rid below is deterministic;
# policy-based tail retention (anomaly window, outcome) is exercised by the
# anomaly phase, and the sampling/slow policies by the unit tests.
start_daemon warm.log -trace-out "$WORK/trace.json" \
  -trace-store 2048 -trace-sample 1
grep -q "warm start" "$WORK/warm.log" || { echo "FAIL: daemon did not warm-start"; cat "$WORK/warm.log"; exit 1; }

"$WORK/parcflload" -addr "$ADDR" -rate "$RATE" -duration "$DUR" \
  -json "$WORK/soak.json" | tee "$WORK/load.txt"

python3 - "$WORK/soak.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "parcfl-soak/v1", r["schema"]
assert r["sent"] > 0 and r["succeeded"] > 0, f"soak sent nothing: {r}"
assert r["errored"] == 0, f"{r['errored']} error-class responses under soak"
assert 0 < r["p50_ns"] <= r["p99_ns"] <= r["p999_ns"], "latency percentiles out of order"
ph = r["phases"]
shares = ph["admit_share"] + ph["queue_share"] + ph["solve_share"] + ph["fanout_share"]
assert abs(shares - 1) < 0.01, f"phase shares sum to {shares}"
slow = r.get("slowest") or []
assert 0 < len(slow) <= 5, f"slowest list has {len(slow)} entries"
assert all(s["rid"].startswith("load-") for s in slow), slow
assert all(slow[i]["latency_ns"] >= slow[i+1]["latency_ns"] for i in range(len(slow)-1)), \
    "slowest list not ordered"
assert slow[0]["timings"]["seq"] > 0, slow[0]
print(f"soak OK: {r['succeeded']}/{r['sent']} ok at {r['qps']:.0f} qps, "
      f"p99 {r['p99_ns']/1e6:.2f}ms, solve share {ph['solve_share']:.0%}, "
      f"slowest {slow[0]['rid']} at {slow[0]['latency_ns']/1e6:.2f}ms")
EOF

# One chosen request whose lifecycle we follow into the trace.
CHOSEN_VAR=$("$WORK/parcflq" -addr "$ADDR" -list 1 | head -n1)
"$WORK/parcflq" -addr "$ADDR" -request-id smoke-chosen-1 -json \
  "$CHOSEN_VAR" >"$WORK/chosen.json"

# SLO layer: gauges live and nonzero after load, burn-rate snapshot parses.
curl -sf "http://$ADDR/metrics" >"$WORK/metrics.txt"
for series in parcfl_slo_requests_total parcfl_slo_availability \
  parcfl_slo_avail_burn_rate parcfl_slo_latency_attainment parcfl_slo_latency_burn_rate; do
  grep -q "^$series" "$WORK/metrics.txt" \
    || { echo "FAIL: /metrics missing $series"; exit 1; }
done
curl -sf "http://$ADDR/debug/slo" >"$WORK/slo.json"
python3 - "$WORK/metrics.txt" "$WORK/slo.json" <<'EOF'
import json, sys
ok = 0
for line in open(sys.argv[1]):
    if line.startswith('parcfl_slo_requests_total{class="success"}'):
        ok = int(float(line.split()[-1]))
assert ok > 0, "parcfl_slo_requests_total success count is zero after load"
slo = json.load(open(sys.argv[2]))
assert slo["schema"] == "parcfl-slo/v1", slo["schema"]
w = slo["windows"][0]
assert w["total"] > 0 and w["availability"] > 0, f"dead SLO window: {w}"
print(f"slo OK: {ok} successes, availability {w['availability']:.4f}, "
      f"avail burn {w['avail_burn_rate']:.2f} over {w['window_sec']}s")
EOF

# Live trace store: every top-K slow rid from the soak report must resolve
# against the running daemon to a Perfetto trace whose serve span equals the
# total_ns the report recorded — the "follow one slow request" loop, closed
# while the daemon is still serving.
"$WORK/parcflctl" -addr "$ADDR" traces ls -limit 5 | tee "$WORK/traces-ls.txt"
SLOW_RIDS=$(python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))
print("\n".join(s["rid"] for s in r.get("slowest") or []))' "$WORK/soak.json")
[ -n "$SLOW_RIDS" ] || { echo "FAIL: soak report lists no slow rids"; exit 1; }
for RID in $SLOW_RIDS; do
  "$WORK/parcflctl" -addr "$ADDR" traces get "$RID" -o "$WORK/slow-$RID.json" >/dev/null \
    || { echo "FAIL: slow rid $RID did not resolve at /debug/traces/"; exit 1; }
  python3 - "$WORK/slow-$RID.json" "$WORK/soak.json" "$RID" <<'EOF'
import json, sys
trace, rep, rid = json.load(open(sys.argv[1])), json.load(open(sys.argv[2])), sys.argv[3]
want = next(s for s in rep["slowest"] if s["rid"] == rid)
spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
serve = next(e for e in spans if e["name"] == "serve")
assert serve["args"]["rid"] == rid, (serve["args"], rid)
assert serve["args"]["outcome_name"] == "success", serve["args"]
# serve dur is us from the same server stamps the report's timings carry.
total_ns = want["timings"]["total_ns"]
assert abs(serve["dur"] * 1e3 - total_ns) < 2e3, (serve["dur"], total_ns)
names = {e["name"] for e in spans}
assert {"admit", "queue_wait"} <= names, names
print(f"slow rid {rid} resolved live: serve {serve['dur']:.0f}us == "
      f"report {total_ns/1e3:.0f}us, policy {serve['args']['policy']}")
EOF
done

# Trace-store metrics: the parcfl_trace_* series are live and the retained
# set respects the configured bound.
for series in parcfl_trace_observed_total parcfl_trace_retained_total \
  parcfl_trace_retained parcfl_trace_capacity; do
  grep -q "^$series" "$WORK/metrics.txt" \
    || { echo "FAIL: /metrics missing $series"; exit 1; }
done
curl -sf "http://$ADDR/debug/traces?limit=1" >"$WORK/traces-head.json"
python3 - "$WORK/traces-head.json" <<'EOF'
import json, sys
p = json.load(open(sys.argv[1]))
assert p["schema"] == "parcfl-traces/v1", p["schema"]
st = p["store"]
assert 0 < st["retained"] <= st["capacity"], st
assert st["observed"] >= st["retained"], st
print(f"trace store OK: {st['retained']}/{st['capacity']} retained "
      f"of {st['observed']} observed")
EOF

stop_daemon
grep -q "trace written to" "$WORK/warm.log" || { echo "FAIL: no trace on shutdown"; cat "$WORK/warm.log"; exit 1; }

# The chosen request's lane: a "req <seq>" thread on the requests process
# whose serve span duration equals the timings total the reply reported,
# with its admit and queue_wait phases contained within it.
python3 - "$WORK/chosen.json" "$WORK/trace.json" <<'EOF'
import json, sys
reply = json.load(open(sys.argv[1]))
tm = reply["results"][0]["timings"]
seq, total_ns = tm["seq"], tm["total_ns"]
trace = json.load(open(sys.argv[2]))
events = trace["traceEvents"]
lanes = {(e["pid"], e["tid"]): e["args"]["name"]
         for e in events if e.get("name") == "thread_name"}
req_pid = next(p for (p, t), n in lanes.items() if n == f"req {seq}")
lane = [e for e in events
        if e.get("ph") == "X" and e["pid"] == req_pid and e["tid"] == seq]
byname = {e["name"]: e for e in lane}
assert {"admit", "queue_wait", "serve"} <= set(byname), sorted(byname)
serve = byname["serve"]
assert serve["args"]["req"] == seq and serve["args"]["outcome"] == 0, serve
# serve dur is exported in us from the same stamps as total_ns.
assert abs(serve["dur"] * 1e3 - total_ns) < 2e3, (serve["dur"], total_ns)
phase_sum = byname["admit"].get("dur", 0) + byname["queue_wait"].get("dur", 0)
assert phase_sum <= serve["dur"] * 1.01, (phase_sum, serve["dur"])
batches = [e for e in events if e.get("name") == "batch_window"
           and e["args"].get("batch") == tm["batch"]]
assert batches, f"no batch_window span for batch {tm['batch']}"
print(f"trace OK: req {seq} lane complete, serve {serve['dur']:.0f}us == "
      f"timings {total_ns/1e3:.0f}us, batch {tm['batch']} anatomy present")
EOF

echo "== anomaly phase: injected overload fires the bundle watchdog =="
# A wide batch window plus a shallow queue under open-loop load keeps
# requests waiting: the queue high-water and windowed-p99 rules both have
# something to fire on within one 1s evaluation tick.
rm -rf "$WORK/bundles"
# -bundle-anomaly-window 30s: any watchdog firing holds the trace store's
# retain-everything window open across the whole phase, so the post-soak
# chosen request below is deterministically retained with policy "anomaly".
start_daemon anomaly.log -batch-window 50ms -queue 8 \
  -bundle-queue-high 1 -bundle-p99 1ms -bundle-cooldown 1s \
  -bundle-cpu-profile 50ms -bundle-retain 4 -bundle-anomaly-window 30s

"$WORK/parcflload" -addr "$ADDR" -rate 300 -duration 2500ms -retry=false \
  -bundle-on-fail "$WORK/load-bundles" -json "$WORK/soak-anomaly.json" \
  >"$WORK/load-anomaly.txt" || true

# An auto-fired bundle (queue or p99 rule, not manual) must appear.
AUTO=""
for _ in $(seq 50); do
  AUTO=$(curl -sf "http://$ADDR/debug/bundle" | python3 -c '
import json, sys
bs = json.load(sys.stdin)["bundles"]
auto = [b for b in bs if b["trigger"] in ("queue", "p99", "burn")]
print(auto[-1]["id"] if auto else "")')
  [ -n "$AUTO" ] && break
  sleep 0.2
done
[ -n "$AUTO" ] || { echo "FAIL: watchdog never fired under injected overload"; \
  curl -sf "http://$ADDR/debug/bundle" || true; cat "$WORK/anomaly.log"; exit 1; }
echo "watchdog fired: auto bundle $AUTO"

# One post-soak request whose exemplar we follow into a fresh bundle. The
# soak has drained, so this request's exemplar is the newest in its bucket
# and its span is the newest in the ring.
CHOSEN_VAR=$("$WORK/parcflq" -addr "$ADDR" -list 1 | head -n1)
"$WORK/parcflq" -addr "$ADDR" -request-id smoke-anomaly-7 -json \
  "$CHOSEN_VAR" >"$WORK/anomaly-chosen.json"
# Exemplars ride only the negotiated OpenMetrics body; the default scrape
# stays classic v0.0.4 (which cannot legally carry them).
curl -sf -H 'Accept: application/openmetrics-text' \
  "http://$ADDR/metrics" >"$WORK/metrics-anomaly.txt"
curl -sf "http://$ADDR/metrics" >"$WORK/metrics-plain.txt"
grep -q ' # {' "$WORK/metrics-plain.txt" \
  && { echo "FAIL: default /metrics body carries exemplar syntax"; exit 1; }
grep -q '^# EOF' "$WORK/metrics-anomaly.txt" \
  || { echo "FAIL: OpenMetrics body missing # EOF terminator"; exit 1; }
curl -sf "http://$ADDR/debug/statusz" >"$WORK/statusz.json"

# The watchdog firing opened the trace store's anomaly window, so the chosen
# request — a healthy success that neither sampling nor the slow threshold
# would have to keep — is retained with policy "anomaly" and resolves live.
"$WORK/parcflctl" -addr "$ADDR" traces get smoke-anomaly-7 \
  -o "$WORK/anomaly-trace.json" >/dev/null \
  || { echo "FAIL: smoke-anomaly-7 not retained during anomaly window"; exit 1; }
python3 - "$WORK/anomaly-trace.json" "$WORK/anomaly-chosen.json" <<'EOF'
import json, sys
trace, reply = json.load(open(sys.argv[1])), json.load(open(sys.argv[2]))
serve = next(e for e in trace["traceEvents"]
             if e.get("ph") == "X" and e["name"] == "serve")
assert serve["args"]["rid"] == "smoke-anomaly-7", serve["args"]
assert serve["args"]["policy"] == "anomaly", serve["args"]
total_ns = reply["results"][0]["timings"]["total_ns"]
assert abs(serve["dur"] * 1e3 - total_ns) < 2e3, (serve["dur"], total_ns)
assert serve["args"]["trace_id"] == reply["trace_id"], \
    (serve["args"]["trace_id"], reply.get("trace_id"))
print(f"anomaly retention OK: smoke-anomaly-7 kept by window, "
      f"trace_id {reply['trace_id'][:8]}.., serve {serve['dur']:.0f}us")
EOF

sleep 1.2  # clear the manual rule's cooldown (parcflload may have used it)
MANUAL=$(curl -sf "http://$ADDR/debug/bundle?trigger=1&reason=smoke-validate" \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
curl -sf "http://$ADDR/debug/bundle/$MANUAL" -o "$WORK/manual-bundle.tar.gz"

python3 - "$WORK/manual-bundle.tar.gz" "$WORK/metrics-anomaly.txt" \
  "$WORK/anomaly-chosen.json" "$WORK/statusz.json" <<'EOF'
import hashlib, json, re, sys, tarfile

# 1. Manifest validates: schema, every artifact present with matching
#    sha256 and size, bundle ID consistent with the artifact digests.
tf = tarfile.open(sys.argv[1], "r:gz")
blobs = {m.name: tf.extractfile(m).read() for m in tf.getmembers()}
man = json.loads(blobs.pop("manifest.json"))
assert man["schema"] == "parcfl-bundle/v1", man["schema"]
idh = hashlib.sha256()
assert len(blobs) == len(man["artifacts"]), (sorted(blobs), man["artifacts"])
for art in man["artifacts"]:
    data = blobs[art["name"]]
    digest = hashlib.sha256(data).hexdigest()
    assert digest == art["sha256"], f"{art['name']}: sha256 mismatch"
    assert len(data) == art["size"], f"{art['name']}: size mismatch"
    idh.update(bytes.fromhex(digest))
assert idh.hexdigest() == man["id"], "bundle ID does not match artifact digests"
need = {"heap.pprof", "goroutines.txt", "trace.json", "timeseries.json",
        "slo.json", "obs.json", "statusz.json", "exemplars.json",
        "server-stats.json", "config.json", "cpu.pprof", "traces.json"}
assert need <= set(blobs), f"missing artifacts: {need - set(blobs)}"

# 1b. The bundled retained-trace dump names the anomaly-window request: the
#     bundle carries whole request traces, not just the raw span ring.
tdump = json.loads(blobs["traces.json"])
assert tdump["schema"] == "parcfl-traces/v1", tdump["schema"]
trids = {t["rid"] for t in tdump["traces"]}
assert "smoke-anomaly-7" in trids, f"smoke-anomaly-7 not in bundled traces ({len(trids)} rids)"

# 2. /metrics carries an OpenMetrics exemplar naming the chosen request,
#    on a latency bucket, with its server-side seq.
reply = json.load(open(sys.argv[3]))
assert reply["request_id"] == "smoke-anomaly-7", reply["request_id"]
seq = reply["results"][0]["timings"]["seq"]
ex_re = re.compile(
    r'^parcfl_server_latency_ns_bucket\{le="[^"]+"\} \d+ '
    r'# \{request_id="smoke-anomaly-7",seq="(\d+)"\} \d+ \d+\.\d+$')
found = None
for line in open(sys.argv[2]):
    m = ex_re.match(line.strip())
    if m:
        found = int(m.group(1))
assert found == seq, f"exemplar seq {found} != reply seq {seq}"

# 3. The exemplared request's span lane exists in the bundled trace: the
#    bundle and the scrape describe the same moment.
trace = json.loads(blobs["trace.json"])
lanes = {e["args"]["name"] for e in trace["traceEvents"]
         if e.get("name") == "thread_name"}
assert f"req {seq}" in lanes, f"req {seq} lane not in bundled trace ({len(lanes)} lanes)"
exdump = json.loads(blobs["exemplars.json"])
rids = {e["rid"] for exs in exdump["hists"].values() for e in exs}
assert "smoke-anomaly-7" in rids, rids

# 4. Build identity: statusz and the build_info gauge agree.
statusz = json.load(open(sys.argv[4]))
assert statusz["schema"] == "parcfl-statusz/v1", statusz["schema"]
go_ver = statusz["build"]["go_version"]
assert any(line.startswith("parcfl_build_info{") and go_ver in line
           for line in open(sys.argv[2])), "parcfl_build_info missing or inconsistent"

print(f"bundle OK: {len(man['artifacts'])} artifacts verified, id {man['id'][:12]}, "
      f"exemplar smoke-anomaly-7 -> seq {seq} -> trace lane present")
EOF

# The load client's -bundle-on-fail must have fetched a bundle client-side
# (the overload injection guarantees anomalies).
ls "$WORK"/load-bundles/bundle-*.tar.gz >/dev/null 2>&1 \
  || { echo "FAIL: parcflload -bundle-on-fail saved nothing"; cat "$WORK/load-anomaly.txt"; exit 1; }

stop_daemon

echo "soak smoke OK (rate $RATE for $DUR, workdir $WORK)"
