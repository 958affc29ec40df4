#!/usr/bin/env bash
# Static smoke: one ddstore-serve boot, driven from outside by the real
# binaries. Asserts by count only — /healthz, /readyz, the pre-registered
# /metrics series, /debug/pprof, a quick ramp with scrape and artifact, an
# untraced and a traced run (merged-trace nesting, exemplar trace ids) and
# the flight recorder. What tracing costs is a number, not a count: the
# ledger measures it as obs.trace_overhead_frac (benchmark/), with pairs.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build/smoke/static
mkdir -p "$out"
go build -o "$out/ddstore-serve" ./cmd/ddstore-serve
go build -o "$out/ddstore-bench" ./cmd/ddstore-bench

data=127.0.0.1:7811 debug=http://127.0.0.1:7911
# 1ns slow threshold: every request lands in the flight recorder, so that
# assertion cannot depend on how fast this machine is.
"$out/ddstore-serve" -dataset homolumo -n 2000 -lo 0 -hi 2000 -addr $data \
  -cache-bytes 8388608 -debug-addr ${debug#http://} -slow-threshold 1ns >"$out/serve.log" 2>&1 &
serve=$!
trap 'kill $serve 2>/dev/null; wait $serve 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  curl -sf $debug/healthz >/dev/null && break
  sleep 0.2
done

test "$(curl -sf $debug/healthz)" = ok
test "$(curl -sf $debug/readyz)" = ok
metrics="$(curl -sf $debug/metrics)"
grep -q '^# TYPE ddstore_fetch_latency_seconds histogram$' <<<"$metrics"
for event in net-retries net-reconnects cache-hits; do
  grep -q "ddstore_events_total{event=\"$event\"}" <<<"$metrics"
done
curl -sf $debug/debug/pprof/ >/dev/null

"$out/ddstore-bench" -loadgen -quick -addr $data -seed 42 -ramp 1,4 \
  -scrape $debug/metrics -out "$out/untraced.json"
"$out/ddstore-bench" -loadgen -quick -addr $data -seed 42 -traced \
  -trace-out "$out/trace.json" -out "$out/traced.json"

python3 - "$out" <<'PY'
import json, sys
out = sys.argv[1]
untraced = json.load(open(f"{out}/untraced.json"))
traced = json.load(open(f"{out}/traced.json"))
for a in (untraced, traced):
    assert a["schema"] == 1, a["schema"]
    assert a["kind"] == "loadgen", a["kind"]
    assert len(a["phases"]) >= 1, "no phases completed"
    for p in a["phases"]:
        # the generator checks every sample's id, so this also means
        # "no wrong sample"
        assert p["errors"] == 0, f"{p['name']} saw {p['errors']} errors"
assert all("server_metrics" in p for p in untraced["phases"]), "a phase was not scraped"

events = json.load(open(f"{out}/trace.json"))
events = events["traceEvents"] if isinstance(events, dict) else events
roots = {e["args"]["trace_id"]: e for e in events if e.get("cat") == "loadgen"}
servers = [e for e in events if e.get("name") == "server-request"]
assert roots, "no client root spans in merged trace"
assert servers, "no synthesized server segments in merged trace"
for e in servers:
    args = e["args"]
    assert args["trace_id"] in roots, f"orphan server span {args}"
    assert args.get("tenant"), f"server span without tenant {args}"
    r = roots[args["trace_id"]]
    assert r["ts"] <= e["ts"] and e["ts"] + e["dur"] <= r["ts"] + r["dur"] + 1, \
        f"server segment escapes client window: {e} vs {r}"

worst = traced["phases"][0]["slowest"][0]
assert worst["trace_id"], f"slowest exemplar has no trace id: {worst}"
assert worst.get("server_ms", 0) > 0, f"no server timing in exemplar: {worst}"
PY

curl -sf $debug/debug/flightrecorder | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert len(d["records"]) >= 1, "flight recorder is empty after load"
assert d["counts"]["slow"] >= 1, d["counts"]'
echo "static smoke ok"
