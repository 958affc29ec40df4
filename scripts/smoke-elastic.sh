#!/usr/bin/env bash
# Elastic two-tenant smoke: one boot of a 2-owner ddstore-serve behind a
# deliberately tiny front end, a polite and a hostile tenant driven by two
# plain `ddstore-bench -loadgen -elastic -tenant` processes, and the cluster
# grown to 3 owners by a curl mid-run. Asserts by count only: the polite
# tenant rides through unshed and error-free, the hostile one is shed and
# never errored, the generation goes 1 -> 2 with 3 owners, migration pulls
# are admitted as a tenant, and the control plane answers afterwards. What
# the polite tenant's tail and the steady state do meanwhile are numbers:
# the ledger's overload_two_tenant and reshard_churn workloads (benchmark/).
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build/smoke/elastic
mkdir -p "$out"
go build -o "$out/ddstore-serve" ./cmd/ddstore-serve
go build -o "$out/ddstore-bench" ./cmd/ddstore-bench

data=127.0.0.1:7831,127.0.0.1:7832 debug=http://127.0.0.1:7931
"$out/ddstore-serve" -elastic 2 -dataset homolumo -n 2000 -addr $data \
  -debug-addr ${debug#http://} -tenants 'polite;hostile:rate=100,burst=10' \
  -queue-depth 4 -frontend-workers 2 >"$out/serve.log" 2>&1 &
serve=$!
trap 'kill $serve $(jobs -p) 2>/dev/null; wait 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  curl -sf $debug/healthz >/dev/null && break
  sleep 0.2
done
generation() { curl -sf $debug/metrics | awk '/^ddstore_shardmap_generation /{print $2}'; }
test "$(generation)" = 1

drive() { # tenant, qps
  "$out/ddstore-bench" -loadgen -elastic -addr $data -tenant "$1" -qps "$2" \
    -clients 4 -duration 3s -scrape $debug/metrics -out "$out/$1.json" >"$out/$1.log" 2>&1
}
drive polite 300 & polite=$!
drive hostile 400 & hostile=$!
sleep 2
curl -sf "$debug/admin/reshard?owners=3" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["generation"] == 2, r
assert len(r["owners"]) == 3, r'
wait $polite
wait $hostile

metrics="$(curl -sf $debug/metrics)"
test "$(generation)" = 2
sum() { awk -v re="$1" '$0 ~ re {s += $NF} END {print s + 0}' <<<"$metrics"; }
test "$(sum '^ddstore_tenant_shed_total\{.*tenant="polite"')" = 0
test "$(sum '^ddstore_tenant_shed_total\{.*tenant="hostile"')" -gt 0
test "$(sum '^ddstore_tenant_requests_total\{.*tenant="ddstore-migration"')" -gt 0

python3 - "$out" <<'PY'
import json, sys
out = sys.argv[1]
polite = json.load(open(f"{out}/polite.json"))
hostile = json.load(open(f"{out}/hostile.json"))
for a in (polite, hostile):
    assert a["schema"] == 1, a["schema"]
    assert len(a["phases"]) >= 1, "no phases completed"
    for p in a["phases"]:
        assert p["errors"] == 0, f"{p.get('tenant')} {p['name']} saw {p['errors']} errors"
    # The generation scraped after each phase never decreases.
    gens = [p["server_metrics"]["ddstore_shardmap_generation"] for p in a["phases"]]
    assert gens == sorted(gens), f"generation went backwards: {gens}"
assert sum(p.get("shed", 0) for p in polite["phases"]) == 0, "polite tenant was shed"
assert sum(p.get("shed", 0) for p in hostile["phases"]) > 0, "hostile tenant was never shed"
assert polite["phases"][-1]["server_metrics"]["ddstore_shardmap_generation"] == 2
PY

# Overload and a reshard must not take down the control plane.
test "$(curl -sf $debug/healthz)" = ok
echo "elastic smoke ok"
