#!/bin/sh
# ci_sweepd_smoke.sh — end-to-end smoke of the results API: run a tiny
# sweep, start sweepd on it, and check the catalogue, one output's
# content type, the ETag/If-None-Match 304 contract, the telemetry
# endpoints (/api/metrics Prometheus exposition, /api/progress), the
# /api/healthz probe, the SIGTERM graceful-shutdown contract, and that
# sweepd's command line stays its own six flags.
set -eu

work="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

out="$work/results"
addr="127.0.0.1:18080"

# Two runs against one result store: the first seeds it with the
# dynamics units, the second computes highway cold and serves dynamics
# warm — so its metrics.json carries nonzero sim counters AND nonzero
# store hits and misses at once.
echo "==> sweep (seed the result store)"
go run ./cmd/experiments \
    -exp dynamics -rounds 2 -seed 1 -out "$work/seed-run" \
    -result-store "$work/store" \
    -traffic-store "$work/traffic-store" \
    -code-digest ci-smoke -metrics

echo "==> sweep (half warm, with -metrics)"
go run ./cmd/experiments \
    -exp highway,dynamics -rounds 2 -seed 1 -out "$out" \
    -result-store "$work/store" \
    -traffic-store "$work/traffic-store" \
    -code-digest ci-smoke -metrics

echo "==> build sweepd; sweep-only flags are unknown (exit 2)"
go build -o "$work/sweepd" ./cmd/sweepd
rc=0
"$work/sweepd" -rounds 1 -out "$out" 2>/dev/null || rc=$?
[ "$rc" = 2 ] || {
    echo "FAIL: sweepd -rounds 1 exited $rc, want 2 (unknown flag)" >&2
    exit 1
}

echo "==> start sweepd"
"$work/sweepd" -addr "$addr" -out "$out" -result-store "$work/store" &
pid=$!

for i in $(seq 1 50); do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
        break
    fi
    [ "$i" = 50 ] && { echo "FAIL: sweepd never became healthy" >&2; exit 1; }
    sleep 0.2
done

echo "==> catalogue"
catalogue="$(curl -fsS "http://$addr/api/catalogue")"
echo "$catalogue" | grep -q '"dynamics"' || {
    echo "FAIL: catalogue misses the dynamics study: $catalogue" >&2
    exit 1
}
# First output file named by the catalogue.
file="$(echo "$catalogue" | sed -n 's/.*"file": *"\([^"]*\)".*/\1/p' | head -1)"
[ -n "$file" ] || { echo "FAIL: catalogue lists no outputs" >&2; exit 1; }

echo "==> output $file: ETag + 304"
headers="$(curl -fsSI "http://$addr/outputs/$file" | tr -d '\r')"
etag="$(echo "$headers" | sed -n 's/^[Ee][Tt]ag: *//p')"
[ -n "$etag" ] || { echo "FAIL: no ETag on $file:"; echo "$headers"; exit 1; }

code="$(curl -s -o /dev/null -w '%{http_code}' \
    -H "If-None-Match: $etag" "http://$addr/outputs/$file")"
[ "$code" = 304 ] || {
    echo "FAIL: conditional GET answered $code, want 304" >&2
    exit 1
}

# Plot outputs must come back as SVG.
svg="$(echo "$catalogue" | sed -n 's/.*"file": *"\([^"]*\.svg\)".*/\1/p' | head -1)"
if [ -n "$svg" ]; then
    ct="$(curl -fsSI "http://$addr/outputs/$svg" | tr -d '\r' \
        | sed -n 's/^[Cc]ontent-[Tt]ype: *//p')"
    [ "$ct" = "image/svg+xml" ] || {
        echo "FAIL: $svg served as '$ct', want image/svg+xml" >&2
        exit 1
    }
fi

echo "==> /api/metrics: valid exposition with nonzero core counters"
curl -fsS "http://$addr/api/metrics" > "$work/metrics.prom"
go run ./cmd/benchjson -promlint \
    -nonzero sim_events_processed_total,result_store_hits_total,result_store_misses_total,harness_units_cached_total,sweepd_http_requests_total \
    < "$work/metrics.prom"
ct="$(curl -fsSI "http://$addr/api/metrics" | tr -d '\r' \
    | sed -n 's/^[Cc]ontent-[Tt]ype: *//p')"
case "$ct" in
    text/plain*version=0.0.4*) ;;
    *) echo "FAIL: /api/metrics content type '$ct'" >&2; exit 1 ;;
esac
curl -fsS -H 'Accept: application/json' "http://$addr/api/metrics" > "$work/metrics.json"
grep -q '"counters"' "$work/metrics.json" || {
    echo "FAIL: /api/metrics ignored Accept: application/json" >&2
    exit 1
}

echo "==> /api/progress"
progress="$(curl -fsS "http://$addr/api/progress")"
echo "$progress" | grep -Eq '"units_total": *[1-9]' || {
    echo "FAIL: progress reports no units: $progress" >&2
    exit 1
}
echo "$progress" | grep -Eq '"units_cached": *[1-9]' || {
    echo "FAIL: progress misses the cached units: $progress" >&2
    exit 1
}

echo "==> /api/healthz"
healthz="$(curl -fsS "http://$addr/api/healthz")"
echo "$healthz" | grep -q '"status": *"ok"' || {
    echo "FAIL: healthz not ok: $healthz" >&2
    exit 1
}
echo "$healthz" | grep -q '"manifest_loaded": *true' || {
    echo "FAIL: healthz does not see the manifest: $healthz" >&2
    exit 1
}

echo "==> index lists the telemetry routes; 405 vs 404 on writes"
curl -fsS "http://$addr/" | grep -q '/api/metrics' || {
    echo "FAIL: index does not list /api/metrics" >&2
    exit 1
}
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/api/metrics")"
[ "$code" = 405 ] || { echo "FAIL: POST on a known route answered $code, want 405" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/no/such/route")"
[ "$code" = 404 ] || { echo "FAIL: POST on an unknown route answered $code, want 404" >&2; exit 1; }

echo "==> SIGTERM drains and exits 0"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""   # already gone; keep the EXIT trap from re-killing
[ "$rc" = 0 ] || {
    echo "FAIL: sweepd exited $rc on SIGTERM, want graceful 0" >&2
    exit 1
}

echo "OK: sweepd serves the catalogue, typed outputs, 304s, metrics, progress, healthz, and drains on SIGTERM"
