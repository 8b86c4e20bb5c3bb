#!/bin/sh
# ci_metrics_smoke.sh — the telemetry gate without a server: run one
# tiny sweep with -progress (which implies -metrics), then check that
# (1) the stderr ticker reported unit progress, (2) metrics.json landed
# beside timings.json with nonzero core counters that satisfy the event
# accounting identity (scheduled = processed + cancelled + pending), the
# receiver accounting identity (candidates = deliveries + drops + culled
# + in flight) and exactly the drop causes channel, collision and
# half-duplex, and
# (3) an uninstrumented run of the same sweep produces byte-identical
# results — the determinism contract the whole metrics layer is built on.
# The sweep covers a traffic family (dynamics) and the epidemic baseline,
# whose timers cancel events.
set -eu

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

on="$work/on"
off="$work/off"

echo "==> instrumented sweep (-progress)"
go run ./cmd/experiments \
    -exp dynamics,epidemic -rounds 2 -seed 1 -out "$on" \
    -result-store "$work/store" \
    -traffic-store "$work/traffic-on" \
    -code-digest ci-metrics-gate -progress 2>"$work/on.log" \
    || { cat "$work/on.log" >&2; exit 1; }
cat "$work/on.log"

grep -q '^progress: ' "$work/on.log" || {
    echo "FAIL: -progress printed no ticker lines" >&2
    exit 1
}
grep -q 'result store: ' "$work/on.log" || {
    echo "FAIL: no end-of-sweep result-store summary" >&2
    exit 1
}

echo "==> metrics.json core counters"
[ -f "$on/metrics.json" ] || { echo "FAIL: no metrics.json" >&2; exit 1; }
for name in sim_events_processed_total mac_transmissions_total mac_deliveries_total mac_candidates_total harness_units_computed_total; do
    if ! grep -A1 "\"$name\"" "$on/metrics.json" | grep -Eq '"value": *[1-9]'; then
        echo "FAIL: $name missing or zero in metrics.json" >&2
        exit 1
    fi
done

echo "==> drop causes"
# The bench sums every mac_drops_total series into its delivery ratio, so
# an added or renamed cause must fail here rather than shift that ratio.
causes="$(awk '
    /"name": "mac_drops_total"/ { found = 1; next }
    found && /"label":/ { sub(/.*"label": *"/, ""); sub(/".*/, ""); print; found = 0 }
' "$on/metrics.json" | LC_ALL=C sort | tr '\n' ' ')"
if [ "$causes" != "channel collision half-duplex " ]; then
    echo "FAIL: mac_drops_total causes are [$causes], want [channel collision half-duplex ]" >&2
    exit 1
fi

echo "==> event accounting identity"
# counter NAME prints NAME's value from metrics.json (the "value" line
# after its "name" line).
counter() {
    awk -v want="\"name\": \"$1\"" '
        index($0, want) { found = 1; next }
        found && /"value":/ { sub(/.*"value": */, ""); sub(/[^0-9].*/, ""); print; exit }
    ' "$on/metrics.json"
}
scheduled="$(counter sim_events_scheduled_total)"
processed="$(counter sim_events_processed_total)"
cancelled="$(counter sim_events_cancelled_total)"
pending="$(counter sim_events_pending_total)"
for v in "$scheduled" "$processed" "$cancelled" "$pending"; do
    [ -n "$v" ] || { echo "FAIL: an event counter is missing from metrics.json" >&2; exit 1; }
done
if [ "$scheduled" -ne $((processed + cancelled + pending)) ]; then
    echo "FAIL: scheduled $scheduled != processed $processed + cancelled $cancelled + pending $pending" >&2
    exit 1
fi
echo "scheduled $scheduled = processed $processed + cancelled $cancelled + pending $pending"

echo "==> receiver accounting identity"
# Every station inside a frame's reception horizon is delivered the
# frame, drops it for a named cause, is culled at stage zero, or is still
# waiting for it when its round ends.
drops="$(awk '
    /"name": "mac_drops_total"/ { found = 1; next }
    found && /"value":/ { sub(/.*"value": */, ""); sub(/[^0-9].*/, ""); sum += $0; found = 0 }
    END { printf "%.0f\n", sum }
' "$on/metrics.json")"
candidates="$(counter mac_candidates_total)"
deliveries="$(counter mac_deliveries_total)"
culled="$(counter mac_culled_total)"
inflight="$(counter mac_inflight_receivers_total)"
for v in "$candidates" "$deliveries" "$culled" "$inflight"; do
    [ -n "$v" ] || { echo "FAIL: a receiver counter is missing from metrics.json" >&2; exit 1; }
done
if [ "$candidates" -ne $((deliveries + drops + culled + inflight)) ]; then
    echo "FAIL: candidates $candidates != deliveries $deliveries + drops $drops + culled $culled + in flight $inflight" >&2
    exit 1
fi
echo "candidates $candidates = deliveries $deliveries + drops $drops + culled $culled + in flight $inflight"

echo "==> uninstrumented control run"
go run ./cmd/experiments \
    -exp dynamics,epidemic -rounds 2 -seed 1 -out "$off" \
    -traffic-store "$work/traffic-off" \
    -code-digest ci-metrics-gate

# Identity: everything but the provenance sidecars must match byte for
# byte (the control run writes no metrics.json at all).
if ! diff -r --exclude=timings.json --exclude=metrics.json "$on" "$off"; then
    echo "FAIL: metrics instrumentation changed the sweep's outputs" >&2
    exit 1
fi
if [ -f "$off/metrics.json" ]; then
    echo "FAIL: uninstrumented run wrote metrics.json" >&2
    exit 1
fi

echo "OK: progress ticker, metrics.json counters, drop causes, event and receiver identities, and byte-identity with metrics off"
