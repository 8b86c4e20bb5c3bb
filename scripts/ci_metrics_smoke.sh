#!/bin/sh
# ci_metrics_smoke.sh — the telemetry gate without a server: run two
# tiny sweeps with -progress (which implies -metrics), then check that
# (1) the stderr ticker reported unit progress, (2) metrics.json landed
# beside timings.json with nonzero core counters that satisfy the event
# accounting identity (scheduled = processed + cancelled + pending), the
# receiver accounting identity (candidates = deliveries + drops + culled
# + sensed + in flight) and exactly the drop causes channel, collision
# and half-duplex, and
# (3) uninstrumented runs of the same sweeps produce byte-identical
# results — the determinism contract the whole metrics layer is built on.
# The first sweep covers a traffic family (dynamics) and the epidemic
# baseline, whose timers cancel events; the second, citydemand at one
# round, has deaf background beacons, so mac_sensed_total must be
# nonzero. The counter checks sum over both sweeps' metrics.json.
set -eu

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

on="$work/on"
off="$work/off"
go build -o "$work/experiments" ./cmd/experiments

# sweep OUT FLAGS... runs both sweeps of one arm into OUT/main and
# OUT/city.
sweep() {
    out="$1"
    shift
    "$work/experiments" -exp dynamics,epidemic -rounds 2 -seed 1 -out "$out/main" \
        -code-digest ci-metrics-gate "$@" &&
        "$work/experiments" -exp citydemand -rounds 1 -seed 1 -out "$out/city" \
            -code-digest ci-metrics-gate "$@"
}

echo "==> instrumented sweeps (-progress)"
sweep "$on" -result-store "$work/store" -traffic-store "$work/traffic-on" \
    -progress 2>"$work/on.log" \
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
metrics="$on/main/metrics.json $on/city/metrics.json"
for m in $metrics; do
    [ -f "$m" ] || { echo "FAIL: no $m" >&2; exit 1; }
done
# counter NAME prints NAME's value summed over both sweeps' metrics.json
# (the "value" line after its "name" line), empty when no file has it.
counter() {
    # shellcheck disable=SC2086 # $metrics is a list of paths
    awk -v want="\"name\": \"$1\"" '
        index($0, want) { found = 1; next }
        found && /"value":/ { sub(/.*"value": */, ""); sub(/[^0-9].*/, ""); sum += $0; seen = 1; found = 0 }
        END { if (seen) printf "%.0f\n", sum }
    ' $metrics
}
for name in sim_events_processed_total mac_transmissions_total mac_deliveries_total mac_candidates_total mac_sensed_total harness_units_computed_total; do
    v="$(counter "$name")"
    if [ -z "$v" ] || [ "$v" -eq 0 ]; then
        echo "FAIL: $name missing or zero in metrics.json" >&2
        exit 1
    fi
done

echo "==> drop causes"
# The bench sums every mac_drops_total series into its delivery ratio, so
# an added or renamed cause must fail here rather than shift that ratio.
for m in $metrics; do
    causes="$(awk '
        /"name": "mac_drops_total"/ { found = 1; next }
        found && /"label":/ { sub(/.*"label": *"/, ""); sub(/".*/, ""); print; found = 0 }
    ' "$m" | LC_ALL=C sort | tr '\n' ' ')"
    if [ "$causes" != "channel collision half-duplex " ]; then
        echo "FAIL: $m: mac_drops_total causes are [$causes], want [channel collision half-duplex ]" >&2
        exit 1
    fi
done

echo "==> event accounting identity"
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
# frame, drops it for a named cause, is culled at stage zero, only senses
# it (a deaf station), or is still waiting for it when its round ends.
drops="$(counter mac_drops_total)"
candidates="$(counter mac_candidates_total)"
deliveries="$(counter mac_deliveries_total)"
culled="$(counter mac_culled_total)"
sensed="$(counter mac_sensed_total)"
inflight="$(counter mac_inflight_receivers_total)"
for v in "$drops" "$candidates" "$deliveries" "$culled" "$sensed" "$inflight"; do
    [ -n "$v" ] || { echo "FAIL: a receiver counter is missing from metrics.json" >&2; exit 1; }
done
if [ "$candidates" -ne $((deliveries + drops + culled + sensed + inflight)) ]; then
    echo "FAIL: candidates $candidates != deliveries $deliveries + drops $drops + culled $culled + sensed $sensed + in flight $inflight" >&2
    exit 1
fi
echo "candidates $candidates = deliveries $deliveries + drops $drops + culled $culled + sensed $sensed + in flight $inflight"

echo "==> uninstrumented control runs"
sweep "$off" -traffic-store "$work/traffic-off"

# Identity: everything but the provenance sidecars must match byte for
# byte (the control runs write no metrics.json at all).
if ! diff -r --exclude=timings.json --exclude=metrics.json "$on" "$off"; then
    echo "FAIL: metrics instrumentation changed the sweeps' outputs" >&2
    exit 1
fi
for m in "$off/main/metrics.json" "$off/city/metrics.json"; do
    if [ -f "$m" ]; then
        echo "FAIL: uninstrumented run wrote $m" >&2
        exit 1
    fi
done

echo "OK: progress ticker, metrics.json counters, drop causes, event and receiver identities, and byte-identity with metrics off"
