#!/bin/sh
# ci_sweep_resume.sh — the resume gate: run one small sweep twice
# against a shared result store. The second run must compute zero units
# (every one served from the store) and reproduce the first run's
# outputs byte for byte. A third run against a fresh result store but
# the warm traffic store must compute every unit over traffic worlds
# loaded from disk (no traffic-store miss) and reproduce the same bytes.
# Fails loudly otherwise.
set -eu

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

store="$work/store"
out1="$work/run1"
out2="$work/run2"
out3="$work/run3"

# -progress enables the telemetry registry and the stderr ticker; the
# identity gate below proves neither perturbs a byte of the results.
# stopgo and trafficgrid have traffic worlds, so the warm run also reads
# each round's traffic summary back from the stored meta; table1's
# testbed rounds store no meta at all, and download stores its cars'
# outcomes. twoway and corridor cover the remaining road families.
# batch, apretx and epidemic read the rounds' transmission tally
# (analysis.MeasureOverhead, trace.Collector.DataSentSeqs), which a
# stored round keeps instead of its transmission records.
# sweep OUT RESULT-STORE [FLAG...]
sweep() {
    out="$1" results="$2"
    shift 2
    go run ./cmd/experiments \
        -exp highway,dynamics,stopgo,table1,download,twoway,corridor,trafficgrid,batch,apretx,epidemic -rounds 2 -seed 1 \
        -out "$out" -result-store "$results" \
        -traffic-store "$work/traffic-store" \
        -code-digest ci-resume-gate "$@"
}

echo "==> cold sweep"
sweep "$out1" "$store" -progress
echo "==> warm sweep (same store)"
sweep "$out2" "$store" -progress 2>"$work/warm.log" || { cat "$work/warm.log" >&2; exit 1; }
cat "$work/warm.log"

# Gate 1: the warm run computed nothing.
if grep -E '"units_computed": *[1-9]' "$out2/timings.json"; then
    echo "FAIL: second run recomputed units despite a warm store" >&2
    exit 1
fi
# ... and really did serve from the store (guards against the counters
# silently going dead).
if ! grep -Eq '"units_cached": *[1-9]' "$out2/timings.json"; then
    echo "FAIL: second run reports no cached units" >&2
    exit 1
fi

# ... and said so: the end-of-sweep resume summary must report the hits.
if ! grep -Eq 'result store: [1-9][0-9]* units hit / 0 computed' "$work/warm.log"; then
    echo "FAIL: warm sweep printed no resume summary" >&2
    exit 1
fi

# Gate 2: byte-identical outputs, manifest included. Only the provenance
# sidecars may differ between the runs: timings.json (wall clock, cache
# counters) and metrics.json (hit counts where the cold run has misses).
if ! diff -r --exclude=timings.json --exclude=metrics.json "$out1" "$out2"; then
    echo "FAIL: resumed sweep outputs diverge from the cold run" >&2
    exit 1
fi

# Gate 3: a sweep that recomputes every unit (fresh result store) over
# the warm traffic store loads each traffic world from disk and must
# reproduce the cold run byte for byte.
echo "==> recompute sweep (fresh result store, warm traffic store)"
sweep "$out3" "$work/store3" -metrics
# metric NAME prints NAME's value from the third run's metrics.json (the
# "value" line after its "name" line), empty when absent.
metric() {
    awk -v want="\"name\": \"$1\"" '
        index($0, want) { found = 1; next }
        found && /"value":/ { sub(/.*"value": */, ""); sub(/[^0-9].*/, ""); print; exit }
    ' "$out3/metrics.json"
}
misses="$(metric traffic_store_misses_total)"
hits="$(metric traffic_store_hits_total)"
if [ "$misses" != 0 ] || [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
    echo "FAIL: recompute sweep read traffic_store misses '$misses', hits '$hits'; want 0 misses and at least 1 hit" >&2
    exit 1
fi
if ! diff -r --exclude=timings.json --exclude=metrics.json "$out1" "$out3"; then
    echo "FAIL: sweep over stored traffic worlds diverges from the cold run" >&2
    exit 1
fi

echo "OK: warm sweep computed 0 units, the recompute sweep loaded $hits traffic worlds with 0 misses, and both reproduced the cold run byte-identically"
