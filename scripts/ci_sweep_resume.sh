#!/bin/sh
# ci_sweep_resume.sh — the resume gate: run one small sweep twice
# against a shared result store. The second run must compute zero units
# (every one served from the store) and reproduce the first run's
# outputs byte for byte. Fails loudly otherwise.
set -eu

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

store="$work/store"
out1="$work/run1"
out2="$work/run2"

# -progress enables the telemetry registry and the stderr ticker; the
# identity gate below proves neither perturbs a byte of the results.
# stopgo has a traffic world, so the warm run also reads each round's
# traffic summary back from the stored meta; table1's testbed rounds
# store no meta at all, and download stores its cars' outcomes.
sweep() {
    go run ./cmd/experiments \
        -exp highway,dynamics,stopgo,table1,download -rounds 2 -seed 1 \
        -out "$1" -result-store "$store" \
        -traffic-store "$work/traffic-store" \
        -code-digest ci-resume-gate -progress
}

echo "==> cold sweep"
sweep "$out1"
echo "==> warm sweep (same store)"
sweep "$out2" 2>"$work/warm.log" || { cat "$work/warm.log" >&2; exit 1; }
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

echo "OK: warm sweep computed 0 units and reproduced the cold run byte-identically"
