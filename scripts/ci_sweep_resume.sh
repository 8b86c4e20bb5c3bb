#!/bin/sh
# ci_sweep_resume.sh — the resume gate: run one small sweep twice
# against a shared result store. The second run must compute zero units
# (every one served from the store) and reproduce the first run's
# outputs byte for byte. A third run against a fresh result store, in a
# new process, must compute every unit again and reproduce the same
# bytes. Fails loudly otherwise.
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

# Gate 3: a sweep that recomputes every unit (fresh result store) in a
# second process must reproduce the cold run byte for byte.
echo "==> recompute sweep (fresh result store)"
sweep "$out3" "$work/store3" -metrics
if ! diff -r --exclude=timings.json --exclude=metrics.json "$out1" "$out3"; then
    echo "FAIL: recompute sweep diverges from the cold run" >&2
    exit 1
fi

echo "OK: warm sweep computed 0 units, and both it and the recompute sweep reproduced the cold run byte-identically"
