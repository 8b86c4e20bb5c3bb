#!/bin/sh
# ci_soak.sh — the chaos-soak gate: run the sweep catalogue repeatedly
# with seed-derived fault schedules armed on the load/save paths of
# the result store, and require every chaotic run's outputs to stay
# byte-identical to a clean baseline. This is the standing version of
# the crash-resume gate: instead of one scripted SIGKILL, each nightly
# seed shakes a different store call (torn save, injected load error)
# and the sweep must degrade to recomputation — never to wrong bytes.
#
# Tunables (environment):
#   SOAK_SEED   root of the fault schedules; the nightly job derives it
#               from the date so the soak walks new hits every night.
#   SOAK_ITERS  chaotic sweep iterations (default 3).
set -eu

SOAK_SEED="${SOAK_SEED:-1}"
SOAK_ITERS="${SOAK_ITERS:-3}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "==> build experiments"
go build -o "$work/experiments" ./cmd/experiments

sweep() { # sweep <out> <store root> [extra flags...]
    out="$1"; store="$2"; shift 2
    "$work/experiments" \
        -exp highway,dynamics,trafficgrid -rounds 2 -seed 1 \
        -out "$out" -result-store "$store/results" \
        -code-digest ci-soak "$@"
}

echo "==> baseline sweep (no faults, own store)"
sweep "$work/baseline" "$work/store-baseline" >/dev/null

# Every chaotic iteration shares one result store, so injected corruption from iteration i (torn temp files,
# quarantined entries, forced recomputes) is exactly what iteration i+1
# must shrug off.
store="$work/store"
i=1
while [ "$i" -le "$SOAK_ITERS" ]; do
    s=$((SOAK_SEED + i))
    # Both fault sites of the store, each at a seed-derived hit within
    # the run's early calls: a load that errors (forced recompute over a
    # possibly present entry) and a save torn mid-write (crashed-process
    # torn temp; the entry is simply not published that run).
    faults="harness.store.load=error:soak@seed=$s:8@count=2"
    faults="$faults,harness.store.save.write=short:200@seed=$s:8"
    # Drop trafficgrid's unit results, so every iteration records its
    # traffic worlds and saves its units again instead of being served
    # whole from the result store. Entry bodies are binary, so -a keeps
    # grep matching the header line as text.
    grep -la 'exp=\\"trafficgrid\\"' "$store"/results/*.unit.jsonl 2>/dev/null | xargs rm -f
    echo "==> chaos sweep $i/$SOAK_ITERS (seed $s: $faults)"
    sweep "$work/chaos-$i" "$store" -faultpoints "$faults" \
        >/dev/null 2>"$work/chaos-$i.log" \
        || { cat "$work/chaos-$i.log" >&2; exit 1; }

    # The gate: whatever the schedule hit, the published outputs must be
    # the clean run's bytes — only the provenance sidecars (wall clock,
    # cache splits) may differ.
    if ! diff -r --exclude=timings.json --exclude=metrics.json \
        "$work/baseline" "$work/chaos-$i"; then
        echo "FAIL: chaos sweep $i (seed $s) diverged from the clean baseline" >&2
        cat "$work/chaos-$i.log" >&2
        exit 1
    fi
    i=$((i + 1))
done

echo "==> healing sweep (faults disarmed, same store)"
sweep "$work/healed" "$store" 2>"$work/healed.log" >/dev/null \
    || { cat "$work/healed.log" >&2; exit 1; }

# After the soak the store must have healed into a full cache: the
# disarmed run serves stored units and still reproduces the baseline.
if ! grep -Eq '"units_cached": *[1-9]' "$work/healed/timings.json"; then
    echo "FAIL: healing sweep reports no cached units" >&2
    cat "$work/healed.log" >&2
    exit 1
fi
if ! diff -r --exclude=timings.json --exclude=metrics.json \
    "$work/baseline" "$work/healed"; then
    echo "FAIL: healed outputs diverge from the clean baseline" >&2
    exit 1
fi

echo "OK: $SOAK_ITERS chaotic sweeps (root seed $SOAK_SEED) and the healed resume all reproduced the baseline byte-identically"
