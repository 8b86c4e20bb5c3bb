#!/bin/sh
# ci_crash_resume.sh — the crash-safety gate: SIGKILL a sweep mid-run
# and prove the next run resumes from the content-addressed store and
# reproduces an uninterrupted baseline byte for byte.
#
# The interruption point is deterministic: a faultpoint schedule parks
# the fourth unit in a long sleep (-workers 1, so the first three have
# already computed and published their store entries), and kill -9
# lands while it sleeps — no signal handler, no cleanup, exactly the
# crash the store's atomic write-then-rename protocol must survive.
set -eu

work="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "==> build experiments"
go build -o "$work/experiments" ./cmd/experiments

sweep() { # sweep <out> <store> [extra flags...]
    out="$1"; store="$2"; shift 2
    "$work/experiments" \
        -exp highway,dynamics -rounds 2 -seed 1 \
        -out "$out" -result-store "$store" \
        -code-digest ci-crash "$@"
}

echo "==> baseline sweep (uninterrupted, own store)"
sweep "$work/baseline" "$work/store-baseline"

echo "==> crashing sweep: armed sleep at unit 4, then SIGKILL"
store="$work/store"
# The binary is backgrounded directly (not via the sweep function) so
# $! is the experiments process itself — the SIGKILL must land on the
# sweep, not on a wrapper shell.
"$work/experiments" \
    -exp highway,dynamics -rounds 2 -seed 1 \
    -out "$work/crashed" -result-store "$store" \
    -code-digest ci-crash \
    -workers 1 -faultpoints 'harness.unit=sleep:600s@hit=4' \
    >/dev/null 2>"$work/crashed.log" &
pid=$!

# Wait for the first three units to land in the store, then kill -9.
n=0
for i in $(seq 1 150); do
    n="$(ls "$store"/*.unit.jsonl 2>/dev/null | wc -l)"
    [ "$n" -ge 3 ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "FAIL: crashing sweep exited before the injected sleep:" >&2
        cat "$work/crashed.log" >&2
        exit 1
    fi
    if [ "$i" = 150 ]; then
        echo "FAIL: store never reached 3 published units" >&2
        cat "$work/crashed.log" >&2
        exit 1
    fi
    sleep 0.2
done
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "    killed with $n units published"

echo "==> resumed sweep (same store, faults disarmed)"
sweep "$work/resumed" "$store" 2>"$work/resumed.log" \
    || { cat "$work/resumed.log" >&2; exit 1; }
cat "$work/resumed.log"

# Gate 1: the resume really rode the crashed run's store entries.
if ! grep -Eq '"units_cached": *[1-9]' "$work/resumed/timings.json"; then
    echo "FAIL: resumed sweep reports no cached units" >&2
    exit 1
fi

# Gate 2: byte-identical to the uninterrupted baseline, manifest.json
# included; only the provenance sidecars (wall clock, cache splits) may
# differ.
if ! diff -r --exclude=timings.json --exclude=metrics.json \
    "$work/baseline" "$work/resumed"; then
    echo "FAIL: resumed outputs diverge from the uninterrupted baseline" >&2
    exit 1
fi

echo "OK: SIGKILL mid-sweep ($n units published), resume reproduced the baseline byte-identically"
