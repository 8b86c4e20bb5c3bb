# Targets mirror .github/workflows/ci.yml one-to-one so local runs and
# CI can never drift.

GO ?= go

.PHONY: all build test short race fuzz bench bench-traffic bench-json bench-compare profile fmt vet check sweep-resume crash-resume soak sweepd-smoke metrics-smoke

all: build test

# bench/ is its own Go module, so the root ./... never builds it; every
# gate below also runs it explicitly, or an API change the bench probe
# depends on would break it silently.
build:
	$(GO) build ./...
	$(GO) -C bench build ./...

# The root suite includes TestPublicSurface (surface_test.go), the pin on
# internal/'s public surface: it fails on an exported func or method that
# no other package's production code calls, unless it satisfies an
# interface or sits on the test's allow-list with a reason. It has no
# -short skip, so short and race run it too.
test:
	$(GO) test ./...
	$(GO) -C bench test -short ./...

# -count=2 runs every root test twice in one process, so a test that
# leaks global state (a registry entry, a cache) fails here. The Table 1
# text golden (cmd/experiments TestGoldenTable1Text) does not skip under
# -short, so this target gates any drift in Table 1 and Figures 3-8; the
# manifest-hash goldens skip here and run in `make test`.
short:
	$(GO) test -count=2 -short ./...
	$(GO) -C bench test -short ./...

# -count=1 bypasses go test's result cache, so every run tests again
# instead of replaying the last run's results.
race:
	$(GO) test -count=1 -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

# The traffic-subsystem benchmarks alone, shrunk by -short: the CI smoke
# for the closed-loop vehicle dynamics (including the demand-driven city
# round with OD injection and actuated signals).
bench-traffic:
	$(GO) test -run=NONE -bench='Traffic|StopGo|CityDemand' -benchtime=1x -short .

# Machine-readable benchmark snapshot; the committed BENCH_<n>.json files
# track the perf trajectory PR over PR. Two steps (not a pipe) so a
# failed bench run cannot silently produce a truncated snapshot.
BENCH_OUT ?= BENCH_8.json
bench-json:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./... > bench.out.tmp
	$(GO) run ./cmd/benchjson < bench.out.tmp > $(BENCH_OUT)
	rm bench.out.tmp

# Diff the two newest committed BENCH_<n>.json snapshots (benchjson
# auto-selects them by numeric suffix, so this gate cannot go stale as
# snapshots accumulate): fails on any shared benchmark regressing its
# ns/op or allocs/op by more than 2x. Deterministic (committed files
# only), so CI can gate on it without re-running benchmarks.
bench-compare:
	$(GO) run ./cmd/benchjson -compare

# Profile a small representative sweep through the experiments binary's
# pprof mode: a traffic-grid city, the recovery dynamics and the paper's
# Table 1 and Figures 3-8, so the profiles cover the traffic, protocol
# and analysis paths. Leaves cpu.pprof and mem.pprof in the repository
# root for CI to keep as artifacts.
PROFILE_DIR ?= /tmp
profile:
	$(GO) run ./cmd/experiments -exp trafficgrid,dynamics,table1 -rounds 2 \
		-out $(PROFILE_DIR)/profiled-results \
		-cpuprofile cpu.pprof -memprofile mem.pprof

# Resume gate: one small sweep twice against a shared result store; the
# second run must compute zero units and reproduce the first byte for
# byte (timings.json provenance sidecar excluded).
sweep-resume:
	sh scripts/ci_sweep_resume.sh

# Crash-safety gate: SIGKILL a sweep mid-run (parked by an armed
# faultpoint), then resume against the same store and require the
# outputs byte-identical to an uninterrupted baseline.
crash-resume:
	sh scripts/ci_crash_resume.sh

# Chaos-soak gate (nightly): repeated sweeps with seed-derived fault
# schedules armed on the result store's load/save paths, each required
# to stay byte-identical to a clean baseline, plus a disarmed healing
# run over the battered store. SOAK_SEED/SOAK_ITERS tune the schedule.
soak:
	sh scripts/ci_soak.sh

# Results-API smoke: sweep, start sweepd, check catalogue, typed
# content types, the ETag/If-None-Match 304 contract, and the
# /api/metrics (Prometheus exposition, linted) + /api/progress
# telemetry endpoints.
sweepd-smoke:
	sh scripts/ci_sweepd_smoke.sh

# Telemetry gate without a server: -progress ticker, metrics.json core
# counters, and byte-identity of the sweep with metrics on vs off.
metrics-smoke:
	sh scripts/ci_metrics_smoke.sh

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# Native fuzzing, one bounded run per target (nightly). The committed
# seed corpora under testdata/fuzz replay in every plain go test run;
# a crasher found here lands there too, ready to commit as a regression.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/packet -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/harness -run '^$$' -fuzz '^FuzzStoreLoad$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faultpoint -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzDecodeBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/harness -run '^$$' -fuzz '^FuzzReadManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/harness -run '^$$' -fuzz '^FuzzReadTimings$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/metrics -run '^$$' -fuzz '^FuzzReadSnapshotJSON$$' -fuzztime $(FUZZTIME)

check: build fmt vet short
