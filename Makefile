GO ?= go

# Benchmarks tracked in BENCH_throughput.json: the simulator hot-loop
# throughput benches, the memory-bound single-core pair whose ratio is
# what the DRAM controller's sleep saves over the dense reference
# scheduler, two representative figure benches, the sweep pair whose
# ratio is the shared-warmup amortization factor, and the 8-core pair
# whose ratio is what wake-driven clocking saves on a busy mix.
TRACKED_BENCH = SimulatorThroughput|MemBoundSteadySparse$$|MemBoundSteadyDense$$|Fig7$$|Fig8$$|SweepColdWarmup$$|SweepSharedWarmup$$|MultiCoreSeqThroughput$$|MultiCoreDenseThroughput$$
BENCH_FILE   = BENCH_throughput.json

# The tracked benches as three -count=1 passes rather than one -count=3
# run: go test runs all repetitions of one benchmark before the next,
# so a ratio's two benchmarks would sit seconds apart and host drift
# between them would not cancel. In passes they alternate in time.
# benchrecord averages the passes per benchmark.
BENCH_RUN = for pass in 1 2 3; do \
		$(GO) test -run '^$$' -bench '$(TRACKED_BENCH)' -benchmem -benchtime=2s -count=1 . || exit 1; \
	done

.PHONY: check build fmt vet test determinism audit bench benchsmoke benchdiff benchgate fuzz serve-smoke obs-smoke chaos-smoke

# Tier-1 gate: everything must pass before a change lands. `test` runs
# -race over every package — including the session-concurrency and
# serve suites (internal/experiments, internal/serve); serve-smoke,
# obs-smoke and chaos-smoke exercise the built ipcpd binary end to end;
# benchgate holds the shared-warmup amortization ratio and guards
# tracked instr/s against structural collapse (see benchgate below).
check: build fmt vet test determinism audit benchgate fuzz serve-smoke obs-smoke chaos-smoke

build:
	$(GO) build ./...

# Formatting gate: fails listing every file gofmt would rewrite.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# Golden equivalence: wake-driven scheduler vs the dense every-cycle
# reference, run-to-run repeatability, and forked vs cold runs
# (already part of `test`; kept as its own gate so a perf change can
# run just this, fast).
determinism:
	$(GO) test ./internal/sim -run 'Determinism|FastForward' -count=1

# Differential audit: every bundled workload through the fully audited
# system (shadow caches + paper-faithful IPCP oracles in lockstep),
# wake-driven and dense scheduling, diffed; plus the fork-vs-cold differential
# that holds every warmup-forked run to byte-identity with a cold run.
# No -race: the harness is already several times slower than the plain
# simulation, and `test` covers the subset under -race.
audit:
	AUDIT_FULL=1 $(GO) test ./internal/audit -run 'TestDifferentialSuite|TestDeepThrottleRun|TestForkDifferentialSuite' -count=1

# Timed run of the tracked benchmarks, appended to $(BENCH_FILE) with
# NOTE as every entry's note: make bench NOTE='what was measured'.
bench:
	$(BENCH_RUN) | tee /dev/stderr | $(GO) run ./cmd/benchrecord -record $(BENCH_FILE) -note "$(NOTE)"

# Same run, compared against the last recorded entries instead of
# recorded; fails on >10% instr/s regression.
benchdiff:
	$(BENCH_RUN) | $(GO) run ./cmd/benchrecord -diff $(BENCH_FILE)

# Perf gate for `make check`. Two kinds of check, calibrated for a
# shared host whose absolute speed drifts tens of percent between runs:
#  1. ratio gates — instr/s ratios *within the same run*, where host
#     drift is common-mode, so they hold even when absolutes do not:
#     SweepSharedWarmup >= 2x SweepColdWarmup (the amortization factor,
#     measured 3.0-3.5x), and MultiCoreSeqThroughput >= 1.3x
#     MultiCoreDenseThroughput (wake-driven clocking vs the dense
#     reference on the 8-core mix, measured 1.5-1.6x), and
#     MemBoundSteadySparse >= 2x MemBoundSteadyDense (the same on the
#     memory-bound omnetpp-17, where the DRAM controller sleeps until
#     it can start a transaction: 2.8-2.9x over three passes, 1.7-2.3x
#     in single runs without that);
#  2. absolute gate — >50% instr/s drop against the recorded history
#     fails; that catches structural collapses (a disabled fast path, a
#     sweep gone cold) that no plausible host drift explains.
# `make benchdiff` keeps the tight 10% tolerance for quiet machines.
benchgate:
	$(BENCH_RUN) | $(GO) run ./cmd/benchrecord -diff $(BENCH_FILE) -tolerance 0.5 \
		  -gate BenchmarkSweepSharedWarmup/BenchmarkSweepColdWarmup=2.0 \
		  -gate BenchmarkMultiCoreSeqThroughput/BenchmarkMultiCoreDenseThroughput=1.3 \
		  -gate BenchmarkMemBoundSteadySparse/BenchmarkMemBoundSteadyDense=2.0

# Smoke-run every benchmark once (no timing significance).
benchsmoke:
	$(GO) test -bench . -benchtime=1x

# Brief fuzz passes (longer runs: raise -fuzztime): the trace reader,
# and the checkpoint frame decoder that guards the result store against
# torn/corrupt files. `go test -fuzz` takes one fuzz target per run.
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReader$$' -fuzztime=10s
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime=10s

# End-to-end daemon smoke: build the real ipcpd binary, boot it on an
# ephemeral port with a cache dir, drive the API, SIGTERM it mid-job
# expecting a clean (exit 0) drain, then reboot over the same cache and
# prove the checkpointed result is served without resimulating.
serve-smoke:
	$(GO) test ./cmd/ipcpd -run '^TestServeSmoke$$' -count=1 -v

# End-to-end observability smoke: boot ipcpd with JSON debug logs and a
# pprof listener, submit a run tagged X-Request-ID: demo, and demand the
# id back on the response header, every related structured log line and
# the Chrome trace; scrape Prometheus metrics; hit buildinfo and pprof.
obs-smoke:
	$(GO) test ./cmd/ipcpd -run '^TestObsSmoke$$' -count=1 -v

# End-to-end crash/recovery smoke: kill -9 the real daemon mid-burst
# with a journal dir and demand zero acknowledged work lost on restart;
# corrupt the checkpoint store and demand quarantine + recompute; crash
# via injected fault (IPCPD_CHAOS) at the queue handoff and recover.
chaos-smoke:
	$(GO) test ./cmd/ipcpd -run '^TestChaosSmoke$$' -count=1 -v
