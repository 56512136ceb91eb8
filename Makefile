# Build and verification entry points. `make ci` is the gate every PR
# must pass: vet plus the full test suite under the race detector, with
# shuffled test order so hidden inter-test dependencies (shared agents,
# leaked rate-limit state) surface instead of hiding behind file order.

GO ?= go

# The coverage floor `make cover` enforces over internal/... — CI fails
# below it.
COVER_FLOOR ?= 70

.PHONY: all build test vet race linear bench-build bench-smoke cichaos chaos-matrix mega-smoke scale-smoke bench bench-parallel bench-rollout cover bench-ci bench-guard bench-nightly bench-mutex bench-heap svc-smoke svc-bench

# Scenario matrix for `make chaos`: every topology shape the scenario
# library knows, each run under the full chaos matrix.
CHAOS_SCENARIOS ?= campus isp datacenter iot
# Agents per scenario run in the matrix; small enough for the PR gate.
CHAOS_AGENTS ?= 200
# Agents for the mega smoke (the nightly CI job runs 1000 under -race;
# E-MEGA in EXPERIMENTS.md was recorded at 10000).
MEGA_AGENTS ?= 1000

# The perf-critical benchmarks bench-guard compares against the
# committed baseline: the 1k-domain worker-sweep endpoints, the warm-
# cache incremental re-check (bare, and with the change-contract
# pre-gate on top), the paper-scale 10k-domain cold check (serial and
# 1/8-worker parallel), the mega-fleet agent path (one in-memory
# round-trip, and a 512-agent fleet install), configuration generation
# for 20,000 agents, and the front end compiling the 1k- and 10k-domain
# specification texts. On the round-trip the B/op comparison is
# the point: a receive buffer allocated per datagram moves it tenfold,
# and a delivery goroutine, a copy, channels and a timer per datagram
# (the transport before BENCH_37.json) by a third.
# A per-instance scan of the permission table allocates nothing extra,
# so on the generation it is ns/op that holds the line here, and
# TestGenerateLinear (`make linear`) on machines whose timings do not
# compare with the baseline's. On the compiles B/op is again the point
# (a token slice, or a copy of the items per pass, doubles it);
# TestCompileLinear (`make linear`) and TestParseAllocBudget hold that
# line on other machines. The configuration blob codec (1000 marshals,
# 1000 unmarshals of the benchmark's one-community blob per op) is held
# by allocs/op: reflection through encoding/json reads 15,000 where the
# direct reader reads 6,000.
GUARDED_BENCH = ^(BenchmarkCompileDomains1000|BenchmarkCompileDomains10000|BenchmarkCheckParallel1|BenchmarkCheckParallel8|BenchmarkCheckWarmCache|BenchmarkChangeContractCheck|BenchmarkCheckDomains10000|BenchmarkCheckParallel10k1|BenchmarkCheckParallel10k8|BenchmarkMemAgentRoundTrip|BenchmarkMegaFleetInstall|BenchmarkConfigGen20k|BenchmarkConfigCodecMarshal|BenchmarkConfigCodecUnmarshal)$$

# The committed baselines bench-guard compares against, oldest first: a
# successor supersedes the benchmarks it measured again.
BENCH_BASELINES = BENCH_5.json,BENCH_14.json,BENCH_15.json,BENCH_28.json,BENCH_37.json

# The §1-scale tier: the 100k-domain cold check and warm single-change
# re-check, and the 25k-agent fleet install. Model construction alone
# takes ~30s and each iteration seconds, so these run at -benchtime=2x
# -count=2 (still four samples — enough for benchguard, which ignores
# single-iteration entries) instead of the fast tier's 20x/3.
GUARDED_SCALE_BENCH = ^(BenchmarkCheckDomains100k|BenchmarkCheckDomains100kWarmDelta|BenchmarkMegaFleetInstall25k)$$

# How many times the chaos crash-resume tests repeat; the nightly CI job
# raises this to 10.
CHAOS_COUNT ?= 5

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -shuffle=on ./...

# The linearity gates on their own, without the race detector's overhead
# in the timings, each measuring both of its sizes in the one run:
# configgen.Generate's cost per agent at 20,000 agents within 4x of its
# cost at 2,000, and the compiler's time and bytes per source line at
# 10,000 domains within 1.5x of those at 1,000. Time is the test
# process's own CPU time (getrusage user + sys) with the collector off;
# five rounds each time both sizes back to back over the same amount of
# work, and the gate reads the median of the rounds' ratios, so other
# processes sharing the CPUs do not move them.
linear:
	$(GO) test -run 'TestGenerateLinear' -count=1 -v ./internal/configgen
	$(GO) test -run 'TestCompileLinear' -count=1 -v .

# bench/ is a module of its own, so `go build ./...` and `go vet ./...`
# never compile it: without this a renamed configgen/snmp/reconcile
# symbol surfaces only when somebody runs bench/run.sh. Its tests are
# deliberately not run here: TestTracerAccounts asserts a wall-clock
# total and fails about three runs in ten on a loaded 2-CPU host.
bench-build:
	$(GO) build -C bench -o /dev/null .
	$(GO) vet -C bench .

# The benchmark itself at smoke scale, exactly as BENCHMARK.json builds
# and runs it from the checkout: all four workloads, about a second each.
# It exits non-zero on a wrong output or a run that ends without a
# result, which bench-build cannot see. Untraced only: a traced edit-1k
# run trips the known layer-sum check (bench/README.md). The second run
# at one worker drives the checker's inline pool of one through the
# benchmark's own output checks.
bench-smoke:
	bash bench/run.sh --scale smoke --seconds 1 --trace 0
	bash bench/run.sh --scale smoke --seconds 1 --trace 0 --conc 1

ci: vet race linear bench-build bench-smoke chaos svc-smoke

# Chaos gate: the crash-resume tests re-run several times under the race
# detector, each run killing the journaled rollout at a different offset
# (see chaosRun in internal/configgen/chaos_test.go). NMSL_CHAOS_SEED
# pins a failing offset for replay. The scenario matrix then drives a
# chaos rollout over every topology shape end to end via nmslsim.
chaos: chaos-matrix
	$(GO) test -run 'TestRolloutResumesAfterCrash|TestChaosKillResume' -count=$(CHAOS_COUNT) -race ./internal/configgen

# One chaos rollout per scenario: $(CHAOS_AGENTS) in-memory agents,
# staged waves, the full fault matrix, exit non-zero unless the fleet
# converges. `make chaos-matrix CHAOS_AGENTS=2000` scales it up.
chaos-matrix:
	@for s in $(CHAOS_SCENARIOS); do \
		echo "== chaos $$s ($(CHAOS_AGENTS) agents) =="; \
		$(GO) run ./cmd/nmslsim -scenario $$s -agents $(CHAOS_AGENTS) -chaos -seed 1 || exit 1; \
	done

# The nightly mega-fleet smoke: a $(MEGA_AGENTS)-agent staged rollout
# under the chaos matrix, with the race detector watching the whole
# in-process stack (rollout workers, chaos engine, 1k agents).
mega-smoke:
	NMSL_MEGA=1 NMSL_MEGA_AGENTS=$(MEGA_AGENTS) $(GO) test -race -v -run TestMegaSmoke -timeout 20m ./internal/megafleet

# The §1-scale nightly smokes, time-boxed: the 100k-domain cold+warm
# checking pass (2.2GB heap — the NMSL_SCALE gate keeps it off small
# runners) and a 25k-agent clean fleet convergence without the race
# detector (the race-instrumented depth pass stays at $(MEGA_AGENTS);
# 25k under -race would blow the time box, not the assertion).
SCALE_AGENTS ?= 25000
scale-smoke:
	NMSL_SCALE=1 $(GO) test -v -run TestScaleCheck100kSmoke -timeout 30m .
	NMSL_MEGA=1 NMSL_MEGA_AGENTS=$(SCALE_AGENTS) $(GO) test -v -run TestMegaSmoke -timeout 30m ./internal/megafleet

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# The tentpole sweep: parallel sharded checking vs worker count on the
# 1k- and 10k-domain netsim workloads (meaningful on multi-core hosts).
bench-parallel:
	$(GO) test -bench='BenchmarkCheckParallel' -run='^$$' .

# Mutex-contention profile of the parallel check hot path: runs repeated
# 8-worker checks of the 1k-domain internet with the runtime mutex
# profiler at fraction 1, prints the most-contended call sites, and
# writes mutex.pb.gz for `go tool pprof`. A healthy run reports zero
# contended sites on the check path; cache-mutex or obs-registry frames
# reappearing here means the per-worker batching regressed.
bench-mutex:
	$(GO) run ./scripts/benchmutex -domains 1000 -workers 8 -iters 10 -out mutex.pb.gz

# Allocation profile (-alloc_space) of the checking hot path: one cold
# check plus repeated warm delta re-checks of the 1k-domain internet
# with the heap sampler at fine grain, printing the top allocating call
# sites and writing heap.pb.gz for `go tool pprof -alloc_space`. Any
# site inside the per-ref steady-state path appearing here means the
# arena/scratch reuse regressed (the hard gates are the zero-alloc
# tests and benchguard's allocs/op comparison; this names the culprit).
bench-heap:
	$(GO) run ./scripts/benchheap -domains 1000 -warm 50 -out heap.pb.gz

# Rollout sweep: wall-clock and attempts/target vs worker count and
# injected packet loss (E-ROLL in EXPERIMENTS.md).
bench-rollout:
	$(GO) test -bench='BenchmarkDistribute' -run='^$$' .

# Coverage gate over the library packages: fails when the total drops
# below $(COVER_FLOOR)%.
cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); printf "coverage: %.1f%% (floor %d%%)\n", $$3, floor; \
		 if ($$3 + 0 < floor) exit 1 }'

# Service smoke + latency SLO gate: drive an in-process nmsld with the
# synthetic many-tenant load generator (16 tenants, short burst), write
# BENCH_svc.json, then fail the build when the warm delta-check p99
# exceeds the budget or throughput collapses. The budgets in
# scripts/slogate default an order of magnitude above the measured
# numbers, so this catches accidental cold paths, not CI jitter.
svc-smoke:
	$(GO) run ./cmd/nmslload -tenants 16 -duration 2s -out BENCH_svc.json
	$(GO) run ./scripts/slogate -in BENCH_svc.json

# The full E-SVC-1 measurement: 64 tenants, longer sustained phase.
svc-bench:
	$(GO) run ./cmd/nmslload -tenants 64 -duration 10s -conc 8 -out BENCH_svc.json
	$(GO) run ./scripts/slogate -in BENCH_svc.json

# Bench smoke for CI: one iteration of every benchmark — a compile-and-
# run sanity pass, not a measurement — plus properly-sampled runs of the
# guarded benchmarks (bench-guard only trusts multi-iteration entries),
# archived as BENCH_ci.json.
bench-ci: bench-mutex bench-heap
	$(GO) test -bench=. -benchmem -benchtime=1x -timeout 30m -run='^$$' . | tee BENCH_ci.txt
	$(GO) test -bench='$(GUARDED_BENCH)' -benchmem \
		-benchtime=20x -count=3 -run='^$$' . | tee -a BENCH_ci.txt
	$(GO) test -bench='$(GUARDED_SCALE_BENCH)' -benchmem \
		-benchtime=2x -count=2 -timeout 30m -run='^$$' . | tee -a BENCH_ci.txt
	$(GO) run ./scripts/bench2json < BENCH_ci.txt > BENCH_ci.json

# Regression guard over the perf-critical benchmarks: measure the
# sharded check and the warm-cache incremental re-check (min of three
# short runs), then compare against the committed baselines
# ($(BENCH_BASELINES)) with a +-20% tolerance. A benchmark whose baseline
# was recorded on other hardware (the guard compares CPU strings) gets no
# ns/op verdict; its allocs/op and B/op are compared everywhere.
bench-guard:
	$(GO) test -bench='$(GUARDED_BENCH)' -benchmem \
		-benchtime=20x -count=3 -run='^$$' . | tee BENCH_guard.txt
	$(GO) test -bench='$(GUARDED_SCALE_BENCH)' -benchmem \
		-benchtime=2x -count=2 -timeout 30m -run='^$$' . | tee -a BENCH_guard.txt
	$(GO) run ./scripts/bench2json < BENCH_guard.txt > BENCH_guard.json
	$(GO) run ./scripts/benchguard -baseline $(BENCH_BASELINES) -current BENCH_guard.json

# Nightly measurement of the guarded benchmarks (the scheduled CI job):
# same sampling as bench-guard, archived rather than compared, so a
# regression can be bisected to the night it appeared.
bench-nightly:
	$(GO) test -bench='$(GUARDED_BENCH)' -benchmem \
		-benchtime=20x -count=3 -run='^$$' . | tee BENCH_nightly.txt
	$(GO) test -bench='$(GUARDED_SCALE_BENCH)' -benchmem \
		-benchtime=2x -count=2 -timeout 30m -run='^$$' . | tee -a BENCH_nightly.txt
	$(GO) run ./scripts/bench2json < BENCH_nightly.txt > BENCH_nightly.json
