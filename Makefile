GO ?= go

.PHONY: build vet lint lint-diff test test-benchmark test-backends regression sim-sweep fault-sweep fuzz-smoke race-sim check bench-all bench-pairs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific invariants (clockcheck, sinkerr, lockcheck, atomiccheck,
# randcheck, physcheck, walorder, goexit, stalecheck); any
# unsuppressed diagnostic fails the build.
lint:
	$(GO) run ./cmd/mvlint ./...

# Same passes, diagnostics restricted to files changed relative to
# LINT_BASE (default origin/main) plus uncommitted/untracked files.
# The whole module is still loaded, so cross-file facts stay complete.
LINT_BASE ?= origin/main
lint-diff:
	$(GO) run ./cmd/mvlint -diff $(LINT_BASE) ./...

test:
	$(GO) test ./...

# benchmark/ is its own module (the one benchmark BENCHMARK.json
# declares), so `go build/test ./...` never compiles it: vet and test it
# here so an API drift in core or vstore is caught before the gate runs.
test-benchmark:
	cd benchmark && $(GO) vet . && $(GO) test .

# Durability across the physical backend matrix: the recovery and
# conformance suites (which already subtest fs + mem) re-run pinned,
# then oracle-checked simulator rounds against the filesystem backend,
# the in-memory backend, and the in-memory backend with injected
# storage faults. Same seed everywhere; traces must agree.
test-backends:
	$(GO) test -count=1 -run 'Backend|Conformance|CrashRestart|Durab|Recover|Wal|Log|Storage|Intent' ./...
	$(GO) run ./cmd/mvverify -durable -backend fs -rounds 5 -seed 3 -v
	$(GO) run ./cmd/mvverify -durable -backend mem -rounds 5 -seed 3 -v
	$(GO) run ./cmd/mvverify -durable -backend mem -storage-faults 0.02 -rounds 5 -seed 3 -v

# Pinned regression schedules: seeds in
# internal/sim/testdata/regression_seeds.txt (each under the scenario
# its line names) that once exposed real protocol bugs, replayed under
# the race detector on every check.
regression:
	$(GO) test -race -count=1 -run 'TestSimReplayRegressionSeeds' ./internal/sim

# Time-boxed sweep of fresh random seeds through the simulator; any
# failing round prints its seed and the mvverify -replay command that
# reruns it. The scenarios run under the same oracle: a backfill racing
# crash-restarts and injected storage faults, a view dropped and
# re-created mid-backfill under a skewed write load, back-to-back writers
# of a few hot rows whose propagations are handed from one to the next,
# the same with several writers of each row on different coordinators,
# and the hot-row writers with a second view defined while each has a Put
# in flight.
sim-sweep:
	timeout 300 $(GO) run ./cmd/mvverify -rounds 25 -compress -v
	timeout 300 $(GO) run ./cmd/mvverify -durable -backend mem -scenario backfill -storage-faults 0.02 -rounds 8 -v
	timeout 300 $(GO) run ./cmd/mvverify -scenario drop-recreate -compress -rounds 8 -v
	timeout 300 $(GO) run ./cmd/mvverify -scenario hot-row -rounds 8 -v
	timeout 300 $(GO) run ./cmd/mvverify -scenario shared-row -rounds 8 -v
	timeout 300 $(GO) run ./cmd/mvverify -scenario define-during-burst -rounds 8 -v

# A fixed sweep of durable rounds under injected storage faults, with a
# view backfilled mid-run: seeds FAULT_SEED.. (FAULT_ROUNDS of them, 300
# by default). It prints every failing seed and their count, and fails
# if any seed did; `mvverify -replay <seed> -durable -backend mem
# -scenario backfill -storage-faults 0.02` reruns one. About one second
# a seed.
FAULT_SEED ?= 30000
FAULT_ROUNDS ?= 300
fault-sweep:
	@out=$$(mktemp); status=0; \
	$(GO) run ./cmd/mvverify -durable -backend mem -scenario backfill -storage-faults 0.02 \
		-seed $(FAULT_SEED) -rounds $(FAULT_ROUNDS) > $$out || status=$$?; \
	fails=$$(sed -n 's/^FAIL seed=\([0-9]*\):.*/\1/p' $$out); \
	echo "fault-sweep: $$(echo $$fails | wc -w) of $(FAULT_ROUNDS) seeds from $(FAULT_SEED) failed:" $$fails; \
	rm -f $$out; exit $$status

# Short runs of the fuzzers (the cell codec and sstable entry runs;
# the memtable against its sorted-map reference); crashers land as
# testdata corpus entries.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzReadCell -fuzztime=10s ./internal/model
	$(GO) test -run=NONE -fuzz=FuzzMetaRoundTrip -fuzztime=10s ./internal/model
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalEntries -fuzztime=10s ./internal/sstable
	$(GO) test -run=NONE -fuzz=FuzzAgainstReference -fuzztime=10s ./internal/memtable

# The deterministic-simulation and chaos suites under the race
# detector; MV_SEED=<seed> replays one schedule.
race-sim:
	$(GO) test -race -run 'Sim|Chaos' ./...

check: build vet lint test test-benchmark test-backends regression race-sim

# Every Go benchmark, text output only. Numbers that count are recorded
# by bench-pairs below, not here.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# The procedure a performance claim is judged by (BENCHMARK.json,
# benchmark/README.md): N alternating pairs of runs, BASE against the
# working tree, every workload, then the bounds applied to both sets.
# BASE is exported with `git archive` into .bench_build/base and built
# and run by its own benchmark/run.sh, so each side measures its own
# sources with its own harness; odd pairs run BASE first, even pairs
# the working tree. TRACE=1 takes the per-layer (traced) runs instead
# and leaves the two result files for reading: per-layer metrics carry
# no bounds.
# About 40 s per run: N=10 over the four workloads is under an hour.
# -compare exits 1 unless every verdict is "pass" — a workload left out
# through WORKLOADS reads "no runs" and counts against it.
#   make bench-pairs BASE=HEAD~1 N=10 [SEED=7] [TRACE=1] [WORKLOADS=view_write]
BASE ?= HEAD~1
N ?= 10
SEED ?= 1
TRACE ?= 0
WORKLOADS ?= view_read view_write skew_write durable_lifecycle
PAIRS := $(CURDIR)/.bench_build/pairs
bench-pairs:
	rm -rf .bench_build/base $(PAIRS)
	mkdir -p .bench_build/base $(PAIRS)
	git archive $(BASE) | tar -x -C .bench_build/base
	set -e; for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for w in $(WORKLOADS); do for side in $$order; do \
			if [ $$side = base ]; then dir=.bench_build/base; else dir=.; fi; \
			echo "pair $$i/$(N) $$w $$side" >&2; \
			bash $$dir/benchmark/run.sh --workload $$w --seed $(SEED) --seconds 15 --trace $(TRACE) \
				-out $(PAIRS)/$$side.jsonl >/dev/null; \
		done; done; \
	done
	@if [ $(TRACE) = 0 ]; then \
		bash benchmark/run.sh -compare $(PAIRS)/base.jsonl $(PAIRS)/head.jsonl; \
	else \
		echo "per-layer results (no bounds to apply): $(PAIRS)/base.jsonl $(PAIRS)/head.jsonl"; \
	fi
