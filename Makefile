GO ?= go

.PHONY: check build test race vet audit chaos fuzz-smoke daemon-smoke crash-smoke replay-smoke examples figures-golden bench bench-figures bench-smoke bench-scale bench-compare figures clean

## check: the full gate — vet, build, race-enabled tests. The race run
## covers the concurrent layers: the replica and figure pools, the
## daemon, and checkpoint/resume across parallel replicas. The nested
## bench module (repro/bench) is tested too: root `./...` skips it, and
## its tests pin how it drives the run APIs.
check: vet build race
	cd bench && $(GO) test ./...

build:
	$(GO) build ./...

## vet: go vet plus the formatting gate — fails listing every file
## `gofmt -l .` would rewrite. The nested bench module (repro/bench)
## is vetted too: root `./...` skips it, and it imports the run APIs.
vet:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting (run gofmt -w):"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## audit: replay the golden-series fixtures under the per-tick
## invariant audit (sim.Config.Check) — proves the engine's internal
## bookkeeping holds on every pinned scenario.
audit:
	$(GO) test -run 'TestGoldenSeriesAudited|TestAuditorCatchesSeededCorruption|TestAuditCatchesCorruption' -v ./internal/sim ./internal/obs

## chaos: the fault-tolerance smoke — replica panics degrade batches
## gracefully, retries resume from checkpoints, corrupted or
## version-skewed checkpoints are rejected, domain faults (detector
## errors, limiter outages, lost patches) inject deterministically,
## and the CLIs survive an interrupt-resume cycle.
chaos:
	$(GO) test -run 'TestMultiRun|TestSnapshotRejects|TestRestoreRejects|TestFalseAlarm|TestMissedDetection|TestLimiterOutage|TestImmunizationDelay|TestImmunizationLoss' -v ./internal/sim
	$(GO) test -run 'TestRunCheckpointResume|TestRunResume' -v ./cmd/wormsim ./cmd/figures
	$(GO) test -v ./internal/fault ./internal/runner ./internal/safeio

## fuzz-smoke: the property-based spec campaign — a fixed-seed stream
## of random valid scenario specs, each round-tripped through the
## canonical encoding and run under the per-tick invariant audit, plus
## the spectral-radius epidemic-threshold oracle (sub-critical specs
## must die out, super-critical ones must take off). Fixed seed keeps
## failures reproducible; rerun any failure with
## `wormsim -specfuzz N -seed S`. Then ~10 s of coverage-guided
## fuzzing of the spec decoder (FuzzSpecDecode: no input panics, every
## accepted spec reaches a canonical fixed point) and ~10 s of the
## checkpoint reader (FuzzReadSnapshot: DecodeSnapshot then Restore; no
## input panics, every failure is sim.ErrSnapshot) and ~10 s of the
## trace replayer (FuzzReplayer: arbitrary bytes through
## NewRecordReplayer's Contacts and Skip; no input panics, Skip agrees
## with Contacts). Minimizing a new
## input is capped at 2 s so the short run spends its time fuzzing. A
## crasher lands in the package's testdata/fuzz/ and replays under
## `go test`.
fuzz-smoke:
	$(GO) test -run 'TestFuzzSmoke|TestSpectralThreshold' -v ./internal/spec
	$(GO) test -run xxx -fuzz '^FuzzSpecDecode$$' -fuzztime 10s ./internal/spec
	$(GO) test -run xxx -fuzz '^FuzzReadSnapshot$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/sim
	$(GO) test -run xxx -fuzz '^FuzzReplayer$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/trace

## daemon-smoke: the wormsimd service gate — the full HTTP round-trip
## (submit, JSONL/SSE stream, result, cancel, 429 backpressure, shared
## net-cache reuse) against the in-process server, plus the two restart
## stories against the real binary: graceful close and SIGKILL, both
## required to resume from checkpoints to a result byte-identical to an
## uninterrupted run.
daemon-smoke:
	$(GO) test -run 'TestDaemon|TestServerRestartResume|TestJobQueueOrdering' -v ./internal/daemon ./cmd/wormsimd

## crash-smoke: the durability gate (DESIGN.md §16) — the crash-point
## sweeper kills the write stream at every enumerated durability point
## (temp create, write, fsync, chmod, rename, parent-dir fsync) of a
## full daemon job lifecycle and requires recovery to a byte-identical
## result; the transient sweeps do the same with one-shot EIO and torn
## writes; the disk-pressure test requires checkpointing to degrade to
## skip-with-event under ENOSPC; and the scrub test requires a daemon
## over hand-corrupted state to start, quarantine, and keep serving.
crash-smoke:
	$(GO) test -run 'TestCrashPointSweep|TestTransientIOErrSweep|TestCrashSweepMatchesFixtureSpec|TestDaemonShedsCheckpointsUnderDiskPressure|TestShortWriteTearsNothing|TestScrubQuarantinesCorruptArtifacts' -v ./internal/daemon
	$(GO) test -v ./internal/crashfs ./internal/safeio

## replay-smoke: the trace-replay workload gate — the golden replay
## fixture (series + collateral counters) and a mid-run
## checkpoint/resume, the streaming replayer's
## determinism/Skip/constant-memory guards, the core workload
## lowering, and the CLI end-to-end: generate a trace, replay it under
## the invariant audit, and check the collateral counters balance.
replay-smoke:
	$(GO) test -run 'TestGoldenReplay|TestReplay|TestRecordReplayer|TestSyntheticReplayer|TestWormFlow' -v ./internal/sim ./internal/trace
	$(GO) test -run 'TestWorkload|TestMergeRunFlagsWorkload|TestRunSyntheticWorkload|TestRunTraceFileWorkload|TestCompileWorkload' -v ./internal/core ./internal/spec
	$(GO) test -run 'TestRunTraceReplay|TestCollateralShape' -v ./cmd/wormsim ./internal/experiment

## examples: run the library examples end to end — the public-API
## consumers, which `build` only compiles. tracestudy (~13 s) is left
## out; run it with `go run ./examples/tracestudy`.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/enterprise
	$(GO) run ./examples/immunization
	$(GO) run ./examples/detection

## figures-golden: the quick-figures digest gate — regenerates every
## table and figure at -quick size into a temp directory and requires
## each written file to match cmd/figures/testdata/quick.sha256 byte
## for byte, with no file missing or extra. Any refactor of the figure
## harness, the spec lowering or the engine that is meant to change no
## output must pass it unchanged (~12 s on 2 vCPUs). After an intended
## output change, regenerate the digests with
## `go run ./cmd/figures -quick -ascii=false -jobs 2 -out d && (cd d && sha256sum *) > cmd/figures/testdata/quick.sha256`.
figures-golden:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/figures -quick -ascii=false -jobs 2 -out "$$dir" > /dev/null && \
	(cd "$$dir" && sha256sum --quiet -c "$(CURDIR)/cmd/figures/testdata/quick.sha256") && \
	test "$$(ls "$$dir" | wc -l)" -eq "$$(wc -l < cmd/figures/testdata/quick.sha256)" || \
	{ echo "figures-golden: quick figure outputs differ from cmd/figures/testdata/quick.sha256"; exit 1; }

## bench: the per-tick engine microbenchmarks, repeated so the output
## feeds benchstat directly (`make bench > new.txt && benchstat old.txt
## new.txt`). Reference numbers live in BENCH_engine.json.
bench:
	$(GO) test -run xxx -bench BenchmarkEngineTick -benchtime 1s -count 5 ./internal/sim

## bench-figures: one pass over every figure/ablation benchmark plus
## the worker-pool scaling benchmark.
bench-figures:
	$(GO) test -run xxx -bench . -benchtime 1x .

## bench-smoke: one iteration of every benchmark in the module, so
## benchmark code cannot bit-rot (CI runs this). -short keeps the scale
## suite to sizes a CI runner can hold (<= 10k hosts).
bench-smoke:
	$(GO) test -short -run xxx -bench . -benchtime 1x ./...

## bench-scale: the large-topology scale suite (BenchmarkEngineTickScale:
## two-level AS graphs from 1k to 10M hosts; ns/tick, B/host, and
## per-size peak RSS recorded in BENCH_engine.json). The full run includes the 1M- and 10M-host
## sizes; CI smokes it with `make bench-scale SHORT=-short`, which
## stops at 10k hosts. Also runs the quiescent-tick benchmark, which
## fails if an idle tick is not >=10x cheaper than an active one.
bench-scale:
	$(GO) test $(SHORT) -run xxx -bench 'BenchmarkEngineTickScale|BenchmarkEngineTickQuiescent' -benchtime 1x -count 1 ./internal/sim

## bench-compare: regression gate over two bench-scale runs — record
## each with `make bench-scale > file` (the SHORT=-short smoke works
## too), then `make bench-compare OLD=old.txt NEW=new.txt`. Uses the
## in-repo benchstat-style tool (cmd/benchcompare; no install needed)
## and fails on a >15% ns/tick regression at the 10k-host size.
OLD ?= bench-old.txt
NEW ?= bench-new.txt
bench-compare:
	$(GO) run ./cmd/benchcompare $(OLD) $(NEW)

## figures: regenerate every table and figure into out/.
figures:
	$(GO) run ./cmd/figures -out out

clean:
	rm -rf out
