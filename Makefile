# Local and CI invocations are the same commands: .github/workflows/ci.yml
# runs build, bench-build, vet, fmt-check, race, bench-smoke, bench-smoke-e2e,
# serve-smoke, soak-smoke, fleet-smoke and fuzz-smoke as individual steps
# (plus lint and race4 as parallel jobs), and `make ci` chains those same
# targets locally.
# Keep the two in sync when adding a step.

GO ?= go

.PHONY: build bench-build test race race4 bench bench-smoke bench-smoke-e2e serve serve-smoke soak soak-smoke fleet-smoke fuzz-smoke fmt fmt-check vet lint lint-extra ci

build:
	$(GO) build ./...

# Compile the repo benchmark (perfbench/, BENCHMARK.json) offline. It is its
# own Go module, so `go build ./...` above never compiles it: an API removal
# that breaks it would otherwise only show up as a failed benchmark run.
bench-build:
	cd perfbench && GOFLAGS=-mod=readonly GOPROXY=off $(GO) vet .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race detection with a multi-core scheduler: a single-CPU machine
# serializes the worker pools and can hide races in the solver pool's and the
# fair-share queues' interleavings. CI runs this as its own job.
race4:
	GOMAXPROCS=4 $(GO) test -race ./...

# Full benchmark harness (regenerates every table/figure of the paper).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# One-iteration smoke of the paper-table, solver, ablation and end-to-end
# benchmarks so the harness cannot rot. `go test -bench` passes when its
# pattern selects nothing, so each name is first checked against the
# package's benchmark list: a renamed or deleted benchmark fails here instead
# of silently dropping out of the smoke.
bench-smoke:
	@list="$$($(GO) test -list . .)" || exit 1; pat=; \
	for b in 'BenchmarkTable1Detection$$' BenchmarkSolver BenchmarkAblation BenchmarkEndToEndPipeline; do \
		echo "$$list" | grep -Eq "^$$b" || { echo "bench-smoke: no benchmark matches $$b" >&2; exit 1; }; \
		pat="$$pat|$$b"; \
	done; \
	$(GO) test -bench="^($${pat#|})" -benchtime=1x -run='^$$' .

# Short answer-checked run of every repo-benchmark workload (perfbench/,
# BENCHMARK.json). run.sh exits non-zero, with `correct: false`, on any wrong
# answer against the paper's Table 1, failed request or failed self-check.
bench-smoke-e2e:
	for w in cold-suite warm-serve fleet-churn; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 3 || exit 1; \
	done

# Run the HTTP detection server locally.
serve:
	$(GO) run ./cmd/idiomd

# End-to-end smoke of the server: healthz, one streamed detection, statsz.
serve-smoke:
	sh scripts/serve_smoke.sh

# Full hostile-traffic soak: auth probes, weighted-fair flood, deadline
# probes, drain asserts. Native timings, tight p99 budget.
soak:
	$(GO) run ./cmd/soak

# Short -race soak for CI: the race detector inflates solve times ~10-20x,
# so the p99 noise floor is raised accordingly — the share, auth, deadline
# and drain asserts run at full strength.
soak-smoke:
	$(GO) run -race ./cmd/soak -duration 16s -p99-floor 1s

# Durable-state + fleet smoke: single-replica warm restart and pack replay,
# two replicas behind idiomfront (warm pass 2, restart-warm via the router,
# snapshot handoff), then the fairness soak driven through the front door.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# Ten seconds of coverage-guided fuzzing per untrusted input: the memo spill
# codec, which reads blobs from disk and snapshots from other replicas, the
# C frontend, which compiles tenant source, idiom-pack compilation, which
# parses and flattens tenant IDL, the HTTP request decoder, which reads
# every batch body and X-Deadline-Ms header, the state directory's blob
# container, boot's restore of a pack file, and the ingest of a memo
# snapshot from another replica. A failing input is saved under the
# package's testdata/fuzz and replays in every `go test` run. Minimizing a
# new payload-, module-, pack- or snapshot-sized corpus entry takes the
# default minute of the run, so every target minimizes for one second.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayload$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/constraint
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/cc
	$(GO) test -run '^$$' -fuzz '^FuzzCompilePack$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/idioms
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzOpenContainer$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzRestorePacks$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./idiomatic
	$(GO) test -run '^$$' -fuzz '^FuzzIngestMemoSnapshot$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./idiomatic

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Repo-invariant analyzers (internal/lint via cmd/idiomvet): map-order
# determinism, per-candidate cancel polls, fsync-before-rename, the v1 error
# envelope, and wall-clock-free solve paths. Findings print file:line plus
# the invariant's rationale; suppress a documented exception with
# `//lint:allow <analyzer> <reason>`. Then third-party analyzers
# (staticcheck, govulncheck), pinned by version, built from the local module
# cache only and skipped when they are not there (CI downloads them first).
lint:
	$(GO) run ./cmd/idiomvet
	sh scripts/lint_extra.sh

# Just the third-party half, for CI's dedicated lint job.
lint-extra:
	sh scripts/lint_extra.sh

# race4 subsumes race locally (same suite, stronger scheduler); CI runs race
# in the main job and race4 as its own parallel job.
ci: build bench-build vet fmt-check lint race4 bench-smoke bench-smoke-e2e serve-smoke soak-smoke fleet-smoke fuzz-smoke
