# mlmd build / verification entry points.
#
#   make check   - format check, vet, static enforcement (make lint), build,
#                  full test suite (including the
#                  multi-process smoke: cmd/mlmd's TestMultiProcessSummary-
#                  MatchesGolden runs a short `mlmd -procs 2` over the
#                  Unix-socket rank transport against the golden summary, and
#                  the auto-recovery smoke: TestAutoResumeRecoversFromKilled-
#                  Worker SIGKILLs one of three -auto-resume workers and
#                  requires the shrunken resume to reproduce the golden tail
#                  bitwise — both skipping on platforms without Unix
#                  sockets), the benchmark driver's tests (make benchtest),
#                  the race detector over the pool-parallel and
#                  sharded packages (the -short shard lane races the
#                  RunRecovered shrink-and-resume driver too), the coverage
#                  floor, a short fuzz smoke (FuzzReadHandshake covers the
#                  generation-tagged wire handshake), and the docs gate
#   make benchtest - the benchmark driver's own tests (mlmdbench/ is a
#                  module of its own, so `go test ./...` at the root never
#                  reaches its wrapper-fidelity and estimator tests)
#   make lint    - run cmd/mlmdlint (the internal/lint analyzer suite:
#                  noalloc, detrange, poolonly, ascendsum, wiresafe) over
#                  ./... and fail on any finding; docs/lint.md documents the
#                  //mlmd:hotpath annotation and //lint:allow suppression
#                  grammar
#   make race-full - CI-nightly race lane: the full (non-short) detector
#                  pass over the transport, halo, and stencil packages plus
#                  the shard grid-identity matrix under -race (the -short
#                  lane `make race` runs on every check)
#   make docs    - documentation gate: gofmt -l on the documented packages,
#                  go vet ./..., and cmd/checkdoc (fails on exported
#                  identifiers missing doc comments in shard/cluster/
#                  cluster/wire/par)
#   make cover   - enforce the >=85% coverage floor on the MD/IO/cluster/
#                  shard packages (grid/overlap paths included)
#   make fuzz    - 10s native-fuzz smoke per mlmdio deserializer and per
#                  wire frame decoder (the multi-process rank transport)
#   make bench   - hot-kernel benchmarks (serial vs pool) with allocation
#                  counts, written to BENCH_PR1.json (and echoed)
#   make bench2  - sharded-engine strong scaling (1/2/4/8 ranks, best of 7),
#                  written to BENCH_PR2.json (and echoed as a table)
#   make bench3  - sharded-engine 3-D grid vs slab strong scaling
#                  (1x1x1 ... 2x2x2, best of 7), written to BENCH_PR3.json
#   make bench4  - hot-spot load-balancing sweep (static vs balanced grids
#                  on the Gaussian-clustered workload, best of 5), written
#                  to BENCH_PR4.json
#   make bench5  - in-process vs multi-process transport sweep (one OS
#                  process per rank over Unix sockets, best of 5) plus the
#                  transport ping-pong, written to BENCH_PR5.json
#   make bench6  - checkpoint write cost (periodic gather + atomic mlmdio
#                  files) and unix-vs-tcp multi-process transport overhead,
#                  written to BENCH_PR6.json
#   make bench8  - self-healing shrink-and-resume latency (detect to first
#                  resumed step, one injected rank failure per trial) vs
#                  checkpoint cadence, written to BENCH_PR8.json
#   make bench9  - sharded-FDTD stencil scaling on the grid engine (slab and
#                  3-D rank grids, best of 5) with measured halo bytes/step,
#                  written to BENCH_PR9.json
#   make tables  - the full paper-table benchmark suite at the repo root
#
# docs/benchmarks.md documents the bench workflow and the JSON schemas;
# ARCHITECTURE.md maps the layers these targets exercise.

GO ?= go

# Fail pipelines on the first failing stage (so `make bench` cannot write
# BENCH_PR1.json from a failed benchmark run and still exit 0).
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

# Packages whose kernels run on the internal/par worker pool, plus the
# rank-parallel shard engine and its communicator (the rank-scaling race
# surface). The shard package is raced separately with -short: its grid
# identity matrix shrinks to 60-step trajectories there, which exercises
# every exchange/migration/overlap code path without the full-length
# trajectory cost under the detector.
PAR_PKGS = ./internal/par ./internal/md ./internal/linalg ./internal/allegro \
	./internal/tddft ./internal/core ./internal/cluster ./internal/maxwell \
	./internal/shard/halo

# Coverage-gated packages and floor: the MD, IO, cluster, wire and shard
# layers (shard grid/overlap and cluster grid-topology paths included), the
# nn inference tapes, the shape-agnostic halo layer with its grid solvers,
# and the lint suite — current levels: md 97%, mlmdio 89%, cluster 90%,
# wire 95%, shard 90%, nn 96%, halo 96%, maxwell 89%, tddft 88%, lint 88%.
COVER_PKGS = ./internal/md ./internal/mlmdio ./internal/cluster ./internal/cluster/wire ./internal/shard ./internal/nn \
	./internal/shard/halo ./internal/maxwell ./internal/tddft ./internal/lint
COVER_MIN  = 85

# Deserializers and frame decoders under native fuzzing, per package, plus
# the per-row MLP tape harness (the tapes must match the scalar reference
# bitwise on arbitrary shapes and inputs).
FUZZ_TARGETS      = FuzzReadXYZ FuzzLoadSystem FuzzLoadModel FuzzLoadWaveField FuzzLoadCheckpoint
WIRE_FUZZ_TARGETS = FuzzReadData FuzzReadHandshake
NN_FUZZ_TARGETS   = FuzzTapeMLP
HALO_FUZZ_TARGETS = FuzzFieldPackUnpack
FUZZ_TIME   ?= 10s

# Packages whose exported API must be fully doc-commented (`make docs`).
DOC_PKGS = ./internal/shard ./internal/cluster ./internal/cluster/wire ./internal/par ./internal/allegro ./internal/nn \
	./internal/shard/halo ./internal/maxwell ./internal/tddft ./internal/multigrid ./internal/lint

.PHONY: check fmt vet lint build test benchtest race race-full cover fuzz docs bench bench2 bench3 bench4 bench5 bench6 bench8 bench9 tables

check: fmt vet lint build test benchtest race cover fuzz docs

# Static enforcement: the internal/lint analyzer suite over the whole tree.
# Deliberately-violating analyzer fixtures live under internal/lint/testdata,
# which the ./... wildcard does not match.
lint:
	$(GO) run ./cmd/mlmdlint ./...

# docs = gofmt + vet (via prerequisites, so `make check` doesn't run them
# twice) + the exported-doc-comment gate.
docs: fmt vet
	$(GO) run ./cmd/checkdoc $(DOC_PKGS)

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

benchtest:
	cd mlmdbench && $(GO) test ./...

race:
	$(GO) test -race $(PAR_PKGS)
	$(GO) test -race -short ./internal/shard

# CI-nightly: the full-depth race lane. Everything `make race` runs in
# -short mode runs here at full length — the transport soak, the halo
# exchange sweeps, the 3-D stencil runs, and the shard grid-identity
# matrix (every rank-grid shape must reproduce the serial trajectory
# bitwise while the detector watches the exchanges).
race-full:
	$(GO) test -race ./internal/cluster ./internal/shard/halo ./internal/maxwell
	$(GO) test -race -run 'TestGridDecompositionIdentityMatrix' ./internal/shard

cover:
	@for p in $(COVER_PKGS); do \
		line="$$($(GO) test -cover $$p | tail -1)"; echo "$$line"; \
		pct="$$(echo "$$line" | grep -o '[0-9.]*%' | head -1 | tr -d '%')"; \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$p"; exit 1; fi; \
		awk -v p="$$pct" -v m=$(COVER_MIN) 'BEGIN { exit !(p >= m) }' || \
			{ echo "coverage $$pct% of $$p below $(COVER_MIN)%"; exit 1; }; \
	done

fuzz:
	@for f in $(FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/mlmdio -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done
	@for f in $(WIRE_FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/cluster/wire -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done
	@for f in $(NN_FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/nn -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done
	@for f in $(HALO_FUZZ_TARGETS); do \
		echo "fuzz $$f ($(FUZZ_TIME))"; \
		$(GO) test ./internal/shard/halo -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZ_TIME) | tail -2; \
	done

bench:
	$(GO) test ./internal/md ./internal/linalg ./internal/par \
		-run '^$$' -bench . -benchmem -benchtime=1s \
		| tee /dev/stderr | $(GO) run ./cmd/bench2json > BENCH_PR1.json

bench2:
	$(GO) run ./cmd/bench-scaling -shard -shardjson > BENCH_PR2.json

bench3:
	$(GO) run ./cmd/bench-scaling -grid -shardjson > BENCH_PR3.json

bench4:
	$(GO) run ./cmd/bench-scaling -hotspot -shardjson > BENCH_PR4.json

bench5:
	$(GO) run ./cmd/bench-scaling -procs -shardjson > BENCH_PR5.json

bench6:
	$(GO) run ./cmd/bench-scaling -fault -shardjson > BENCH_PR6.json

bench8:
	$(GO) run ./cmd/bench-scaling -recover -shardjson > BENCH_PR8.json

bench9:
	$(GO) run ./cmd/bench-scaling -stencil -shardjson > BENCH_PR9.json

tables:
	$(GO) test . -run '^$$' -bench . -benchmem
