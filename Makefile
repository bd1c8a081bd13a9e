# Developer entry points. `make ci` is the gate every change must pass;
# `make test` is the full (slow) suite; `make bench` regenerates the DES
# kernel microbenchmark numbers.

GO ?= go

.PHONY: ci vet build lint lint-fix-list test-short test race selfcheck test-full bench kernelbench databench databench-smoke repbench repbench-smoke chaos chaos-smoke loc clean

ci: vet build lint test race selfcheck databench-smoke repbench-smoke chaos-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Determinism + memory-contract lint suite (DESIGN.md §8, §10): nodeterm,
# maporder, procctx, wirecheck, borrowcheck, scratchflow, hotalloc over
# every package in the module. Zero unsuppressed findings is the gate;
# malformed //lint:allow directives (unknown analyzer, no justification)
# are themselves findings, so unjustified suppressions fail here too.
lint:
	$(GO) run ./cmd/linefs-lint ./...

# Suppression audit: every //lint:allow directive in the module with its
# file:line and justification, for reviewing what the lint gate is not
# seeing.
lint-fix-list:
	$(GO) run ./cmd/linefs-lint -allows ./...

# Fast development loop: skips the ~30s TencentSort workload and the
# baseline cross-check suites. Target: under a minute on one core.
test-short:
	$(GO) test -short ./...

# The simulation kernel hands control between goroutines; the race detector
# guards the handoff protocol. Suites are -short-gated, so the whole module
# fits under the race gate.
race:
	$(GO) test -race -short ./...

# Runtime determinism gate (DESIGN.md §8): run every experiment twice with
# the sim-sanitizer enabled and fail on digest or output divergence. One
# run at a time: the largest experiments peak above 4 GB each, and -j N
# would run both copies of one experiment side by side.
selfcheck:
	$(GO) run ./cmd/linefs-bench -selfcheck -exp all -j 1

# Full suite (what the roadmap calls tier-1; part of ci).
test:
	$(GO) test ./...

# DES kernel microbenchmarks (Go benchmark form, with allocation counts).
kernelbench:
	$(GO) test -bench=Kernel -benchmem -run='^$$' ./internal/sim/

# Regenerate BENCH_kernel.json (baseline vs current events/sec).
bench:
	$(GO) build -o linefs-bench ./cmd/linefs-bench
	./linefs-bench -kernelbench

# Regenerate BENCH_dataplane.json (seed vs current LZW / log codec / PM
# throughput, measured back-to-back per metric).
databench:
	$(GO) build -o linefs-bench ./cmd/linefs-bench
	./linefs-bench -databench -databench-time 2s

# CI smoke: tiny measurement windows, but the same harness — it still
# asserts the steady-state compress/decompress/encode/decode/PM-write
# paths run at 0 allocs/op. The report itself goes to a scratch file.
databench-smoke:
	$(GO) run ./cmd/linefs-bench -databench -databench-time 25ms -databench-out /tmp/BENCH_dataplane_smoke.json

# Regenerate BENCH_replication.json (seed per-chunk protocol vs batched
# fast path down the 3-replica chain, plus the pooled-path allocation
# gate). The chain numbers are simulated time, so they are deterministic;
# only the allocs/op loop is wall clock.
repbench:
	$(GO) build -o linefs-bench ./cmd/linefs-bench
	./linefs-bench -repbench -repbench-time 2s

# CI smoke: same harness, tiny allocation window. Still asserts the pooled
# replication hot path runs at 0 allocs/op and that the chain workloads
# complete; the report goes to a scratch file.
repbench-smoke:
	$(GO) run ./cmd/linefs-bench -repbench -repbench-time 25ms -repbench-out /tmp/BENCH_replication_smoke.json

# Seeded fault-schedule explorer (DESIGN.md §12): 200 generated schedules
# of drops, duplicates, corruption, delays, partitions, and host crashes
# against a full cluster, each run twice; fails on any invariant violation
# (acked durability, replica convergence, clean drain, digest
# reproducibility) and prints a -chaos-seed reproducer.
chaos:
	$(GO) run ./cmd/linefs-bench -chaos

# CI smoke: same harness and invariants, 25 schedules.
chaos-smoke:
	$(GO) run ./cmd/linefs-bench -chaos -chaos-n 25

# Code-size metric (ROADMAP north star): non-test Go lines in internal/core.
loc:
	@find internal/core -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l

clean:
	rm -f linefs-bench
