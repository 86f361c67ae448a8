GO ?= go

.PHONY: all build test race vet lint bench bench-edge bench-fed bench-guard bench-steal chaos chaos-durable chaos-fed telemetry-smoke governor-smoke edge-smoke fed-smoke clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race suite, then the scheduling-sensitive tests again at 1, 2 and 4
# Ps: shared-notifier FIFO, concurrent stats snapshots and the cluster's
# frame admission only misbehave when goroutines really run in parallel
# (or really do not), which a single-core run never shows.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 -count=20 -run 'Steal|StatsConcurrent' ./dataplane
	$(GO) test -race -cpu 1,2,4 -count=20 ./internal/cluster

vet:
	$(GO) vet ./...

# Static analysis: vet always; staticcheck and govulncheck when
# installed (CI installs both).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Chaos suite: fault-injected dataplane isolation/recovery tests and the
# notifier close-race hammers, repeated under the race detector.
chaos:
	$(GO) test -race -run Chaos -count=3 ./...

# Durability chaos: the kill -9 harness (child process flooded with
# identified messages is SIGKILLed mid-burst; recovery must replay every
# durable item exactly once and keep the dedup window) repeated under the
# race detector, plus a short WAL decoder fuzz smoke (torn tails and bit
# flips must stop recovery cleanly, never panic or invent records).
chaos-durable:
	$(GO) test -race -run ChaosDurable -count=3 ./dataplane
	$(GO) test -run FuzzWALRecover -fuzz FuzzWALRecover -fuzztime 10s ./internal/wal

# Federation chaos: the partition drill (3 nodes, one killed mid-stream;
# survivors must converge, re-home the dead node's tenants, and preserve
# exactly-once on deliberately double-sent ids) and graceful handoff
# under load, repeated under the race detector, with the frame-admission
# tests (in-frame duplicates, ring-full retries, opposed shard orders
# from two connections). The frame fuzz smoke hammers the bridge decoder
# with corrupt frames — it must error, never panic.
chaos-fed:
	$(GO) test -race -run 'ChaosFed|AdmitFrame|CrossShard' -count=3 ./internal/cluster
	$(GO) test -run FuzzDecode -fuzz FuzzDecode -fuzztime 10s ./internal/cluster/frame

# Federation smoke: the federated-plane example end to end — three nodes
# shard the tenants, one tenant migrates gracefully with its dedup
# window, one node is killed mid-traffic, and the run fails unless the
# survivors converge, re-home, and hold exactly-once across all phases.
fed-smoke:
	$(GO) run -race ./examples/federated-plane -smoke

# Federation benchmark: local vs bridge-forwarded throughput and
# graceful-handoff latency over loopback TCP (single-core hosts record a
# scaling note on the forwarded:local ratio).
bench-fed:
	$(GO) run ./cmd/fedbench -duration 2s -handoffs 20 -out BENCH_federation.json

# Regenerate the benchmark reports: BENCH_notifier.json (banked notifier
# vs the retired mutex engine), BENCH_ring.json (batched vs per-item ring
# ops, SPSC and MPSC), and BENCH_dataplane.json (end-to-end planebench
# grid with the per-item baseline).
bench: bench-ring
	$(GO) run ./cmd/notifierbench -out BENCH_notifier.json
	$(GO) run ./cmd/planebench -tenants 8,64 -duration 1s -trials 3 -batch 1,16 -out BENCH_dataplane.json
	$(GO) run ./cmd/planebench -skew 1.1 -seed 1 -tenants 16 -workers 4 -batch 16 \
		-duration 1s -trials 3 -out BENCH_dataplane.json -merge
	$(GO) run ./cmd/planebench -durable -tenants 8 -batch 1,64 \
		-duration 1s -trials 3 -out BENCH_dataplane.json -merge -durable-check 0.5
	$(GO) run ./cmd/planebench -loadsweep 5,10,25,50,100 -tenants 8 -workers 4 -batch 16 \
		-duration 1s -trials 3 -out BENCH_dataplane.json -merge

bench-ring:
	$(GO) run ./cmd/ringbench -out BENCH_ring.json

# Network-edge benchmark: batched vs per-request ingest staging, then a
# paced open-loop ingest against the SSE subscriber-count grid (10k+
# concurrent connections on multi-core hosts; the grid self-caps against
# RLIMIT_NOFILE with an fd_note).
bench-edge:
	$(GO) run ./cmd/edgebench -subs 100,1000,10000 -duration 2s -out BENCH_edge.json

# Skewed-load steal smoke: Zipf(1.1) tenant load, each point measured with
# work stealing off and on. On multi-core hosts stealing must at least
# match the no-steal throughput (-steal-check 1.0); single-core hosts
# record a scaling note and skip the ratio check.
bench-steal:
	$(GO) run ./cmd/planebench -skew 1.1 -seed 1 -tenants 16 -workers 4 -batch 16 \
		-smoke -steal-check 1.0

# Regression guards: re-measure each recorded grid and fail if any cell's
# speedup ratio drops more than 10% below the stored numbers (ratios of
# two fresh measurements, so machine speed cancels out). The telemetry
# guard compares the banked notifier with and without a telemetry plane
# (default 1/64 sampling) and fails if enabling it costs more than 5% on
# the Notify path — observability must stay a branch, not a lock.
bench-guard:
	$(GO) run ./cmd/notifierbench -check BENCH_notifier.json -tolerance 0.10 -ops 300000 -trials 3
	$(GO) run ./cmd/ringbench -check BENCH_ring.json -tolerance 0.15 -ops 400000 -trials 5
	$(GO) run ./cmd/notifierbench -telemetry-check -telemetry-tolerance 0.05
	$(GO) run ./cmd/planebench -skew 1.1 -seed 1 -tenants 16 -workers 4 -batch 16 \
		-smoke -steal-check 1.0
	$(GO) run ./cmd/planebench -loadsweep 10,100 -tenants 8 -workers 4 -batch 16 \
		-smoke -prop-check 0.4
	$(GO) run ./cmd/edgebench -smoke -batch-check 2.0

# Telemetry smoke: run the observed-plane example briefly, self-scrape
# /metrics, /debug/tenants and /debug/trace, and fail if any expected
# series or span is missing.
telemetry-smoke:
	$(GO) run ./examples/observed-plane -smoke

# Elastic control-plane smoke: run the elastic-plane example briefly and
# fail unless the governor shrinks the active set at trickle load and
# grows it back on a burst (single-core hosts report, but do not fail,
# the elastic assertions — there is no parallelism to take away).
governor-smoke:
	$(GO) run ./examples/elastic-plane -smoke

# Network-edge smoke: race-enabled edgebench self-test — batched vs
# per-request ingest cells, a small SSE fan-out grid, and the HTTP
# self-checks (every subscriber delivered to, idempotency dedup,
# rate-limit 429). The >=2x batch guard only applies on multi-core
# hosts; single-core hosts record a scaling note and skip it.
edge-smoke:
	$(GO) run -race ./cmd/edgebench -smoke -batch-check 2.0

clean:
	$(GO) clean ./...
