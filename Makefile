# Tier-1 gate: everything a PR must keep green. The full test suite runs
# once without the race detector; the race run hides the chaos soak and
# other long tests behind -short, and `make soak` runs them raced in full.
GO ?= go

.PHONY: tier1 build vet test race race-core bench-scale bench-telemetry bench-json trace-demo fleet-smoke fleet-demo metrics-smoke lifetime-smoke soak soak-short figures demo clean

tier1: build vet test race race-core fleet-smoke metrics-smoke lifetime-smoke soak-short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-checked short run (skips the chaos soak and long experiments).
race:
	$(GO) test -race -short ./...

# Full (non-short) race run over the concurrency-sensitive core: the
# event engine, the FTL (per-die degraded transitions), the multi-queue
# host front end, the crash-consistency subsystem (power-cut sweep),
# the telemetry registry/tracer, the network block service (live
# concurrent clients against the single-threaded core), and the
# read-retry pipeline layers (nand ladder/latency model, core retry
# table and its checkpoint serialization).
race-core:
	$(GO) test -race ./internal/sim ./internal/ftl ./internal/host ./internal/recovery ./internal/telemetry ./internal/server ./internal/fleet ./internal/cache ./internal/nand ./internal/core ./internal/lifetime

# Multi-die scaling gate: fails if a 2x4 backend delivers less than
# 1.5x the single-die Mixed IOPS (or if same-seed replay diverges).
bench-scale:
	$(GO) test -run TestBenchScale -v ./internal/experiment

# Observability overhead check: Mixed with telemetry fully off vs fully
# on (tracer + 1ms sampler). The telemetry-off number is the one the
# <2% overhead contract in EXPERIMENTS.md is measured against.
bench-telemetry:
	$(GO) test -run xxx -bench 'BenchmarkMixedTelemetry' -benchtime 5x -count 3 .

# Machine-readable benchmark snapshot: runs the scale and telemetry
# scenarios and writes BENCH_core.json (IOPS, p50/p99, wall time, seed,
# git rev) so the perf trajectory is tracked across commits.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_core.json

# Fleet smoke, tier-1 sized (a few seconds): the checked-in MSR fixture
# replayed across 8 shards and 1024 tenants behind write-back caches.
# The report on stdout is byte-stable for a fixed seed; diffing two runs
# is the quickest fleet-determinism check outside the test suite.
fleet-smoke:
	$(GO) run ./cmd/cubefleet -trace internal/workload/testdata/msr_sample.csv \
		-shards 8 -tenants 1024 -blocks 8 -channels 1 -dies 2 \
		-cache-pages 1024 -cache-policy 2q -cache-mode back -compress 20

# Fleet demo at deployment-flavored scale: capacity-aware placement over
# process-varied shards (±25% capacity jitter), 2048 tenants, the trace
# repeated 4x, per-shard 2Q write-back caches.
fleet-demo:
	$(GO) run ./cmd/cubefleet -trace internal/workload/testdata/msr_sample.csv \
		-shards 8 -tenants 2048 -placement capacity -capacity-jitter 0.25 \
		-blocks 12 -channels 1 -dies 2 -repeat 4 \
		-cache-pages 2048 -cache-policy 2q -cache-mode back -compress 20

# Chaos trace demo: kill die 3 mid-run and capture the full observability
# bundle — Chrome trace (open in https://ui.perfetto.dev), stats JSONL,
# and the per-stage latency breakdown.
trace-demo:
	$(GO) run ./cmd/cubesim -workload Mixed -requests 8000 -qd 16 \
		-killdie 3 -trace-out trace.json -stats-out stats.jsonl -breakdown

# Observability smoke: boot a real cubeserved with the metrics plane
# on, scrape /metrics and /readyz over HTTP, and assert the required
# exposition families (per-tenant p99, SLO state, retry-table
# counters, per-die health) are served. Fails on any missing family.
METRICS_PORT ?= 9491
metrics-smoke:
	@set -e; \
	$(GO) build -o /tmp/cubeserved-smoke ./cmd/cubeserved; \
	/tmp/cubeserved-smoke -addr 127.0.0.1:7491 -metrics-addr 127.0.0.1:$(METRICS_PORT) \
		-blocks 16 -slo & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS -o /dev/null http://127.0.0.1:$(METRICS_PORT)/readyz 2>/dev/null && break; \
		sleep 0.1; \
	done; \
	out=$$(curl -fsS http://127.0.0.1:$(METRICS_PORT)/metrics); \
	for fam in 'cube_server_up 1' 'cube_tenant_read_p99_ns{tenant="lat"}' \
		'cube_tenant_weight{tenant="lat"}' 'cube_slo_enabled 1' \
		'cube_cube_retry_hits' 'cube_cube_ort_hits' \
		'cube_ftl_die_0_degraded' 'cube_events_total' \
		'cube_waf_host_bytes' 'cube_waf_refresh_bytes' \
		'cube_erase_count{die="0",quantile="0.5"}'; do \
		echo "$$out" | grep -qF "$$fam" || { echo "metrics-smoke: missing $$fam"; exit 1; }; \
	done; \
	curl -fsS http://127.0.0.1:$(METRICS_PORT)/healthz >/dev/null; \
	echo "metrics-smoke: PASS (all required families served)"

# Lifetime smoke: fast-forward a refresh+WL device three simulated
# years and assert the lifetime contract — read p99 stays within 2x of
# the same device's fresh baseline and no read goes uncorrectable.
lifetime-smoke:
	$(GO) test -run TestLifetimeSmoke -v ./internal/experiment

# Live-traffic chaos soak, tier-1 sized (<= 60s wall): a real cubeserved
# instance, 6 concurrent TCP clients, fault injection on, die kill and
# power cuts mid-traffic. Exits non-zero on any acked-write loss, stuck
# client, or failed recovery verification. -ab runs static weights then
# the SLO controller and prints the protected tenant's p99 both ways.
soak-short:
	$(GO) run ./cmd/soak -ab -dur 5s -clients 6 -cuts 2 -killdie 1 -slo-target 300us

# Full suite including the fault-injection chaos soak.
soak:
	$(GO) test -race ./...

# Regenerate every paper figure/extension table.
figures:
	$(GO) run ./cmd/paperfig

# Multi-tenant QoS demo: RR vs WRR vs WRR + rate cap.
demo:
	$(GO) run ./examples/multi-tenant

clean:
	$(GO) clean ./...
