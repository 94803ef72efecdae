# Development targets. `make check` is the gate a change must pass before
# it ships: build, vet, the full test suite, the race detector over the
# concurrency-heavy packages, and the benchmark module's vet and self-test.

GO ?= go

.PHONY: check build vet test race bench-module bench-json serve-smoke soak-smoke clean

check: build vet test race bench-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The packages whose correctness depends on lock-free/striped-lock
# discipline; everything else is single-threaded or covered transitively.
# internal/kernel rides along because its Prep is shared read-only across
# worker goroutines — the race detector proves no traversal mutates it.
race:
	$(GO) test -race ./internal/concurrent ./internal/share ./internal/engine ./internal/server ./internal/kernel

# The benchmark harness (perfbench/) is a separate module outside ./..., so
# the targets above never compile it; vet and self-test it here so a change
# to server, snapshot or sched that breaks the benchmark build fails the gate.
bench-module:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the benchmark-trajectory artifact (BENCH_runs.json).
bench-json:
	$(GO) run ./cmd/experiments -exp bench -json -scale 0.01 -threads 8

# End-to-end daemon smoke: boot parcfld, query it cold, snapshot, restart
# warm, assert identical results and live parcfl_server_* metrics. Pass
# SMOKE_WORK=dir to keep the workdir (CI does, to upload failure bundles).
serve-smoke:
	bash scripts/serve_smoke.sh $(SMOKE_WORK)

# Load-and-observability smoke: soak a warm-started traced daemon with
# parcflload, assert a clean parcfl-soak/v1 report, nonzero parcfl_slo_*
# gauges, a request lane in the shutdown trace matching its timings, and an
# injected-overload phase that fires and validates a diagnostic bundle.
soak-smoke:
	bash scripts/soak_smoke.sh $(SMOKE_WORK)

clean:
	$(GO) clean ./...
