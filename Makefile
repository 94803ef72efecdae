# Development targets. `make check` is the gate a change must pass before
# it ships: build, vet, the full test suite, the race detector over the
# concurrency-heavy packages, and the benchmark module's vet and self-test.

GO ?= go

.PHONY: check build vet test race bench-module bench-json serve-smoke soak-smoke fuzz-smoke clean

check: build vet test race bench-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The packages whose correctness depends on lock-free/striped-lock
# discipline; everything else is single-threaded or covered transitively.
race:
	$(GO) test -race ./internal/concurrent ./internal/share ./internal/engine ./internal/server

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

# Run every Go-native fuzz target (each decoder of untrusted bytes has one)
# for FUZZTIME. Targets are found by name, so a new Fuzz* function is picked
# up without editing this list. A crasher is written to the package's
# testdata/fuzz/<Target>/ and replays in plain `go test` from then on.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; grep -r --include='*_test.go' --exclude-dir=perfbench -o '^func Fuzz[A-Za-z0-9_]*' . | \
	while IFS=: read -r file fn; do \
		target=$${fn#func }; \
		echo "== $$target ($$(dirname $$file))"; \
		$(GO) test "$$(dirname $$file)" -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -parallel 2; \
	done

clean:
	$(GO) clean ./...
