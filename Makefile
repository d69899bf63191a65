# Developer entry points. Everything is plain `go` underneath; the
# targets just fix the flag sets CI and reviewers use.

GO ?= go

.PHONY: all build test race vet staticcheck bench clean ci race-sweep

all: build test

# Everything CI runs (.github/workflows/ci.yml): build, vet (plus
# staticcheck when installed), the full test suite and a race-mode pass
# over the concurrent paths.
ci: build vet staticcheck test race-sweep

# Race-mode pass over the packages with goroutines: the parallel sweep
# engine, the metrics registry it publishes progress/percentiles
# through, the figure grids built on it, the record producer (trace),
# the workloads it runs (workload), the crash trials that start and
# join it (recovery), and the concurrent pmemaccel.Run entry points and
# NewSystem's build workers, which generate the cores' workloads in
# parallel (.).
race-sweep:
	$(GO) test -race ./internal/sweep/ ./internal/obs/metrics/ ./internal/figures/ ./internal/trace/ ./internal/workload/ ./internal/recovery/ .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skips with a note when the staticcheck
# binary is not on PATH (CI installs it; local runs need not).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Regenerate the paper's headline numbers (Figures 6-10, Table 1).
# Simulator speed is measured by the benchmark in bench/ (bench/README.md).
bench:
	$(GO) test -bench=Fig -benchtime=1x .

clean:
	$(GO) clean ./...
	rm -f trace.json metrics.csv
