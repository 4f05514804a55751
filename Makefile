# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so green here means green there.

PROFDIR ?= /tmp/serveprof

.PHONY: build test race bench allocgate loc

build:
	go build ./...

test:
	go test ./...

race:
	go test -race -timeout 30m ./...

# bench reports the serve benchmarks with allocation counts, then
# re-runs the serve workload under BenchmarkServeAllocProfile to capture
# CPU and exact-allocation pprof profiles into $(PROFDIR) via
# internal/prof. Inspect with:
#   go tool pprof -sample_index=alloc_objects ssmobile.test $(PROFDIR)/serve.heap.pprof
bench:
	go test -run '^$$' -bench 'BenchmarkServeThroughput$$|BenchmarkTracedServeThroughput$$' \
		-benchmem -benchtime 20x .
	go test -run '^$$' -bench 'BenchmarkServeAllocProfile$$' -benchtime 10x \
		-serveprof $(PROFDIR) -memprofilerate=1 .
	@echo "profiles written to $(PROFDIR)"

# allocgate enforces the committed allocs/op budgets (alloc_budget.txt)
# on the serve hot path and the cluster router.
allocgate:
	./scripts/allocgate.sh

# loc prints non-blank, non-comment, non-test Go lines per package — the
# figure a simplification PR reports before and after (ROADMAP aim 2).
loc:
	./scripts/loc.sh
