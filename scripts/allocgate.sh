#!/usr/bin/env bash
# Allocation-regression gate for the serve hot path and the cluster
# router.
#
# Runs the serve benchmarks and the router's per-request benchmark with
# -benchmem and fails if any benchmark's allocs/op exceeds its budget in
# alloc_budget.txt. Run by CI on every push and locally via
# `make allocgate`.
set -euo pipefail
cd "$(dirname "$0")/.."

budget_file=alloc_budget.txt

out=$(go test -run '^$' -benchtime 5x -benchmem \
	-bench 'BenchmarkServeThroughput$|BenchmarkTracedServeThroughput$' .)
# 4096 requests span 64 health sweeps: the router's budget is about what
# a sweep costs amortised over the requests between sweeps, so the run
# has to be long enough to contain them.
out+=$'\n'$(go test -run '^$' -benchtime 4096x -benchmem \
	-bench 'BenchmarkClusterDo$' ./internal/cluster/)
echo "$out"

fail=0
while read -r name budget; do
	case "$name" in ''|\#*) continue ;; esac
	# Benchmark lines look like:
	#   BenchmarkServeThroughput-8  5  26ms/op ... 1970 allocs/op
	allocs=$(echo "$out" | awk -v n="$name" '
		$1 ~ ("^" n "(-[0-9]+)?$") {
			for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
		}')
	if [ -z "$allocs" ]; then
		echo "allocgate: $name did not run" >&2
		fail=1
		continue
	fi
	if [ "$allocs" -gt "$budget" ]; then
		echo "allocgate: $name allocated $allocs/op, budget is $budget/op" >&2
		fail=1
	else
		echo "allocgate: $name $allocs/op within budget $budget/op"
	fi
done <"$budget_file"

exit "$fail"
