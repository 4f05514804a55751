#!/bin/sh
# loc.sh — non-blank, non-comment, non-test Go lines per package: the
# number an aim-2 (ROADMAP) PR reports before and after.
#
#   scripts/loc.sh [dir...]     default: every package in the module
#
# A line counts unless it is empty, starts with // or lies inside a
# /* */ block. One row per directory holding non-test .go files, then a
# total over the rows printed.
set -eu
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- .
find "$@" -name '*.go' ! -name '*_test.go' | sort | xargs awk '
	FNR == 1 { inblock = 0 }
	{
		line = $0
		sub(/^[ \t]+/, "", line)
		if (inblock) {
			if (line ~ /\*\//) inblock = 0
			next
		}
		if (line == "" || line ~ /^\/\//) next
		if (line ~ /^\/\*/) {
			if (line !~ /\*\//) inblock = 1
			next
		}
		dir = FILENAME
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\//, "", dir)
		n[dir]++
		total++
	}
	END {
		for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}
'
