#!/bin/sh
# pairs.sh — the benchmark in alternating pairs: a revision against the
# working tree, with one JSON record of both sides.
#
#   scripts/pairs.sh REV [bench flags]
#
# REV is extracted (git archive, so nothing is registered in .git) into a
# temporary directory. Both sides then run `go run ./bench [bench flags]`
# from their own root, PAIRS times each (default and least 10, the fewest
# that can back a claim): odd pairs REV first, even pairs the working tree
# first. The record goes to OUT (default
# pairs.json); when OUT already holds a record, the new run is appended to
# its "runs", so one file can carry several seeds. Per workload and
# end-to-end metric it holds both sides' samples, median and quartiles
# (Python's statistics.quantiles, n=4), the pairs the working tree won and
# lost by the metric's direction in BENCHMARK.json, and the gap between
# the medians over REV's interquartile range (positive: the working tree
# is better). The script fails when a run fails, and when any sim_* metric
# or sim_digest differs between two runs of a workload: the simulated
# currency must repeat exactly per seed, on both sides. What moved is
# listed under "sim_moved" first.
#
# Example, two seeds of one workload into one file:
#   OUT=BENCH_prNN.json scripts/pairs.sh HEAD~1 -workload meta_sync -seed 1993
#   OUT=BENCH_prNN.json scripts/pairs.sh HEAD~1 -workload meta_sync -seed 7
set -eu

if [ $# -lt 1 ]; then
	echo "usage: scripts/pairs.sh REV [bench flags]" >&2
	exit 2
fi
rev=$1
shift
root=$(cd "$(dirname "$0")/.." && pwd)
pairs=${PAIRS:-10}
if [ "$pairs" -lt 10 ]; then
	echo "pairs.sh: PAIRS=$pairs; a record needs at least 10 pairs" >&2
	exit 2
fi
out=${OUT:-pairs.json}
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/parent"
git -C "$root" archive "$sha" | tar -x -C "$tmp/parent"

i=1
while [ "$i" -le "$pairs" ]; do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent"
	for side in $order; do
		dir=$root
		[ "$side" = parent ] && dir=$tmp/parent
		echo "pairs.sh: pair $i of $pairs, $side" >&2
		if ! (cd "$dir" && go run ./bench "$@") >"$tmp/$side.$i.out" 2>&1; then
			echo "pairs.sh: $side run $i failed:" >&2
			tail -20 "$tmp/$side.$i.out" >&2
			exit 1
		fi
	done
	i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$tmp" "$pairs" "$out" "$sha" "$*" "$(go version)" <<'EOF'
import json, os, statistics, sys

bench, tmp, pairs, out, sha, flags, gover = sys.argv[1:]
pairs = int(pairs)
better = {m["name"]: m["better"] for m in json.load(open(bench))["end_to_end"]}

def parse(path):
    """Each workload's sim_digest and result line from one bench run."""
    runs, name = {}, None
    for line in open(path):
        line = line.strip()
        if line.startswith("== "):
            name = line.split()[1]
            runs[name] = {}
        elif line.startswith("sim_digest "):
            runs[name]["sim_digest"] = line.split()[1]
        elif line.startswith("{") and name is not None:
            res = json.loads(line)
            runs[name]["failed"] = res["failed"]
            runs[name]["metrics"] = {k: v["value"] for k, v in res["metrics"].items()}
    return runs

def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"samples": xs, "q1": q1, "median": statistics.median(xs), "q3": q3, "iqr": q3 - q1}

sides = {s: [parse(os.path.join(tmp, f"{s}.{i}.out")) for i in range(1, pairs + 1)]
         for s in ("parent", "change")}
moved, workloads = [], {}
for w in sides["parent"][0]:
    def sim(run):
        d = {k: v for k, v in run[w]["metrics"].items() if k.startswith("sim_")}
        d["sim_digest"] = run[w].get("sim_digest")
        return d
    ref = sim(sides["parent"][0])
    for s, runs in sides.items():
        for i, run in enumerate(runs, 1):
            for k, v in sim(run).items():
                if v != ref[k]:
                    moved.append(f"{w} {k}: {s} run {i} reads {v}, parent run 1 {ref[k]}")
    rec = {"sim": ref, "failed": {s: [r[w]["failed"] for r in runs] for s, runs in sides.items()},
           "metrics": {}}
    for m, direction in better.items():
        if m.startswith("sim_"):
            continue
        p = [r[w]["metrics"][m] for r in sides["parent"]]
        c = [r[w]["metrics"][m] for r in sides["change"]]
        sign = 1 if direction == "lower" else -1
        ps, cs = summary(p), summary(c)
        rec["metrics"][m] = {
            "better": direction,
            "parent": ps,
            "change": cs,
            "change_over_parent": cs["median"] / ps["median"] if ps["median"] else None,
            "won": sum(sign * (a - b) > 0 for a, b in zip(p, c)),
            "lost": sum(sign * (a - b) < 0 for a, b in zip(p, c)),
            "gap_over_parent_iqr": sign * (ps["median"] - cs["median"]) / ps["iqr"] if ps["iqr"] else None,
        }
    workloads[w] = rec

record = {"runs": []}
if os.path.exists(out):
    record = json.load(open(out))
record["runs"].append({
    "parent": sha, "change": "working tree", "bench_flags": flags, "pairs": pairs,
    "order": "odd pairs parent first, even pairs change first",
    "host": {"cpus": os.cpu_count(), "go": gover},
    "sim_moved": moved, "workloads": workloads,
})
with open(out, "w") as f:
    json.dump(record, f, indent=1)
    f.write("\n")
for w, rec in workloads.items():
    for m, r in rec["metrics"].items():
        print(f"{w:10s} {m:20s} parent {r['parent']['median']:.6g} change {r['change']['median']:.6g}"
              f" won {r['won']}/{pairs} lost {r['lost']}")
if moved:
    print("pairs.sh: simulated numbers moved:", *moved, sep="\n  ", file=sys.stderr)
    sys.exit(1)
EOF
