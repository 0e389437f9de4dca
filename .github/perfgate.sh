#!/usr/bin/env bash
# Compares the performance of HEAD with its parent commit, HEAD^1, in one
# job on one host, and fails if HEAD is slower or allocates more:
#
#   bash .github/perfgate.sh
#
# It checks the parent out with `git worktree`, builds one root test binary
# per tree, and runs PAIRS interleaved pairs, alternating which side goes
# first. In each pair both sides run every verify/interp/opt/parser/wasm/
# store benchmark for 300 ms and BenchmarkCampaignJob for 12 jobs, with
# -benchmem, then a 5 s perfbench campaign (seed 50<pair>) from their own
# tree. With r_i = HEAD_i / parent_i:
#
#   - time: a benchmark fails if median(r) > 1 + max(3·MAD(r), 0.25);
#   - allocs: a benchmark fails if HEAD's median allocs/op exceeds the
#     parent's × 1.10 + 2;
#   - campaign: each end-to-end metric of BENCHMARK.json fails by the time
#     rule with its own bound in place of 0.25 (r inverted where higher is
#     better); peak_rss_mb is printed only, since it grows with the jobs a
#     run completes. Every campaign run must report correct with 0 failed;
#   - ingest floor: HEAD's median BenchmarkStoreCommit /
#     BenchmarkIngestThroughput ratio, both from one run, must be >= 10.
#
# A benchmark that exists only on HEAD is printed, not compared. Work files
# go to .perfgate/ at the repository root.
set -euo pipefail

PAIRS=5
BENCH='^Benchmark(Verify(Reference|Batch|MultiBlock|Memory|Widths|Exhaustive|ExhaustiveRule8|ExhaustiveRule16)?|Interp(Exec|Batch)|Wasm(Decode|Lift)|Opt(Clamp|AllRules)|ParserClamp|Store(Commit|GroupCommit)|IngestThroughput|CampaignJob)$'

root=$(git rev-parse --show-toplevel)
work="$root/.perfgate"
cd "$root"
rm -rf "$work"
git worktree prune
mkdir -p "$work"
git worktree add --detach "$work/parent" HEAD^1 >/dev/null
trap 'git -C "$root" worktree remove --force "$work/parent"' EXIT

echo "perfgate: HEAD $(git rev-parse --short HEAD) vs parent $(git rev-parse --short HEAD^1)"
go test -c -o "$work/head.test" .
(cd "$work/parent" && go test -c -o "$work/parent.test" .)

declare -A tree=([head]="$root" [parent]="$work/parent")
mapfile -t benches < <("$work/head.test" -test.list "$BENCH")
for i in $(seq 1 $PAIRS); do
	echo "perfgate: pair $i of $PAIRS"
	# Each benchmark runs in its own process, the two sides back to back in
	# alternating order, so drift on a shared host hits both sides alike.
	# BenchmarkCampaignJob runs each of the 12 seeds of its rotation once,
	# since its cost per op depends on which seeds a run reaches.
	for j in "${!benches[@]}"; do
		order=(head parent)
		(((i + j) % 2)) && order=(parent head)
		time=300ms
		[[ ${benches[$j]} == BenchmarkCampaignJob ]] && time=12x
		for s in "${order[@]}"; do
			(cd "${tree[$s]}" && "$work/$s.test" -test.run='^$' -test.bench="^${benches[$j]}\$" \
				-test.benchmem -test.benchtime=$time) | { grep '^Benchmark' || true; } >>"$work/$s-$i.bench"
		done
	done
	order=(head parent)
	((i % 2)) || order=(parent head)
	for s in "${order[@]}"; do
		(cd "${tree[$s]}" && bash perfbench/run.sh --workload campaign --seed "50$i" --seconds 5 --trace 0) |
			tail -n 1 >"$work/$s-$i.campaign"
	done
done

python3 - "$work" "$PAIRS" "$root/BENCHMARK.json" <<'PY'
import json, re, statistics, sys

work, pairs, spec = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
line = re.compile(r'^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) B/op\s+(\d+) allocs/op')

def bench(name, i):
    out = {}
    for l in open(f"{work}/{name}-{i}.bench"):
        m = line.match(l)
        if m:
            out[m[1]] = (float(m[2]), int(m[4]))
    return out

def campaign(name, i):
    return json.loads(open(f"{work}/{name}-{i}.campaign").read())

def mad(xs):
    med = statistics.median(xs)
    return statistics.median(abs(x - med) for x in xs)

failures = []

def gate(label, r, bound, shown):
    med, spread = statistics.median(r), mad(r)
    limit = 1 + max(3 * spread, bound)
    bad = med > limit
    print(f"{label:44} {shown:>30}  x{med:5.2f}  MAD {spread:4.2f}  limit x{limit:4.2f}  {'FAIL' if bad else 'ok'}")
    if bad:
        failures.append(f"{label}: median ratio {med:.2f} > {limit:.2f}")

heads = [bench("head", i) for i in range(1, pairs + 1)]
parents = [bench("parent", i) for i in range(1, pairs + 1)]
print(f"\n{'benchmark (ns/op, HEAD/parent)':44} {'parent -> HEAD median':>30}")
for name in heads[0]:
    hns = [h[name][0] for h in heads]
    if name not in parents[0]:
        print(f"{name:44} {'HEAD only':>18} {statistics.median(hns):11.0f}")
        continue
    pns = [p[name][0] for p in parents]
    gate(name, [h / p for h, p in zip(hns, pns)], 0.25,
         f"{statistics.median(pns):.0f} -> {statistics.median(hns):.0f}")
    ha = statistics.median(h[name][1] for h in heads)
    pa = statistics.median(p[name][1] for p in parents)
    if ha > pa * 1.10 + 2:
        failures.append(f"{name}: {ha:.0f} allocs/op vs parent {pa:.0f} (limit x1.10 + 2)")
        print(f"{'':44} allocs/op {pa:.0f} -> {ha:.0f}  FAIL")

speedup = statistics.median(h["BenchmarkStoreCommit"][0] / h["BenchmarkIngestThroughput"][0] for h in heads)
print(f"\ningest speedup (StoreCommit / IngestThroughput, HEAD): x{speedup:.1f}, floor x10")
if speedup < 10:
    failures.append(f"ingest speedup x{speedup:.1f} < x10")

print(f"\n{'campaign (HEAD worse-by ratio)':44} {'parent -> HEAD median':>30}")
hc = [campaign("head", i) for i in range(1, pairs + 1)]
pc = [campaign("parent", i) for i in range(1, pairs + 1)]
for side, runs in (("HEAD", hc), ("parent", pc)):
    for i, run in enumerate(runs, 1):
        if not run["correct"] or run["failed"]:
            failures.append(f"campaign {side} run {i}: correct={run['correct']} failed={run['failed']}")
for m in spec["end_to_end"]:
    n = m["name"]
    hv = [c["metrics"][n]["value"] for c in hc]
    pv = [c["metrics"][n]["value"] for c in pc]
    shown = f"{statistics.median(pv):.4g} -> {statistics.median(hv):.4g}"
    if n == "peak_rss_mb":
        print(f"{n:44} {shown:>30}  (not gated: grows with the jobs completed)")
        continue
    r = [h / p if m["better"] == "lower" else p / h for h, p in zip(hv, pv)]
    gate(n, r, m["bound"], shown)

if failures:
    print("\nperfgate: FAIL")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("\nperfgate: ok")
PY
