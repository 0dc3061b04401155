#!/usr/bin/env bash
# Same-box A/B of the whole benchmark suite between two sibling clones.
#
#   scripts/ab.sh <parent-clone> <change-clone> <pairs> [benchmark args, e.g. --seed 12345 --seconds 8]
#
# Both sides must be checkouts at equal path depth (a change built in the
# working tree reads 2-11 % faster than a parent built in a clone), e.g.
#
#   git clone /root/repo /root/scratch/parent
#   git clone /root/repo /root/scratch/change
#   git -C /root/repo diff --cached HEAD --binary | git -C /root/scratch/change apply --index
#
# Builds both benchmark binaries first, then runs <pairs> suite pairs in
# alternating order (odd pairs parent first), runs the benchmark's own
# `compare` on each pair, and prints the per-workload median table, the
# sim-kind bit-equality check, the traced pass's host per-layer medians and
# every run made. Result files stay in $AB_OUT (default: a fresh temp dir).
# One suite run is ~3.5 min, so detach it: `setsid nohup scripts/ab.sh … &`.
# Needs python3 for the summary.
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: scripts/ab.sh <parent-clone> <change-clone> <pairs> [benchmark args]" >&2; exit 2; }
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
pairs="$3"
shift 3
out="${AB_OUT:-$(mktemp -d)}"
mkdir -p "$out"
bin=benchmark/target/release/erapid-benchmark

for dir in "$parent" "$change"; do
    cargo build --release --offline -q --manifest-path "$dir/benchmark/Cargo.toml"
done

# One suite run from the root of its checkout; a nonzero exit (a failed
# correctness check) is recorded, not fatal, so every run made is reported.
run() { # side dir pair
    local status=0
    (cd "$2" && "$bin" --out "$out/$1_$3.json" "${@:4}") > "$out/$1_$3.log" 2>&1 || status=$?
    echo "$1 $3 $status" >> "$out/runs.txt"
}

: > "$out/runs.txt"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i" "$@"; run change "$change" "$i" "$@"
    else
        run change "$change" "$i" "$@"; run parent "$parent" "$i" "$@"
    fi
    (cd "$change" && "$bin" compare "$out/parent_$i.json" "$out/change_$i.json") > "$out/compare_$i.txt" 2>&1 || true
    echo "pair $i/$pairs done" >&2
done

echo "parent $(git -C "$parent" rev-parse --short HEAD) at $parent, change at $change, $pairs pairs, benchmark args: ${*:-(defaults)}"
echo "result files, logs and per-pair compare output: $out"
python3 - "$out" "$pairs" <<'PY'
import json, sys
from collections import Counter
from statistics import median

out, pairs = sys.argv[1], int(sys.argv[2])
runs = {s: [json.load(open(f"{out}/{s}_{i}.json")) for i in range(1, pairs + 1)] for s in ("parent", "change")}
workloads = list(runs["parent"][0]["workloads"])

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        k = p * (len(xs) - 1)
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return q(0.25), q(0.75)

def values(side, w, pass_, m):
    return [r["workloads"][w][pass_]["metrics"][m]["value"] for r in runs[side]]

def failed_fraction(side, w):
    return [r["workloads"][w]["untraced"]["failed_fraction"] for r in runs[side]]

# Per-pair verdicts from the benchmark's own compare.
verdicts = {}
for i in range(1, pairs + 1):
    for line in open(f"{out}/compare_{i}.txt"):
        f = line.split()
        if len(f) > 3 and f[0] in workloads:
            verdicts.setdefault((f[0], f[1]), Counter())[f[-1]] += 1

def row(w, m, p, c, lower_better):
    pm, cm = median(p), median(c)
    q1, q3 = quartiles(p)
    wins = sum((b < a) if lower_better else (b > a) for a, b in zip(p, c))
    ratio = cm / pm if pm else 1.0
    v = dict(verdicts.get((w, m), {}))
    print(f"{w:16} {m:22} {pm:12.6g} {cm:12.6g} {ratio:7.4f}  {str(v):28} [{q1:.4g},{q3:.4g}]  {wins}/{pairs}")

print(f"{'workload':16} {'metric':22} {'parent med':>12} {'change med':>12} {'c/p':>7}  {'per-pair verdicts':28} parentIQR(of run medians)  change better in")
for w in workloads:
    metrics = runs["parent"][0]["workloads"][w]["untraced"]["metrics"]
    for m in metrics:
        lower = m != "sim_cycles_per_s" and m != "sim_throughput_norm"
        row(w, m, values("parent", w, "untraced", m), values("change", w, "untraced", m), lower)
    row(w, "failed_fraction", failed_fraction("parent", w), failed_fraction("change", w), True)
print("verdict totals:", dict(sum(verdicts.values(), Counter())))

# Sim-kind values and digests must be bit-identical across every pass of
# every run of both sides; one line per name that is not.
compared = mismatches = 0
for w in workloads:
    for pass_ in ("untraced", "traced"):
        ref = runs["parent"][0]["workloads"][w][pass_]
        names = ["digest"] + [m for m, v in ref["metrics"].items() if v["kind"] == "sim"]
        for name in names:
            seen = {side: sorted({r["workloads"][w][pass_]["digest"] if name == "digest"
                                  else r["workloads"][w][pass_]["metrics"][name]["value"]
                                  for r in runs[side]}) for side in runs}
            compared += 2 * pairs
            if seen["parent"] != seen["change"] or len(seen["parent"]) != 1:
                mismatches += 1
                print(f"MISMATCH {w} {pass_} {name}: parent {seen['parent']} change {seen['change']}")
print(f"sim-kind values + digests compared {compared}, names differing {mismatches}")

print("-- traced pass, host per-layer metrics: median over runs (parent -> change, c/p) --")
for w in workloads:
    for m, v in runs["parent"][0]["workloads"][w]["traced"]["metrics"].items():
        if v["kind"] != "host":
            continue
        pm, cm = median(values("parent", w, "traced", m)), median(values("change", w, "traced", m))
        if pm or cm:
            print(f"{w:16} {m:44} {pm:12.6g} -> {cm:12.6g}  {cm / pm if pm else float('nan'):7.4f}")

print("-- every run: exit status, then wall_s / setup_s / peak_rss_kb per workload --")
status = {(s, int(i)): int(code) for s, i, code in (l.split() for l in open(f"{out}/runs.txt"))}
for i in range(1, pairs + 1):
    for side in ("parent", "change"):
        cells = "  ".join(
            "{}/{}/{}".format(*(f"{r:.4g}" for r in (
                runs[side][i - 1]["workloads"][w]["untraced"]["metrics"][m]["value"]
                for m in ("wall_s", "setup_s", "peak_rss_kb"))))
            for w in workloads)
        print(f"pair {i:2} {side:6} exit {status[(side, i)]}  {cells}")
sys.exit(1 if mismatches or any(status.values()) else 0)
PY
