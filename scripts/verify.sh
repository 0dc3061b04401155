#!/usr/bin/env bash
# Full local verification: everything CI (or the next contributor) expects
# to pass, in the order that fails fastest.
#
#   scripts/verify.sh
#
# Runs entirely offline against the workspace at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== one DBR control plane (no analytic shortcut, no LC/regulator stand-ins) =="
if grep -rn "AnalyticLatency\|LinkRegulator\|LinkController" crates tests examples src; then
    echo "verify: a retired control-plane name is back"; exit 1
fi

echo "== one experiment index (the nine figure bins stay retired) =="
if grep -rnE -- "--bin (table1|arch|fig3|fig5|fig6|ablation|baseline|breakdown|scaling)\b" \
    crates scripts .claude README.md DESIGN.md EXPERIMENTS.md; then
    echo "verify: a retired figure bin is referenced; use 'figures <id>'"; exit 1
fi

echo "== one way to run a cycle's boards (no worker gate, no lane split, no point-thread knob) =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "POINT_THREAD[S]|point_threads_from_en[v]|SrsLan[e]|LaneEffect[s]|BoardOu[t]|shard:[:]" \
    crates tests examples src scripts README.md DESIGN.md .claude; then
    echo "verify: a retired board-worker name is back"; exit 1
fi

# One temp root for every smoke below, removed on any exit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

echo "== arbiter + candidate-set equivalence smokes (word-parallel vs slice oracles, sleeping vs full-scan rigs; release) =="
# The router's u64 word-scan arbiters (DESIGN.md §16) must stay
# position-identical to the retained slice-based oracle implementations;
# the property suite drives both through randomized grant histories.
cargo test -q --release -p router --test arbiter_props
# Candidate-set equivalence smoke: the event-maintained injector ready set
# and SA bidding set (DESIGN.md §16) against a rig that ticks every
# injector every cycle, plus live words == `rebuild_derived` per cycle.
cargo test -q --release -p router --test router_props
# Likewise a Lock-Step round must reach the direct Reconfigure decision on
# any single-owner wavelength table (the reference `System` is held to).
cargo test -q --release -p reconfig round_equals_the_direct_decision

echo "== benchmark/ tests (the one perf instrument compiles against the crates and runs) =="
# benchmark/ is its own workspace, so nothing above builds it: its suite
# (a tiny run of all five workloads, BENCHMARK.json == catalog, compare)
# is what catches an API break in System/runner before the pipeline does.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== figures all (every claim inside its band, the five CSVs == results/*.csv) =="
figures_dir="$tmp/figures"
ERAPID_RESULTS="$figures_dir" cargo run --release -q -p erapid-bench --bin figures -- all > /dev/null
for csv in fig3 uniform complement butterfly perfect_shuffle; do
    cmp "$figures_dir/$csv.csv" "results/$csv.csv" || { echo "figures: results/$csv.csv is stale"; exit 1; }
done

echo "== scenarios smoke (workload generators: seq == fanned) =="
# One small P-B point per scenario, on the calling thread and fanned over
# the run-level pool; the bin exits nonzero when delivery is zero or the
# two diverge.
cargo run --release -q -p erapid-bench --bin scenarios -- --smoke

echo "== autotune smoke (sweep: chosen beats paper baseline) =="
if [ "${ERAPID_SKIP_TUNE_SMOKE:-0}" = "1" ]; then
    echo "autotune smoke: skipped (ERAPID_SKIP_TUNE_SMOKE=1)"
else
    # The smoke grid on two hostile scenarios (small P-B system): the
    # controller-enabled leg must deliver and the chosen point must beat
    # the paper-constant baseline objective on >=1 scenario (DESIGN.md §15).
    cargo run --release -q -p erapid-bench --bin autotune -- --smoke
fi

echo "== resilience smoke (quick fault-scenario matrix) =="
resilience_dir="$tmp/resilience"
ERAPID_QUICK=1 ERAPID_RESULTS="$resilience_dir" \
    cargo run --release -q -p erapid-bench --bin resilience > /dev/null
test -s "$resilience_dir"/RESILIENCE_*.json || { echo "resilience smoke: missing RESILIENCE_<sha>.json"; exit 1; }

echo "== tracereport smoke (quick traced run, JSONL + Perfetto outputs) =="
trace_dir="$tmp/trace"
mkdir "$trace_dir"
ERAPID_QUICK=1 ERAPID_TRACE="$trace_dir/trace.jsonl" \
    cargo run --release -q -p erapid-bench --bin tracereport > /dev/null
test -s "$trace_dir/trace.jsonl" || { echo "tracereport smoke: empty trace"; exit 1; }
test -s "$trace_dir/trace.trace.json" || { echo "tracereport smoke: missing chrome trace"; exit 1; }
if command -v python3 > /dev/null; then
    python3 - "$trace_dir/trace.jsonl" "$trace_dir/trace.trace.json" <<'PY'
import json, sys
lines = 0
with open(sys.argv[1]) as f:
    for line in f:
        json.loads(line)
        lines += 1
assert lines > 0, "no JSONL lines"
with open(sys.argv[2]) as f:
    doc = json.load(f)
assert doc["traceEvents"], "empty chrome trace"
print(f"tracereport smoke: {lines} JSONL lines, {len(doc['traceEvents'])} chrome events")
PY
else
    # No python3: cheap structural check — every line is a JSON object.
    bad=$(grep -cv '^{.*}$' "$trace_dir/trace.jsonl" || true)
    [ "$bad" = "0" ] || { echo "tracereport smoke: $bad malformed JSONL lines"; exit 1; }
    echo "tracereport smoke: $(wc -l < "$trace_dir/trace.jsonl") JSONL lines (structural check only)"
fi

# Dropped-events gate: the bin exits nonzero itself when any point drops
# trace events; belt-and-braces, also check the JSONL point headers.
if grep -o '"dropped":[0-9]*' "$trace_dir/trace.jsonl" | grep -qv ':0$'; then
    echo "tracereport smoke: trace events were dropped"; exit 1
fi

echo "== replay smoke (record -> persist -> replay conformance) =="
replay_dir="$tmp/replay"
ERAPID_QUICK=1 ERAPID_RESULTS="$replay_dir" \
    cargo run --release -q -p erapid-bench --bin replay > /dev/null
report=$(ls "$replay_dir"/REPLAY_*.json 2> /dev/null | head -1)
test -n "$report" && test -s "$report" || { echo "replay smoke: missing REPLAY_<sha>.json"; exit 1; }
# The bin itself asserts self-replay byte-identity, seq==par reports and
# an empty baseline self-diff; here we just confirm the artifacts landed.
test -s "$replay_dir"/workload_*.ertr || { echo "replay smoke: missing workload .ertr"; exit 1; }
echo "replay smoke: $(basename "$report") written"

echo "== marathon smoke (streamed run, forced mid-run kill, checkpoint resume) =="
marathon_dir="$tmp/marathon"
# The bin aborts itself mid-run (SIGABRT), resumes from the newest
# checkpoint, and asserts zero byte divergence from the uninterrupted run
# plus a peak-RSS ceiling — a nonzero exit here means the crash-safety
# contract broke.
ERAPID_QUICK=1 ERAPID_RESULTS="$marathon_dir" \
    cargo run --release -q -p erapid-bench --bin marathon > /dev/null
mreport=$(ls "$marathon_dir"/MARATHON_*.json 2> /dev/null | head -1)
test -n "$mreport" && test -s "$mreport" || { echo "marathon smoke: missing MARATHON_<sha>.json"; exit 1; }
grep -q '"resume_divergence": 0' "$mreport" || { echo "marathon smoke: nonzero resume divergence"; exit 1; }
echo "marathon smoke: $(basename "$mreport") written, zero resume divergence"

echo "verify: all checks passed"
