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

echo "== one experiment index (the nine figure bins and the four extension bins stay retired) =="
if grep -rnE -- "--bin (table1|arch|fig3|fig5|fig6|ablation|baseline|breakdown|scaling|resilience|scenarios|autotune|replay)\b" \
    crates scripts .claude README.md DESIGN.md EXPERIMENTS.md; then
    echo "verify: a retired bin is referenced; use 'figures <id>'"; exit 1
fi

echo "== the extension bins' knobs and worst-offender picker stay retired =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "ERAPID_SCENARI[O]|ERAPID_TUN[E]|ERAPID_SKIP_TUNE_SMOK[E]|worst_offender[s]" \
    crates tests examples src scripts README.md DESIGN.md .claude; then
    echo "verify: a retired extension-bin knob or name is back"; exit 1
fi

echo "== one way to run a cycle's boards (no worker gate, no lane split, no point-thread knob) =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "POINT_THREAD[S]|point_threads_from_en[v]|SrsLan[e]|LaneEffect[s]|BoardOu[t]|shard:[:]" \
    crates tests examples src scripts README.md DESIGN.md .claude; then
    echo "verify: a retired board-worker name is back"; exit 1
fi

echo "== one binary container (magic/version header, FNV seal and varint live in desim::snap) =="
# (each name holds a bracket class so the gate does not match itself)
if grep -rn "from_le_byte[s]" crates | grep -v "^crates/desim/src/snap\.rs:"; then
    echo "verify: little-endian decoding outside desim::snap"; exit 1
fi
if grep -rnE "TraceError::(Forma[t]|Versio[n]|Checksu[m]|I[o])\b|encode_deliver[y]|fn varin[t]" \
    crates tests examples src scripts README.md DESIGN.md .claude | grep -v "^crates/desim/src/snap\.rs:"; then
    echo "verify: a retired container name is back"; exit 1
fi

echo "== link shutdown, trace sampling and four dead router types stay retired =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "DlsPolic[y]|sample_ever[y]|CreditReturnQueu[e]|PacketIdAllocato[r]|FnRout[e]" \
    crates tests examples src scripts README.md DESIGN.md .claude; then
    echo "verify: a retired name is back"; exit 1
fi

echo "== one injection source (no trait seam, no per-source scratch, no .ersp fossils, no detached row writer) =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "InjectionSourc[e]|scenario_scratc[h]|analytic_plane_stat[e]|windows_jsonl_row[s]" \
    crates tests examples src scripts README.md DESIGN.md .claude; then
    echo "verify: a retired injection or snapshot name is back"; exit 1
fi

# One temp root for every check below, removed on any exit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== reachability (every pub item under crates/*/src is named outside its own file) =="
# Committed survivors may carry a trailing ` # <reason>`; anything the scan
# finds beyond them fails.
scripts/reach.sh . "$tmp/UNREACHED.txt"
sed 's/ # .*$//' results/UNREACHED.txt > "$tmp/UNREACHED.committed"
if grep -vxFf "$tmp/UNREACHED.committed" "$tmp/UNREACHED.txt"; then
    echo "verify: pub items above are named nowhere outside their own file (scripts/reach.sh);"
    echo "        delete them, drop the pub, or move them under #[cfg(test)]"
    exit 1
fi
# Gate self-test: a planted item that only a comment elsewhere mentions
# must be flagged, and so must a planted fn that only a `pub use` names.
probe="$tmp/reach-probe"
mkdir -p "$probe/benchmark"
cp -r crates tests examples src "$probe"
cp -r benchmark/src benchmark/tests "$probe/benchmark"
echo "pub fn reach_probe_unnamed() {}" >> "$probe/crates/desim/src/lib.rs"
echo "// reach_probe_unnamed is only mentioned here" >> "$probe/crates/router/src/lib.rs"
echo "pub fn reach_probe_reexported() {}" >> "$probe/crates/desim/src/snap.rs"
echo "pub use snap::reach_probe_reexported;" >> "$probe/crates/desim/src/lib.rs"
scripts/reach.sh "$probe" "$tmp/reach-probe.txt"
for planted in "lib.rs: pub fn reach_probe_unnamed" "snap.rs: pub fn reach_probe_reexported"; do
    grep -qx "crates/desim/src/$planted" "$tmp/reach-probe.txt" \
        || { echo "verify: scripts/reach.sh missed the planted item $planted"; exit 1; }
done

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

echo "== arbiter + candidate-set equivalence smokes, hostile-input sweep, SRS auditor (word-parallel vs slice oracles, sleeping vs full-scan rigs, mutated .ersp/.ertr/.erpd/dumpi/OTF2 inputs, per-cycle SRS invariants under fault plans; release) =="
# The router's u64 word-scan arbiters (DESIGN.md §16) must stay
# position-identical to the retained slice-based oracle implementations;
# the property suite drives both through randomized grant histories.
cargo test -q --release -p router --test arbiter_props
# Candidate-set equivalence smoke: the event-maintained injector ready set
# and SA bidding set (DESIGN.md §16) against a rig that ticks every
# injector every cycle, plus live words == `rebuild_derived` per cycle.
cargo test -q --release -p router --test router_props
# The hostile-input sweep: every mutated `.ersp` / `.ertr` / `.erpd` /
# dumpi / OTF2 input decodes to `Ok` or a typed error — never a panic, an
# unbounded allocation or a hang.
cargo test -q --release -p erapid-suite --test hostile_inputs
# The SRS auditor: `Srs::check_invariants` on every cycle of random fault
# plans (one lit laser per receiver, a lit non-owner only while a grant or
# failure accounts for it, owned lists == owners, clean power cache ==
# its recount).
cargo test -q --release -p erapid-suite --test props random_fault_plans_conserve_and_drain
# Likewise a Lock-Step round must reach the direct Reconfigure decision on
# any single-owner wavelength table (the reference `System` is held to).
cargo test -q --release -p reconfig round_equals_the_direct_decision

echo "== benchmark/ tests (the one perf instrument compiles against the crates and runs) =="
# benchmark/ is its own workspace, so nothing above builds it: its suite
# (a tiny run of all five workloads, BENCHMARK.json == catalog, compare)
# is what catches an API break in System/runner before the pipeline does.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== figures all (every claim inside its band, resilience/scenarios/autotune included; the five CSVs == results/*.csv) =="
figures_dir="$tmp/figures"
ERAPID_RESULTS="$figures_dir" cargo run --release -q -p erapid-bench --bin figures -- all > /dev/null
for csv in fig3 uniform complement butterfly perfect_shuffle; do
    cmp "$figures_dir/$csv.csv" "results/$csv.csv" || { echo "figures: results/$csv.csv is stale"; exit 1; }
done

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
