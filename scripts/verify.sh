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

echo "== one exact accounting (no power fold or cache, no Welford mean, no JSONL trace twin) =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "compute_powe[r]|power_dirt[y]|power_cach[e]|peak_m[w]|running::Runnin[g]|save_jsonl[(]|load_jsonl[(]|fn to_jsonl[(]|fn from_jsonl[(]" \
    crates tests examples src scripts README.md DESIGN.md .claude; then
    echo "verify: a retired accounting or trace-twin name is back"; exit 1
fi

echo "== one flit slab per router, flat per-flow SRS state (no per-VC deque, no per-flow list) =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "FlitBuffe[r]|VecDeque<Fli[t]>|Vec<Vec<u1[6]>>" \
    crates tests examples src scripts README.md DESIGN.md .claude; then
    echo "verify: a per-VC flit deque or a per-flow wavelength list is back"; exit 1
fi

echo "== one injector backlog, delta-coded (no uncoded packet queue beside it) =="
# The snapshot load may read the uncoded sequence into a Vec; nothing
# under crates/*/src holds one as a queue.
if grep -rn "VecDeque<QueuedPacket>" crates/*/src; then
    echo "verify: an uncoded injector backlog is back; queue packets through FlitInjector::enqueue"; exit 1
fi

echo "== one arbiter, no test-only front or fallback scan, Table-1 geometry as constants =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "MatrixArbite[r]|latest_vali[d]|pareto_fron[t]|cfg\.(packet_flit[s]|tx_queue_flit[s]|fibe[r]|serde[s]|retr[y])" \
    crates tests examples src scripts README.md DESIGN.md .claude; then
    echo "verify: a retired arbiter, checkpoint or tuning name, or a retired config field, is back"; exit 1
fi

echo "== power is a price (no power model in the config, no dead counter join) =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "power_mode[l]|counter_colum[n]" \
    crates tests examples src scripts README.md DESIGN.md .claude; then
    echo "verify: a retired power-config or telemetry-join name is back"; exit 1
fi

echo "== one record of a traced run (no metric registry beside the events, no reserved link-shutdown event) =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "MetricRegistr[y]|HistogramSummar[y]|WindowSnapsho[t]|hist_summarie[s]|take_metric_window[s]|DlsPowe[r]" \
    crates tests examples src scripts README.md DESIGN.md .claude; then
    echo "verify: a retired telemetry name is back"; exit 1
fi

echo "== the DBR round is a clock (no RC tables, control packets, laser commands or ring mailbox) =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "ReconfigControlle[r]|ControlRin[g]|ControlPacke[t]|LaserComman[d]|LinkReadin[g]|commands_from_grant[s]" \
    crates tests examples src README.md DESIGN.md; then
    echo "verify: a retired control-plane payload name is back"; exit 1
fi

echo "== lasers follow the ownership map (no pending-grant queue, no watch dirty set, no VC-state bridge) =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "PendingGran[t]|pending_grant[s]|donor_dar[k]|mismatch_explaine[d]|watch_pendin[g]|last_stead[y]|VcStat[e]" \
    crates tests examples src DESIGN.md README.md; then
    echo "verify: a retired SRS, telemetry or router-snapshot name is back"; exit 1
fi

echo "== every saved byte is read (no unread counter, no saved geometry or window transient) =="
# (each name ends in a bracket class so the gate does not match itself)
if grep -rnE "sa_stall[s]|va_stall[s]|packets_complete[d]|packets_departe[d]|link_pre[v]|delivered_flit[s]|fn overflo[w][(]|fn total[s][(]" \
    crates tests examples src DESIGN.md README.md; then
    echo "verify: a retired snapshot counter or transient name is back"; exit 1
fi

echo "== state liveness (every line of results/STATE_LIVENESS.txt names a field a save body writes) =="
# Each line is `<file>: <Type>::<field> # <reason>`; the file must define
# the type, and some `fn save(` / `fn save_state(` body in it must write
# `.<field>`. A line whose field left the snapshot fails.
grep -v '^#' results/STATE_LIVENESS.txt | while IFS= read -r line; do
    case "$line" in
        *' # '*) ;;
        *) echo "verify: STATE_LIVENESS line carries no ' # <reason>': $line"; exit 1 ;;
    esac
    entry="${line%% # *}"
    file="${entry%%: *}"
    item="${entry#*: }"
    ty="${item%%::*}"
    field="${item#*::}"
    grep -qE "struct $ty\b" "$file" \
        || { echo "verify: STATE_LIVENESS names $ty, which $file does not define"; exit 1; }
    awk -v f="$field" '
        /fn save(_state)?\(/ { match($0, /^ */); close_at = sprintf("%*s}", RLENGTH, ""); inside = 1; next }
        inside && $0 == close_at { inside = 0 }
        inside && $0 ~ ("\\." f "([^A-Za-z0-9_]|$)") { found = 1 }
        END { exit !found }
    ' "$file" || { echo "verify: STATE_LIVENESS names $item, which no save body in $file writes"; exit 1; }
done

# One temp root for every check below, removed on any exit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== reachability (every pub item under crates/*/src is reached from product code outside its own file) =="
# The committed list is the scan's exact output (its fixpoint), each line
# with a trailing ` # oracle: <caller>` or ` # <reason>`; a new unreached
# item, a line without a reason and a stale line all fail.
scripts/reach.sh . "$tmp/UNREACHED.txt"
if grep -v ' # ' results/UNREACHED.txt; then
    echo "verify: results/UNREACHED.txt lines above carry no ' # <reason>'"; exit 1
fi
sed 's/ # .*$//' results/UNREACHED.txt > "$tmp/UNREACHED.committed"
if ! diff "$tmp/UNREACHED.committed" "$tmp/UNREACHED.txt"; then
    echo "verify: scripts/reach.sh disagrees with results/UNREACHED.txt ('>' lines are new);"
    echo "        delete a new item, drop its pub, move it under #[cfg(test)], or commit it"
    echo "        with a reason; drop '<' lines the scan no longer reports"
    exit 1
fi
# Gate self-test: each planted item below must be flagged. Only a comment
# elsewhere names the first, only a `pub use` the second, only a `tests/`
# file the third, only a `#[cfg(test)]` module of another file the fourth;
# the fifth is a self-less associated fn whose bare name a live item shares.
probe="$tmp/reach-probe"
mkdir -p "$probe/benchmark"
cp -r crates tests examples src "$probe"
cp -r benchmark/src "$probe/benchmark"
echo "pub fn reach_probe_unnamed() {}" >> "$probe/crates/desim/src/lib.rs"
echo "// reach_probe_unnamed is only mentioned here" >> "$probe/crates/router/src/lib.rs"
echo "pub fn reach_probe_reexported() {}" >> "$probe/crates/desim/src/snap.rs"
echo "pub use snap::reach_probe_reexported;" >> "$probe/crates/desim/src/lib.rs"
echo "pub fn reach_probe_test_only() {}" >> "$probe/crates/desim/src/queue.rs"
echo "fn probe_caller() { erapid_suite::desim::queue::reach_probe_test_only(); }" >> "$probe/tests/props.rs"
echo "pub fn reach_probe_unit_test_only() {}" >> "$probe/crates/desim/src/phase.rs"
printf '#[cfg(test)]\nmod probe_tests {\n    fn call() {\n        desim::phase::reach_probe_unit_test_only();\n    }\n}\n' \
    >> "$probe/crates/router/src/words.rs"
printf 'pub struct ReachProbe;\nimpl ReachProbe {\n    pub fn paper() -> Self {\n        ReachProbe\n    }\n}\n' \
    >> "$probe/crates/desim/src/rng.rs"
echo "fn probe_type() -> Option<desim::rng::ReachProbe> { None }" >> "$probe/crates/router/src/vc.rs"
scripts/reach.sh "$probe" "$tmp/reach-probe.txt"
for planted in "lib.rs: pub fn reach_probe_unnamed" "snap.rs: pub fn reach_probe_reexported" \
    "queue.rs: pub fn reach_probe_test_only" "phase.rs: pub fn reach_probe_unit_test_only" \
    "rng.rs: pub fn paper"; do
    grep -qx "crates/desim/src/$planted" "$tmp/reach-probe.txt" \
        || { echo "verify: scripts/reach.sh missed the planted item $planted"; exit 1; }
done
if grep -q "pub struct ReachProbe" "$tmp/reach-probe.txt"; then
    echo "verify: scripts/reach.sh flagged the probe type another file names"; exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

echo "== arbiter + candidate-set equivalence smokes, hostile-input sweep, SRS auditor (word-parallel vs slice oracles, sleeping vs full-scan rigs, mutated .ersp/.ertr/.erpd/dumpi/OTF2 inputs, per-cycle SRS invariants under fault plans; release) =="
# The router's u64 word-scan arbiter (DESIGN.md §16) must stay
# position-identical to the retained slice-based oracle; the property
# suite drives both through randomized grant histories.
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
# failure accounts for it, owned lists == owners, lit-class counters == a
# recount of the slots).
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
