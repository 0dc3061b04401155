//! Trace-driven replay harness: packet-for-packet conformance across the
//! four network configurations.
//!
//! The figure benches compare configurations distribution-wise — each mode
//! sees a *statistically* identical Bernoulli workload, not the same
//! packets. This bin closes that gap:
//!
//! 1. **record** one NP-NB run with injection recording on, stamping the
//!    trace with its provenance (seed, pattern, load, B×D, git sha),
//! 2. **persist** it in both on-disk formats (compact binary `.ertr` +
//!    JSONL interchange), load it back and verify the checksummed
//!    round trip,
//! 3. **conform**: replay the trace against the recording configuration
//!    and assert the original `RunResult` is reproduced byte-identically —
//!    and that the parallel executor replays byte-identically to the
//!    sequential one,
//! 4. **diff**: replay the identical workload across NP-NB, P-NB, NP-B
//!    and P-B with per-packet delivery logging, and report per-packet
//!    latency deltas against the NP-NB baseline plus per-window divergence
//!    keyed to the DPM/DBR activity telemetry recorded in each window.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin replay
//! ERAPID_QUICK=1 cargo run --release -p erapid-bench --bin replay
//! ```
//!
//! Outputs under `ERAPID_RESULTS` (default `results/`):
//! `workload_<sha>.ertr`, `workload_<sha>.trace.jsonl` and
//! `REPLAY_<sha>.json`.

use erapid_bench::{git_sha, BenchConfig, Json};
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::{RunOutput, RunResult, RunTrace, TraceSource};
use erapid_core::metrics::PacketDelivery;
use erapid_core::runner::RunPoint;
use erapid_telemetry::TraceConfig;
use netstats::table::Table;
use std::sync::Arc;
use traffic::pattern::TrafficPattern;
use traffic::trace::InjectionTrace;

/// The workload every mode replays: uniform at mid load, where DPM has
/// headroom to scale down and DBR still sees imbalance worth chasing.
const LOAD: f64 = 0.5;
const PATTERN: TrafficPattern = TrafficPattern::Uniform;
/// Largest per-packet deltas listed in the report.
const TOP_DELTAS: usize = 10;

/// A paper64 point in `mode` under the bench plan, injections generated
/// or replayed (the recording configuration is NP-NB).
fn point(bench: &BenchConfig, mode: NetworkMode, source: TraceSource) -> RunPoint {
    let cfg = SystemConfig::paper64(mode);
    let plan = bench.plan(cfg.schedule.window);
    RunPoint {
        source,
        ..RunPoint::generate(cfg, PATTERN, LOAD, plan)
    }
}

/// A replay point for `mode`: same geometry and seed as the recording,
/// packet logging and telemetry on.
fn replay_point(bench: &BenchConfig, trace: &Arc<InjectionTrace>, mode: NetworkMode) -> RunPoint {
    let mut p = point(bench, mode, TraceSource::Replay(Arc::clone(trace)));
    p.cfg.packet_log = true;
    p.cfg.trace = TraceConfig::on();
    p
}

/// Per-packet latency of every delivered packet, indexed by packet id.
fn latency_by_id(packets: &[PacketDelivery]) -> Vec<Option<(u64, u64)>> {
    let max_id = packets.iter().map(|p| p.id).max().map_or(0, |m| m + 1);
    let mut out = vec![None; max_id as usize];
    for p in packets {
        out[p.id as usize] = Some((p.injected_at, p.delivered_at - p.injected_at));
    }
    out
}

/// One mode's packet-for-packet comparison against the baseline.
struct ModeDiff {
    mode: NetworkMode,
    result: RunResult,
    matched: u64,
    missing: u64,
    extra: u64,
    mean_delta: f64,
    max_abs_delta: i64,
    p95_abs_delta: i64,
    /// `(id, injected_at, base_latency, mode_latency)` of the largest
    /// absolute deltas, worst first.
    top: Vec<(u64, u64, u64, u64)>,
    /// Per-window rows: `(window, packets, mean_delta, dpm_retunes,
    /// dbr_grants)` keyed by the *injection* window of each packet.
    windows: Vec<(u64, u64, f64, u64, u64)>,
}

fn diff_mode(
    mode: NetworkMode,
    result: RunResult,
    base: &[Option<(u64, u64)>],
    trace: &RunTrace,
    window: u64,
) -> ModeDiff {
    let ours = latency_by_id(&trace.packets);
    let mut matched = 0u64;
    let mut missing = 0u64;
    let mut extra = 0u64;
    let mut deltas: Vec<(i64, u64, u64, u64, u64)> = Vec::new(); // (delta, id, injected, base_lat, our_lat)
    for id in 0..base.len().max(ours.len()) {
        let b = base.get(id).copied().flatten();
        let o = ours.get(id).copied().flatten();
        match (b, o) {
            (Some((inj, bl)), Some((_, ol))) => {
                matched += 1;
                deltas.push((ol as i64 - bl as i64, id as u64, inj, bl, ol));
            }
            (Some(_), None) => missing += 1,
            (None, Some(_)) => extra += 1,
            (None, None) => {}
        }
    }
    let mean_delta = if deltas.is_empty() {
        0.0
    } else {
        deltas.iter().map(|d| d.0 as f64).sum::<f64>() / deltas.len() as f64
    };
    let mut by_abs: Vec<i64> = deltas.iter().map(|d| d.0.abs()).collect();
    by_abs.sort_unstable();
    let max_abs_delta = by_abs.last().copied().unwrap_or(0);
    let p95_abs_delta = if by_abs.is_empty() {
        0
    } else {
        by_abs[(by_abs.len() - 1) * 95 / 100]
    };
    let mut worst = deltas.clone();
    // Deterministic order: by |delta| descending, id ascending as the tie
    // breaker.
    worst.sort_by(|a, b| b.0.abs().cmp(&a.0.abs()).then(a.1.cmp(&b.1)));
    let top = worst
        .iter()
        .take(TOP_DELTAS)
        .map(|&(_, id, inj, bl, ol)| (id, inj, bl, ol))
        .collect();

    // Per-window divergence: bucket matched packets by injection window,
    // then join the mode's DPM/DBR counter deltas for the same window.
    let max_win = deltas.iter().map(|d| d.2 / window).max().unwrap_or(0);
    let mut sums = vec![(0u64, 0i64); max_win as usize + 1];
    for &(delta, _, inj, _, _) in &deltas {
        let w = (inj / window) as usize;
        sums[w].0 += 1;
        sums[w].1 += delta;
    }
    let counter_col = |name: &str| trace.counter_names.iter().position(|n| n == name);
    let retune_col = counter_col("dpm_retunes");
    let grant_col = counter_col("dbr_grants");
    let windows = sums
        .iter()
        .enumerate()
        .filter(|(_, (n, _))| *n > 0)
        .map(|(w, &(n, sum))| {
            // WindowSnapshot indices count boundaries from 1; boundary k
            // closes the window covering cycles [(k-1)·R_w, k·R_w).
            let snap = trace.windows.iter().find(|s| s.window == w as u64 + 1);
            let col = |c: Option<usize>| snap.and_then(|s| c.map(|i| s.counters[i])).unwrap_or(0);
            (
                w as u64,
                n,
                sum as f64 / n as f64,
                col(retune_col),
                col(grant_col),
            )
        })
        .collect();
    ModeDiff {
        mode,
        result,
        matched,
        missing,
        extra,
        mean_delta,
        max_abs_delta,
        p95_abs_delta,
        top,
        windows,
    }
}

/// The report body (also what is compared between the parallel and
/// sequential replays).
fn report_fields(trace: &InjectionTrace, diffs: &[ModeDiff]) -> Vec<(&'static str, Json)> {
    let workload = vec![
        ("pattern", Json::str(&*trace.meta.pattern)),
        ("load", Json::F64(trace.meta.load)),
        ("seed", Json::U64(trace.meta.seed)),
        ("boards", Json::U64(trace.meta.boards.into())),
        (
            "nodes_per_board",
            Json::U64(trace.meta.nodes_per_board.into()),
        ),
        ("entries", Json::U64(trace.entries.len() as u64)),
        ("checksum", Json::Str(format!("{:016x}", trace.checksum()))),
    ];
    let mode = |d: &ModeDiff| {
        let r = &d.result;
        let result = vec![
            ("load", Json::F64(r.load)),
            ("throughput", Json::F64(r.throughput)),
            ("latency", Json::F64(r.latency)),
            ("latency_p95", Json::F64(r.latency_p95)),
            ("power_mw", Json::F64(r.power_mw)),
            ("undrained", Json::U64(r.undrained)),
            ("grants", Json::U64(r.grants)),
            ("retunes", Json::U64(r.retunes)),
            ("cycles", Json::U64(r.cycles)),
        ];
        let top = d.top.iter().map(|&(id, inj, bl, ol)| {
            // Packet ids are injection-order, so id k is entry k of the
            // trace: recover the packet's src/dst from its provenance.
            let (src, dst) = trace
                .entries
                .get(id as usize)
                .map_or((0, 0), |e| (e.src, e.dst));
            Json::Obj(vec![
                ("id", Json::U64(id)),
                ("src", Json::U64(src.into())),
                ("dst", Json::U64(dst.into())),
                ("injected_at", Json::U64(inj)),
                ("baseline_latency", Json::U64(bl)),
                ("latency", Json::U64(ol)),
                ("delta", Json::F64(ol as f64 - bl as f64)),
            ])
        });
        let windows = d.windows.iter().map(|&(w, n, mean, retunes, grants)| {
            Json::Obj(vec![
                ("window", Json::U64(w)),
                ("packets", Json::U64(n)),
                ("mean_latency_delta", Json::F64(mean)),
                ("dpm_retunes", Json::U64(retunes)),
                ("dbr_grants", Json::U64(grants)),
            ])
        });
        let diff = vec![
            ("matched", Json::U64(d.matched)),
            ("missing_vs_baseline", Json::U64(d.missing)),
            ("extra_vs_baseline", Json::U64(d.extra)),
            ("mean_latency_delta", Json::F64(d.mean_delta)),
            ("max_abs_delta", Json::U64(d.max_abs_delta.unsigned_abs())),
            ("p95_abs_delta", Json::U64(d.p95_abs_delta.unsigned_abs())),
            ("top_deltas", Json::Arr(top.collect())),
            ("windows", Json::Arr(windows.collect())),
        ];
        Json::Obj(vec![
            ("mode", Json::str(d.mode.name())),
            ("result", Json::Obj(result)),
            ("diff", Json::Obj(diff)),
        ])
    };
    vec![
        ("workload", Json::Obj(workload)),
        ("baseline_mode", Json::str("NP-NB")),
        ("modes", Json::Arr(diffs.iter().map(mode).collect())),
    ]
}

/// Diffs every mode's replay against the first (NP-NB) one.
fn diff_all(replayed: &[RunOutput], window: u64) -> Vec<ModeDiff> {
    let base = latency_by_id(&replayed[0].trace.packets);
    NetworkMode::all()
        .iter()
        .zip(replayed)
        .map(|(&m, o)| diff_mode(m, o.result, &base, &o.trace, window))
        .collect()
}

fn main() {
    let bench = BenchConfig::from_env();
    let sha = git_sha();
    println!(
        "=== replay: record paper64 NP-NB uniform load {LOAD}, replay across 4 modes on {} threads ===\n",
        bench.threads
    );

    // 1. Record the workload.
    let mut recording = point(&bench, NetworkMode::NpNb, TraceSource::Generate);
    recording.cfg.record_injections = true;
    let window = recording.cfg.schedule.window;
    let recorded = recording.run();
    let recorded_result = recorded.result;
    let mut trace = recorded.injections.expect("record_injections was on");
    trace.meta.git_sha = sha.clone();
    println!(
        "recorded {} injections over {} cycles (checksum {:016x})",
        trace.entries.len(),
        recorded_result.cycles,
        trace.checksum()
    );

    // 2. Persist both formats and verify the round trip.
    let dir = bench.results_dir();
    let bin_path = dir.join(format!("workload_{sha}.ertr"));
    let jsonl_path = dir.join(format!("workload_{sha}.trace.jsonl"));
    if let Err(e) = trace.save(&bin_path) {
        eprintln!("could not write {}: {e}", bin_path.display());
    }
    if let Err(e) = trace.save_jsonl(&jsonl_path) {
        eprintln!("could not write {}: {e}", jsonl_path.display());
    }
    let reloaded = InjectionTrace::load(&bin_path).expect("binary trace round trip");
    assert_eq!(reloaded, trace, "binary round trip must be lossless");
    let reloaded_jsonl = InjectionTrace::load_jsonl(&jsonl_path).expect("JSONL trace round trip");
    assert_eq!(reloaded_jsonl, trace, "JSONL round trip must be lossless");
    println!(
        "persisted + reloaded both formats: {} and {}",
        bin_path.display(),
        jsonl_path.display()
    );

    // 3. Conformance: self-replay reproduces the recording byte-identically.
    let trace = Arc::new(reloaded);
    let self_replay = point(
        &bench,
        NetworkMode::NpNb,
        TraceSource::Replay(Arc::clone(&trace)),
    )
    .run();
    assert_eq!(
        self_replay.result, recorded_result,
        "replay against the recording configuration must reproduce the RunResult byte-identically"
    );
    println!("self-replay conformance: RunResult byte-identical to the recording\n");

    // 4. Replay across all four modes, parallel and sequential.
    let points: Vec<RunPoint> = NetworkMode::all()
        .iter()
        .map(|&m| replay_point(&bench, &trace, m))
        .collect();
    let seq_replayed: Vec<RunOutput> = points.iter().cloned().map(RunPoint::run).collect();
    let diffs = diff_all(&bench.run(points), window);
    let body = report_fields(&trace, &diffs);
    let report = Json::Obj(body.clone()).render();
    let seq_report = Json::Obj(report_fields(&trace, &diff_all(&seq_replayed, window))).render();
    assert_eq!(
        report, seq_report,
        "replay report must be byte-identical across thread counts"
    );
    println!(
        "determinism check: {} threads vs sequential -> byte-identical report ({} bytes)\n",
        bench.threads,
        report.len()
    );

    // Console summary.
    let mut t = Table::new(vec![
        "mode",
        "delivered",
        "latency",
        "power mW",
        "mean Δlat",
        "p95 |Δ|",
        "max |Δ|",
        "missing",
    ])
    .with_title(format!(
        "packet-for-packet replay vs NP-NB baseline ({} packets recorded)",
        trace.entries.len()
    ));
    for d in &diffs {
        t.row(vec![
            d.mode.name().to_string(),
            format!("{}", d.matched + d.extra),
            format!("{:.1}", d.result.latency),
            format!("{:.1}", d.result.power_mw),
            format!("{:+.2}", d.mean_delta),
            format!("{}", d.p95_abs_delta),
            format!("{}", d.max_abs_delta),
            format!("{}", d.missing),
        ]);
    }
    println!("{}", t.render());

    // The baseline diffed against itself must be empty — the executable
    // form of "record → replay → diff is empty on the identical config".
    let self_diff = &diffs[0];
    assert_eq!(
        (self_diff.missing, self_diff.extra, self_diff.max_abs_delta),
        (0, 0, 0),
        "identical-configuration replay must diff empty"
    );
    println!("baseline self-diff: empty (0 missing, 0 extra, max |Δ| = 0)");

    bench.write_report("REPLAY", &sha, body);
}
