//! Telemetry showcase: runs a faulted P-B workload with tracing on and
//! renders where every cycle went — a per-window DPM/DBR/fault timeline on
//! the console, the full event stream as JSONL, and a Chrome trace-event
//! file that Perfetto (<https://ui.perfetto.dev>) opens directly with one
//! track per destination board and one row per wavelength.
//!
//! The workload is the paper's 64-node system under complement traffic
//! with a deterministic fault plan (a receiver outage that DBR must route
//! around, a CDR relock burst, an LS token loss), so the trace shows all
//! three reconfiguration stories at once.
//!
//! Every point also runs twice — once on the env-selected worker pool and
//! once sequentially — and the two JSONL serializations are compared
//! byte-for-byte, making the determinism contract (same seed → same
//! trace, any thread count) an executable claim rather than a comment.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin tracereport
//! ERAPID_TRACE=/tmp/erapid.jsonl ERAPID_QUICK=1 \
//!     cargo run --release -p erapid-bench --bin tracereport
//! ```
//!
//! Outputs: `ERAPID_TRACE` path (default `results/trace.jsonl`) plus a
//! `<stem>.trace.json` Chrome trace next to it.

use erapid_bench::BenchConfig;
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::RunTrace;
use erapid_core::faults::{FaultKind, FaultPlan};
use erapid_core::runner::RunPoint;
use erapid_telemetry::{jsonl, TraceConfig, TraceEvent, TraceRecord};
use netstats::table::Table;
use std::path::{Path, PathBuf};
use traffic::pattern::TrafficPattern;

const RELOCK_PENALTY: u64 = 500;
const STORM_SEED: u64 = 42;

/// The showcase fault plan: one of each reconfiguration story.
fn fault_plan(window: u64, quick: bool) -> FaultPlan {
    let (down, up) = if quick {
        (3 * window / 2, 5 * window / 2)
    } else {
        (4 * window, 6 * window)
    };
    let storm_count = if quick { 4 } else { 16 };
    let mut plan = FaultPlan::relock_storm(STORM_SEED, 8, down, up, storm_count, RELOCK_PENALTY);
    // Complement's hot flow 0→7 rides λ1; kill its receiver for two windows.
    plan.push(
        down,
        FaultKind::ReceiverDown {
            board: 7,
            wavelength: 1,
        },
    );
    plan.push(
        up,
        FaultKind::ReceiverRepair {
            board: 7,
            wavelength: 1,
        },
    );
    plan.push(2 * window + 10, FaultKind::TokenLoss { victim: 3 });
    plan
}

fn point(bench: &BenchConfig, load: f64) -> RunPoint {
    let mut cfg = SystemConfig::paper64(NetworkMode::PB);
    cfg.trace = TraceConfig::on();
    cfg.faults = fault_plan(cfg.schedule.window, bench.quick);
    let plan = bench.plan(cfg.schedule.window);
    RunPoint::generate(cfg, TrafficPattern::Complement, load, plan)
}

/// Serializes a batch of per-point traces as one JSONL document: a header
/// line per point, then its records.
fn batch_jsonl(loads: &[f64], traces: &[RunTrace]) -> String {
    let mut out = String::new();
    for (load, trace) in loads.iter().zip(traces) {
        out.push_str(&format!(
            "{{\"point\":{{\"mode\":\"P-B\",\"pattern\":\"complement\",\"load\":{load},\"events\":{},\"dropped\":{}}}}}\n",
            trace.records.len(),
            trace.dropped
        ));
        out.push_str(&jsonl(&trace.records));
    }
    out
}

/// One row of the per-window table: the events after one window boundary
/// and up to the next, with the gauges that next boundary sampled.
#[derive(Debug, Default, PartialEq)]
struct WindowRow {
    /// The closing boundary's `(index, router_peak_flits, lasers_on)`;
    /// `None` for the tail after the last boundary.
    boundary: Option<(u64, u32, u32)>,
    dpm_retunes: u64,
    dbr_grants: u64,
    dbr_rounds: u64,
    faults: u64,
    buffer_crossings: u64,
}

/// Folds a run's records into window rows: row k holds the events after
/// boundary k−1 and before boundary k, so what a boundary itself emits
/// (DPM retunes, `B_max` crossings) lands in the next row. Events after
/// the last boundary make a trailing row.
fn window_rows(records: &[TraceRecord]) -> Vec<WindowRow> {
    let is_boundary = |r: &TraceRecord| matches!(r.event, TraceEvent::WindowBoundary { .. });
    (records.split_inclusive(is_boundary))
        .map(|chunk| {
            let mut row = WindowRow::default();
            for rec in chunk {
                match rec.event {
                    TraceEvent::WindowBoundary {
                        index,
                        router_peak_flits,
                        lasers_on,
                        ..
                    } => row.boundary = Some((index, router_peak_flits, lasers_on)),
                    TraceEvent::DpmRetune { .. } => row.dpm_retunes += 1,
                    TraceEvent::DbrOutcome { grants, .. } => {
                        row.dbr_grants += u64::from(grants);
                        row.dbr_rounds += 1;
                    }
                    TraceEvent::Fault { .. } => row.faults += 1,
                    TraceEvent::BufferThreshold { .. } => row.buffer_crossings += 1,
                    _ => {}
                }
            }
            row
        })
        .collect()
}

fn chrome_path(jsonl_path: &Path) -> PathBuf {
    let stem = jsonl_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace");
    jsonl_path.with_file_name(format!("{stem}.trace.json"))
}

fn main() {
    let bench = BenchConfig::from_env();
    let loads: Vec<f64> = if bench.quick {
        vec![0.5]
    } else {
        vec![0.3, 0.5, 0.7]
    };
    println!(
        "=== tracereport: paper64 P-B, complement, faulted, loads {loads:?} on {} threads ===\n",
        bench.threads
    );

    let points: Vec<RunPoint> = loads.iter().map(|&l| point(&bench, l)).collect();
    let seq_points = points.clone();
    let traced = bench.run(points);
    let results: Vec<_> = traced.iter().map(|o| o.result).collect();
    let traces: Vec<_> = traced.into_iter().map(|o| o.trace).collect();
    let par_doc = batch_jsonl(&loads, &traces);

    // Determinism check: the same points on one worker must serialize to
    // the same bytes.
    let seq_traces: Vec<_> = seq_points.into_iter().map(|p| p.run().trace).collect();
    let seq_doc = batch_jsonl(&loads, &seq_traces);
    assert_eq!(
        par_doc, seq_doc,
        "trace must be byte-identical across thread counts"
    );
    println!(
        "determinism check: {} threads vs sequential -> byte-identical ({} bytes)\n",
        bench.threads,
        par_doc.len()
    );

    // Headline point: the middle load.
    let hi = loads.len() / 2;
    let (head_load, head_trace, head_result) = (loads[hi], &traces[hi], &results[hi]);

    // Per-window timeline, folded from the event stream.
    let mut t = Table::new(vec![
        "window",
        "dpm_retunes",
        "dbr_grants",
        "dbr_rounds",
        "faults",
        "buffer_crossings",
        "router_peak_flits",
        "lasers_on",
    ])
    .with_title(format!(
        "[P-B complement load {head_load}] per-window telemetry ({} events, {} dropped)",
        head_trace.records.len(),
        head_trace.dropped
    ));
    for w in window_rows(&head_trace.records) {
        let (window, peak, lasers) = match w.boundary {
            Some((index, peak, lasers)) => {
                (index.to_string(), peak.to_string(), lasers.to_string())
            }
            None => ("tail".to_string(), "-".to_string(), "-".to_string()),
        };
        t.row(vec![
            window,
            w.dpm_retunes.to_string(),
            w.dbr_grants.to_string(),
            w.dbr_rounds.to_string(),
            w.faults.to_string(),
            w.buffer_crossings.to_string(),
            peak,
            lasers,
        ]);
    }
    println!("{}", t.render());

    // Fault timeline: every injected fault with its cycle and target.
    let mut ft = Table::new(vec!["cycle", "fault", "board", "dest", "λ"])
        .with_title("fault timeline".to_string());
    for rec in &head_trace.records {
        if let TraceEvent::Fault {
            label,
            board,
            dest,
            wavelength,
        } = rec.event
        {
            let lam = if wavelength == 0 {
                "-".to_string()
            } else {
                format!("{wavelength}")
            };
            let repair = if label.is_repair() { " (repair)" } else { "" };
            ft.row(vec![
                format!("{}", rec.at),
                format!("{}{repair}", label.name()),
                format!("{board}"),
                format!("{dest}"),
                lam,
            ]);
        }
    }
    println!("{}", ft.render());
    println!(
        "headline run: thr {:.4} pkt/n/c, latency {:.1}, power {:.1} mW, {} grants, {} retunes, {} ls_retries",
        head_result.throughput,
        head_result.latency,
        head_result.power_mw,
        head_result.grants,
        head_result.retunes,
        head_result.ls_retries
    );

    // Files: JSONL of every point, Chrome trace of the headline point.
    let jsonl_path = bench
        .trace
        .clone()
        .unwrap_or_else(|| bench.results_dir().join("trace.jsonl"));
    if let Some(dir) = jsonl_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&jsonl_path, &par_doc) {
        Ok(()) => println!("\nwrote {}", jsonl_path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", jsonl_path.display()),
    }
    let chrome = chrome_path(&jsonl_path);
    match std::fs::write(&chrome, erapid_telemetry::chrome_trace(&head_trace.records)) {
        Ok(()) => println!(
            "wrote {} (open at https://ui.perfetto.dev)",
            chrome.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", chrome.display()),
    }

    // A dropped event is a silently incomplete trace — every downstream
    // artifact (JSONL, Chrome trace, window tables) would be missing
    // data without saying so. Surface it loudly and fail the run.
    let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        for (load, trace) in loads.iter().zip(&traces) {
            if trace.dropped > 0 {
                eprintln!(
                    "ERROR: load {load}: {} trace events dropped (ring capacity exceeded)",
                    trace.dropped
                );
            }
        }
        eprintln!("ERROR: {dropped} events dropped total — stream the trace (see marathon)");
        std::process::exit(1);
    }
    println!("dropped events: 0 across all points");
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::phase::PhasePlan;
    use erapid_telemetry::{FaultLabel, WindowLabel};

    fn rec(at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { at, event }
    }

    fn boundary(index: u64, peak: u32, lasers: u32) -> TraceEvent {
        TraceEvent::WindowBoundary {
            index,
            kind: WindowLabel::Power,
            router_peak_flits: peak,
            lasers_on: lasers,
        }
    }

    #[test]
    fn rows_split_at_each_boundary_with_a_tail() {
        let retune = TraceEvent::DpmRetune {
            src: 0,
            dest: 1,
            wavelength: 1,
            from_level: 0,
            to_level: 1,
            penalty: 77,
        };
        let outcome = |grants| TraceEvent::DbrOutcome {
            round: 1,
            grants,
            retries: 0,
            aborted: false,
        };
        let fault = TraceEvent::Fault {
            label: FaultLabel::TokenLoss,
            board: 2,
            dest: 2,
            wavelength: 0,
        };
        let crossing = TraceEvent::BufferThreshold {
            board: 0,
            dest: 1,
            above: true,
            util_milli: 900,
        };
        let records = [
            rec(10, fault),
            rec(2000, boundary(1, 5, 12)),
            // Emitted by boundary 1, so counted in row 2.
            rec(2000, retune),
            rec(2000, retune),
            rec(2000, crossing),
            rec(4000, boundary(2, 7, 11)),
            rec(4200, outcome(3)),
            rec(4300, outcome(2)),
            rec(6000, boundary(3, 9, 12)),
            rec(6100, fault),
            rec(6200, crossing),
        ];
        let row = |boundary, counts: [u64; 5]| WindowRow {
            boundary,
            dpm_retunes: counts[0],
            dbr_grants: counts[1],
            dbr_rounds: counts[2],
            faults: counts[3],
            buffer_crossings: counts[4],
        };
        assert_eq!(
            window_rows(&records),
            [
                row(Some((1, 5, 12)), [0, 0, 0, 1, 0]),
                row(Some((2, 7, 11)), [2, 0, 0, 0, 1]),
                row(Some((3, 9, 12)), [0, 5, 2, 0, 0]),
                row(None, [0, 0, 0, 1, 1]),
            ]
        );
        assert!(window_rows(&records[..9])
            .last()
            .is_some_and(|r| r.boundary.is_some()));
    }

    #[test]
    fn rows_account_for_every_event_of_a_faulted_run() {
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.trace = TraceConfig::on();
        cfg.faults = FaultPlan::new()
            .receiver_outage(3, 1, 3000, 7000)
            .at(4010, FaultKind::TokenLoss { victim: 2 });
        let plan = PhasePlan::new(2000, 4000).with_max_cycles(30_000);
        let records = RunPoint::generate(cfg, TrafficPattern::Complement, 0.5, plan)
            .run()
            .trace
            .records;
        let count = |tag: &str| records.iter().filter(|r| r.event.tag() == tag).count() as u64;
        let grants: u64 = (records.iter())
            .map(|r| match r.event {
                TraceEvent::DbrOutcome { grants, .. } => u64::from(grants),
                _ => 0,
            })
            .sum();
        let rows = window_rows(&records);
        let sum = |col: fn(&WindowRow) -> u64| rows.iter().map(col).sum::<u64>();
        assert!(count("dpm_retune") > 0 && grants > 0 && count("fault") > 0);
        assert_eq!(sum(|r| r.dpm_retunes), count("dpm_retune"));
        assert_eq!(sum(|r| r.dbr_grants), grants);
        assert_eq!(sum(|r| r.dbr_rounds), count("dbr_outcome"));
        assert_eq!(sum(|r| r.faults), count("fault"));
        assert_eq!(sum(|r| r.buffer_crossings), count("buffer_threshold"));
        let tail = records
            .last()
            .is_some_and(|r| !matches!(r.event, TraceEvent::WindowBoundary { .. }));
        assert_eq!(rows.len() as u64, count("window") + u64::from(tail));
        assert_eq!(rows.last().map(|r| r.boundary.is_none()), Some(tail));
    }
}
