#![forbid(unsafe_code)]
//! The evaluation harness: the experiment [`index`] (every table, figure
//! and paper-vs-measured claim, run by the `figures` bin and asserted by
//! `tests/paper_claims.rs`) and what the bins share.
//!
//! `figures` prints the rows/series the paper reports and drops a CSV per
//! figure under `results/` (created on demand); `marathon` writes its
//! `MARATHON_<sha>.json` report there too ([`BenchConfig::write_report`],
//! built from the one [`Json`] value).
//!
//! Environment knobs — parsed **once** in each binary's `main` by
//! [`BenchConfig::from_env`] and passed down as plain values (library code
//! never reads the environment, so tests can construct any configuration
//! without process-wide races):
//! * `ERAPID_QUICK=1` — quarter-length runs and a 3-point load axis, for
//!   smoke-testing the binaries (`figures` then prints tables only: the
//!   claims are calibrated on the full plan, and no CSV is overwritten).
//! * `ERAPID_RESULTS=<dir>` — where every CSV and JSON report is written
//!   (default `results`); no binary writes into the cwd.
//! * `ERAPID_THREADS=<n>` — worker threads for the run-level executor
//!   (default: all available cores; results are byte-identical for any
//!   value).
//! * `ERAPID_TRACE=<path>` — where the `tracereport` binary writes its
//!   JSONL event trace (a Chrome/Perfetto trace lands next to it).
//!
//! Every binary also accepts a `--seq` escape-hatch flag (handled here in
//! [`BenchConfig::from_env`], no per-binary parsing): it forces the
//! run-level executor to one thread, overriding `ERAPID_THREADS` — for
//! debugging and for timing baselines.

pub mod claims;
pub mod experiments;
pub mod index;
pub mod json;

pub use json::Json;

use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::{default_plan, paper_loads, RunOutput, RunResult};
use erapid_core::runner::{self, RunPoint};
use index::Results;
use netstats::csv::Csv;
use netstats::table::Table;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use traffic::pattern::TrafficPattern;

/// Prints `msg` and exits 2: how every bin rejects a name or argument it
/// does not know.
pub fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Short commit hash, read straight from `.git` (works offline, no git
/// binary needed). "unknown" outside a checkout. Names the JSON reports
/// ([`BenchConfig::write_report`]) so they agree for one commit.
pub fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let full = if let Some(refname) = head.strip_prefix("ref: ") {
        let refname = refname.trim();
        std::fs::read_to_string(format!(".git/{refname}"))
            .map(|s| s.trim().to_string())
            .ok()
            .filter(|s| !s.is_empty())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find_map(|l| {
                    let (sha, name) = l.split_once(' ')?;
                    (name == refname).then(|| sha.to_string())
                })
            })
            .unwrap_or_default()
    } else {
        head.to_string()
    };
    if full.is_empty() {
        "unknown".to_string()
    } else {
        full[..full.len().min(12)].to_string()
    }
}

/// Parsed harness configuration: every env knob, read once.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Quarter-length runs and a 3-point load axis.
    pub quick: bool,
    /// Worker threads for the run-level executor.
    pub threads: NonZeroUsize,
    /// Directory CSVs and JSON reports are written to.
    pub results: PathBuf,
    /// Event-trace output path (`tracereport` only; `None` = default).
    pub trace: Option<PathBuf>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            quick: false,
            threads: runner::available_threads(),
            results: PathBuf::from("results"),
            trace: None,
        }
    }
}

impl BenchConfig {
    /// Reads `ERAPID_QUICK`, `ERAPID_THREADS`, `ERAPID_RESULTS` and
    /// `ERAPID_TRACE`, plus the `--seq` escape hatch from the command line
    /// (forces `threads` to 1). Binaries call this once at the top of
    /// `main`.
    pub fn from_env() -> Self {
        let seq = std::env::args().skip(1).any(|a| a == "--seq");
        Self {
            quick: std::env::var("ERAPID_QUICK")
                .map(|v| v == "1")
                .unwrap_or(false),
            threads: if seq {
                NonZeroUsize::MIN
            } else {
                runner::threads_from_env()
            },
            results: PathBuf::from(
                std::env::var("ERAPID_RESULTS").unwrap_or_else(|_| "results".into()),
            ),
            trace: std::env::var("ERAPID_TRACE")
                .ok()
                .filter(|v| !v.trim().is_empty())
                .map(PathBuf::from),
        }
    }

    /// The load axis in use (3 points in quick mode, the paper's 9
    /// otherwise).
    pub fn load_axis(&self) -> Vec<f64> {
        if self.quick {
            vec![0.1, 0.5, 0.9]
        } else {
            paper_loads()
        }
    }

    /// Results directory (created on demand).
    pub fn results_dir(&self) -> PathBuf {
        let _ = std::fs::create_dir_all(&self.results);
        self.results.clone()
    }

    /// Writes `<results>/<KIND>_<sha>.json`: the header every report
    /// carries (`git_sha`, `quick`, `threads`) followed by `body`'s fields,
    /// and says where it went (or why it could not).
    pub fn write_report(&self, kind: &str, sha: &str, body: Vec<(&'static str, Json)>) {
        let mut fields = vec![
            ("git_sha", Json::str(sha)),
            ("quick", Json::Bool(self.quick)),
            ("threads", Json::U64(self.threads.get() as u64)),
        ];
        fields.extend(body);
        let path = self.results_dir().join(format!("{kind}_{sha}.json"));
        match std::fs::write(&path, Json::Obj(fields).render() + "\n") {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }

    /// Runs `points` through the one fan-out
    /// ([`runner::run_points`]) on this configuration's thread budget;
    /// outputs come back in input order, byte-identical for any budget.
    pub fn run(&self, points: Vec<RunPoint>) -> Vec<RunOutput> {
        runner::run_points(self.threads, points)
    }

    /// The phase plan for a system with reconfiguration window `window`.
    pub fn plan(&self, window: desim::Cycle) -> desim::phase::PhasePlan {
        if self.quick {
            desim::phase::PhasePlan::new(window, 2 * window).with_max_cycles(10 * window)
        } else {
            default_plan(window)
        }
    }

    /// The one point constructor: `cfg` under `pattern` at `load`, on this
    /// configuration's phase plan for `cfg`'s window.
    pub fn point(&self, cfg: SystemConfig, pattern: &TrafficPattern, load: f64) -> RunPoint {
        let plan = self.plan(cfg.schedule.window);
        RunPoint::generate(cfg, pattern.clone(), load, plan)
    }

    /// Writes `<results>/<name>.csv` and says so — except in quick mode,
    /// whose truncated runs must not overwrite the committed figures.
    pub fn write_csv(&self, name: &str, csv: &Csv) {
        if self.quick {
            return;
        }
        let path = self.results_dir().join(format!("{name}.csv"));
        match csv.write_to(&path) {
            Ok(()) => println!("wrote {}\n", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// Column headers of [`result_row`].
const RESULT_COLUMNS: [&str; 10] = [
    "thr (pkt/n/c)",
    "thr/Nc",
    "lat (cyc)",
    "p95",
    "src path",
    "TX wait",
    "power (mW)",
    "grants",
    "retunes",
    "undrained",
];

/// The one way a [`RunResult`] becomes table cells.
fn result_row(r: &RunResult) -> Vec<String> {
    vec![
        format!("{:.4}", r.throughput),
        format!("{:.3}", r.throughput_norm),
        format!("{:.1}", r.latency),
        format!("{:.0}", r.latency_p95),
        format!("{:.1}", r.src_path),
        format!("{:.1}", r.tx_wait),
        format!("{:.1}", r.power_mw),
        format!("{}", r.grants),
        format!("{}", r.retunes),
        format!("{}", r.undrained),
    ]
}

/// A table with one `result_row` per result, each behind the cells that
/// name it (`keys` are their headers).
pub fn result_table(
    title: &str,
    keys: &[&str],
    rows: impl IntoIterator<Item = (Vec<String>, RunResult)>,
) -> Table {
    let mut t = Table::new([keys, &RESULT_COLUMNS[..]].concat()).with_title(title);
    for (mut cells, result) in rows {
        cells.extend(result_row(&result));
        t.row(cells);
    }
    t
}

/// One pattern's full panel: all four configurations across the load axis.
pub struct Panel {
    /// Pattern name.
    pub pattern: String,
    /// `results[mode][load_idx]`.
    pub results: Vec<(NetworkMode, Vec<RunResult>)>,
    /// The load axis used.
    pub loads: Vec<f64>,
}

impl Panel {
    /// The four curves of `pattern` over `bench`'s load axis, read from
    /// `results`.
    pub fn from_results(bench: &BenchConfig, pattern: &str, results: &Results) -> Panel {
        let loads = bench.load_axis();
        let curve = |mode| {
            loads
                .iter()
                .map(|&l| results.p64(pattern, mode, l))
                .collect()
        };
        Panel {
            pattern: pattern.to_string(),
            results: NetworkMode::all().map(|mode| (mode, curve(mode))).into(),
            loads,
        }
    }
}

/// Prints the three sub-panels (throughput, latency, power) the paper's
/// Figures 5/6 show for one pattern, and writes a CSV.
pub fn print_panel(cfg: &BenchConfig, panel: &Panel) {
    let headers = |unit: &str| {
        let mut h = vec![format!("load ({unit})")];
        for (m, _) in &panel.results {
            h.push(m.name().to_string());
        }
        h
    };
    let mut thr = Table::new(headers("thr, pkt/node/cycle"))
        .with_title(format!("[{}] Accepted throughput", panel.pattern));
    let mut lat = Table::new(headers("latency, cycles"))
        .with_title(format!("[{}] Average packet latency", panel.pattern));
    let mut pwr = Table::new(headers("power, mW"))
        .with_title(format!("[{}] Optical interconnect power", panel.pattern));
    for (i, &load) in panel.loads.iter().enumerate() {
        let row = |f: &dyn Fn(&RunResult) -> String| -> Vec<String> {
            let mut r = vec![format!("{load:.1}")];
            for (_, series) in &panel.results {
                r.push(f(&series[i]));
            }
            r
        };
        thr.row(row(&|r| format!("{:.4}", r.throughput)));
        lat.row(row(&|r| format!("{:.1}", r.latency)));
        pwr.row(row(&|r| format!("{:.1}", r.power_mw)));
    }
    println!("{}", thr.render());
    println!("{}", lat.render());
    println!("{}", pwr.render());

    // CSV export.
    let mut headers = vec!["load".to_string()];
    for (m, _) in &panel.results {
        for metric in ["thr", "lat", "pwr"] {
            headers.push(format!("{}_{}", m.name(), metric));
        }
    }
    let mut csv = Csv::new(headers);
    for (i, &load) in panel.loads.iter().enumerate() {
        let mut row = vec![format!("{load}")];
        for (_, series) in &panel.results {
            let r = &series[i];
            row.push(format!("{}", r.throughput));
            row.push(format!("{}", r.latency));
            row.push(format!("{}", r.power_mw));
        }
        csv.row(row);
    }
    cfg.write_csv(&panel.pattern, &csv);
}

/// Draws the panel's three metrics as terminal line charts (the actual
/// figure shapes, next to the exact tables).
pub fn print_charts(panel: &Panel) {
    use netstats::chart::Chart;
    let draw = |title: &str, ylab: &str, f: &dyn Fn(&erapid_core::experiment::RunResult) -> f64| {
        let mut c = Chart::new(format!("[{}] {title}", panel.pattern), 64, 14)
            .with_labels("offered load (fraction of N_c)", ylab);
        for (mode, series) in &panel.results {
            let pts: Vec<(f64, f64)> = panel
                .loads
                .iter()
                .zip(series)
                .map(|(&l, r)| (l, f(r)))
                .collect();
            c.series(mode.name(), pts);
        }
        println!("{}", c.render());
    };
    draw("throughput", "pkt/node/cycle", &|r| r.throughput);
    draw("latency", "cycles", &|r| r.latency);
    draw("power", "mW", &|r| r.power_mw);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> BenchConfig {
        BenchConfig {
            quick: true,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn write_report_lands_under_results_not_the_cwd() {
        let dir = std::env::temp_dir().join(format!("erapid_report_{}", std::process::id()));
        let cfg = BenchConfig {
            results: dir.clone(),
            ..quick_cfg()
        };
        cfg.write_report("UNITTEST", "abc123", vec![("n", Json::U64(7))]);
        let text = std::fs::read_to_string(dir.join("UNITTEST_abc123.json")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(text.starts_with(r#"{"git_sha": "abc123", "quick": true, "threads": "#));
        assert!(text.ends_with("\"n\": 7}\n"), "{text}");
        assert!(!std::path::Path::new("UNITTEST_abc123.json").exists());
    }

    #[test]
    fn load_axis_default_is_paper() {
        // No env mutation: configurations are plain values now.
        assert_eq!(BenchConfig::default().load_axis().len(), 9);
        assert_eq!(quick_cfg().load_axis().len(), 3);
    }

    #[test]
    fn run_point_smoke() {
        let r = quick_cfg()
            .point(
                SystemConfig::paper64(NetworkMode::NpNb),
                &TrafficPattern::Uniform,
                0.2,
            )
            .run()
            .result;
        assert!(r.throughput > 0.0);
    }

    /// Fig. 5's uniform points fanned over two threads must equal the
    /// plain loop on the calling thread, field for field, in order.
    #[test]
    fn parallel_panel_matches_sequential() {
        let cfg = BenchConfig {
            threads: NonZeroUsize::new(2).unwrap(),
            ..quick_cfg()
        };
        let points = || -> Vec<RunPoint> {
            let points = experiments::panel_points(&cfg, &["uniform"]);
            points.into_iter().map(|p| p.run).collect()
        };
        let fanned: Vec<RunResult> = cfg.run(points()).iter().map(|o| o.result).collect();
        let sequential: Vec<RunResult> = points().into_iter().map(|p| p.run().result).collect();
        assert_eq!(fanned.len(), 4 * cfg.load_axis().len());
        assert_eq!(fanned, sequential);
    }
}
