//! The E-RAPID simulator benchmark: five seeded workloads, end-to-end and
//! per-layer metrics, a correctness gate, and an A/B reader.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--seed N] [--seconds S] [--workload NAME] [--trace 0|1] [--out FILE]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```
//!
//! With `--workload` it runs one pass of one workload in this process and
//! ends its standard output with the one-line JSON result. Without, it
//! re-executes itself once per workload and pass — so `peak_rss_kb` is
//! that workload's own `VmHWM` — and writes one result file, manifest
//! first. Either way it prints every metric by name with its unit and
//! exits non-zero if any correctness check failed. See `README.md`.

use erapid_benchmark::adapter::{self, Size, Workload};
use erapid_benchmark::json::{self, num, obj, string, Value};
use erapid_benchmark::{compare, results, run};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Budget of the measured part of a pass when `--seconds` is absent; the
/// same figure `BENCHMARK.json` gives the driver as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Timed repeats never drop below this, however slow the box.
const MIN_REPEATS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes (suite) or the untraced pass (one workload).
    trace: Option<bool>,
    out: Option<PathBuf>,
    /// Where a child of the suite leaves its pass in full.
    detail: Option<PathBuf>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: adapter::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        detail: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            args.trace = Some(true);
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?} (want one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => args.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            "--detail" => args.detail = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// `benchmark/out`, beside the package's manifest: git-ignored, inside the
/// checkout the program was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One pass of one workload in this process.
fn run_single(args: &Args, workload: Workload) -> Result<bool, String> {
    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        size: Size::Full,
        min_repeats: MIN_REPEATS,
        out_dir: out_dir(),
    };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let report = if args.trace == Some(true) {
        run::traced(&opts)?
    } else {
        run::untraced(&opts)?
    };
    results::print_human(&report);
    if let Some(path) = &args.detail {
        std::fs::write(path, results::pass_json(&report).pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", results::contract_line(&report));
    Ok(report.correct())
}

/// Short commit hash read from `.git` in the working directory —
/// `erapid_bench::git_sha`, reimplemented here so the package depends on
/// no bench code. `"unknown"` outside a checkout.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        Some(refname) => std::fs::read_to_string(format!(".git/{}", refname.trim()))
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find_map(|l| {
                    let (sha, name) = l.split_once(' ')?;
                    (name == refname.trim()).then(|| sha.to_string())
                })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if full.is_empty() {
        "unknown".to_string()
    } else {
        full[..full.len().min(12)].to_string()
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Every workload, each pass in a process of its own; one result file.
fn run_suite(args: &Args) -> Result<bool, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let sha = git_sha();
    let load_start = loadavg();
    let passes: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut clean = true;
    let mut workloads = Vec::new();
    let mut knobs = Vec::new();
    for w in Workload::ALL {
        let mut entry = Vec::new();
        for &traced in passes {
            let detail = dir.join(format!(
                "pass_{}_{}_{}.json",
                w.name(),
                u8::from(traced),
                std::process::id()
            ));
            let status = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--detail")
                .arg(&detail)
                .status()
                .map_err(|e| format!("spawn {}: {e}", w.name()))?;
            clean &= status.success();
            let pass = std::fs::read_to_string(&detail)
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text));
            let _ = std::fs::remove_file(&detail);
            match pass {
                Ok(pass) => {
                    if !traced || passes.len() == 1 {
                        let pick = |k: &str| pass.get(k).cloned().unwrap_or(Value::Null);
                        knobs.push((
                            w.name(),
                            obj([
                                ("threads", pick("threads")),
                                ("repeats", pick("repeats")),
                                ("sizes", pick("sizes")),
                            ]),
                        ));
                    }
                    entry.push((if traced { "traced" } else { "untraced" }, pass));
                }
                Err(e) => {
                    eprintln!("{}: pass left no readable result: {e}", w.name());
                    clean = false;
                }
            }
        }
        workloads.push((w.name(), obj(entry)));
    }
    let manifest = obj([
        ("git_sha", string(sha.as_str())),
        ("seed", string(format!("{:#x}", args.seed))),
        ("seconds", num(args.seconds)),
        ("min_repeats", num(MIN_REPEATS as f64)),
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("rustc", string(rustc_version())),
        ("loadavg_start", string(load_start)),
        ("loadavg_end", string(loadavg())),
        ("workloads", obj(knobs)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| dir.join(format!("result_{sha}_seed{:x}.json", args.seed)));
    let doc = obj([("manifest", manifest), ("workloads", obj(workloads))]);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(clean)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().is_some_and(|a| a == "compare") {
        match &argv[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: compare A.json B.json".to_string()),
        }
    } else {
        parse_args(&argv).and_then(|args| match args.workload {
            Some(w) => run_single(&args, w),
            None => run_suite(&args),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
