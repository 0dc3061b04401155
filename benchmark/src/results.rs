//! Rendering of a pass: the human table, the driver's one-line result,
//! and the detailed JSON that result files are made of.

use crate::catalog::{self, Better, Kind, FAILED_FRACTION, WORKLOAD_WHY};
use crate::json::{num, obj, string, Value};
use crate::run::PassReport;
use crate::stats::Summary;

/// A metric's `(unit, kind, better)` from the catalog.
fn declared(name: &str) -> (&'static str, Kind, Better) {
    if let Some(m) = catalog::end_to_end(name) {
        return (m.unit, m.kind, m.better);
    }
    catalog::PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or(("", Kind::Host, Better::Lower), |m| {
            (m.unit, m.kind, m.better)
        })
}

/// Every metric by name with its unit; repeat-sampled ones with their
/// quartiles and sample count.
pub fn print_human(r: &PassReport) {
    println!(
        "== {} · {} pass · seed {:#x} · {} thread(s) · {} {} · {} point(s), horizon {} cycles",
        r.workload.name(),
        if r.traced { "traced" } else { "untraced" },
        r.seed,
        r.threads,
        r.repeats,
        if r.traced {
            "iteration(s)"
        } else {
            "timed repeat(s)"
        },
        r.sizes.points,
        r.sizes.horizon_cycles,
    );
    if let Some((_, why)) = WORKLOAD_WHY.iter().find(|w| w.0 == r.workload.name()) {
        println!("   why: {why}");
    }
    for (name, s) in &r.metrics {
        let (unit, kind, better) = declared(name);
        let tag = format!("{}, {} is better", kind.as_str(), better.as_str());
        if s.n > 1 {
            println!(
                "{name:<48} {:>16.6} {unit:<9} [{tag}]  Q1 {:.6}  Q3 {:.6}  n={}",
                s.median, s.q1, s.q3, s.n
            );
        } else {
            println!("{name:<48} {:>16.6} {unit:<9} [{tag}]", s.median);
        }
    }
    println!(
        "{FAILED_FRACTION:<48} {:>16.6} {:<9} [check] {} failed of {} attempted",
        r.failed_fraction(),
        "ratio",
        r.failed,
        r.attempted
    );
    for (name, v) in &r.info {
        println!("{name:<48} {v:>16.6} (reported, not gated)");
    }
    for c in &r.checks {
        println!(
            "check {:<60} {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" }
        );
    }
    println!("digest {:#018x}", r.digest);
}

/// The driver's contract: one JSON object, last line of stdout.
pub fn contract_line(r: &PassReport) -> String {
    let metrics = r.metrics.iter().map(|(name, s)| {
        (
            *name,
            obj([("value", num(s.median)), ("unit", string(declared(name).0))]),
        )
    });
    obj([
        ("correct", Value::Bool(r.correct())),
        ("attempted", num(r.attempted as f64)),
        ("failed", num(r.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .compact()
}

fn metric_json(name: &str, s: &Summary) -> Value {
    let (unit, kind, _) = declared(name);
    obj([
        ("value", num(s.median)),
        ("unit", string(unit)),
        ("kind", string(kind.as_str())),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("n", num(s.n as f64)),
    ])
}

/// One pass in full — what a result file stores per workload and pass.
pub fn pass_json(r: &PassReport) -> Value {
    obj([
        ("workload", string(r.workload.name())),
        ("traced", Value::Bool(r.traced)),
        ("seed", string(format!("{:#x}", r.seed))),
        ("threads", num(r.threads as f64)),
        ("repeats", num(r.repeats as f64)),
        (
            "sizes",
            obj([
                ("points", num(r.sizes.points as f64)),
                ("horizon_cycles", num(r.sizes.horizon_cycles as f64)),
                (
                    "checkpoint_every_windows",
                    num(r.sizes.checkpoint_every_windows as f64),
                ),
            ]),
        ),
        ("correct", Value::Bool(r.correct())),
        ("attempted", num(r.attempted as f64)),
        ("failed", num(r.failed as f64)),
        (FAILED_FRACTION, num(r.failed_fraction())),
        ("digest", string(format!("{:#018x}", r.digest))),
        (
            "metrics",
            obj(r
                .metrics
                .iter()
                .map(|(name, s)| (*name, metric_json(name, s)))),
        ),
        (
            "checks",
            obj(r
                .checks
                .iter()
                .map(|c| (c.name.as_str(), Value::Bool(c.ok)))),
        ),
        ("info", obj(r.info.iter().map(|(k, v)| (*k, num(*v))))),
    ])
}
