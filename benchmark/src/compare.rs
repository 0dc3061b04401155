//! `compare A.json B.json` — the same-box A/B reader.
//!
//! One row per (end-to-end metric, workload): both medians with their
//! quartiles, the ratio B ÷ A (A is the base), and a verdict by the
//! catalog's bounds. It reads two result files; building the two commits
//! is the caller's job.

use crate::catalog::{Better, Kind, END_TO_END, FAILED_FRACTION};
use crate::json::{self, Value};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides
    /// overlap: the files cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn overlaps(a: &Summary, b: &Summary) -> bool {
    a.q1 <= b.q3 && b.q1 <= a.q3
}

/// Host metrics: regressed when B's median is worse than A's by more than
/// `bound` of A's (and by more than the absolute `floor`), unless either
/// side's inter-quartile spread exceeds the bound while the two
/// inter-quartile ranges overlap.
pub fn host_verdict(a: Summary, b: Summary, better: Better, bound: f64, floor: f64) -> Verdict {
    if (a.spread() > bound || b.spread() > bound) && overlaps(&a, &b) {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if worse_by > (bound * a.median.abs()).max(floor) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Sim metrics repeat bit-exactly for a fixed seed, so any difference is
/// a model change, whichever way it points. Across different seeds the
/// comparison means nothing.
pub fn sim_verdict(a: f64, b: f64, same_seed: bool) -> Verdict {
    if !same_seed {
        Verdict::Unresolved
    } else if a.to_bits() == b.to_bits() {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(pass: &Value, metric: &str) -> Option<Summary> {
    let m = pass.get("metrics")?.get(metric)?;
    Some(Summary {
        median: m.get("value")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        n: m.get("n")?.as_f64()? as usize,
    })
}

/// Prints the table; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let seed = |doc: &Value| doc.get("manifest").and_then(|m| m.get("seed")).cloned();
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    println!("A (base) = {path_a}\nB        = {path_b}");
    if !same_seed {
        println!("seeds differ: sim metrics cannot be compared and read `unresolved`");
    }
    println!(
        "{:<16} {:<20} {:>14} {:>29} {:>14} {:>29} {:>10}  verdict",
        "workload", "metric", "A median", "A [Q1, Q3]", "B median", "B [Q1, Q3]", "B/A"
    );
    let mut clean = true;
    let workloads = a.get("workloads").map(Value::fields).unwrap_or_default();
    for (name, wa) in workloads {
        let passes = (
            wa.get("untraced"),
            b.get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("untraced")),
        );
        let (Some(pa), Some(pb)) = passes else {
            println!("{name:<16} missing from one side");
            continue;
        };
        let mut row = |metric: &str, sa: Summary, sb: Summary, verdict: Verdict| {
            clean &= verdict != Verdict::Regressed;
            println!(
                "{name:<16} {metric:<20} {:>14.6} {:>29} {:>14.6} {:>29} {:>10.4}  {}",
                sa.median,
                format!("[{:.6}, {:.6}]", sa.q1, sa.q3),
                sb.median,
                format!("[{:.6}, {:.6}]", sb.q1, sb.q3),
                if sa.median == 0.0 {
                    1.0
                } else {
                    sb.median / sa.median
                },
                verdict.as_str(),
            );
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(pa, m.name), side(pb, m.name)) else {
                println!("{name:<16} {:<20} missing from one side", m.name);
                continue;
            };
            let verdict = match m.kind {
                Kind::Host => host_verdict(sa, sb, m.better, m.bound, m.floor),
                Kind::Sim => sim_verdict(sa.median, sb.median, same_seed),
            };
            row(m.name, sa, sb, verdict);
        }
        let failed = |p: &Value| p.get(FAILED_FRACTION).and_then(Value::as_f64);
        if let (Some(fa), Some(fb)) = (failed(pa), failed(pb)) {
            let verdict = if fb > fa {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            row(
                FAILED_FRACTION,
                Summary::single(fa),
                Summary::single(fb),
                verdict,
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 7,
        }
    }

    #[test]
    fn within_bound_is_ok_either_direction() {
        assert_eq!(
            host_verdict(tight(1.0), tight(1.05), Better::Lower, 0.08, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            host_verdict(tight(1.0), tight(0.5), Better::Lower, 0.08, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            host_verdict(tight(100.0), tight(95.0), Better::Higher, 0.08, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            host_verdict(tight(100.0), tight(300.0), Better::Higher, 0.08, 0.0),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_bound_is_regressed() {
        assert_eq!(
            host_verdict(tight(1.0), tight(1.2), Better::Lower, 0.08, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            host_verdict(tight(100.0), tight(80.0), Better::Higher, 0.08, 0.0),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_overlapping_sides_are_unresolved() {
        let noisy = Summary {
            median: 1.0,
            q1: 0.8,
            q3: 1.3,
            n: 7,
        };
        assert_eq!(
            host_verdict(noisy, tight(1.2), Better::Lower, 0.08, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            host_verdict(tight(1.2), noisy, Better::Lower, 0.08, 0.0),
            Verdict::Unresolved
        );
        // Wide but disjoint: every quartile of B is beyond A's, so the
        // files do resolve it.
        assert_eq!(
            host_verdict(noisy, tight(2.0), Better::Lower, 0.08, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            host_verdict(noisy, tight(0.5), Better::Lower, 0.08, 0.0),
            Verdict::Ok
        );
    }

    #[test]
    fn absolute_floor_absorbs_small_setups() {
        // 7 ms -> 11 ms is +57 %, but within the 20 ms slack set-up gets.
        assert_eq!(
            host_verdict(tight(0.007), tight(0.011), Better::Lower, 0.25, 0.02),
            Verdict::Ok
        );
        assert_eq!(
            host_verdict(tight(0.007), tight(0.011), Better::Lower, 0.25, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            host_verdict(tight(0.2), tight(0.3), Better::Lower, 0.25, 0.02),
            Verdict::Regressed
        );
    }

    #[test]
    fn sim_metrics_compare_for_exact_equality() {
        let v = 0.1 + 0.2;
        assert_eq!(sim_verdict(v, v, true), Verdict::Ok);
        // One ulp is a model change, in either direction.
        assert_eq!(
            sim_verdict(v, f64::from_bits(v.to_bits() + 1), true),
            Verdict::Regressed
        );
        assert_eq!(
            sim_verdict(v, f64::from_bits(v.to_bits() - 1), true),
            Verdict::Regressed
        );
        assert_eq!(sim_verdict(v, v, false), Verdict::Unresolved);
    }
}
