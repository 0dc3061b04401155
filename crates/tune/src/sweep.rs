//! Offline operating-point sweeps: grid enumeration, run-result joins and
//! the power × p95-latency choice rule.
//!
//! The bench index's `autotune` experiment runs every [`OperatingPoint`]
//! of a [`TuneGrid`], joins each run's delivery, power and latency digest
//! into a [`SweepOutcome`], and per workload [`choose`]s the point minimising
//! `power_mw × latency_p95` among outcomes that kept delivery intact.
//! Everything is deterministic: grids enumerate in fixed nested order,
//! sorts use `f64::total_cmp`, and ties resolve to the earlier grid point.

use crate::controller::MILLI;
use crate::error::TuneError;
use powermgmt::policy::DpmPolicy;

/// One candidate operating point: the DPM threshold triple plus the
/// Lock-Step window `R_w` it runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatingPoint {
    /// `L_min`, milli-units.
    pub l_min_milli: u32,
    /// `L_max`, milli-units.
    pub l_max_milli: u32,
    /// `B_max`, milli-units.
    pub b_max_milli: u32,
    /// Lock-Step window length, cycles.
    pub r_w: u64,
}

impl OperatingPoint {
    /// Quantizes an existing policy (e.g. a paper preset) onto the milli
    /// grid — the baseline the sweep compares against.
    pub fn from_policy(policy: DpmPolicy, r_w: u64) -> Self {
        let q = |v: f64| (v * MILLI as f64).round() as u32;
        Self {
            l_min_milli: q(policy.l_min),
            l_max_milli: q(policy.l_max),
            b_max_milli: q(policy.b_max),
            r_w,
        }
    }

    /// The thresholds as a DPM policy (exact small-integer / 1000.0).
    pub fn dpm_policy(&self) -> DpmPolicy {
        DpmPolicy::new(
            self.l_min_milli as f64 / MILLI as f64,
            self.l_max_milli as f64 / MILLI as f64,
            self.b_max_milli as f64 / MILLI as f64,
        )
    }

    /// Compact display label, e.g. `l500-800 b100 rw2000`.
    pub fn label(&self) -> String {
        format!(
            "l{}-{} b{} rw{}",
            self.l_min_milli, self.l_max_milli, self.b_max_milli, self.r_w
        )
    }
}

/// Axis-product grid of candidate operating points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneGrid {
    /// `L_min` candidates, milli-units.
    pub l_min_milli: Vec<u32>,
    /// `L_max` candidates, milli-units.
    pub l_max_milli: Vec<u32>,
    /// `B_max` candidates, milli-units.
    pub b_max_milli: Vec<u32>,
    /// `R_w` candidates, cycles.
    pub r_w: Vec<u64>,
}

impl TuneGrid {
    /// The smoke grid: 2 × 2 straddling the paper's P-B point (more
    /// aggressive scale-down on one side, a laxer upscale trigger on the
    /// other), paper `R_w`.
    pub fn smoke() -> Self {
        Self {
            l_min_milli: vec![750, 850],
            l_max_milli: vec![900],
            b_max_milli: vec![300, 500],
            r_w: vec![2000],
        }
    }

    /// Enumerates the grid in fixed nested order (`l_min` outermost, `r_w`
    /// innermost), dropping combinations that violate `L_min < L_max`.
    /// Typed errors, never panics: an empty axis is [`TuneError::EmptyGrid`],
    /// out-of-range values are [`TuneError::InvalidSpec`], and a grid whose
    /// every combination has an inverted band is [`TuneError::InvalidBand`].
    pub fn points(&self) -> Result<Vec<OperatingPoint>, TuneError> {
        for (name, axis) in [
            ("l_min", &self.l_min_milli),
            ("l_max", &self.l_max_milli),
            ("b_max", &self.b_max_milli),
        ] {
            if axis.is_empty() {
                return Err(TuneError::EmptyGrid(format!("{name} axis has no values")));
            }
            if let Some(&v) = axis.iter().find(|&&v| v > MILLI) {
                return Err(TuneError::InvalidSpec(format!(
                    "{name} value {v} exceeds {MILLI}‰"
                )));
            }
        }
        if self.r_w.is_empty() {
            return Err(TuneError::EmptyGrid("r_w axis has no values".into()));
        }
        if let Some(&w) = self.r_w.iter().find(|&&w| w == 0) {
            return Err(TuneError::InvalidSpec(format!("r_w value {w} must be > 0")));
        }
        let mut points = Vec::new();
        let mut first_bad: Option<(u32, u32)> = None;
        for &l_min in &self.l_min_milli {
            for &l_max in &self.l_max_milli {
                if l_min >= l_max {
                    first_bad.get_or_insert((l_min, l_max));
                    continue;
                }
                for &b_max in &self.b_max_milli {
                    for &r_w in &self.r_w {
                        points.push(OperatingPoint {
                            l_min_milli: l_min,
                            l_max_milli: l_max,
                            b_max_milli: b_max,
                            r_w,
                        });
                    }
                }
            }
        }
        if points.is_empty() {
            let (l_min_milli, l_max_milli) = match first_bad {
                Some(pair) => pair,
                None => {
                    return Err(TuneError::EmptyGrid(
                        "axis product enumerated no candidates".into(),
                    ))
                }
            };
            return Err(TuneError::InvalidBand {
                l_min_milli,
                l_max_milli,
            });
        }
        Ok(points)
    }
}

/// One operating point's measured outcome, joined from a run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The point that produced this outcome.
    pub point: OperatingPoint,
    /// Packets injected over the run.
    pub injected: u64,
    /// Packets delivered over the run.
    pub delivered: u64,
    /// Mean network power, mW.
    pub power_mw: f64,
    /// Mean labelled-packet latency, cycles.
    pub latency_mean: f64,
    /// 95th-percentile labelled-packet latency, cycles.
    pub latency_p95: f64,
}

impl SweepOutcome {
    /// Joins a run's scalar results. A run that injected nothing is
    /// [`TuneError::ZeroInjected`]: its delivery and latency carry no
    /// signal.
    pub fn join(
        point: OperatingPoint,
        injected: u64,
        delivered: u64,
        power_mw: f64,
        latency_mean: f64,
        latency_p95: f64,
    ) -> Result<Self, TuneError> {
        if injected == 0 {
            return Err(TuneError::ZeroInjected);
        }
        Ok(Self {
            point,
            injected,
            delivered,
            power_mw,
            latency_mean,
            latency_p95,
        })
    }

    /// Delivered fraction; the constructor rejects `injected == 0`, so
    /// the division is always defined.
    pub fn delivered_fraction(&self) -> f64 {
        self.delivered as f64 / self.injected as f64
    }

    /// The scalar objective the chooser minimises: mean power × p95
    /// latency (mW · cycles). Lower is better on both axes, so the
    /// product rewards any non-regressive trade.
    pub fn objective(&self) -> f64 {
        self.power_mw * self.latency_p95
    }
}

/// Fraction of the best delivered fraction an outcome must retain to stay
/// eligible for [`choose`]: a point that starves delivery cannot win on a
/// latency statistic computed over the few packets that survived.
const DELIVERY_GUARD: f64 = 0.95;

/// Picks the outcome minimising [`SweepOutcome::objective`] among those
/// within `DELIVERY_GUARD` (95 %) of the best delivered fraction. Deterministic:
/// `total_cmp` ordering, ties resolve to the earliest outcome in slice
/// (= grid) order. Typed [`TuneError::NoViablePoint`] when the slice is
/// empty or the guard eliminates everything.
pub fn choose(outcomes: &[SweepOutcome]) -> Result<&SweepOutcome, TuneError> {
    if outcomes.is_empty() {
        return Err(TuneError::NoViablePoint(
            "no outcomes to choose from".into(),
        ));
    }
    let best_frac = outcomes
        .iter()
        .map(SweepOutcome::delivered_fraction)
        .fold(f64::NEG_INFINITY, f64::max);
    let viable = outcomes
        .iter()
        .filter(|o| o.delivered_fraction() >= DELIVERY_GUARD * best_frac);
    viable
        .reduce(|best, o| {
            if o.objective().total_cmp(&best.objective()).is_lt() {
                o
            } else {
                best
            }
        })
        .ok_or_else(|| {
            TuneError::NoViablePoint(format!(
                "delivery guard ({DELIVERY_GUARD} × best fraction {best_frac:.3}) eliminated every outcome"
            ))
        })
}

/// Whether `chosen` improves on the `base`line. Two ways to win, mirroring
/// the [`choose`] eligibility rule:
/// * the baseline starves delivery — its delivered fraction falls outside
///   `DELIVERY_GUARD` of the chosen point's — so restoring delivery is
///   the improvement (the baseline's latency statistic is survivor-biased
///   and not comparable);
/// * at comparable delivery, a strictly lower `power × p95` objective.
pub fn improves(chosen: &SweepOutcome, base: &SweepOutcome) -> bool {
    if base.delivered_fraction() < DELIVERY_GUARD * chosen.delivered_fraction() {
        return true;
    }
    chosen.objective().total_cmp(&base.objective()).is_lt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(l_min: u32, l_max: u32) -> OperatingPoint {
        OperatingPoint {
            l_min_milli: l_min,
            l_max_milli: l_max,
            b_max_milli: 300,
            r_w: 2000,
        }
    }

    fn outcome(power: f64, p95: f64, delivered: u64) -> SweepOutcome {
        SweepOutcome {
            point: point(500, 900),
            injected: 1000,
            delivered,
            power_mw: power,
            latency_mean: p95 / 2.0,
            latency_p95: p95,
        }
    }

    #[test]
    fn grid_enumerates_in_fixed_order_and_filters_bands() {
        let g = TuneGrid {
            l_min_milli: vec![500, 900],
            l_max_milli: vec![800],
            b_max_milli: vec![0, 300],
            r_w: vec![2000],
        };
        // (900, 800) is filtered; (500, 800) survives with both b_max.
        let pts = g.points().unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0], point(500, 800).with_b(0));
        assert_eq!(pts[1], point(500, 800).with_b(300));
    }

    impl OperatingPoint {
        fn with_b(mut self, b: u32) -> Self {
            self.b_max_milli = b;
            self
        }
    }

    #[test]
    fn all_inverted_bands_is_a_typed_error() {
        let g = TuneGrid {
            l_min_milli: vec![900, 950],
            l_max_milli: vec![700],
            b_max_milli: vec![300],
            r_w: vec![2000],
        };
        assert_eq!(
            g.points(),
            Err(TuneError::InvalidBand {
                l_min_milli: 900,
                l_max_milli: 700
            })
        );
    }

    #[test]
    fn empty_axes_and_bad_values_are_typed_errors() {
        let mut g = TuneGrid::smoke();
        g.b_max_milli.clear();
        assert!(matches!(g.points(), Err(TuneError::EmptyGrid(_))));
        let mut g = TuneGrid::smoke();
        g.r_w.clear();
        assert!(matches!(g.points(), Err(TuneError::EmptyGrid(_))));
        let mut g = TuneGrid::smoke();
        g.l_max_milli.push(1200);
        assert!(matches!(g.points(), Err(TuneError::InvalidSpec(_))));
        let mut g = TuneGrid::smoke();
        g.r_w = vec![0];
        assert!(matches!(g.points(), Err(TuneError::InvalidSpec(_))));
    }

    #[test]
    fn preset_grids_enumerate() {
        assert_eq!(TuneGrid::smoke().points().unwrap().len(), 4);
    }

    #[test]
    fn baseline_quantizes_paper_policies() {
        let p = OperatingPoint::from_policy(DpmPolicy::power_bandwidth(), 2000);
        assert_eq!(
            (p.l_min_milli, p.l_max_milli, p.b_max_milli),
            (700, 900, 300)
        );
        assert_eq!(p.dpm_policy(), DpmPolicy::power_bandwidth());
        assert_eq!(p.label(), "l700-900 b300 rw2000");
    }

    #[test]
    fn join_rejects_zero_injected_and_keeps_the_scalars() {
        let err = SweepOutcome::join(point(500, 900), 0, 0, 1.0, 1.0, 1.0);
        assert_eq!(err, Err(TuneError::ZeroInjected));
        let o = SweepOutcome::join(point(500, 900), 100, 90, 2.0, 50.0, 80.0).unwrap();
        assert!((o.delivered_fraction() - 0.9).abs() < 1e-12);
        assert!((o.objective() - 160.0).abs() < 1e-12);
    }

    #[test]
    fn nan_outcomes_never_shadow_real_points() {
        let outcomes = vec![outcome(f64::NAN, f64::NAN, 1000), outcome(2.0, 90.0, 1000)];
        let chosen = choose(&outcomes).unwrap();
        assert_eq!(chosen.power_mw, 2.0);
    }

    #[test]
    fn choose_minimises_objective_with_delivery_guard() {
        let outcomes = vec![
            outcome(2.0, 100.0, 1000), // objective 200
            outcome(1.0, 150.0, 1000), // objective 150 → winner
            outcome(0.1, 100.0, 100),  // cheapest but starved: guarded out
        ];
        let chosen = choose(&outcomes).unwrap();
        assert_eq!(chosen.power_mw, 1.0);
        assert!(matches!(choose(&[]), Err(TuneError::NoViablePoint(_))));
    }

    #[test]
    fn improvement_is_objective_or_restored_delivery() {
        let base = outcome(2.0, 100.0, 1000); // objective 200
                                              // Lower objective at equal delivery: improvement.
        assert!(improves(&outcome(1.5, 100.0, 1000), &base));
        // Equal objective: not an improvement (ties keep the baseline).
        assert!(!improves(&outcome(2.0, 100.0, 1000), &base));
        // Worse objective at comparable delivery: not an improvement.
        assert!(!improves(&outcome(2.0, 120.0, 1000), &base));
        // Baseline starved delivery: even a worse objective wins, because
        // the baseline's p95 is survivor-biased and not comparable.
        let starved = outcome(2.0, 100.0, 480);
        assert!(improves(&outcome(2.0, 150.0, 560), &starved));
        // NaN objectives never count as an improvement.
        assert!(!improves(&outcome(f64::NAN, 100.0, 1000), &base));
    }

    #[test]
    fn choose_ties_resolve_to_grid_order() {
        let outcomes = vec![outcome(1.0, 100.0, 1000), outcome(2.0, 50.0, 1000)];
        // Equal objectives (100): the earlier outcome wins.
        let chosen = choose(&outcomes).unwrap();
        assert_eq!(chosen.power_mw, 1.0);
    }
}
