//! The online windowed threshold controller (DESIGN.md §15).
//!
//! At every Power-kind `R_w` boundary the engine hands the controller one
//! [`WindowObservation`] — integer counts of lit, pressured and idle
//! channels over the just-closed window, gathered in canonical ascending
//! `(dest, wavelength)` order — and the controller nudges the live DPM
//! thresholds one [`ControllerSpec::step_milli`] toward the regime the
//! window revealed:
//!
//! * **Congested** (pressured fraction above `hot_frac_milli`): lower
//!   `L_max` and `B_max` so up-scaling triggers sooner, and lower `L_min`
//!   so links stop down-scaling away bandwidth the queues need.
//! * **Idle** (idle fraction above `idle_frac_milli`): raise `L_min` so
//!   links shed power sooner, and drift `L_max`/`B_max` back toward their
//!   ceilings (the paper's aggressive power-saving posture).
//! * **Hold** otherwise (or when no channel is lit).
//!
//! All state is integer milli-units (`0..=1000`); every decision is a pure
//! function of `(spec, current thresholds, observation)` with no floats,
//! clocks or RNG — which is what makes the controller bit-exact across
//! run-level fan-out and across checkpoint/resume. The
//! step/clamp arithmetic maintains three invariants from any reachable
//! state: `l_min + min_gap ≤ l_max`, `l_min_floor ≤ l_min`,
//! `l_max ≤ l_max_ceil`, and `b_max_floor ≤ b_max ≤ b_max_ceil`.

use crate::error::TuneError;
use powermgmt::policy::DpmPolicy;

/// Milli-unit denominator: thresholds live in `0..=1000`.
pub const MILLI: u32 = 1000;

/// Static controller parameters (plain data; rides in `SystemConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerSpec {
    /// Initial `L_min`, milli-units.
    pub l_min_milli: u32,
    /// Initial `L_max`, milli-units.
    pub l_max_milli: u32,
    /// Initial `B_max`, milli-units.
    pub b_max_milli: u32,
    /// Per-boundary adjustment step, milli-units (≥ 1).
    pub step_milli: u32,
    /// Minimum `L_max − L_min` band width the controller preserves.
    pub min_gap_milli: u32,
    /// `L_min` never drops below this.
    pub l_min_floor_milli: u32,
    /// `L_max` never rises above this.
    pub l_max_ceil_milli: u32,
    /// `B_max` never drops below this.
    pub b_max_floor_milli: u32,
    /// `B_max` never rises above this.
    pub b_max_ceil_milli: u32,
    /// Pressured-channel fraction (milli) above which the window counts as
    /// congested.
    pub hot_frac_milli: u32,
    /// Idle-channel fraction (milli) above which the window counts as idle.
    pub idle_frac_milli: u32,
}

impl ControllerSpec {
    /// Default dynamics around an initial `(L_min, L_max, B_max)` point:
    /// 25‰ steps, a 100‰ minimum band, and regime triggers at 25 %
    /// pressured / 50 % idle. The band/floor/ceiling bounds widen to admit
    /// the seed, so *any* point with `L_min < L_max` (every sweep
    /// candidate) yields a spec that validates — narrow seeds just get a
    /// correspondingly narrow guaranteed band.
    pub fn around_milli(l_min_milli: u32, l_max_milli: u32, b_max_milli: u32) -> Self {
        Self {
            l_min_milli,
            l_max_milli,
            b_max_milli,
            step_milli: 25,
            min_gap_milli: 100.min(l_max_milli.saturating_sub(l_min_milli)),
            l_min_floor_milli: 100.min(l_min_milli),
            l_max_ceil_milli: 950.max(l_max_milli),
            b_max_floor_milli: 0,
            b_max_ceil_milli: 500.max(b_max_milli),
            hot_frac_milli: 250,
            idle_frac_milli: 500,
        }
    }

    /// Seeded from the paper's P-B constants (`0.7 / 0.9 / 0.3`).
    pub fn paper_pb() -> Self {
        Self::around_milli(700, 900, 300)
    }

    /// Seeded from the paper's P-NB constants (`0.5 / 0.7 / 0.0`).
    pub fn paper_pnb() -> Self {
        Self::around_milli(500, 700, 0)
    }

    /// Checks range and ordering, reporting the first problem as a typed
    /// [`TuneError`] (construction-time contract for `SystemConfig`).
    pub fn try_validate(&self) -> Result<(), TuneError> {
        let milli = [
            ("l_min", self.l_min_milli),
            ("l_max", self.l_max_milli),
            ("b_max", self.b_max_milli),
            ("min_gap", self.min_gap_milli),
            ("l_min_floor", self.l_min_floor_milli),
            ("l_max_ceil", self.l_max_ceil_milli),
            ("b_max_floor", self.b_max_floor_milli),
            ("b_max_ceil", self.b_max_ceil_milli),
            ("hot_frac", self.hot_frac_milli),
            ("idle_frac", self.idle_frac_milli),
        ];
        for (name, v) in milli {
            if v > MILLI {
                return Err(TuneError::InvalidSpec(format!(
                    "{name}_milli = {v} exceeds {MILLI}"
                )));
            }
        }
        if self.step_milli == 0 {
            return Err(TuneError::InvalidSpec("step_milli must be nonzero".into()));
        }
        if self.l_min_milli + self.min_gap_milli > self.l_max_milli {
            return Err(TuneError::InvalidBand {
                l_min_milli: self.l_min_milli,
                l_max_milli: self.l_max_milli,
            });
        }
        if self.l_min_floor_milli > self.l_min_milli {
            return Err(TuneError::InvalidSpec(
                "l_min starts below its own floor".into(),
            ));
        }
        if self.l_max_milli > self.l_max_ceil_milli {
            return Err(TuneError::InvalidSpec(
                "l_max starts above its own ceiling".into(),
            ));
        }
        if self.b_max_floor_milli > self.b_max_milli || self.b_max_milli > self.b_max_ceil_milli {
            return Err(TuneError::InvalidSpec(
                "b_max starts outside its floor..ceiling band".into(),
            ));
        }
        Ok(())
    }
}

/// One just-closed window's channel counts, in canonical scan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowObservation {
    /// Lit, owned channels scanned.
    pub lit: u32,
    /// Channels whose buffer occupancy exceeded the controller's current
    /// `B_max`.
    pub pressured: u32,
    /// Channels whose link utilization sat below the controller's current
    /// `L_min`.
    pub idle: u32,
}

/// Which regime the controller judged a window to be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Neither trigger fired (or nothing was lit): thresholds held.
    Hold,
    /// Pressured fraction above `hot_frac_milli`: thresholds eased toward
    /// bandwidth.
    Congested,
    /// Idle fraction above `idle_frac_milli`: thresholds drifted toward
    /// power saving.
    Idle,
}

/// The live controller: spec plus current milli thresholds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdController {
    spec: ControllerSpec,
    l_min: u32,
    l_max: u32,
    b_max: u32,
    /// Boundaries at which at least one threshold moved.
    moves: u64,
    /// Power-boundary observations consumed.
    windows_seen: u64,
}

impl ThresholdController {
    /// Builds a controller at the spec's initial operating point. The spec
    /// must validate (see [`ControllerSpec::try_validate`]).
    pub fn new(spec: ControllerSpec) -> Result<Self, TuneError> {
        spec.try_validate()?;
        Ok(Self {
            spec,
            l_min: spec.l_min_milli,
            l_max: spec.l_max_milli,
            b_max: spec.b_max_milli,
            moves: 0,
            windows_seen: 0,
        })
    }

    /// The static parameters.
    pub fn spec(&self) -> &ControllerSpec {
        &self.spec
    }

    /// Current `(L_min, L_max, B_max)`, milli-units.
    pub fn thresholds_milli(&self) -> (u32, u32, u32) {
        (self.l_min, self.l_max, self.b_max)
    }

    /// Boundaries at which at least one threshold moved.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Power-boundary observations consumed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// The current thresholds as the policy the DPM loop applies. Exact:
    /// small-integer / 1000.0 is one correctly-rounded IEEE operation, so
    /// equal milli state ⇒ bit-equal policy on every platform.
    pub fn policy(&self) -> DpmPolicy {
        DpmPolicy::new(
            self.l_min as f64 / MILLI as f64,
            self.l_max as f64 / MILLI as f64,
            self.b_max as f64 / MILLI as f64,
        )
    }

    /// Consumes one window's counts; returns the regime and moves the
    /// thresholds one step with clamps that keep every invariant. Pure in
    /// `(self, obs)` — no clocks, floats or RNG.
    pub fn observe_window(&mut self, obs: WindowObservation) -> Regime {
        self.windows_seen += 1;
        if obs.lit == 0 {
            return Regime::Hold;
        }
        let s = self.spec;
        let lit = obs.lit as u64;
        let hot = obs.pressured as u64 * MILLI as u64 > lit * s.hot_frac_milli as u64;
        let idle = obs.idle as u64 * MILLI as u64 > lit * s.idle_frac_milli as u64;
        let before = (self.l_min, self.l_max, self.b_max);
        // A window can be pressured and idle at once (bimodal traffic);
        // congestion wins — latency damage is immediate, power drift is not.
        let regime = if hot {
            self.l_max = self
                .l_max
                .saturating_sub(s.step_milli)
                .max(self.l_min + s.min_gap_milli);
            self.l_min = self
                .l_min
                .saturating_sub(s.step_milli)
                .max(s.l_min_floor_milli);
            self.b_max = self
                .b_max
                .saturating_sub(s.step_milli)
                .max(s.b_max_floor_milli);
            Regime::Congested
        } else if idle {
            self.l_min = (self.l_min + s.step_milli)
                .min(self.l_max.saturating_sub(s.min_gap_milli))
                .max(self.l_min);
            self.l_max = (self.l_max + s.step_milli).min(s.l_max_ceil_milli);
            self.b_max = (self.b_max + s.step_milli).min(s.b_max_ceil_milli);
            Regime::Idle
        } else {
            Regime::Hold
        };
        if (self.l_min, self.l_max, self.b_max) != before {
            self.moves += 1;
        }
        debug_assert!(self.l_min + s.min_gap_milli <= self.l_max);
        debug_assert!(self.l_min >= s.l_min_floor_milli && self.l_max <= s.l_max_ceil_milli);
        debug_assert!(self.b_max >= s.b_max_floor_milli && self.b_max <= s.b_max_ceil_milli);
        regime
    }

    /// Serializes the mutable state (the spec is config-derived).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        w.tag(b"TUNC");
        w.u32(self.l_min);
        w.u32(self.l_max);
        w.u32(self.b_max);
        w.u64(self.moves);
        w.u64(self.windows_seen);
    }

    /// Overlays checkpointed state; thresholds violating this spec's
    /// invariants are a typed mismatch, never trusted.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::SnapError;
        r.tag(b"TUNC")?;
        let l_min = r.u32()?;
        let l_max = r.u32()?;
        let b_max = r.u32()?;
        let moves = r.u64()?;
        let windows_seen = r.u64()?;
        let s = self.spec;
        let ok = l_min + s.min_gap_milli <= l_max
            && l_min >= s.l_min_floor_milli
            && l_max <= s.l_max_ceil_milli
            && (s.b_max_floor_milli..=s.b_max_ceil_milli).contains(&b_max);
        if !ok {
            return Err(SnapError::Mismatch(format!(
                "controller thresholds ({l_min}, {l_max}, {b_max})‰ violate this spec's bounds"
            )));
        }
        self.l_min = l_min;
        self.l_max = l_max;
        self.b_max = b_max;
        self.moves = moves;
        self.windows_seen = windows_seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::snap::{SnapReader, SnapWriter};

    fn ctrl() -> ThresholdController {
        ThresholdController::new(ControllerSpec::paper_pb()).unwrap()
    }

    #[test]
    fn paper_seeds_match_mode_constants() {
        let pb = ThresholdController::new(ControllerSpec::paper_pb())
            .unwrap()
            .policy();
        assert_eq!((pb.l_min, pb.l_max, pb.b_max), (0.7, 0.9, 0.3));
        let pnb = ThresholdController::new(ControllerSpec::paper_pnb())
            .unwrap()
            .policy();
        assert_eq!((pnb.l_min, pnb.l_max, pnb.b_max), (0.5, 0.7, 0.0));
    }

    #[test]
    fn around_milli_admits_any_valid_band() {
        // Narrow (50‰) and extreme seeds must all produce validating
        // specs — these are sweep-chosen points seeding the online stage.
        for (l_min, l_max, b_max) in [(700, 750, 300), (50, 150, 0), (800, 950, 800), (0, 25, 0)] {
            let s = ControllerSpec::around_milli(l_min, l_max, b_max);
            assert!(s.try_validate().is_ok(), "({l_min}, {l_max}, {b_max})");
        }
        // The paper presets keep the canonical 100‰ band and bounds.
        let pb = ControllerSpec::paper_pb();
        assert_eq!(pb.min_gap_milli, 100);
        assert_eq!(pb.l_min_floor_milli, 100);
        assert_eq!(pb.l_max_ceil_milli, 950);
        assert_eq!(pb.b_max_ceil_milli, 500);
    }

    #[test]
    fn congestion_eases_thresholds_down() {
        let mut c = ctrl();
        let obs = WindowObservation {
            lit: 10,
            pressured: 8,
            idle: 0,
        };
        assert_eq!(c.observe_window(obs), Regime::Congested);
        assert_eq!(c.thresholds_milli(), (675, 875, 275));
        assert_eq!(c.moves(), 1);
    }

    #[test]
    fn idle_drifts_toward_power_saving() {
        let mut c = ctrl();
        let obs = WindowObservation {
            lit: 10,
            pressured: 0,
            idle: 9,
        };
        assert_eq!(c.observe_window(obs), Regime::Idle);
        assert_eq!(c.thresholds_milli(), (725, 925, 325));
    }

    #[test]
    fn mixed_window_prefers_congestion() {
        let mut c = ctrl();
        let obs = WindowObservation {
            lit: 10,
            pressured: 10,
            idle: 10,
        };
        assert_eq!(c.observe_window(obs), Regime::Congested);
    }

    #[test]
    fn dark_window_holds() {
        let mut c = ctrl();
        assert_eq!(c.observe_window(WindowObservation::default()), Regime::Hold);
        assert_eq!(c.thresholds_milli(), (700, 900, 300));
        assert_eq!(c.moves(), 0);
        assert_eq!(c.windows_seen(), 1);
    }

    #[test]
    fn clamps_hold_under_sustained_pressure() {
        let mut c = ctrl();
        let hot = WindowObservation {
            lit: 4,
            pressured: 4,
            idle: 0,
        };
        for _ in 0..200 {
            c.observe_window(hot);
        }
        let s = *c.spec();
        let (l_min, l_max, b_max) = c.thresholds_milli();
        assert_eq!(l_min, s.l_min_floor_milli);
        assert_eq!(l_max, s.l_min_floor_milli + s.min_gap_milli);
        assert_eq!(b_max, s.b_max_floor_milli);
        let cold = WindowObservation {
            lit: 4,
            pressured: 0,
            idle: 4,
        };
        for _ in 0..200 {
            c.observe_window(cold);
        }
        let (l_min, l_max, b_max) = c.thresholds_milli();
        assert_eq!(l_max, s.l_max_ceil_milli);
        assert_eq!(l_min, s.l_max_ceil_milli - s.min_gap_milli);
        assert_eq!(b_max, s.b_max_ceil_milli);
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let mut s = ControllerSpec::paper_pb();
        s.l_min_milli = 900;
        s.l_max_milli = 700;
        assert!(matches!(
            ThresholdController::new(s),
            Err(TuneError::InvalidBand { .. })
        ));
        let mut s = ControllerSpec::paper_pb();
        s.step_milli = 0;
        assert!(matches!(
            ThresholdController::new(s),
            Err(TuneError::InvalidSpec(_))
        ));
        let mut s = ControllerSpec::paper_pb();
        s.b_max_ceil_milli = 100;
        assert!(matches!(
            ThresholdController::new(s),
            Err(TuneError::InvalidSpec(_))
        ));
        let mut s = ControllerSpec::paper_pb();
        s.l_max_ceil_milli = 1500;
        assert!(matches!(
            ThresholdController::new(s),
            Err(TuneError::InvalidSpec(_))
        ));
    }

    #[test]
    fn snapshot_round_trips() {
        let mut c = ctrl();
        for i in 0..20u32 {
            c.observe_window(WindowObservation {
                lit: 8,
                pressured: if i % 3 == 0 { 8 } else { 0 },
                idle: if i % 3 == 1 { 8 } else { 0 },
            });
        }
        let mut w = SnapWriter::new();
        c.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = ctrl();
        back.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn snapshot_violating_bounds_is_refused() {
        let mut w = SnapWriter::new();
        w.tag(b"TUNC");
        w.u32(900); // l_min above l_max - gap
        w.u32(920);
        w.u32(300);
        w.u64(0);
        w.u64(0);
        let bytes = w.into_bytes();
        let mut c = ctrl();
        assert!(c.load_state(&mut SnapReader::new(&bytes)).is_err());
    }
}
