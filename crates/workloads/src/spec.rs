//! Scenario specifications: the parameter blocks the engine is built from.
//!
//! A [`ScenarioSpec`] is plain data (`Debug + Clone + PartialEq`) so it can
//! ride inside `SystemConfig` without breaking the config's `Debug`-based
//! checkpoint fingerprint; two configs differing only in scenario
//! parameters refuse to exchange snapshots.

use std::fmt;

/// The four production-shaped workload scenarios (DESIGN.md §14).
///
/// All rate parameters are *multipliers* over the run's base per-node
/// injection rate (the paper's `load × N_c` normalisation), so the bench
/// load axis scales scenario intensity exactly as it scales the synthetic
/// patterns.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// Zipf-skewed hotspot: every node injects at the base rate, but
    /// destinations follow a Zipf(`exponent`) popularity ranking over a
    /// seed-derived node permutation. The ranking rotates by one position
    /// every `rotate_every` cycles (0 = static hotspot), modelling a
    /// popular shard migrating across the machine.
    ZipfHotspot {
        /// Zipf exponent `s` (0 degenerates to uniform; ~1.2 is the
        /// classic web/datacenter skew).
        exponent: f64,
        /// Cycles between one-position rotations of the popularity
        /// ranking (0 disables rotation).
        rotate_every: u64,
    },
    /// Diurnal load curve: uniform destinations, but the injection rate
    /// follows a triangle wave between `trough × base` and `base` with
    /// period `period` cycles. A piecewise-linear wave (not a sinusoid)
    /// keeps the multiplier free of transcendental functions, so the
    /// stream is bit-reproducible across platforms.
    Diurnal {
        /// Full wave period, cycles.
        period: u64,
        /// Rate multiplier at the trough, in `[0, 1]`.
        trough: f64,
    },
    /// Incast/outcast storm: every `period` cycles, a `burst`-cycle storm
    /// aims all sources at one rotating victim node at `intensity ×` the
    /// base rate (the victim itself sprays uniformly at the same rate when
    /// `outcast` is set — the reduce-then-broadcast shape). Between
    /// storms, uniform background traffic at `background ×` base.
    IncastStorm {
        /// Cycles between storm onsets.
        period: u64,
        /// Storm length, cycles (must be ≤ `period`).
        burst: u64,
        /// Per-source rate multiplier during the storm.
        intensity: f64,
        /// Background uniform rate multiplier between storms.
        background: f64,
        /// Whether the victim sprays (outcast leg) during the storm.
        outcast: bool,
    },
    /// Phased ML collective: alternating `comm`-cycle all-to-all exchange
    /// phases and `compute`-cycle silent phases. Within an exchange, the
    /// destination offset sweeps the ring (`dst = src + step mod N`, step
    /// advancing `1 ‥ N-1` across the phase) — every instant is a
    /// permutation, the all-to-all stress case reconfiguration policies
    /// trip over.
    Collective {
        /// Exchange-phase length, cycles.
        comm: u64,
        /// Compute-phase (silent) length, cycles.
        compute: u64,
        /// Per-source rate multiplier during exchange phases.
        intensity: f64,
    },
}

/// A fully-parameterized scenario, carried in `SystemConfig::scenario`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario shape and its parameters.
    pub kind: ScenarioKind,
    /// Global rate multiplier applied on top of the per-kind multipliers
    /// (1.0 = nominal).
    pub rate_scale: f64,
}

/// A rejected scenario parameterization (see [`ScenarioSpec::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl ScenarioSpec {
    /// The default hotspot scenario: web-like skew, ranking rotating every
    /// four paper windows.
    pub fn hotspot() -> Self {
        Self {
            kind: ScenarioKind::ZipfHotspot {
                exponent: 1.2,
                rotate_every: 8_000,
            },
            rate_scale: 1.0,
        }
    }

    /// The default diurnal scenario: 16 k-cycle wave, 20 % trough.
    pub fn diurnal() -> Self {
        Self {
            kind: ScenarioKind::Diurnal {
                period: 16_000,
                trough: 0.2,
            },
            rate_scale: 1.0,
        }
    }

    /// The default incast/outcast storm: a 1.2 k-cycle storm every 6 k
    /// cycles at 4× the base rate, with the outcast leg on.
    pub fn incast() -> Self {
        Self {
            kind: ScenarioKind::IncastStorm {
                period: 6_000,
                burst: 1_200,
                intensity: 4.0,
                background: 0.5,
                outcast: true,
            },
            rate_scale: 1.0,
        }
    }

    /// The default phased collective: 1.5 k-cycle exchanges separated by
    /// 2.5 k-cycle compute phases, exchanging at 3× the base rate.
    pub fn collective() -> Self {
        Self {
            kind: ScenarioKind::Collective {
                comm: 1_500,
                compute: 2_500,
                intensity: 3.0,
            },
            rate_scale: 1.0,
        }
    }

    /// All four scenarios in presentation order — the bench index's
    /// `scenarios` experiment.
    pub fn paper_suite() -> Vec<ScenarioSpec> {
        vec![
            Self::hotspot(),
            Self::diurnal(),
            Self::incast(),
            Self::collective(),
        ]
    }

    /// Stable short name (table rows and point labels).
    pub fn name(&self) -> &'static str {
        match self.kind {
            ScenarioKind::ZipfHotspot { .. } => "hotspot",
            ScenarioKind::Diurnal { .. } => "diurnal",
            ScenarioKind::IncastStorm { .. } => "incast",
            ScenarioKind::Collective { .. } => "collective",
        }
    }

    /// Snapshot tag byte: a checkpoint taken under one scenario kind
    /// refuses to overlay an engine built for another.
    pub fn kind_tag(&self) -> u8 {
        match self.kind {
            ScenarioKind::ZipfHotspot { .. } => 1,
            ScenarioKind::Diurnal { .. } => 2,
            ScenarioKind::IncastStorm { .. } => 3,
            ScenarioKind::Collective { .. } => 4,
        }
    }

    /// Checks the parameters against a system of `nodes` nodes, reporting
    /// the first problem as a typed error.
    pub fn validate(&self, nodes: u32) -> Result<(), SpecError> {
        let fail = |msg: String| Err(SpecError(msg));
        if nodes < 2 {
            return fail(format!("scenarios need at least 2 nodes, got {nodes}"));
        }
        if !(self.rate_scale >= 0.0 && self.rate_scale.is_finite()) {
            return fail(format!(
                "rate_scale must be finite ≥ 0: {}",
                self.rate_scale
            ));
        }
        match self.kind {
            ScenarioKind::ZipfHotspot { exponent, .. } => {
                if !(exponent >= 0.0 && exponent.is_finite()) {
                    return fail(format!("hotspot exponent must be finite ≥ 0: {exponent}"));
                }
            }
            ScenarioKind::Diurnal { period, trough } => {
                if period < 2 {
                    return fail(format!("diurnal period must be ≥ 2 cycles: {period}"));
                }
                if !(0.0..=1.0).contains(&trough) {
                    return fail(format!("diurnal trough must be in [0, 1]: {trough}"));
                }
            }
            ScenarioKind::IncastStorm {
                period,
                burst,
                intensity,
                background,
                ..
            } => {
                if period == 0 {
                    return fail("incast period must be positive".into());
                }
                if burst > period {
                    return fail(format!("incast burst {burst} exceeds its period {period}"));
                }
                for (what, v) in [("intensity", intensity), ("background", background)] {
                    if !(v >= 0.0 && v.is_finite()) {
                        return fail(format!("incast {what} must be finite ≥ 0: {v}"));
                    }
                }
            }
            ScenarioKind::Collective {
                comm,
                compute,
                intensity,
            } => {
                if comm == 0 {
                    return fail("collective comm phase must be positive".into());
                }
                // A compute phase of 0 is legal (back-to-back exchanges),
                // but the cycle length `comm + compute` must fit a cycle.
                if comm.checked_add(compute).is_none() {
                    return fail(format!(
                        "collective comm {comm} + compute {compute} overflows a cycle count"
                    ));
                }
                if !(intensity >= 0.0 && intensity.is_finite()) {
                    return fail(format!(
                        "collective intensity must be finite ≥ 0: {intensity}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_kinds_with_unique_names() {
        let suite = ScenarioSpec::paper_suite();
        assert_eq!(suite.len(), 4);
        let names: std::collections::BTreeSet<&str> = suite.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 4);
        let tags: std::collections::BTreeSet<u8> = suite.iter().map(|s| s.kind_tag()).collect();
        assert_eq!(tags.len(), 4);
        for s in &suite {
            s.validate(16).unwrap();
        }
    }

    #[test]
    fn bad_parameters_are_rejected() {
        assert!(ScenarioSpec::hotspot().validate(1).is_err());
        let mut s = ScenarioSpec::hotspot();
        s.rate_scale = f64::NAN;
        assert!(s.validate(16).is_err());
        let s = ScenarioSpec {
            kind: ScenarioKind::Diurnal {
                period: 1,
                trough: 0.2,
            },
            rate_scale: 1.0,
        };
        assert!(s.validate(16).is_err());
        let s = ScenarioSpec {
            kind: ScenarioKind::Diurnal {
                period: 100,
                trough: 1.5,
            },
            rate_scale: 1.0,
        };
        assert!(s.validate(16).is_err());
        let s = ScenarioSpec {
            kind: ScenarioKind::IncastStorm {
                period: 100,
                burst: 101,
                intensity: 1.0,
                background: 0.5,
                outcast: false,
            },
            rate_scale: 1.0,
        };
        assert!(s.validate(16).is_err());
        let s = ScenarioSpec {
            kind: ScenarioKind::Collective {
                comm: 0,
                compute: 10,
                intensity: 1.0,
            },
            rate_scale: 1.0,
        };
        assert!(s.validate(16).is_err());
    }

    #[test]
    fn collective_cycle_length_must_not_overflow() {
        // Used to validate, then panic on cycle 0 of `poll_into`: an add
        // overflow in debug builds, a remainder by zero in release.
        let collective = |comm, compute| ScenarioSpec {
            kind: ScenarioKind::Collective {
                comm,
                compute,
                intensity: 1.0,
            },
            rate_scale: 1.0,
        };
        assert!(collective(u64::MAX, 1).validate(16).is_err());
        assert!(collective(1, u64::MAX).validate(16).is_err());
        assert!(collective(u64::MAX - 1, 1).validate(16).is_ok());
    }
}
