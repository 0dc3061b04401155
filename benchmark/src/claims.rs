//! The nine paper claims of `tests/paper_claims.rs`, re-evaluated on the
//! sweep's own points with the thresholds that file uses. The thresholds
//! were calibrated at the EXPERIMENTS.md seed, so the verdicts gate only
//! there; at any other seed they are reported, not enforced.

use crate::adapter::PointOut;

/// Looks a sweep point up by `(pattern, mode, load)`.
pub type Lookup<'a> = &'a dyn Fn(&str, &str, f64) -> Option<PointOut>;

pub struct Fidelity {
    /// `(claim, held)`, in the order of the test file.
    pub claims: Vec<(&'static str, bool)>,
    /// `1 − P-B power ÷ NP-NB power`, uniform, load 0.5.
    pub uniform_pb_power_saving_l05: f64,
    /// `NP-B throughput ÷ NP-NB throughput`, complement, load 0.7.
    pub complement_dbr_throughput_gain: f64,
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b
}

/// `None` when the sweep lacks a point a claim reads (a `Tiny` sweep).
pub fn evaluate(at: Lookup<'_>) -> Option<Fidelity> {
    let uni = |mode, load| at("uniform", mode, load);
    let comp = |mode, load| at("complement", mode, load);

    let (base, reconf) = (uni("NP-NB", 0.5)?, uni("NP-B", 0.5)?);
    let noop = reconf.grants == 0
        && rel(reconf.throughput, base.throughput) < 0.02
        && rel(reconf.latency, base.latency) < 0.05;
    let uniform_pb_power_saving_l05 = 1.0 - uni("P-B", 0.5)?.power_mw / base.power_mw;

    let (base, pnb, pb) = (uni("NP-NB", 0.4)?, uni("P-NB", 0.4)?, uni("P-B", 0.4)?);
    let saves_power = pnb.power_mw < base.power_mw
        && pb.power_mw < base.power_mw * 0.75
        && (base.throughput - pb.throughput) / base.throughput < 0.10;

    let (base, reconf, pnb) = (comp("NP-NB", 0.7)?, comp("NP-B", 0.7)?, comp("P-NB", 0.7)?);
    let complement_dbr_throughput_gain = reconf.throughput / base.throughput;
    let multiplies = complement_dbr_throughput_gain > 3.0 && reconf.grants >= 40;
    let np_nb_equals_p_nb =
        rel(pnb.throughput, base.throughput) < 0.05 && pnb.power_mw <= base.power_mw * 1.01;
    let power_rises = reconf.power_mw > base.power_mw * 2.5;

    let mut permutations_gain = true;
    for pattern in ["butterfly", "perfect_shuffle"] {
        let (base, reconf) = (at(pattern, "NP-NB", 0.8)?, at(pattern, "NP-B", 0.8)?);
        permutations_gain &= reconf.throughput > base.throughput * 1.2 && reconf.grants > 0;
    }

    let mut pb_tracks_npb = true;
    for pattern in ["butterfly", "complement"] {
        let (npb, pb) = (at(pattern, "NP-B", 0.5)?, at(pattern, "P-B", 0.5)?);
        pb_tracks_npb &=
            (npb.throughput - pb.throughput) / npb.throughput < 0.08 && pb.power_mw < npb.power_mw;
    }

    let latency_grows = uni("NP-NB", 0.8)?.latency > uni("NP-NB", 0.2)?.latency;

    let mut offered_is_accepted = true;
    for load in [0.2, 0.5] {
        let r = uni("NP-NB", load)?;
        // Offered load is `load × N_c`, so accepted ÷ offered is
        // `throughput_norm ÷ load`.
        offered_is_accepted &= rel(r.throughput_norm, load) < 0.15 && r.undrained == 0;
    }

    Some(Fidelity {
        claims: vec![
            ("uniform_reconfiguration_is_a_noop", noop),
            ("uniform_power_aware_saves_power", saves_power),
            ("complement_throughput_multiplies_under_dbr", multiplies),
            ("complement_np_nb_equals_p_nb_throughput", np_nb_equals_p_nb),
            ("complement_power_rises_with_bandwidth", power_rises),
            ("butterfly_and_shuffle_gain_from_dbr", permutations_gain),
            ("pb_tracks_npb_with_less_power", pb_tracks_npb),
            ("latency_grows_with_load", latency_grows),
            (
                "offered_equals_accepted_below_saturation",
                offered_is_accepted,
            ),
        ],
        uniform_pb_power_saving_l05,
        complement_dbr_throughput_gain,
    })
}
