//! The paper's claims as executable assertions: a loop over the claim
//! table of `erapid_bench::index`. The union of the points the claims read
//! (found by evaluating them against empty results) runs once, on
//! `default_plan` at the default seed; every band is asserted, and
//! EXPERIMENTS.md must carry exactly the blocks `figures` prints — so a
//! number in the doc is a number asserted here.

use erapid_bench::index::{Claim, Results, INDEX};
use erapid_bench::BenchConfig;
use std::sync::OnceLock;

struct Evaluated {
    /// Every claim with its measured value.
    values: Vec<(&'static Claim, f64)>,
    /// `(experiment id, rendered claim block)` per experiment with claims.
    blocks: Vec<(&'static str, String)>,
}

fn evaluated() -> &'static Evaluated {
    static ONCE: OnceLock<Evaluated> = OnceLock::new();
    ONCE.get_or_init(|| {
        let bench = BenchConfig::default();
        let claims = || INDEX.iter().flat_map(|e| e.claims);
        let dry = Results::default();
        for claim in claims() {
            (claim.measure)(&dry);
        }
        let wanted = dry.missing();
        let mut points = Vec::new();
        for experiment in &INDEX {
            points.extend((experiment.points)(&bench));
        }
        points.retain(|p| wanted.contains(&p.label));
        let mut results = Results::default();
        results.run(&bench, points);

        let evaluated = Evaluated {
            values: claims().map(|c| (c, (c.measure)(&results))).collect(),
            blocks: INDEX
                .iter()
                .filter(|e| !e.claims.is_empty())
                .map(|e| (e.id, e.claim_block(&results).0))
                .collect(),
        };
        let missing = results.missing();
        assert!(missing.is_empty(), "no experiment produces {missing:?}");
        evaluated
    })
}

fn assert_holds(claim: &Claim, measured: f64) {
    assert!(
        claim.accept.contains(&measured),
        "{}: measured {measured} outside {:?} ({})",
        claim.id,
        claim.accept,
        claim.paper
    );
}

#[test]
fn every_claim_is_inside_its_band() {
    let values = &evaluated().values;
    assert!(values.len() >= 30, "only {} claims", values.len());
    for (claim, measured) in values {
        assert_holds(claim, *measured);
    }
}

#[test]
fn experiments_md_carries_the_rendered_claim_blocks() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let blocks = &evaluated().blocks;
    assert_eq!(
        doc.matches("<!-- claims:").count(),
        blocks.len(),
        "EXPERIMENTS.md must carry one claim block per experiment that has claims"
    );
    for (id, block) in blocks {
        assert!(
            doc.contains(block),
            "EXPERIMENTS.md's `{id}` claim block is stale; `figures {id}` prints:\n{block}"
        );
    }
}

/// The nine claims this file asserted by hand before the table existed,
/// still runnable by name.
macro_rules! by_name {
    ($($id:ident)*) => {$(
        #[test]
        fn $id() {
            let values = &evaluated().values;
            let (claim, measured) = values
                .iter()
                .find(|(c, _)| c.id == stringify!($id))
                .expect("the claim table keeps this id");
            assert_holds(claim, *measured);
        }
    )*};
}

by_name! {
    uniform_reconfiguration_is_a_noop
    uniform_power_aware_saves_power_with_small_throughput_loss
    complement_throughput_multiplies_under_dbr
    complement_np_nb_equals_p_nb_throughput
    complement_power_rises_with_reconfigured_bandwidth
    butterfly_and_shuffle_gain_from_dbr
    pb_tracks_npb_throughput_with_less_power_at_mid_load
    latency_grows_with_load
    offered_equals_accepted_below_saturation
}
