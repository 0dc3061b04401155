//! Lock-Step protocol trace: watch one DBR round execute stage by stage on
//! the LC chains and the electrical RC ring (Fig. 4 of the paper), under
//! the complement hot-flow scenario, and the laser changes its grants make.
//!
//! ```text
//! cargo run --release --example lockstep_trace
//! ```

use erapid_suite::photonics::rwa::StaticRwa;
use erapid_suite::photonics::wavelength::BoardId;
use erapid_suite::reconfig::alloc::{AllocPolicy, FlowDemand, IncomingLink};
use erapid_suite::reconfig::protocol::DbrRound;
use erapid_suite::reconfig::stages::ProtocolTiming;

const BOARDS: u16 = 8;

fn main() {
    let timing = ProtocolTiming::paper64();
    println!("=== one Lock-Step DBR round, 8 boards ===\n");
    println!("stage latencies:");
    println!(
        "  Link Request  : {:>3} cycles (RC → {} LCs → RC)",
        timing.stage_cycles(erapid_suite::reconfig::stages::Stage::LinkRequest),
        timing.lcs_per_board
    );
    println!(
        "  Board Request : {:>3} cycles ({} ring hops × {})",
        timing.stage_cycles(erapid_suite::reconfig::stages::Stage::BoardRequest),
        timing.boards,
        timing.ring_hop
    );
    println!("  Reconfigure   : {:>3} cycles", timing.compute);
    println!(
        "  Board Response: {:>3} cycles",
        timing.stage_cycles(erapid_suite::reconfig::stages::Stage::BoardResponse)
    );
    println!(
        "  Link Response : {:>3} cycles",
        timing.stage_cycles(erapid_suite::reconfig::stages::Stage::LinkResponse)
    );
    println!(
        "  total         : {:>3} cycles (R_w = 2000: {:.1}% overhead)\n",
        timing.dbr_latency(),
        timing.dbr_latency() as f64 / 2000.0 * 100.0
    );

    // The complement hot spot: board 0's flow to board 7 is congested,
    // all other flows toward board 7 are idle.
    let util = |s: u16, d: u16| if s == 0 && d == 7 { 0.85 } else { 0.0 };
    let rwa = StaticRwa::new(BOARDS);
    let incoming: Vec<Vec<IncomingLink>> = (0..BOARDS)
        .map(|d| {
            let mut links: Vec<IncomingLink> = rwa
                .incoming(BoardId(d))
                .into_iter()
                .map(|(owner, wavelength)| IncomingLink {
                    wavelength,
                    owner,
                    buffer_util: util(owner.0, d),
                })
                .collect();
            links.sort_by_key(|l| l.wavelength);
            links
        })
        .collect();
    let demands: Vec<Vec<FlowDemand>> = (0..BOARDS)
        .map(|d| {
            (0..BOARDS)
                .filter(|&s| s != d)
                .map(|s| FlowDemand {
                    source: BoardId(s),
                    buffer_util: util(s, d),
                })
                .collect()
        })
        .collect();

    let mut round = DbrRound::new(timing, AllocPolicy::paper(), 0, incoming, demands);
    println!("timeline:");
    let mut now = 0;
    let outcome = loop {
        if let Some(outcome) = round.tick(now) {
            break outcome;
        }
        now += 1;
    };
    for &(at, stage) in round.stage_log() {
        match stage {
            Some(stage) => println!("  cycle {at:>4}: {stage:?}"),
            None => println!("  cycle {at:>4}: done"),
        }
    }

    println!("\ndecisions ({} grants):", outcome.grants.len());
    for g in &outcome.grants {
        println!(
            "  dest {} : {} re-assigned {} → {}",
            g.destination, g.wavelength, g.from, g.to
        );
    }
    // Link Response: each grant darkens the donor's laser and lights the
    // recipient's, on the granted wavelength toward the destination.
    println!("\nlaser changes at Link Response:");
    for b in 0..BOARDS {
        let board = BoardId(b);
        let rendered: Vec<String> = (outcome.grants.iter())
            .filter(|g| g.from == board || g.to == board)
            .map(|g| {
                let state = if g.from == board { "OFF" } else { "ON " };
                format!("{state} {} toward {}", g.wavelength, g.destination)
            })
            .collect();
        if !rendered.is_empty() {
            println!("  board {b}: {}", rendered.join(", "));
        }
    }
    println!(
        "\nround completed in {} cycles — exactly the analytic dbr_latency ({}).",
        outcome.completed_at,
        timing.dbr_latency()
    );
    assert_eq!(outcome.completed_at, timing.dbr_latency());
}
