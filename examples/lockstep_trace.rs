//! Lock-Step protocol trace: watch one DBR round execute stage by stage as
//! real control packets on the electrical RC ring (Fig. 4 of the paper),
//! under the complement hot-flow scenario.
//!
//! ```text
//! cargo run --release --example lockstep_trace
//! ```

use erapid_suite::photonics::bitrate::RateLevel;
use erapid_suite::photonics::rwa::StaticRwa;
use erapid_suite::photonics::wavelength::BoardId;
use erapid_suite::reconfig::alloc::{AllocPolicy, FlowDemand};
use erapid_suite::reconfig::msg::LinkReading;
use erapid_suite::reconfig::protocol::DbrRound;
use erapid_suite::reconfig::stages::ProtocolTiming;

const BOARDS: u16 = 8;

fn main() {
    let timing = ProtocolTiming::paper64();
    println!("=== one Lock-Step DBR round, 8 boards, message-level ===\n");
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
    let rwa = StaticRwa::new(BOARDS);
    let mut outgoing = vec![Vec::new(); BOARDS as usize];
    for s in 0..BOARDS {
        for d in 0..BOARDS {
            if s == d {
                continue;
            }
            let hot = s == 0 && d == 7;
            outgoing[s as usize].push(LinkReading {
                wavelength: rwa.wavelength(BoardId(s), BoardId(d)),
                destination: Some(BoardId(d)),
                link_util: if hot { 1.0 } else { 0.05 },
                buffer_util: if hot { 0.85 } else { 0.0 },
                level: RateLevel(2),
            });
        }
    }
    let demands: Vec<Vec<FlowDemand>> = (0..BOARDS)
        .map(|d| {
            (0..BOARDS)
                .filter(|&s| s != d)
                .map(|s| FlowDemand {
                    source: BoardId(s),
                    buffer_util: if s == 0 && d == 7 { 0.85 } else { 0.0 },
                })
                .collect()
        })
        .collect();

    let mut round = DbrRound::new(timing, AllocPolicy::paper(), 0, outgoing, demands);
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
    println!("\nlaser commands:");
    for (b, cmds) in outcome.commands.iter().enumerate() {
        if cmds.is_empty() {
            continue;
        }
        let rendered: Vec<String> = cmds
            .iter()
            .map(|c| {
                format!(
                    "{} {} toward {}",
                    if c.on { "ON " } else { "OFF" },
                    c.wavelength,
                    c.destination
                )
            })
            .collect();
        println!("  board {b}: {}", rendered.join(", "));
    }
    println!(
        "\nround completed in {} cycles — exactly the analytic dbr_latency ({}).",
        outcome.completed_at,
        timing.dbr_latency()
    );
    assert_eq!(outcome.completed_at, timing.dbr_latency());
}
