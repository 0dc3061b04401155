//! Generic sweep CLI: run any (pattern, mode, load) combination on the
//! paper's 64-node system, or a custom R(1,B,D) geometry.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin sweep -- \
//!     --pattern complement --mode P-B --loads 0.1,0.5,0.9 --boards 8 --nodes 8
//! ```

use erapid_bench::{result_table, usage_exit, BenchConfig};
use erapid_core::config::{NetworkMode, SystemConfig};
use reconfig::lockstep::LockStepSchedule;
use traffic::pattern::TrafficPattern;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    fn number<T: std::str::FromStr>(flag: &str, s: &str) -> T {
        s.parse()
            .unwrap_or_else(|_| usage_exit(&format!("{flag}: {s:?} is not a number")))
    }
    let pattern = get("--pattern", "uniform");
    let pattern = TrafficPattern::from_name(&pattern).unwrap_or_else(|| {
        let names: Vec<_> = TrafficPattern::all().iter().map(|p| p.name()).collect();
        usage_exit(&format!(
            "unknown pattern {pattern:?} (want {})",
            names.join(", ")
        ))
    });
    let modes: Vec<NetworkMode> = match get("--mode", "all").as_str() {
        "all" => NetworkMode::all().to_vec(),
        list => list
            .split(',')
            .map(|m| {
                NetworkMode::from_name(m).unwrap_or_else(|| {
                    usage_exit(&format!("unknown mode {m:?} (want NP-NB, NP-B, P-NB, P-B)"))
                })
            })
            .collect(),
    };
    let loads: Vec<f64> = get("--loads", "0.1,0.3,0.5,0.7,0.9")
        .split(',')
        .map(|s| number("--loads", s))
        .collect();
    let boards: u16 = number("--boards", &get("--boards", "8"));
    let nodes: u16 = number("--nodes", &get("--nodes", "8"));
    let seed: u64 = number("--seed", &get("--seed", "0"));
    let window: u64 = number("--window", &get("--window", "2000"));

    // Build the grid in display order, fan it out, print in the same order.
    let bench = BenchConfig::from_env();
    let mut keys = Vec::new();
    let mut points = Vec::new();
    for &mode in &modes {
        let mut cfg = SystemConfig::geometry(mode, boards, nodes);
        cfg.schedule = LockStepSchedule::new(window);
        if seed != 0 {
            cfg.seed = seed;
        }
        if let Err(e) = cfg.try_validate() {
            usage_exit(&format!("R(1,{boards},{nodes}) R_w={window}: {e}"));
        }
        if !pattern.valid_for(cfg.nodes()) {
            usage_exit(&format!(
                "pattern {} is undefined on {} nodes (bit permutations need 2^k, transpose 4^k)",
                pattern.name(),
                cfg.nodes()
            ));
        }
        for &load in &loads {
            keys.push(vec![mode.name().to_string(), format!("{load:.2}")]);
            points.push(bench.point(cfg.clone(), &pattern, load));
        }
    }
    let results = bench.run(points);
    let title = format!(
        "sweep: pattern={} R(1,{boards},{nodes}) R_w={window}",
        pattern.name()
    );
    let rows = keys.into_iter().zip(results.iter().map(|o| o.result));
    println!("{}", result_table(&title, &["mode", "load"], rows).render());
}
