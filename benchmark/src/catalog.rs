//! The benchmark's declared surface: workload names with the reason each
//! exists, and every metric's name, unit, direction, kind and regression
//! bound. `BENCHMARK.json` at the repository root states the same facts
//! for the driver; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a number measures — kept apart everywhere it is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall time or memory of the simulator process. Noisy.
    Host,
    /// What the modelled E-RAPID did. Repeats bit-exactly for a fixed
    /// seed, so a difference between two commits is a model change.
    Sim,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression. For `Sim` metrics this is the band the
    /// driver needs across *different* seeds; `compare` on two result
    /// files of the same seed demands bit equality instead.
    pub bound: f64,
    /// Absolute slack `compare` allows on top of the relative bound, in
    /// the metric's unit: a set-up of a few milliseconds moves by more
    /// than a quarter from scheduling noise alone.
    pub floor: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.25,
        floor: 0.02,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        kind: Kind::Host,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_kb",
        unit: "kB",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.15,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_throughput_norm",
        unit: "ratio",
        better: Better::Higher,
        kind: Kind::Sim,
        bound: 0.1,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_latency_cycles",
        unit: "cycles",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_power_mw",
        unit: "mW",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.12,
        floor: 0.0,
    },
];

/// Reported beside the end-to-end metrics in every result file and by
/// `compare`, but not declared in `BENCHMARK.json`: it is 0 on a healthy
/// run, and the driver takes the same fact from the result line's
/// `failed` / `attempted` keys.
pub const FAILED_FRACTION: &str = "failed_fraction";

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Host,
    }
}

const fn host_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        kind: Kind::Host,
    }
}

const fn sim(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Sim,
    }
}

const fn sim_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        kind: Kind::Sim,
    }
}

/// Layer = crate / module name. A metric whose layer is not on a
/// workload's path reads 0 there.
pub const PER_LAYER: [PerLayer; 54] = [
    // core.system — the cycle loop (crates/core/src/system.rs)
    sim("core.system.cycles", "cycles"),
    host("core.system.new_s", "s"),
    host("core.system.reconfig_s", "s"),
    host("core.system.inject_s", "s"),
    host("core.system.route_s", "s"),
    host("core.system.optical_s", "s"),
    host("core.system.stats_s", "s"),
    sim("core.system.approx_memory_bytes", "bytes"),
    host("core.system.trace_overhead_frac", "ratio"),
    // router (crates/router)
    sim("router.flits_traversed", "count"),
    host("router.ns_per_flit", "ns"),
    host("router.kernel_step_ns_per_flit", "ns"),
    // core inject phase / traffic (crates/traffic)
    sim("traffic.packets_injected", "count"),
    host("core.inject.ns_per_cycle", "ns"),
    host("core.inject.ns_per_packet", "ns"),
    host("traffic.generator.kernel_poll_ns", "ns"),
    // core.srs — optical phase, includes the photonics power model
    host("core.srs.ns_per_cycle", "ns"),
    host("core.srs.ns_per_packet", "ns"),
    sim("core.srs.grants", "count"),
    sim("core.srs.retunes", "count"),
    sim("core.srs.lasers_on_end", "count"),
    // netstats — stats phase
    host("netstats.ns_per_cycle", "ns"),
    // reconfig / powermgmt / tune / core.faults — window-boundary work
    host("reconfig.ns_per_window", "ns"),
    sim("reconfig.ls_retries", "count"),
    sim("reconfig.ls_aborts", "count"),
    sim("tune.controller.moves", "count"),
    sim("core.faults.applied", "count"),
    // core.runner — run-level executor
    sim("core.runner.points", "count"),
    host("core.runner.dispatch_idle_frac", "ratio"),
    host_up("core.runner.speedup_2t", "ratio"),
    // core.shard — board-sharded engine
    host_up("core.shard.speedup_2w", "ratio"),
    host_up("core.shard.speedup_2w_uniform", "ratio"),
    // core.stream / core.checkpoint / erapid-telemetry
    host("core.system.drain_window_s", "s"),
    host("core.stream.flush_s", "s"),
    sim("core.stream.bytes", "bytes"),
    host("core.stream.read_verify_s", "s"),
    host("core.checkpoint.write_s", "s"),
    sim("core.checkpoint.bytes", "bytes"),
    sim("core.checkpoint.count", "count"),
    host("core.checkpoint.restore_s", "s"),
    sim("telemetry.records", "count"),
    sim("telemetry.dropped", "count"),
    host("telemetry.on_overhead_frac", "ratio"),
    host("core.checkpoint.on_overhead_frac", "ratio"),
    // erapid-workloads / traffic.trace
    host("workloads.engine.emit_ns_per_entry", "ns"),
    host("workloads.ingest.dumpi_ns_per_event", "ns"),
    host("workloads.ingest.otf2_ns_per_event", "ns"),
    host("traffic.trace.encode_ns_per_entry", "ns"),
    host("traffic.trace.decode_ns_per_entry", "ns"),
    sim("traffic.trace.bytes", "bytes"),
    host("traffic.trace.replay_inject_ns_per_packet", "ns"),
    // core.experiment — model fidelity against the paper's shapes
    sim_up("core.experiment.paper_shapes_held", "count"),
    sim_up("core.experiment.uniform_pb_power_saving_l05", "ratio"),
    sim_up("core.experiment.complement_dbr_throughput_gain", "ratio"),
];

/// One line per workload on why it exists (also in `BENCHMARK.json`).
pub const WORKLOAD_WHY: [(&str, &str); 5] = [
    (
        "paper64_sweep",
        "the paper's Figs. 5-6 grid through the run-level executor: cheap low-load and saturated points mixed, the job the paper's readers run",
    ),
    (
        "b32_uniform",
        "256 nodes, uniform: largest state, optical and stats phases do the most work and inject the least",
    ),
    (
        "b32_complement",
        "same 256-node system used the opposite way: inject-heavy, optical-light, saturated NP-NB and DBR-granting P-B",
    ),
    (
        "marathon_stream",
        "long traced run streamed to disk, checkpointed, killed and resumed: the only path through telemetry, stream, checkpoint and restore",
    ),
    (
        "hostile_replay",
        "scenario traffic under fault plans, live and replayed from ingested dumpi/OTF2 text: the only path through faults, LS retries, the controller and the parsers",
    ),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `BENCHMARK.json` and this catalog declare the same workloads and
    /// metrics, field for field.
    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).unwrap();
        let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expect: Vec<(String, String)> = WORKLOAD_WHY
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expect);

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let expect: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, expect);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expect: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(layers, expect);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOAD_WHY.iter().map(|w| w.0))
            .chain([FAILED_FRACTION])
            .collect();
        assert!(names.iter().all(|n| name_ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOAD_WHY
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }
}
