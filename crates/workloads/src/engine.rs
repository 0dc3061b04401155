//! The scenario emission engine: turns a [`ScenarioSpec`] into a
//! deterministic per-cycle `(src, dst)` stream.
//!
//! One engine serves a whole system. Construction derives everything
//! static — the Zipf CDF, the hotspot popularity permutation, one PCG32
//! stream per node — from `(spec, nodes, rate, seed)`; the only mutable
//! state is the RNG positions, which is exactly what
//! [`ScenarioEngine::save_state`] serializes. Every cycle-varying
//! decision (storm victim, diurnal phase, collective step, hotspot
//! rotation) is an integer function of the polled cycle, so a resumed
//! engine continues the stream bit-for-bit.

use crate::spec::{ScenarioKind, ScenarioSpec};
use desim::rng::{Pcg32, Zipf};
use desim::snap::{load_vec_exact, save_slice, SnapError, SnapReader, SnapWriter};
use desim::Cycle;
use traffic::generator::PacketRequest;
use traffic::trace::TraceEntry;

/// Salt decorrelating scenario RNG streams from the Bernoulli generators
/// built from the same config seed (which use streams `0..nodes` of the
/// raw seed).
const SCENARIO_SALT: u64 = 0x5EED_5CEB_A210_0A0D;

/// A deterministic scenario packet source (see module docs).
pub struct ScenarioEngine {
    spec: ScenarioSpec,
    nodes: u32,
    base_rate: f64,
    /// Per-node decision streams, consumed in ascending-node order.
    rngs: Vec<Pcg32>,
    /// Hotspot popularity ranking: `rank[0]` is the hottest node
    /// (seed-derived permutation; empty for other kinds).
    rank: Vec<u32>,
    /// Precomputed Zipf sampler (hotspot only).
    zipf: Option<Zipf>,
}

impl ScenarioEngine {
    /// Builds the engine for `nodes` nodes injecting at `base_rate`
    /// packets/node/cycle nominal (the paper's `load × N_c` rate), with
    /// all RNG streams derived from `seed`.
    ///
    /// # Panics
    /// If the spec does not validate against `nodes` (construction-time
    /// contract, same as `SystemConfig::validate`).
    pub fn new(spec: ScenarioSpec, nodes: u32, base_rate: f64, seed: u64) -> Self {
        if let Err(e) = spec.validate(nodes) {
            panic!("{e}");
        }
        let rngs = (0..nodes)
            .map(|n| Pcg32::stream(seed ^ SCENARIO_SALT, n as u64))
            .collect();
        let (rank, zipf) = match spec.kind {
            ScenarioKind::ZipfHotspot { exponent, .. } => {
                // Fisher–Yates on a throwaway stream: the ranking is
                // config-derived, so it is rebuilt (not snapshotted) on
                // restore.
                let mut perm: Vec<u32> = (0..nodes).collect();
                let mut rng = Pcg32::stream(seed ^ SCENARIO_SALT, nodes as u64 + 1);
                for i in (1..perm.len()).rev() {
                    let j = rng.below(i as u32 + 1) as usize;
                    perm.swap(i, j);
                }
                (perm, Some(Zipf::new(nodes as usize, exponent)))
            }
            _ => (Vec::new(), None),
        };
        Self {
            spec,
            nodes,
            base_rate,
            rngs,
            rank,
            zipf,
        }
    }

    /// Uniform destination excluding `src` (the Bernoulli generators'
    /// convention).
    fn uniform_dest(nodes: u32, src: u32, rng: &mut Pcg32) -> u32 {
        let d = rng.below(nodes - 1);
        if d >= src {
            d + 1
        } else {
            d
        }
    }

    /// The emission probability for one node this cycle, capped at 1.
    fn prob(&self, mult: f64) -> f64 {
        (self.base_rate * self.spec.rate_scale * mult).min(1.0)
    }

    /// Convenience driver: polls the engine over `0..horizon` and returns
    /// the full stream as trace entries — fixture regeneration and
    /// property tests share this exact loop.
    pub fn emit(&mut self, horizon: Cycle) -> Vec<TraceEntry> {
        let mut out = Vec::new();
        let mut due = Vec::new();
        for now in 0..horizon {
            due.clear();
            self.poll_into(now, &mut due);
            out.extend(due.iter().map(|r| TraceEntry {
                cycle: now,
                src: r.src,
                dst: r.dst,
            }));
        }
        out
    }

    /// Appends every request due at `now` to `out`, ascending source node.
    /// The stream is a pure function of the construction inputs and the
    /// polled cycles.
    pub fn poll_into(&mut self, now: Cycle, out: &mut Vec<PacketRequest>) {
        let n = self.nodes;
        match self.spec.kind {
            ScenarioKind::ZipfHotspot { rotate_every, .. } => {
                let p = self.prob(1.0);
                let rot = now
                    .checked_div(rotate_every)
                    .map_or(0, |r| (r % n as u64) as u32);
                let zipf = self.zipf.as_ref().unwrap_or_else(|| unreachable!());
                for src in 0..n {
                    let rng = &mut self.rngs[src as usize];
                    if !rng.bernoulli(p) {
                        continue;
                    }
                    let idx = zipf.sample(rng) as u32;
                    let mut dst = self.rank[((idx + rot) % n) as usize];
                    if dst == src {
                        // `rank` is a permutation, so the adjacent slot
                        // cannot also map to `src`.
                        dst = self.rank[((idx + rot + 1) % n) as usize];
                    }
                    out.push(PacketRequest { src, dst });
                }
            }
            ScenarioKind::Diurnal { period, trough } => {
                // Piecewise-linear triangle wave in [trough, 1]: rises
                // over the first half-period, falls over the second.
                let pos = now % period;
                let half = period / 2;
                let tri = if pos < half {
                    pos as f64 / half as f64
                } else {
                    (period - pos) as f64 / (period - half) as f64
                };
                let p = self.prob(trough + (1.0 - trough) * tri);
                for src in 0..n {
                    let rng = &mut self.rngs[src as usize];
                    if rng.bernoulli(p) {
                        let dst = Self::uniform_dest(n, src, rng);
                        out.push(PacketRequest { src, dst });
                    }
                }
            }
            ScenarioKind::IncastStorm {
                period,
                burst,
                intensity,
                background,
                outcast,
            } => {
                let victim = ((now / period) % n as u64) as u32;
                let in_storm = (now % period) < burst;
                let p_storm = self.prob(intensity);
                let p_bg = self.prob(background);
                for src in 0..n {
                    let rng = &mut self.rngs[src as usize];
                    if in_storm {
                        if src == victim {
                            if outcast && rng.bernoulli(p_storm) {
                                let dst = Self::uniform_dest(n, src, rng);
                                out.push(PacketRequest { src, dst });
                            }
                        } else if rng.bernoulli(p_storm) {
                            out.push(PacketRequest { src, dst: victim });
                        }
                    } else if rng.bernoulli(p_bg) {
                        let dst = Self::uniform_dest(n, src, rng);
                        out.push(PacketRequest { src, dst });
                    }
                }
            }
            ScenarioKind::Collective {
                comm,
                compute,
                intensity,
            } => {
                let pos = now % (comm + compute);
                if pos >= comm {
                    return; // compute phase: silence
                }
                // The ring offset sweeps 1 ‥ n-1 across the exchange, so
                // every instant's demand is a permutation.
                let step = 1 + ((pos * (n as u64 - 1)) / comm) as u32;
                let p = self.prob(intensity);
                for src in 0..n {
                    let rng = &mut self.rngs[src as usize];
                    if rng.bernoulli(p) {
                        out.push(PacketRequest {
                            src,
                            dst: (src + step) % n,
                        });
                    }
                }
            }
        }
    }

    /// Serializes the mutable state: the kind tag and the RNG positions.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.tag(b"SCEN");
        w.u8(self.spec.kind_tag());
        save_slice(w, &self.rngs);
    }

    /// Overlays checkpointed RNG positions onto an engine built from the
    /// same inputs; a different kind or node count is a typed error.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag(b"SCEN")?;
        let tag = r.u8()?;
        if tag != self.spec.kind_tag() {
            return Err(SnapError::Mismatch(format!(
                "snapshot scenario kind tag {tag} != this engine's {}",
                self.spec.kind_tag()
            )));
        }
        self.rngs = load_vec_exact(r, self.nodes as usize, "scenario rng streams")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODES: u32 = 16;
    const RATE: f64 = 0.02;

    fn stream(spec: ScenarioSpec, seed: u64, horizon: Cycle) -> Vec<TraceEntry> {
        ScenarioEngine::new(spec, NODES, RATE, seed).emit(horizon)
    }

    #[test]
    fn all_kinds_emit_valid_streams() {
        for spec in ScenarioSpec::paper_suite() {
            let entries = stream(spec.clone(), 7, 20_000);
            assert!(!entries.is_empty(), "{} emitted nothing", spec.name());
            for pair in entries.windows(2) {
                assert!(
                    pair[0].cycle <= pair[1].cycle,
                    "{} non-monotone",
                    spec.name()
                );
            }
            for e in &entries {
                assert!(
                    e.src < NODES && e.dst < NODES,
                    "{} out of range",
                    spec.name()
                );
                assert_ne!(e.src, e.dst, "{} self-send", spec.name());
            }
        }
    }

    #[test]
    fn streams_are_seed_reproducible_and_seed_sensitive() {
        for spec in ScenarioSpec::paper_suite() {
            let a = stream(spec.clone(), 11, 10_000);
            let b = stream(spec.clone(), 11, 10_000);
            assert_eq!(a, b, "{} not reproducible", spec.name());
            let c = stream(spec.clone(), 12, 10_000);
            assert_ne!(a, c, "{} ignores its seed", spec.name());
        }
    }

    #[test]
    fn incast_storm_concentrates_on_the_victim() {
        let entries = stream(ScenarioSpec::incast(), 3, 6_000);
        // During the first storm (cycles 0..1200) the victim is node 0.
        let storm: Vec<_> = entries.iter().filter(|e| e.cycle < 1_200).collect();
        assert!(!storm.is_empty());
        let to_victim = storm.iter().filter(|e| e.dst == 0).count();
        assert!(
            to_victim * 10 >= storm.len() * 8,
            "storm should aim ≥80% at the victim: {to_victim}/{}",
            storm.len()
        );
    }

    #[test]
    fn collective_is_silent_in_compute_phases() {
        let entries = stream(ScenarioSpec::collective(), 3, 12_000);
        // Default: comm 1500, compute 2500 → cycles 1500..4000 silent.
        assert!(
            entries.iter().all(|e| { e.cycle % 4_000 < 1_500 }),
            "traffic during a compute phase"
        );
        // Each instant of an exchange is a permutation: fixed step offset.
        for e in &entries {
            let pos = e.cycle % 4_000;
            let step = 1 + ((pos * (NODES as u64 - 1)) / 1_500) as u32;
            assert_eq!(e.dst, (e.src + step) % NODES);
        }
    }

    #[test]
    fn hotspot_skews_destinations() {
        let entries = stream(ScenarioSpec::hotspot(), 5, 8_000);
        let mut counts = vec![0u32; NODES as usize];
        for e in &entries {
            counts[e.dst as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let mean = entries.len() as u32 / NODES;
        assert!(
            max > mean * 2,
            "hottest destination should dominate: max {max}, mean {mean}"
        );
    }

    #[test]
    fn diurnal_rate_follows_the_wave() {
        let spec = ScenarioSpec::diurnal(); // period 16k, trough 0.2
        let entries = stream(spec, 9, 16_000);
        let trough_traffic = entries.iter().filter(|e| e.cycle < 2_000).count();
        let peak_traffic = entries
            .iter()
            .filter(|e| (7_000..9_000).contains(&e.cycle))
            .count();
        assert!(
            peak_traffic > trough_traffic * 2,
            "peak {peak_traffic} vs trough {trough_traffic}"
        );
    }

    #[test]
    fn snapshot_resumes_the_stream_exactly() {
        for spec in ScenarioSpec::paper_suite() {
            let full = stream(spec.clone(), 21, 8_000);
            let mut first = ScenarioEngine::new(spec.clone(), NODES, RATE, 21);
            let head = first.emit(4_000);
            let mut w = SnapWriter::new();
            first.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut resumed = ScenarioEngine::new(spec.clone(), NODES, RATE, 21);
            resumed.load_state(&mut SnapReader::new(&bytes)).unwrap();
            let mut tail = Vec::new();
            let mut due = Vec::new();
            for now in 4_000..8_000 {
                due.clear();
                resumed.poll_into(now, &mut due);
                tail.extend(due.iter().map(|r| TraceEntry {
                    cycle: now,
                    src: r.src,
                    dst: r.dst,
                }));
            }
            let mut joined = head;
            joined.extend(tail);
            assert_eq!(joined, full, "{} diverged across snapshot", spec.name());
        }
    }

    #[test]
    fn snapshot_kind_mismatch_is_typed() {
        let a = ScenarioEngine::new(ScenarioSpec::hotspot(), NODES, RATE, 1);
        let mut w = SnapWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = ScenarioEngine::new(ScenarioSpec::incast(), NODES, RATE, 1);
        assert!(matches!(
            b.load_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Mismatch(_))
        ));
    }
}
