//! Electrical router power model for the mesh baseline.
//!
//! The paper's motivation (§1) leans on interconnect power: "interconnection
//! network[s] consume a sizeable fraction of the system power budget (for
//! example, 70% of the switch power budget in IBM Infiniband 8-port 12X
//! switch)". To compare the mesh baseline against E-RAPID's optical power
//! numbers we need an electrical router/link energy model; this is the
//! standard architectural-level decomposition (Orion-style): per-flit
//! energies for buffer write, buffer read, crossbar traversal and
//! arbitration, plus per-cycle leakage per router and per-flit link
//! traversal energy.
//!
//! Default constants are representative 100 nm-era values (the paper's
//! period) normalised to the same 64-bit flit the E-RAPID model uses. They
//! are deliberately conservative; the point of the comparison is the
//! *structure* (per-hop electrical cost × hop count vs per-link optical
//! cost × 1), not process-exact numbers.

/// Per-event energies, picojoules per 64-bit flit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterEnergy {
    /// Buffer write on flit arrival.
    pub buffer_write_pj: f64,
    /// Buffer read at switch traversal.
    pub buffer_read_pj: f64,
    /// Crossbar traversal.
    pub crossbar_pj: f64,
    /// VC + switch arbitration.
    pub arbitration_pj: f64,
    /// Inter-router link traversal (board-scale electrical trace).
    pub link_pj: f64,
    /// Router static power, milliwatts (leakage + clock).
    pub static_mw: f64,
}

impl RouterEnergy {
    /// Representative 100 nm constants for a 64-bit-flit 5-port router.
    pub fn typical_100nm() -> Self {
        Self {
            buffer_write_pj: 4.0,
            buffer_read_pj: 3.0,
            crossbar_pj: 6.0,
            arbitration_pj: 0.5,
            link_pj: 10.0,
            static_mw: 5.0,
        }
    }
}

/// Integrates mesh power over a run: integer hop and link totals, priced
/// once at read time.
#[derive(Debug, Clone)]
pub struct MeshPowerMeter {
    energy: RouterEnergy,
    routers: u32,
    /// Flits that traversed a router, over all recorded cycles.
    hops: u64,
    /// Flits launched onto inter-router links, over all recorded cycles.
    links: u64,
    cycles: u64,
}

impl MeshPowerMeter {
    /// Creates a meter for a mesh of `routers` routers.
    pub fn new(energy: RouterEnergy, routers: u32) -> Self {
        assert!(routers > 0);
        Self {
            energy,
            routers,
            hops: 0,
            links: 0,
            cycles: 0,
        }
    }

    /// Records one cycle: `hops` = flits that traversed a router this
    /// cycle, `links` = flits launched onto inter-router links.
    pub fn record_cycle(&mut self, hops: u64, links: u64) {
        self.cycles += 1;
        self.hops += hops;
        self.links += links;
    }

    /// Cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average total power in milliwatts at 400 MHz (2.5 ns/cycle):
    /// dynamic energy over time plus static power of every router.
    pub fn average_mw(&self) -> f64 {
        if self.cycles == 0 {
            return self.routers as f64 * self.energy.static_mw;
        }
        let e = &self.energy;
        let hop_pj = e.buffer_write_pj + e.buffer_read_pj + e.crossbar_pj + e.arbitration_pj;
        let dynamic_pj = self.hops as f64 * hop_pj + self.links as f64 * e.link_pj;
        let seconds = self.cycles as f64 * 2.5e-9;
        let dynamic_w = dynamic_pj * 1.0e-12 / seconds;
        dynamic_w * 1.0e3 + self.routers as f64 * self.energy.static_mw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_hop_energy_sums_components() {
        // One full hop (write + read + arbitrate + crossbar + link) is
        // 23.5 pJ; over one 2.5 ns cycle that is 9.4 mW above static.
        let mut m = MeshPowerMeter::new(RouterEnergy::typical_100nm(), 1);
        m.record_cycle(1, 1);
        assert!((m.average_mw() - (23.5 / 2.5 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn idle_mesh_draws_only_static_power() {
        let mut m = MeshPowerMeter::new(RouterEnergy::typical_100nm(), 64);
        for _ in 0..1000 {
            m.record_cycle(0, 0);
        }
        assert!((m.average_mw() - 64.0 * 5.0).abs() < 1e-9);
        assert_eq!(m.cycles(), 1000);
    }

    #[test]
    fn dynamic_power_scales_with_activity() {
        let e = RouterEnergy::typical_100nm();
        let mut busy = MeshPowerMeter::new(e, 64);
        let mut quiet = MeshPowerMeter::new(e, 64);
        for _ in 0..1000 {
            busy.record_cycle(64, 48);
            quiet.record_cycle(8, 6);
        }
        assert!(busy.average_mw() > quiet.average_mw());
        // One flit-hop (13.5 pJ) per 2.5 ns ≈ 5.4 mW of dynamic power:
        // 64 hops + 48 links per cycle ≈ 64·13.5 + 48·10 = 1344 pJ/cycle
        // = 537.6 mW dynamic + 320 static.
        assert!((busy.average_mw() - (1344.0 / 2.5 + 320.0)).abs() < 1.0);
    }

    #[test]
    fn empty_meter_reports_static() {
        let m = MeshPowerMeter::new(RouterEnergy::typical_100nm(), 16);
        assert!((m.average_mw() - 80.0).abs() < 1e-9);
    }
}
