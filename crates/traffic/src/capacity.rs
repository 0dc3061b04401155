//! Network capacity `N_c` (packets/node/cycle).
//!
//! §4: "The network capacity was determined from the expression N_c
//! (packets/node/cycle), which is defined as the maximum sustainable
//! throughput when a network is loaded with uniform random traffic."
//!
//! For an R(1,B,D) E-RAPID the binding resource under uniform traffic is
//! the optical stage: each board owns `B-1` statically assigned outgoing
//! channels, each serving one packet per `flit_cycles × packet_flits`
//! cycles at the highest bit rate. Under uniform traffic each of a node's
//! packets picks any of the `B·D - 1` other nodes equally, so the load on
//! one specific board-pair channel per unit injection rate is
//! `D² / (B·D - 1)`. Setting channel load = channel service rate gives
//!
//! ```text
//! N_c = μ · (B·D - 1) / D²,      μ = 1 / (flit_cycles · packet_flits)
//! ```
//!
//! The electrical IBI (one flit per cycle per node port) is checked as a
//! secondary bound.

/// Capacity calculator for an R(1,B,D) system.
#[derive(Debug, Clone, Copy)]
pub struct CapacityModel {
    /// Boards per cluster.
    pub boards: u32,
    /// Nodes per board.
    pub nodes_per_board: u32,
    /// Flits per packet.
    pub packet_flits: u32,
    /// Optical serialization cycles per flit at the highest rate.
    pub flit_cycles: u32,
}

impl CapacityModel {
    /// The paper's 64-node configuration: B=8, D=8, 8-flit packets,
    /// 6 cycles/flit at 5 Gbps (`SystemConfig::capacity` derives it from
    /// the configuration; this literal is the tests' reference).
    #[cfg(test)]
    fn paper64() -> Self {
        Self {
            boards: 8,
            nodes_per_board: 8,
            packet_flits: 8,
            flit_cycles: 6,
        }
    }

    /// Total node count.
    pub fn nodes(&self) -> u32 {
        self.boards * self.nodes_per_board
    }

    /// Channel service rate μ in packets/cycle.
    fn channel_rate(&self) -> f64 {
        1.0 / (self.flit_cycles as f64 * self.packet_flits as f64)
    }

    /// Optical-stage capacity bound, packets/node/cycle.
    fn optical_bound(&self) -> f64 {
        let n = self.nodes() as f64;
        let d = self.nodes_per_board as f64;
        self.channel_rate() * (n - 1.0) / (d * d)
    }

    /// Electrical IBI bound: one flit/cycle per node injection port.
    pub fn electrical_bound(&self) -> f64 {
        1.0 / self.packet_flits as f64
    }

    /// Uniform-traffic network capacity `N_c` (packets/node/cycle): the
    /// binding bound.
    pub fn uniform_capacity(&self) -> f64 {
        self.optical_bound().min(self.electrical_bound())
    }

    /// Injection probability per node per cycle for a normalised `load`
    /// (the paper sweeps 0.1 – 0.9).
    pub fn injection_rate(&self, load: f64) -> f64 {
        assert!(load >= 0.0);
        load * self.uniform_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper64_capacity_value() {
        let c = CapacityModel::paper64();
        assert_eq!(c.nodes(), 64);
        // μ = 1/48; N_c = (63/64) / 48 ≈ 0.02051.
        assert!((c.channel_rate() - 1.0 / 48.0).abs() < 1e-12);
        let nc = c.uniform_capacity();
        assert!((nc - 63.0 / (64.0 * 48.0)).abs() < 1e-12, "nc {nc}");
        assert!(nc < c.electrical_bound(), "optical stage must bind");
    }

    #[test]
    fn injection_rate_scales_linearly() {
        let c = CapacityModel::paper64();
        let r1 = c.injection_rate(0.1);
        let r9 = c.injection_rate(0.9);
        assert!((r9 / r1 - 9.0).abs() < 1e-9);
        assert_eq!(c.injection_rate(0.0), 0.0);
    }

    #[test]
    fn faster_optics_raise_capacity_until_electrical_binds() {
        let mut c = CapacityModel::paper64();
        let base = c.uniform_capacity();
        c.flit_cycles = 3; // hypothetical 2× optics
        assert!(c.uniform_capacity() > base);
        // Many boards with few nodes each: per-board channel count exceeds
        // demand and the electrical injection port becomes the bound.
        let wide = CapacityModel {
            boards: 16,
            nodes_per_board: 2,
            packet_flits: 8,
            flit_cycles: 1,
        };
        assert!(wide.optical_bound() > wide.electrical_bound());
        assert_eq!(wide.uniform_capacity(), wide.electrical_bound());
    }

    #[test]
    fn smaller_boards_scale() {
        let c = CapacityModel {
            boards: 4,
            nodes_per_board: 4,
            packet_flits: 8,
            flit_cycles: 6,
        };
        assert_eq!(c.nodes(), 16);
        let nc = c.uniform_capacity();
        assert!((nc - (15.0 / 16.0) / 48.0).abs() < 1e-12, "nc {nc}");
    }
}
