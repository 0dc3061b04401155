//! The Reconfigure stage: classification and wavelength re-allocation.
//!
//! §3.2: "Each incoming link statistic is classified into three categories
//! using Buffer_util: *under-utilized* if Buffer_util is less than B_min
//! (implying that this wavelength can be re-allocated), *normal utilized*
//! if Buffer_util falls between B_min and B_max (implying the wavelength is
//! well utilized) and *over-utilized* if Buffer_util is greater than B_max
//! (implying that additional wavelengths are needed). RC would allocate the
//! under-utilized links to the over-utilized links."
//!
//! Paper defaults: `B_min = 0.0`, `B_max = 0.3`.

use crate::msg::WavelengthGrant;
use photonics::wavelength::{BoardId, Wavelength};

/// Buffer-utilization classification of one incoming link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// `Buffer_util ≤ B_min` — re-allocatable.
    Under,
    /// In the normal band.
    Normal,
    /// `Buffer_util > B_max` — needs more wavelengths.
    Over,
}

/// One incoming link's state as seen by the destination's RC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncomingLink {
    /// The wavelength (= one incoming channel of this board).
    pub wavelength: Wavelength,
    /// The source board currently owning the wavelength.
    pub owner: BoardId,
    /// `Buffer_util` reported by the owner's LC for this channel.
    pub buffer_util: f64,
}

/// One flow's bandwidth demand at a destination: the transmitter-queue
/// occupancy of source board `source` toward the destination, reported by
/// the source's LC even when the flow currently owns no wavelength (its
/// statically assigned LC keeps counting — this is what lets a board that
/// donated its wavelength reclaim bandwidth later).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDemand {
    /// The source board of the flow.
    pub source: BoardId,
    /// `Buffer_util` of the flow's transmitter queue.
    pub buffer_util: f64,
}

/// Allocation thresholds and limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocPolicy {
    /// Under-utilized boundary (inclusive). Paper: 0.0.
    pub b_min: f64,
    /// Over-utilized boundary (exclusive). Paper: 0.3.
    pub b_max: f64,
    /// Maximum re-assignments per window (`usize::MAX` = unlimited). The
    /// paper's conclusion floats "limited flexibility for reconfigurability"
    /// as a cost reduction; this knob is that ablation.
    pub max_reassignments: usize,
}

impl AllocPolicy {
    /// The paper's thresholds: `B_min = 0.0`, `B_max = 0.3`, unlimited.
    pub fn paper() -> Self {
        Self {
            b_min: 0.0,
            b_max: 0.3,
            max_reassignments: usize::MAX,
        }
    }

    /// Caps re-assignments per window.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.max_reassignments = limit;
        self
    }

    /// Classifies one buffer utilization.
    fn classify(&self, buffer_util: f64) -> Classification {
        if buffer_util <= self.b_min {
            Classification::Under
        } else if buffer_util > self.b_max {
            Classification::Over
        } else {
            Classification::Normal
        }
    }

    /// Runs the Reconfigure stage for destination `destination`.
    ///
    /// Every under-utilized incoming wavelength is re-assigned to the
    /// source board of an over-utilized flow, most congested flows first,
    /// distributing spares round-robin so multiple hot flows share the
    /// spoils. A flow never donates to itself. Demands are what make
    /// re-acquisition possible: a flow that owns no wavelength at all can
    /// still appear over-utilized and win spares.
    #[allow(clippy::explicit_counter_loop)]
    pub fn reconfigure_with_demands(
        &self,
        destination: BoardId,
        incoming: &[IncomingLink],
        demands: &[FlowDemand],
    ) -> Vec<WavelengthGrant> {
        let mut over: Vec<&FlowDemand> = demands
            .iter()
            .filter(|d| self.classify(d.buffer_util) == Classification::Over)
            .collect();
        if over.is_empty() {
            return Vec::new();
        }
        // Most congested first; board index breaks ties for determinism.
        over.sort_by(|a, b| {
            b.buffer_util
                .total_cmp(&a.buffer_util)
                .then(a.source.cmp(&b.source))
        });
        // A spare channel is one whose *owning flow* is under-utilized: use
        // the owner's demand where available, else the channel reading.
        let flow_util = |l: &IncomingLink| {
            demands
                .iter()
                .find(|d| d.source == l.owner)
                .map(|d| d.buffer_util)
                .unwrap_or(l.buffer_util)
        };
        let mut under: Vec<&IncomingLink> = incoming
            .iter()
            .filter(|l| self.classify(flow_util(l)) == Classification::Under)
            .collect();
        under.sort_by(|a, b| {
            flow_util(a)
                .total_cmp(&flow_util(b))
                .then(a.wavelength.cmp(&b.wavelength))
        });
        let mut grants = Vec::new();
        let mut next_over = 0usize;
        for spare in under {
            if grants.len() >= self.max_reassignments {
                break;
            }
            let recipient = over[next_over % over.len()];
            next_over += 1;
            if spare.owner == recipient.source {
                // Donating to itself is a no-op; skip this spare.
                continue;
            }
            grants.push(WavelengthGrant {
                destination,
                wavelength: spare.wavelength,
                from: spare.owner,
                to: recipient.source,
            });
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(w: u16, owner: u16, util: f64) -> IncomingLink {
        IncomingLink {
            wavelength: Wavelength(w),
            owner: BoardId(owner),
            buffer_util: util,
        }
    }

    /// Per-flow demands from channel readings alone: each owner's hottest
    /// channel.
    fn demands_from_channels(channels: &[IncomingLink]) -> Vec<FlowDemand> {
        let mut demands: Vec<FlowDemand> = Vec::new();
        for c in channels {
            match demands.iter_mut().find(|d| d.source == c.owner) {
                Some(d) => d.buffer_util = d.buffer_util.max(c.buffer_util),
                None => demands.push(FlowDemand {
                    source: c.owner,
                    buffer_util: c.buffer_util,
                }),
            }
        }
        demands
    }

    impl AllocPolicy {
        /// The Reconfigure stage from channel readings alone.
        fn reconfigure(
            &self,
            destination: BoardId,
            incoming: &[IncomingLink],
        ) -> Vec<WavelengthGrant> {
            self.reconfigure_with_demands(destination, incoming, &demands_from_channels(incoming))
        }
    }

    #[test]
    fn classification_bands() {
        let p = AllocPolicy::paper();
        assert_eq!(p.classify(0.0), Classification::Under);
        assert_eq!(p.classify(0.01), Classification::Normal);
        assert_eq!(p.classify(0.3), Classification::Normal);
        assert_eq!(p.classify(0.31), Classification::Over);
    }

    #[test]
    fn complement_like_scenario_grants_everything_to_the_hot_flow() {
        // Destination board 7: board 0's flow is saturated, every other
        // incoming wavelength is dead — the paper's complement pattern.
        let p = AllocPolicy::paper();
        let incoming: Vec<IncomingLink> = (1..8u16)
            .map(|w| {
                let owner = (7 + w) % 8; // static RWA owner of λw at dest 7
                if owner == 0 {
                    link(w, owner, 0.9)
                } else {
                    link(w, owner, 0.0)
                }
            })
            .collect();
        let grants = p.reconfigure(BoardId(7), &incoming);
        // All 6 idle wavelengths go to board 0.
        assert_eq!(grants.len(), 6);
        assert!(grants.iter().all(|g| g.to == BoardId(0)));
        assert!(grants.iter().all(|g| g.destination == BoardId(7)));
        assert!(grants.iter().all(|g| g.from != BoardId(0)));
        // Distinct wavelengths.
        let mut ws: Vec<u16> = grants.iter().map(|g| g.wavelength.0).collect();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), 6);
    }

    #[test]
    fn no_over_utilized_flows_means_no_grants() {
        let p = AllocPolicy::paper();
        let incoming = vec![link(1, 2, 0.0), link(2, 3, 0.2), link(3, 0, 0.1)];
        assert!(p.reconfigure(BoardId(1), &incoming).is_empty());
    }

    #[test]
    fn no_spares_means_no_grants() {
        let p = AllocPolicy::paper();
        let incoming = vec![link(1, 2, 0.9), link(2, 3, 0.8)];
        assert!(p.reconfigure(BoardId(0), &incoming).is_empty());
    }

    #[test]
    fn spares_split_round_robin_between_hot_flows() {
        let p = AllocPolicy::paper();
        let incoming = vec![
            link(1, 4, 0.9), // hottest
            link(2, 5, 0.5), // second
            link(3, 6, 0.0), // spare
            link(4, 7, 0.0), // spare
            link(5, 0, 0.0), // spare
            link(6, 1, 0.0), // spare
        ];
        let grants = p.reconfigure(BoardId(3), &incoming);
        assert_eq!(grants.len(), 4);
        let to4 = grants.iter().filter(|g| g.to == BoardId(4)).count();
        let to5 = grants.iter().filter(|g| g.to == BoardId(5)).count();
        assert_eq!((to4, to5), (2, 2));
        // Hottest flow gets the first spare.
        assert_eq!(grants[0].to, BoardId(4));
    }

    #[test]
    fn self_donation_is_skipped() {
        let p = AllocPolicy::paper();
        // Board 4 is hot on λ1 but also owns idle λ2 toward the same
        // destination (a prior reallocation): no self-grant.
        let incoming = vec![link(1, 4, 0.9), link(2, 4, 0.0)];
        let grants = p.reconfigure(BoardId(0), &incoming);
        assert!(grants.is_empty());
    }

    #[test]
    fn limit_caps_grants() {
        let p = AllocPolicy::paper().with_limit(1);
        let incoming = vec![link(1, 4, 0.9), link(2, 5, 0.0), link(3, 6, 0.0)];
        let grants = p.reconfigure(BoardId(0), &incoming);
        assert_eq!(grants.len(), 1);
    }

    #[test]
    fn starved_flow_reclaims_via_demand() {
        // Board 5 owns zero wavelengths toward the destination (it donated
        // them earlier) but its queue is hot; board 2 owns two idle ones.
        let p = AllocPolicy::paper();
        let incoming = vec![link(1, 2, 0.0), link(2, 2, 0.0)];
        let demands = vec![
            FlowDemand {
                source: BoardId(5),
                buffer_util: 0.9,
            },
            FlowDemand {
                source: BoardId(2),
                buffer_util: 0.0,
            },
        ];
        let grants = p.reconfigure_with_demands(BoardId(0), &incoming, &demands);
        assert_eq!(grants.len(), 2);
        assert!(grants
            .iter()
            .all(|g| g.to == BoardId(5) && g.from == BoardId(2)));
    }

    #[test]
    fn busy_owners_channels_are_not_spares() {
        // Board 3's flow is over-utilized; its channels must not be donated
        // even if one particular channel reads 0 (demand overrides).
        let p = AllocPolicy::paper();
        let incoming = vec![link(1, 3, 0.0), link(2, 4, 0.0)];
        let demands = vec![
            FlowDemand {
                source: BoardId(3),
                buffer_util: 0.9,
            },
            FlowDemand {
                source: BoardId(4),
                buffer_util: 0.0,
            },
        ];
        let grants = p.reconfigure_with_demands(BoardId(0), &incoming, &demands);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].from, BoardId(4));
        assert_eq!(grants[0].wavelength, Wavelength(2));
    }

    #[test]
    fn demands_from_channels_takes_max_per_owner() {
        let channels = vec![link(1, 2, 0.1), link(2, 2, 0.6), link(3, 4, 0.0)];
        let mut d = demands_from_channels(&channels);
        d.sort_by_key(|x| x.source.0);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].source, BoardId(2));
        assert!((d[0].buffer_util - 0.6).abs() < 1e-12);
        assert_eq!(d[1].source, BoardId(4));
    }

    #[test]
    fn deterministic_ordering() {
        let p = AllocPolicy::paper();
        let incoming = vec![link(3, 6, 0.0), link(1, 4, 0.9), link(2, 5, 0.0)];
        let a = p.reconfigure(BoardId(0), &incoming);
        let b = p.reconfigure(BoardId(0), &incoming);
        assert_eq!(a, b);
        // Spares assigned lowest wavelength first.
        assert_eq!(a[0].wavelength, Wavelength(2));
    }
}
