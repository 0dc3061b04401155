//! Dynamic Link Shutdown (DLS) with hysteresis.
//!
//! DLS (Kim et al., ISLPED'03, cited as \[14\]) "turns down the link if it is
//! not heavily used and turns up the link when needed". In E-RAPID the DBR
//! stage is what normally turns off idle lasers; this module provides the
//! standalone DLS policy used by the ablation benches and by the DBR stage's
//! shutdown criterion: a link whose utilization stayed below a threshold for
//! `off_after` consecutive windows is shut down, and is woken as soon as
//! demand (buffer occupancy) reappears.

use desim::Cycle;
use erapid_telemetry::{TraceEvent, TraceSink};

/// Shutdown/wake decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlsDecision {
    /// Keep the link as it is.
    Keep,
    /// Shut the link down.
    Shutdown,
    /// Wake the link up.
    Wake,
}

/// Per-link DLS state machine with consecutive-window hysteresis.
#[derive(Debug, Clone)]
pub struct DlsPolicy {
    /// Utilization below which a window counts as idle.
    idle_threshold: f64,
    /// Consecutive idle windows before shutdown.
    off_after: u32,
    idle_windows: u32,
    is_off: bool,
}

impl DlsPolicy {
    /// Creates a policy: shut down after `off_after` consecutive windows
    /// with utilization below `idle_threshold`.
    pub fn new(idle_threshold: f64, off_after: u32) -> Self {
        assert!((0.0..=1.0).contains(&idle_threshold));
        assert!(off_after >= 1);
        Self {
            idle_threshold,
            off_after,
            idle_windows: 0,
            is_off: false,
        }
    }

    /// Default: shut down after 2 completely idle windows.
    pub fn standard() -> Self {
        Self::new(1.0e-6, 2)
    }

    /// Whether the policy currently holds the link off.
    pub fn is_off(&self) -> bool {
        self.is_off
    }

    /// Consecutive idle windows observed so far.
    pub fn idle_windows(&self) -> u32 {
        self.idle_windows
    }

    /// Feeds one window's statistics; returns the decision.
    ///
    /// `buffer_util > 0` while off signals queued demand and wakes the link.
    /// Emits a [`TraceEvent::DlsPower`] at cycle `at` for link
    /// `(src → dest, wavelength)` whenever the supply state actually
    /// changes (Shutdown/Wake; Keep is silent).
    pub fn observe(
        &mut self,
        link_util: f64,
        buffer_util: f64,
        at: Cycle,
        link: (u16, u16, u16),
        sink: &mut dyn TraceSink,
    ) -> DlsDecision {
        let decision = if self.is_off {
            if buffer_util > 0.0 {
                self.is_off = false;
                self.idle_windows = 0;
                DlsDecision::Wake
            } else {
                DlsDecision::Keep
            }
        } else if link_util < self.idle_threshold && buffer_util <= 0.0 {
            self.idle_windows += 1;
            self.is_off = self.idle_windows >= self.off_after;
            if self.is_off {
                DlsDecision::Shutdown
            } else {
                DlsDecision::Keep
            }
        } else {
            self.idle_windows = 0;
            DlsDecision::Keep
        };
        let off = match decision {
            DlsDecision::Shutdown => true,
            DlsDecision::Wake => false,
            DlsDecision::Keep => return decision,
        };
        if sink.enabled() {
            let (src, dest, wavelength) = link;
            sink.emit(
                at,
                TraceEvent::DlsPower {
                    src,
                    dest,
                    wavelength,
                    off,
                },
            );
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erapid_telemetry::NullSink;

    /// One untraced window on an anonymous link.
    fn obs(d: &mut DlsPolicy, link_util: f64, buffer_util: f64) -> DlsDecision {
        d.observe(link_util, buffer_util, 0, (0, 0, 0), &mut NullSink)
    }

    #[test]
    fn shuts_down_after_consecutive_idle_windows() {
        let mut d = DlsPolicy::standard();
        assert_eq!(obs(&mut d, 0.0, 0.0), DlsDecision::Keep);
        assert_eq!(d.idle_windows(), 1);
        assert_eq!(obs(&mut d, 0.0, 0.0), DlsDecision::Shutdown);
        assert!(d.is_off());
    }

    #[test]
    fn activity_resets_the_counter() {
        let mut d = DlsPolicy::standard();
        obs(&mut d, 0.0, 0.0);
        assert_eq!(obs(&mut d, 0.5, 0.0), DlsDecision::Keep);
        assert_eq!(d.idle_windows(), 0);
        obs(&mut d, 0.0, 0.0);
        assert_eq!(obs(&mut d, 0.0, 0.0), DlsDecision::Shutdown);
    }

    #[test]
    fn wakes_on_demand() {
        let mut d = DlsPolicy::standard();
        obs(&mut d, 0.0, 0.0);
        obs(&mut d, 0.0, 0.0);
        assert!(d.is_off());
        assert_eq!(obs(&mut d, 0.0, 0.0), DlsDecision::Keep);
        assert_eq!(obs(&mut d, 0.0, 0.2), DlsDecision::Wake);
        assert!(!d.is_off());
    }

    #[test]
    fn queued_demand_prevents_shutdown() {
        let mut d = DlsPolicy::standard();
        // Link idle but buffers non-empty (e.g. blocked upstream): keep.
        assert_eq!(obs(&mut d, 0.0, 0.4), DlsDecision::Keep);
        assert_eq!(d.idle_windows(), 0);
    }

    #[test]
    fn custom_threshold() {
        let mut d = DlsPolicy::new(0.1, 1);
        assert_eq!(obs(&mut d, 0.05, 0.0), DlsDecision::Shutdown);
    }

    #[test]
    fn traced_observe_emits_only_state_changes() {
        use erapid_telemetry::RingRecorder;

        let mut d = DlsPolicy::standard();
        let mut rec = RingRecorder::new(16);
        let link = (0, 1, 2);
        d.observe(0.0, 0.0, 2000, link, &mut rec); // keep
        d.observe(0.0, 0.0, 4000, link, &mut rec); // shutdown
        d.observe(0.0, 0.0, 6000, link, &mut rec); // keep (off)
        d.observe(0.0, 0.3, 8000, link, &mut rec); // wake
        let recs = rec.take_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].at, 4000);
        assert!(matches!(
            recs[0].event,
            TraceEvent::DlsPower {
                src: 0,
                dest: 1,
                wavelength: 2,
                off: true
            }
        ));
        assert!(matches!(
            recs[1].event,
            TraceEvent::DlsPower { off: false, .. }
        ));
    }
}
