//! Preallocated ring-buffer recorder and the plain-data trace configuration
//! that rides inside `SystemConfig`.

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::TraceSink;
use desim::Cycle;

/// Default ring capacity: generous for a paper-scale run (a 40-window
/// paper64 run emits a few thousand events) while staying a bounded,
/// one-time allocation.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// Plain-data tracing knobs.
///
/// This is what `SystemConfig` carries (it stays `Copy + Debug`, so the
/// config keeps deriving `Clone`/`Debug`); each `System` builds its own
/// [`Tracer`] from it, which keeps per-point traces independent and the
/// parallel runner byte-identical to the sequential one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off means the system uses a null tracer: no
    /// allocation, no per-event work.
    pub enabled: bool,
    /// Ring capacity in events; once full the oldest events are overwritten
    /// (and counted in [`RingRecorder::dropped`]).
    pub capacity: usize,
}

impl TraceConfig {
    /// Tracing disabled (the default for every stock config).
    pub fn off() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 0,
        }
    }

    /// Full-fidelity tracing into a default-capacity ring.
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            capacity: DEFAULT_CAPACITY,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

/// A preallocated ring buffer of [`TraceRecord`]s.
///
/// All storage is allocated in `new`; `emit` never allocates, so enabling
/// tracing cannot change the allocator behaviour of the simulation hot
/// path. When the ring wraps, the oldest records are overwritten and
/// counted in [`dropped`](RingRecorder::dropped).
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Index of the oldest record once the ring has wrapped (0 until then).
    head: usize,
    dropped: u64,
}

impl RingRecorder {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingRecorder {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten after the ring wrapped (0 when sized right).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records in emission order (oldest first).
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Drains the ring, returning records in emission order.
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        let out = self.records();
        self.buf.clear();
        self.head = 0;
        out
    }

    /// Serializes the ring contents and wrap cursor (capacity is
    /// config-derived).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        self.buf.save(w);
        w.usize(self.head);
        w.u64(self.dropped);
    }

    /// Overlays checkpointed ring contents; the ring geometry must match.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::{Snap, SnapError};
        let buf: Vec<TraceRecord> = Snap::load(r)?;
        if buf.len() > self.capacity {
            return Err(SnapError::Mismatch(format!(
                "ring snapshot holds {} records but capacity is {}",
                buf.len(),
                self.capacity
            )));
        }
        // `emit` moves the head only once the ring is full, and
        // `take_records` resets it to 0: any other head would replay the
        // records out of emission order.
        let head = r.usize()?;
        if head != 0 && (buf.len() < self.capacity || head >= self.capacity) {
            return Err(SnapError::Format(format!(
                "ring head {head} with {} of {} records held",
                buf.len(),
                self.capacity
            )));
        }
        let dropped = r.u64()?;
        self.buf = buf;
        self.head = head;
        self.dropped = dropped;
        Ok(())
    }
}

impl TraceSink for RingRecorder {
    fn emit(&mut self, at: Cycle, event: TraceEvent) {
        let rec = TraceRecord { at, event };
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// Static-dispatch tracer a `System` owns: either a null sink or a ring
/// recorder. An enum (rather than `Box<dyn TraceSink>`) keeps the disabled
/// path to a single predictable branch and keeps the owner `Debug + Clone`.
#[derive(Debug, Clone, Default)]
pub enum Tracer {
    #[default]
    Null,
    Ring(RingRecorder),
}

impl Tracer {
    pub fn from_config(cfg: TraceConfig) -> Self {
        if !cfg.enabled {
            return Tracer::Null;
        }
        let capacity = if cfg.capacity == 0 {
            DEFAULT_CAPACITY
        } else {
            cfg.capacity
        };
        Tracer::Ring(RingRecorder::new(capacity))
    }

    /// Drains any recorded events (empty for the null tracer).
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        match self {
            Tracer::Null => Vec::new(),
            Tracer::Ring(r) => r.take_records(),
        }
    }

    /// Events overwritten due to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        match self {
            Tracer::Null => 0,
            Tracer::Ring(r) => r.dropped(),
        }
    }

    /// Serializes the tracer state (null tracers carry no state beyond
    /// their variant tag).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        match self {
            Tracer::Null => w.u8(0),
            Tracer::Ring(r) => {
                w.u8(1);
                r.save_state(w);
            }
        }
    }

    /// Overlays checkpointed tracer state; the stored variant must match
    /// the one this system was configured with.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::SnapError;
        let tag = r.u8()?;
        match (&mut *self, tag) {
            (Tracer::Null, 0) => Ok(()),
            (Tracer::Ring(ring), 1) => ring.load_state(r),
            (_, 0 | 1) => Err(SnapError::Mismatch(
                "tracer kind differs from snapshot".to_string(),
            )),
            (_, b) => Err(SnapError::Format(format!("bad tracer tag {b:#x}"))),
        }
    }
}

impl TraceSink for Tracer {
    #[inline]
    fn enabled(&self) -> bool {
        matches!(self, Tracer::Ring(_))
    }

    #[inline]
    fn emit(&mut self, at: Cycle, event: TraceEvent) {
        if let Tracer::Ring(r) = self {
            r.emit(at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WindowLabel;

    fn window(i: u64) -> TraceEvent {
        TraceEvent::WindowBoundary {
            index: i,
            kind: WindowLabel::Power,
        }
    }

    #[test]
    fn records_in_emission_order() {
        let mut r = RingRecorder::new(8);
        for i in 0..5 {
            r.emit(i * 10, window(i));
        }
        let recs = r.records();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].at, 0);
        assert_eq!(recs[4].at, 40);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut r = RingRecorder::new(4);
        for i in 0..7 {
            r.emit(i, window(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 3);
        let recs = r.records();
        // Oldest surviving record is emission 3.
        assert_eq!(
            recs.iter().map(|r| r.at).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
    }

    #[test]
    fn partial_ring_with_a_nonzero_head_is_refused() {
        use desim::snap::{Snap, SnapError, SnapReader, SnapWriter};
        // Five records, head `head`, nothing dropped.
        let state = |head: usize| {
            let mut w = SnapWriter::new();
            (0..5)
                .map(|i| TraceRecord {
                    at: i,
                    event: window(i),
                })
                .collect::<Vec<_>>()
                .save(&mut w);
            w.usize(head);
            w.u64(0);
            w.into_bytes()
        };
        let load = |capacity: usize, head: usize| {
            RingRecorder::new(capacity).load_state(&mut SnapReader::new(&state(head)))
        };
        // A ring that never filled never moved its head.
        assert!(load(8, 0).is_ok());
        assert!(matches!(load(8, 3), Err(SnapError::Format(_))));
        // A full ring may start anywhere below its capacity.
        assert!(load(5, 3).is_ok());
        assert!(matches!(load(5, 5), Err(SnapError::Format(_))));
    }

    #[test]
    fn take_records_drains() {
        let mut r = RingRecorder::new(4);
        r.emit(1, window(1));
        assert_eq!(r.take_records().len(), 1);
        assert!(r.is_empty());
        assert!(r.records().is_empty());
    }

    #[test]
    fn tracer_from_config() {
        let mut t = Tracer::from_config(TraceConfig::off());
        assert!(!t.enabled());
        t.emit(0, window(0));
        assert!(t.take_records().is_empty());

        let mut t = Tracer::from_config(TraceConfig {
            enabled: true,
            capacity: 16,
        });
        assert!(t.enabled());
        t.emit(7, window(1));
        let recs = t.take_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].at, 7);
    }

    #[test]
    fn zero_capacity_config_falls_back_to_default() {
        let t = Tracer::from_config(TraceConfig {
            enabled: true,
            capacity: 0,
        });
        assert!(t.enabled());
    }
}
