//! Preallocated ring-buffer recorder and the plain-data trace configuration
//! that rides inside `SystemConfig`.

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::TraceSink;
use desim::Cycle;

/// Ring capacity of every traced system: generous for a paper-scale run
/// (a 40-window paper64 run emits a few thousand events) while staying a
/// bounded, one-time allocation. A longer run streams its trace at every
/// window boundary instead (`erapid_core::stream`).
const CAPACITY: usize = 1 << 16;

/// The plain-data tracing switch.
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
}

impl TraceConfig {
    /// Tracing disabled (the default for every stock config).
    pub fn off() -> Self {
        TraceConfig { enabled: false }
    }

    /// Full-fidelity tracing into a 2^16-event ring.
    pub fn on() -> Self {
        TraceConfig { enabled: true }
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
        if cfg.enabled {
            Tracer::Ring(RingRecorder::new(CAPACITY))
        } else {
            Tracer::Null
        }
    }

    /// True when no record is held (always, for the null tracer).
    pub fn is_empty(&self) -> bool {
        match self {
            Tracer::Null => true,
            Tracer::Ring(r) => r.is_empty(),
        }
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

    /// Serializes the tracer's variant tag and, for a ring, its dropped
    /// count. The records are not state: a checkpoint is taken only after
    /// they were drained, so the ring is empty here.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        match self {
            Tracer::Null => w.u8(0),
            Tracer::Ring(r) => {
                w.u8(1);
                w.u64(r.dropped);
            }
        }
    }

    /// Overlays a checkpointed dropped count onto an emptied ring; the
    /// stored variant must match the one this system was configured with.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::SnapError;
        let tag = r.u8()?;
        match (&mut *self, tag) {
            (Tracer::Null, 0) => Ok(()),
            (Tracer::Ring(ring), 1) => {
                ring.dropped = r.u64()?;
                ring.buf.clear();
                ring.head = 0;
                Ok(())
            }
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
            router_peak_flits: 0,
            lasers_on: 0,
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

        let mut t = Tracer::from_config(TraceConfig::on());
        assert!(t.enabled());
        t.emit(7, window(1));
        let recs = t.take_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].at, 7);
    }
}
