//! Injection-trace record and replay, with a versioned on-disk format.
//!
//! Traces make cross-configuration comparisons exact: record the injections
//! of one run (cycle, src, dst) and replay the identical workload against a
//! different network configuration. A distribution-wise A/B (two Bernoulli
//! runs with the same load) blurs small DPM/DBR effects behind sampling
//! noise; a replayed trace turns the comparison into a deterministic,
//! packet-for-packet diff.
//!
//! One format, self-describing and checksummed: the compact binary
//! `.ertr`, on the shared [`desim::snap`] container — magic + version
//! header, the [`TraceMeta`] provenance block, LEB128 varint entries with
//! delta-encoded cycles, and the [`seal`] checksum over everything before
//! it.
//!
//! Library code never panics on bad input: recording out of order and every
//! decode failure surface as a typed [`TraceError`].

use desim::snap::{fnv1a, seal, unseal, SnapError, SnapReader, SnapWriter};
use desim::Cycle;
use std::path::Path;

/// On-disk format version written (and the only one accepted) by this
/// build. Bump on any incompatible layout change.
const TRACE_FORMAT_VERSION: u16 = 1;

/// Magic bytes opening a binary trace file.
const TRACE_MAGIC: [u8; 4] = *b"ERTR";

/// One recorded injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Injection cycle.
    pub cycle: Cycle,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
}

/// A typed error from trace recording, encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// `record` was called with a cycle before the previous entry's.
    OutOfOrder {
        /// The offending cycle.
        at: Cycle,
        /// The last recorded cycle.
        last: Cycle,
    },
    /// Either form failed to decode (bad magic, version skew, checksum,
    /// truncation, malformed varint/JSON, an out-of-range field, trailing
    /// garbage) or its file failed to read or write.
    Decode(SnapError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::OutOfOrder { at, last } => {
                write!(f, "trace must be time-ordered: cycle {at} after {last}")
            }
            TraceError::Decode(e) => write!(f, "bad trace: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<SnapError> for TraceError {
    fn from(e: SnapError) -> Self {
        TraceError::Decode(e)
    }
}

/// Provenance header carried by every persisted trace: enough to know what
/// workload the entries are and which build recorded them.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Master RNG seed of the recording run.
    pub seed: u64,
    /// Boards (B) of the recording system.
    pub boards: u16,
    /// Nodes per board (D) of the recording system.
    pub nodes_per_board: u16,
    /// Traffic pattern name (see `TrafficPattern::name`).
    pub pattern: String,
    /// Normalised offered load of the recording run.
    pub load: f64,
    /// Short commit hash of the recording build ("unknown" outside a
    /// checkout).
    pub git_sha: String,
}

impl Default for TraceMeta {
    fn default() -> Self {
        Self {
            seed: 0,
            boards: 0,
            nodes_per_board: 0,
            pattern: String::new(),
            load: 0.0,
            git_sha: "unknown".to_string(),
        }
    }
}

/// An append-only injection trace.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    entries: Vec<TraceEntry>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one injection. Cycles must be non-decreasing; recording out
    /// of order is a caller bug reported as [`TraceError::OutOfOrder`]
    /// (the entry is not appended).
    pub fn record(&mut self, cycle: Cycle, src: u32, dst: u32) -> Result<(), TraceError> {
        if let Some(last) = self.entries.last() {
            if cycle < last.cycle {
                return Err(TraceError::OutOfOrder {
                    at: cycle,
                    last: last.cycle,
                });
            }
        }
        self.entries.push(TraceEntry { cycle, src, dst });
        Ok(())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Attaches provenance, producing a persistable [`InjectionTrace`].
    pub fn into_trace(self, meta: TraceMeta) -> InjectionTrace {
        InjectionTrace {
            meta,
            entries: self.entries,
        }
    }

    /// Serializes the recorded entries for a checkpoint.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        self.entries.save(w);
    }

    /// Replaces the recorded entries from a checkpoint.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::Snap;
        self.entries = Vec::<TraceEntry>::load(r)?;
        Ok(())
    }
}

impl desim::snap::Snap for TraceEntry {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.u64(self.cycle);
        w.u32(self.src);
        w.u32(self.dst);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        Ok(Self {
            cycle: r.u64()?,
            src: r.u32()?,
            dst: r.u32()?,
        })
    }
}

/// Replays a trace in cycle order.
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    entries: Vec<TraceEntry>,
    pos: usize,
}

impl TraceReplayer {
    /// Builds a replayer over time-ordered `entries` (validated).
    #[cfg(test)]
    fn from_entries(entries: Vec<TraceEntry>) -> Result<Self, TraceError> {
        for pair in entries.windows(2) {
            if pair[1].cycle < pair[0].cycle {
                return Err(TraceError::OutOfOrder {
                    at: pair[1].cycle,
                    last: pair[0].cycle,
                });
            }
        }
        Ok(Self { entries, pos: 0 })
    }

    /// The next injection due at or before `now`, advancing the cursor —
    /// the allocation-free form the cycle hot path uses.
    #[inline]
    pub fn pop_due(&mut self, now: Cycle) -> Option<TraceEntry> {
        let e = self.entries.get(self.pos)?;
        if e.cycle <= now {
            self.pos += 1;
            Some(*e)
        } else {
            None
        }
    }

    /// All injections due at exactly `now` (advances the cursor).
    pub fn due(&mut self, now: Cycle) -> Vec<TraceEntry> {
        let mut out = Vec::new();
        while let Some(e) = self.pop_due(now) {
            out.push(e);
        }
        out
    }

    /// Entries not yet replayed.
    pub fn remaining(&self) -> usize {
        self.entries.len() - self.pos
    }

    /// True when the trace is exhausted.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Serializes the replay cursor. The entries themselves are *not*
    /// persisted — a restored run re-installs the same trace from its
    /// file, so only the position (plus a length check) is needed.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        w.usize(self.entries.len());
        w.usize(self.pos);
    }

    /// Overlays a checkpointed replay cursor onto this (identical) trace.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        r.len_eq(self.entries.len(), "replay trace entries")?;
        let pos = r.usize()?;
        if pos > self.entries.len() {
            return Err(desim::snap::SnapError::Format(format!(
                "replay cursor {pos} beyond {} entries",
                self.entries.len()
            )));
        }
        self.pos = pos;
        Ok(())
    }
}

/// A recorded workload with provenance: the unit of persistence and the
/// input to replayed runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InjectionTrace {
    /// Provenance header.
    pub meta: TraceMeta,
    /// Time-ordered injections.
    pub entries: Vec<TraceEntry>,
}

/// Reads a varint-length-prefixed UTF-8 meta string (at most 4 KiB).
fn read_str(r: &mut SnapReader<'_>, what: &str) -> Result<String, SnapError> {
    let len = r.varint()?;
    if len > 4096 {
        return Err(SnapError::Format(format!("{what} string too long ({len})")));
    }
    String::from_utf8(r.bytes(len as usize)?.to_vec())
        .map_err(|_| SnapError::Format(format!("{what} is not UTF-8")))
}

/// Narrows a decoded integer to its field's type.
fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, SnapError> {
    T::try_from(v).map_err(|_| SnapError::Format(format!("{what} {v} out of range")))
}

impl InjectionTrace {
    /// Checksum over the canonical binary payload (header + entries) —
    /// the value [`Self::to_binary`] appends and [`Self::from_binary`] verifies.
    pub fn checksum(&self) -> u64 {
        fnv1a(&self.payload_bytes())
    }

    /// A replayer over a copy of the entries (the trace is typically shared
    /// read-only across the replay points of one comparison).
    pub fn replayer(&self) -> TraceReplayer {
        TraceReplayer {
            entries: self.entries.clone(),
            pos: 0,
        }
    }

    fn payload_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_capacity(64 + self.entries.len() * 4);
        w.header(&TRACE_MAGIC, TRACE_FORMAT_VERSION);
        w.u64(self.meta.seed);
        w.u16(self.meta.boards);
        w.u16(self.meta.nodes_per_board);
        w.f64(self.meta.load);
        for s in [&self.meta.pattern, &self.meta.git_sha] {
            w.varint(s.len() as u64);
            w.bytes(s.as_bytes());
        }
        w.varint(self.entries.len() as u64);
        let mut last = 0u64;
        for e in &self.entries {
            // Cycles are non-decreasing, so the delta encoding never
            // underflows for a trace built through the recorder.
            w.varint(e.cycle.wrapping_sub(last));
            w.varint(e.src.into());
            w.varint(e.dst.into());
            last = e.cycle;
        }
        w.into_bytes()
    }

    /// Serializes to the compact binary format (payload + FNV-1a trailer).
    pub fn to_binary(&self) -> Vec<u8> {
        seal(self.payload_bytes())
    }

    /// Decodes the compact binary format, verifying checksum, magic and
    /// version, and that entries are time-ordered.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = SnapReader::new(unseal(bytes)?);
        r.header(&TRACE_MAGIC, TRACE_FORMAT_VERSION)?;
        let meta = TraceMeta {
            seed: r.u64()?,
            boards: r.u16()?,
            nodes_per_board: r.u16()?,
            load: r.f64()?,
            pattern: read_str(&mut r, "pattern")?,
            git_sha: read_str(&mut r, "git_sha")?,
        };
        // An entry is at least three one-byte varints: bound the count by
        // the bytes left before allocating for it.
        let count = r.varint()?;
        if count > (r.remaining() / 3) as u64 {
            return Err(SnapError::Format(format!(
                "entry count {count} exceeds the {} bytes left",
                r.remaining()
            ))
            .into());
        }
        let mut rec = TraceRecorder {
            entries: Vec::with_capacity(count as usize),
        };
        let mut last = 0u64;
        for _ in 0..count {
            let cycle = last.wrapping_add(r.varint()?);
            rec.record(
                cycle,
                narrow(r.varint()?, "src")?,
                narrow(r.varint()?, "dst")?,
            )?;
            last = cycle;
        }
        r.expect_end()?;
        Ok(rec.into_trace(meta))
    }

    /// Writes the compact binary form to `path`.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        std::fs::write(path, self.to_binary()).map_err(|e| SnapError::Io(e.to_string()).into())
    }

    /// Loads the compact binary form from `path`.
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| SnapError::Io(e.to_string()))?;
        Self::from_binary(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InjectionTrace {
        let mut rec = TraceRecorder::new();
        rec.record(0, 1, 2).unwrap();
        rec.record(0, 3, 4).unwrap();
        rec.record(5, 1, 6).unwrap();
        rec.record(1000, 15, 0).unwrap();
        rec.into_trace(TraceMeta {
            seed: 0xE4A9_1D07,
            boards: 4,
            nodes_per_board: 4,
            pattern: "uniform".to_string(),
            load: 0.3,
            git_sha: "deadbeef".to_string(),
        })
    }

    #[test]
    fn record_and_replay_round_trip() {
        let mut rec = TraceRecorder::new();
        rec.record(0, 1, 2).unwrap();
        rec.record(0, 3, 4).unwrap();
        rec.record(5, 1, 6).unwrap();
        assert_eq!(rec.len(), 3);
        assert!(!rec.is_empty());
        let mut rep = rec.into_trace(TraceMeta::default()).replayer();
        let at0 = rep.due(0);
        assert_eq!(at0.len(), 2);
        assert_eq!(at0[0].src, 1);
        assert_eq!(rep.remaining(), 1);
        assert!(rep.due(4).is_empty());
        let at5 = rep.due(5);
        assert_eq!(at5.len(), 1);
        assert_eq!(at5[0].dst, 6);
        assert!(rep.is_done());
    }

    #[test]
    fn due_skips_ahead_over_gaps() {
        let mut rec = TraceRecorder::new();
        rec.record(2, 0, 1).unwrap();
        rec.record(7, 0, 2).unwrap();
        let mut rep = rec.into_trace(TraceMeta::default()).replayer();
        // Jumping straight to cycle 10 yields both entries.
        assert_eq!(rep.due(10).len(), 2);
    }

    #[test]
    fn out_of_order_record_is_a_typed_error() {
        let mut rec = TraceRecorder::new();
        rec.record(5, 0, 1).unwrap();
        let err = rec.record(4, 0, 1).unwrap_err();
        assert_eq!(err, TraceError::OutOfOrder { at: 4, last: 5 });
        assert!(err.to_string().contains("time-ordered"));
        // The bad entry was not appended.
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn pop_due_matches_due() {
        let mut a = sample().replayer();
        let mut b = sample().replayer();
        for now in 0..=1000 {
            let batch = a.due(now);
            let mut singles = Vec::new();
            while let Some(e) = b.pop_due(now) {
                singles.push(e);
            }
            assert_eq!(batch, singles, "cycle {now}");
        }
        assert!(a.is_done() && b.is_done());
    }

    #[test]
    fn from_entries_validates_order() {
        let good = vec![
            TraceEntry {
                cycle: 1,
                src: 0,
                dst: 1,
            },
            TraceEntry {
                cycle: 3,
                src: 0,
                dst: 2,
            },
        ];
        assert!(TraceReplayer::from_entries(good.clone()).is_ok());
        let bad = vec![good[1], good[0]];
        assert!(matches!(
            TraceReplayer::from_entries(bad),
            Err(TraceError::OutOfOrder { at: 1, last: 3 })
        ));
    }

    #[test]
    fn binary_round_trip_is_lossless() {
        let t = sample();
        let bytes = t.to_binary();
        let back = InjectionTrace::from_binary(&bytes).unwrap();
        assert_eq!(t, back);
        assert_eq!(t.checksum(), back.checksum());
    }

    #[test]
    fn corrupted_binary_is_rejected() {
        let t = sample();
        let mut bytes = t.to_binary();
        // Flip one payload byte: checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(
            InjectionTrace::from_binary(&bytes),
            Err(TraceError::Decode(SnapError::Checksum { .. }))
        ));
        // Truncation is a format error (trailer checksum can't match or
        // header is short).
        assert!(InjectionTrace::from_binary(&t.to_binary()[..10]).is_err());
        // Wrong magic.
        let mut bad = t.to_binary();
        bad[0] = b'X';
        assert!(InjectionTrace::from_binary(&bad).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample().payload_bytes();
        bytes[4] = 99; // version field, LE low byte
        assert_eq!(
            InjectionTrace::from_binary(&seal(bytes)),
            Err(TraceError::Decode(SnapError::Version(99)))
        );
    }

    #[test]
    fn file_round_trip_is_lossless() {
        let dir = std::env::temp_dir().join(format!("ertr-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let t = sample();
        let bin = dir.join("t.ertr");
        t.save(&bin).unwrap();
        assert_eq!(InjectionTrace::load(&bin).unwrap(), t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            InjectionTrace::load(Path::new("/nonexistent/erapid.ertr")),
            Err(TraceError::Decode(SnapError::Io(_)))
        ));
    }
}
