//! Injection-trace record and replay, with a versioned on-disk format.
//!
//! Traces make cross-configuration comparisons exact: record the injections
//! of one run (cycle, src, dst) and replay the identical workload against a
//! different network configuration. A distribution-wise A/B (two Bernoulli
//! runs with the same load) blurs small DPM/DBR effects behind sampling
//! noise; a replayed trace turns the comparison into a deterministic,
//! packet-for-packet diff.
//!
//! Two interchange formats, both self-describing and checksummed:
//!
//! * **compact binary** (`.ertr`) — magic + version header, the
//!   [`TraceMeta`] provenance block, LEB128 varint entries with
//!   delta-encoded cycles, and a trailing FNV-1a checksum over everything
//!   before it. This is the fixture/committed format.
//! * **JSONL** — one meta header object then one object per entry;
//!   grep/jq-friendly, parsed back by a small strict reader. This is the
//!   interchange format for external tools.
//!
//! Library code never panics on bad input: recording out of order and every
//! decode failure surface as a typed [`TraceError`].

use desim::snap::fnv1a;
use desim::Cycle;
use std::path::Path;

/// On-disk format version written (and the only one accepted) by this
/// build. Bump on any incompatible layout change.
pub const TRACE_FORMAT_VERSION: u16 = 1;

/// Magic bytes opening a binary trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"ERTR";

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
    /// The byte stream is not a valid trace (bad magic, truncation,
    /// malformed varint/JSON, trailing garbage).
    Format(String),
    /// The file declares a format version this build does not read.
    Version(u16),
    /// The stored checksum does not match the decoded content.
    Checksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the decoded bytes.
        computed: u64,
    },
    /// Filesystem I/O failed (message of the underlying error).
    Io(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::OutOfOrder { at, last } => {
                write!(f, "trace must be time-ordered: cycle {at} after {last}")
            }
            TraceError::Format(msg) => write!(f, "malformed trace: {msg}"),
            TraceError::Version(v) => write!(
                f,
                "unsupported trace format version {v} (this build reads {TRACE_FORMAT_VERSION})"
            ),
            TraceError::Checksum { stored, computed } => write!(
                f,
                "trace checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::Io(msg) => write!(f, "trace I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

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

    /// Converts into a replayer.
    pub fn into_replay(self) -> TraceReplayer {
        TraceReplayer {
            entries: self.entries,
            pos: 0,
        }
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
    pub fn from_entries(entries: Vec<TraceEntry>) -> Result<Self, TraceError> {
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

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Sequential byte reader with typed truncation errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| TraceError::Format(format!("truncated reading {what}")))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self, what: &str) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1, what)?[0];
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(TraceError::Format(format!("varint overflow in {what}")))
    }

    fn string(&mut self, what: &str) -> Result<String, TraceError> {
        let len = self.varint(what)? as usize;
        if len > 4096 {
            return Err(TraceError::Format(format!(
                "{what} string too long ({len})"
            )));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TraceError::Format(format!("{what} is not UTF-8")))
    }
}

impl InjectionTrace {
    /// Checksum over the canonical binary payload (header + entries) —
    /// the value [`Self::to_binary`] appends and both loaders verify.
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
        let mut out = Vec::with_capacity(64 + self.entries.len() * 4);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.meta.seed.to_le_bytes());
        out.extend_from_slice(&self.meta.boards.to_le_bytes());
        out.extend_from_slice(&self.meta.nodes_per_board.to_le_bytes());
        out.extend_from_slice(&self.meta.load.to_bits().to_le_bytes());
        push_str(&mut out, &self.meta.pattern);
        push_str(&mut out, &self.meta.git_sha);
        push_varint(&mut out, self.entries.len() as u64);
        let mut last = 0u64;
        for e in &self.entries {
            // Cycles are non-decreasing, so the delta encoding never
            // underflows for a trace built through the recorder.
            push_varint(&mut out, e.cycle.wrapping_sub(last));
            push_varint(&mut out, e.src as u64);
            push_varint(&mut out, e.dst as u64);
            last = e.cycle;
        }
        out
    }

    /// Serializes to the compact binary format (payload + FNV-1a trailer).
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = self.payload_bytes();
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes the compact binary format, verifying magic, version and
    /// checksum, and that entries are time-ordered.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < TRACE_MAGIC.len() + 2 + 8 {
            return Err(TraceError::Format("file shorter than header".to_string()));
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(
            trailer
                .try_into()
                .map_err(|_| TraceError::Format("bad checksum trailer".to_string()))?,
        );
        let computed = fnv1a(payload);
        if stored != computed {
            return Err(TraceError::Checksum { stored, computed });
        }
        let mut r = Reader {
            bytes: payload,
            pos: 0,
        };
        if r.take(4, "magic")? != TRACE_MAGIC {
            return Err(TraceError::Format(
                "bad magic (not an ERTR file)".to_string(),
            ));
        }
        let version = u16::from_le_bytes(
            r.take(2, "version")?
                .try_into()
                .map_err(|_| TraceError::Format("bad version field".to_string()))?,
        );
        if version != TRACE_FORMAT_VERSION {
            return Err(TraceError::Version(version));
        }
        let seed = u64::from_le_bytes(
            r.take(8, "seed")?
                .try_into()
                .map_err(|_| TraceError::Format("bad seed field".to_string()))?,
        );
        let fixed = |b: &[u8], what: &str| -> Result<u16, TraceError> {
            Ok(u16::from_le_bytes(b.try_into().map_err(|_| {
                TraceError::Format(format!("bad {what} field"))
            })?))
        };
        let boards = fixed(r.take(2, "boards")?, "boards")?;
        let nodes_per_board = fixed(r.take(2, "nodes_per_board")?, "nodes_per_board")?;
        let load = f64::from_bits(u64::from_le_bytes(
            r.take(8, "load")?
                .try_into()
                .map_err(|_| TraceError::Format("bad load field".to_string()))?,
        ));
        let pattern = r.string("pattern")?;
        let git_sha = r.string("git_sha")?;
        let count = r.varint("entry count")? as usize;
        if count > 1 << 28 {
            return Err(TraceError::Format(format!(
                "implausible entry count {count}"
            )));
        }
        let mut rec = TraceRecorder::new();
        let mut last = 0u64;
        for i in 0..count {
            let cycle = last.wrapping_add(r.varint("cycle delta")?);
            let src = r.varint("src")?;
            let dst = r.varint("dst")?;
            if src > u32::MAX as u64 || dst > u32::MAX as u64 {
                return Err(TraceError::Format(format!("entry {i}: node id overflow")));
            }
            rec.record(cycle, src as u32, dst as u32)?;
            last = cycle;
        }
        if r.pos != payload.len() {
            return Err(TraceError::Format(format!(
                "{} trailing bytes after entries",
                payload.len() - r.pos
            )));
        }
        Ok(Self {
            meta: TraceMeta {
                seed,
                boards,
                nodes_per_board,
                pattern,
                load,
                git_sha,
            },
            entries: rec.entries,
        })
    }

    /// Serializes to JSONL interchange: a meta header line, then one object
    /// per entry. Deterministic (Rust's shortest-round-trip floats).
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.entries.len() * 32);
        let _ = writeln!(
            out,
            "{{\"erapid_trace\":{},\"seed\":{},\"boards\":{},\"nodes_per_board\":{},\"load\":{},\"pattern\":\"{}\",\"git_sha\":\"{}\",\"entries\":{},\"checksum\":\"{:016x}\"}}",
            TRACE_FORMAT_VERSION,
            self.meta.seed,
            self.meta.boards,
            self.meta.nodes_per_board,
            self.meta.load,
            json_escape(&self.meta.pattern),
            json_escape(&self.meta.git_sha),
            self.entries.len(),
            self.checksum(),
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{{\"cycle\":{},\"src\":{},\"dst\":{}}}",
                e.cycle, e.src, e.dst
            );
        }
        out
    }

    /// Parses the JSONL interchange form. Strict about our own fields,
    /// tolerant of key order; verifies the header checksum when present.
    pub fn from_jsonl(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| TraceError::Format("empty JSONL document".to_string()))?;
        let version = json_u64(header, "erapid_trace")?;
        if version != TRACE_FORMAT_VERSION as u64 {
            return Err(TraceError::Version(version as u16));
        }
        let meta = TraceMeta {
            seed: json_u64(header, "seed")?,
            boards: json_u64(header, "boards")? as u16,
            nodes_per_board: json_u64(header, "nodes_per_board")? as u16,
            load: json_f64(header, "load")?,
            pattern: json_str(header, "pattern")?,
            git_sha: json_str(header, "git_sha")?,
        };
        let declared = json_u64(header, "entries")? as usize;
        let stored = u64::from_str_radix(&json_str(header, "checksum")?, 16)
            .map_err(|_| TraceError::Format("checksum is not hex".to_string()))?;
        let mut rec = TraceRecorder::new();
        for line in lines {
            rec.record(
                json_u64(line, "cycle")?,
                json_u64(line, "src")? as u32,
                json_u64(line, "dst")? as u32,
            )?;
        }
        if rec.len() != declared {
            return Err(TraceError::Format(format!(
                "header declares {declared} entries, found {}",
                rec.len()
            )));
        }
        let trace = Self {
            meta,
            entries: rec.entries,
        };
        let computed = trace.checksum();
        if stored != computed {
            return Err(TraceError::Checksum { stored, computed });
        }
        Ok(trace)
    }

    /// Writes the compact binary form to `path`.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        std::fs::write(path, self.to_binary()).map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Loads the compact binary form from `path`.
    pub fn load(path: &Path) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io(e.to_string()))?;
        Self::from_binary(&bytes)
    }

    /// Writes the JSONL interchange form to `path`.
    pub fn save_jsonl(&self, path: &Path) -> Result<(), TraceError> {
        std::fs::write(path, self.to_jsonl()).map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Loads the JSONL interchange form from `path`.
    pub fn load_jsonl(path: &Path) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path).map_err(|e| TraceError::Io(e.to_string()))?;
        Self::from_jsonl(&text)
    }
}

/// Extracts the raw token after `"key":` in a single-line JSON object.
fn json_raw<'a>(line: &'a str, key: &str) -> Result<&'a str, TraceError> {
    let needle = format!("\"{key}\":");
    let start = line
        .find(&needle)
        .ok_or_else(|| TraceError::Format(format!("missing key {key}")))?
        + needle.len();
    let rest = &line[start..];
    let end = if rest.starts_with('"') {
        // String value: scan to the closing quote, honouring escapes.
        let bytes = rest.as_bytes();
        let mut i = 1;
        loop {
            match bytes.get(i) {
                None => {
                    return Err(TraceError::Format(format!("unterminated string for {key}")));
                }
                Some(b'\\') => i += 2,
                Some(b'"') => break i + 1,
                Some(_) => i += 1,
            }
        }
    } else {
        rest.find([',', '}'])
            .ok_or_else(|| TraceError::Format(format!("unterminated value for {key}")))?
    };
    Ok(&rest[..end])
}

fn json_u64(line: &str, key: &str) -> Result<u64, TraceError> {
    json_raw(line, key)?
        .parse()
        .map_err(|_| TraceError::Format(format!("{key} is not an integer")))
}

fn json_f64(line: &str, key: &str) -> Result<f64, TraceError> {
    json_raw(line, key)?
        .parse()
        .map_err(|_| TraceError::Format(format!("{key} is not a number")))
}

fn json_str(line: &str, key: &str) -> Result<String, TraceError> {
    let raw = json_raw(line, key)?;
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| TraceError::Format(format!("{key} is not a string")))?;
    json_unescape(inner)
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`json_escape`] (plus the standard JSON escapes).
fn json_unescape(s: &str) -> Result<String, TraceError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| TraceError::Format(format!("bad \\u escape \\u{hex}")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| TraceError::Format(format!("bad code point {code:#x}")))?,
                );
            }
            other => {
                return Err(TraceError::Format(format!("bad escape \\{other:?}")));
            }
        }
    }
    Ok(out)
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
        let mut rep = rec.into_replay();
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
        let mut rep = rec.into_replay();
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
    fn jsonl_round_trip_is_lossless() {
        let t = sample();
        let text = t.to_jsonl();
        assert!(text.lines().count() == t.entries.len() + 1);
        let back = InjectionTrace::from_jsonl(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn jsonl_escapes_special_characters_in_strings() {
        let mut t = sample();
        t.meta.pattern = "hot\"spot\\λ\n".to_string();
        t.meta.git_sha = "\t\u{1}dirty".to_string();
        let text = t.to_jsonl();
        let back = InjectionTrace::from_jsonl(&text).unwrap();
        assert_eq!(t, back);
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
            Err(TraceError::Checksum { .. })
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
        let t = sample();
        let mut bytes = t.payload_bytes();
        bytes[4] = 99; // version field, LE low byte
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            InjectionTrace::from_binary(&bytes),
            Err(TraceError::Version(99))
        );
    }

    #[test]
    fn jsonl_rejects_tampered_entries() {
        let t = sample();
        let text = t.to_jsonl();
        let tampered = text.replacen("\"src\":1", "\"src\":9", 1);
        assert!(matches!(
            InjectionTrace::from_jsonl(&tampered),
            Err(TraceError::Checksum { .. })
        ));
    }

    #[test]
    fn file_round_trip_both_formats() {
        let dir = std::env::temp_dir().join(format!("ertr-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let t = sample();
        let bin = dir.join("t.ertr");
        let jl = dir.join("t.jsonl");
        t.save(&bin).unwrap();
        t.save_jsonl(&jl).unwrap();
        assert_eq!(InjectionTrace::load(&bin).unwrap(), t);
        assert_eq!(InjectionTrace::load_jsonl(&jl).unwrap(), t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            InjectionTrace::load(Path::new("/nonexistent/erapid.ertr")),
            Err(TraceError::Io(_))
        ));
    }
}
