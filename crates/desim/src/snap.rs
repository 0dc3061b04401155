//! Binary state-snapshot substrate for checkpoint/restore.
//!
//! Long-horizon runs must survive being killed: the simulator periodically
//! serializes its full mutable state and a resumed process continues
//! byte-identically to an uninterrupted one. This module is the byte-level
//! layer every crate's `save_state`/`load_state` hooks are written against:
//!
//! * [`SnapWriter`] / [`SnapReader`] — little-endian primitive encoding
//!   with typed truncation errors (no panics on corrupt input),
//! * [`Snap`] — the round-trip trait for value types (flits, packets, RNG
//!   streams); container structs instead expose `load_state(&mut self)`
//!   overlay restores so config-derived geometry (capacities, route
//!   tables) is rebuilt from the config rather than persisted,
//! * [`fnv1a`] / [`fnv1a_update`] — the FNV-1a-64 checksum the snapshot
//!   format carries, the same discipline as the `.ertr` trace format.
//!
//! Restore is *strict*: every length read from the stream must match the
//! geometry of the freshly-built target, and every byte of the payload
//! must be consumed. A mismatch is a typed [`SnapError`], never a panic —
//! the checkpoint layer treats any error as "this snapshot is bad, fall
//! back to the previous one".

use crate::Cycle;

/// Typed error from snapshot encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream is malformed (truncation, bad tag, trailing bytes).
    Format(String),
    /// The snapshot declares a format version this build does not read.
    Version(u16),
    /// The stored checksum does not match the payload.
    Checksum {
        /// Checksum stored in the snapshot.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The snapshot was taken under a different configuration than the
    /// system it is being restored into.
    Mismatch(String),
    /// Filesystem I/O failed (message of the underlying error).
    Io(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Format(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapError::Checksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::Mismatch(msg) => write!(f, "snapshot/config mismatch: {msg}"),
            SnapError::Io(msg) => write!(f, "snapshot I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a-64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a-64 hash (start from [`FNV_OFFSET`]).
#[inline]
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One-shot FNV-1a-64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a 4-byte section tag — cheap structure markers that turn a
    /// mis-aligned decode into an immediate, located error instead of a
    /// silent garbage read.
    pub fn tag(&mut self, t: &[u8; 4]) {
        self.buf.extend_from_slice(t);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` by its IEEE-754 bits — restores are bit-exact.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes raw bytes (caller handles length framing).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Sequential reader with typed truncation errors.
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Format(format!(
                "{} trailing bytes after snapshot payload",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                SnapError::Format(format!("truncated at offset {} (need {n})", self.pos))
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads and verifies a 4-byte section tag.
    pub fn tag(&mut self, t: &[u8; 4]) -> Result<(), SnapError> {
        let at = self.pos;
        let got = self.take(4)?;
        if got != t {
            return Err(SnapError::Format(format!(
                "expected section {:?} at offset {at}, found {:?}",
                String::from_utf8_lossy(t),
                String::from_utf8_lossy(got)
            )));
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (strict: only 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Format(format!("bad bool byte {b:#x}"))),
        }
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` (stored as `u64`; errors on overflow).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Format(format!("usize overflow ({v})")))
    }

    /// Reads an `f64` from its stored bits.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length that must equal `expect` — the overlay-restore
    /// geometry check (`what` names the field in the error).
    pub fn len_eq(&mut self, expect: usize, what: &str) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n != expect {
            return Err(SnapError::Mismatch(format!(
                "{what}: snapshot has {n} elements, target expects {expect}"
            )));
        }
        Ok(n)
    }

    /// Reads a length bounded by `max` (guards pre-allocation against a
    /// corrupt stream claiming absurd sizes).
    pub fn len_at_most(&mut self, max: usize, what: &str) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > max {
            return Err(SnapError::Format(format!(
                "{what}: implausible length {n} (cap {max})"
            )));
        }
        Ok(n)
    }
}

/// Round-trip serialization for value types. Container structs whose
/// geometry comes from the configuration implement `load_state(&mut
/// self)` overlays instead (see the module docs).
pub trait Snap: Sized {
    /// Appends this value's encoding.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes one value.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for u8 {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Snap for u16 {
    fn save(&self, w: &mut SnapWriter) {
        w.u16(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u16()
    }
}

impl Snap for u32 {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl Snap for u64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.usize()
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.bool()
    }
}

impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.f64(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.f64()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            b => Err(SnapError::Format(format!("bad Option tag {b:#x}"))),
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Elements a corrupt stream may claim before allocation is refused.
/// Generous for any real snapshot (hundreds of millions), tiny next to
/// address space.
const MAX_SEQ: usize = 1 << 30;

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_at_most(MAX_SEQ, "Vec")?;
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for std::collections::VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_at_most(MAX_SEQ, "VecDeque")?;
        let mut out = std::collections::VecDeque::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        w.bytes(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_at_most(1 << 20, "String")?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Format("string is not UTF-8".to_string()))
    }
}

/// Overwrites `dst` (fixed geometry) element-wise from the stream; the
/// stored length must match `dst.len()` exactly.
pub fn load_slice_into<T: Snap>(
    r: &mut SnapReader<'_>,
    dst: &mut [T],
    what: &str,
) -> Result<(), SnapError> {
    r.len_eq(dst.len(), what)?;
    for v in dst.iter_mut() {
        *v = T::load(r)?;
    }
    Ok(())
}

/// Saves a slice with its length (the mirror of [`load_slice_into`]).
pub fn save_slice<T: Snap>(w: &mut SnapWriter, src: &[T]) {
    w.usize(src.len());
    for v in src {
        v.save(w);
    }
}

/// Loads an owned `Vec` whose stored length must equal `expect` — the
/// geometry-checked twin of `Vec::<T>::load` for fields whose length is
/// config-derived (RNG stream banks, per-flow flag vectors).
pub fn load_vec_exact<T: Snap>(
    r: &mut SnapReader<'_>,
    expect: usize,
    what: &str,
) -> Result<Vec<T>, SnapError> {
    r.len_eq(expect, what)?;
    let mut out = Vec::with_capacity(expect);
    for _ in 0..expect {
        out.push(T::load(r)?);
    }
    Ok(out)
}

/// `Cycle` already encodes as `u64`; re-exported alias for hook clarity.
pub type SnapCycle = Cycle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.bool(true);
        w.usize(42);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 42);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert!(matches!(r.u64(), Err(SnapError::Format(_))));
    }

    #[test]
    fn bad_bool_and_option_tags_rejected() {
        let bytes = [9u8];
        assert!(matches!(
            SnapReader::new(&bytes).bool(),
            Err(SnapError::Format(_))
        ));
        assert!(matches!(
            <Option<u8> as Snap>::load(&mut SnapReader::new(&bytes)),
            Err(SnapError::Format(_))
        ));
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(u32, bool)> = vec![(1, true), (2, false)];
        let mut dq = std::collections::VecDeque::new();
        dq.push_back(3u64);
        dq.push_back(4u64);
        let opt: Option<f64> = Some(1.5);
        let s = "hot\"spot λ".to_string();
        let mut w = SnapWriter::new();
        v.save(&mut w);
        dq.save(&mut w);
        opt.save(&mut w);
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<(u32, bool)>::load(&mut r).unwrap(), v);
        assert_eq!(std::collections::VecDeque::<u64>::load(&mut r).unwrap(), dq);
        assert_eq!(Option::<f64>::load(&mut r).unwrap(), opt);
        assert_eq!(String::load(&mut r).unwrap(), s);
        r.expect_end().unwrap();
    }

    #[test]
    fn tags_catch_misalignment() {
        let mut w = SnapWriter::new();
        w.tag(b"BRDS");
        w.u8(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.tag(b"SRSQ").is_err());
        let mut r = SnapReader::new(&bytes);
        r.tag(b"BRDS").unwrap();
        assert_eq!(r.u8().unwrap(), 1);
    }

    #[test]
    fn geometry_mismatch_is_typed() {
        let mut w = SnapWriter::new();
        save_slice(&mut w, &[1u8, 2, 3]);
        let bytes = w.into_bytes();
        let mut dst = [0u8; 2];
        let err = load_slice_into(&mut SnapReader::new(&bytes), &mut dst, "field").unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)));
    }

    #[test]
    fn load_vec_exact_checks_geometry() {
        let mut w = SnapWriter::new();
        save_slice(&mut w, &[10u32, 20, 30]);
        let bytes = w.into_bytes();
        let v = load_vec_exact::<u32>(&mut SnapReader::new(&bytes), 3, "field").unwrap();
        assert_eq!(v, vec![10, 20, 30]);
        let err = load_vec_exact::<u32>(&mut SnapReader::new(&bytes), 4, "field").unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)));
    }

    #[test]
    fn fnv_matches_reference() {
        // FNV-1a-64 of empty input is the offset basis.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        // Incremental == one-shot.
        let h = fnv1a_update(fnv1a_update(FNV_OFFSET, b"he"), b"llo");
        assert_eq!(h, fnv1a(b"hello"));
    }
}
