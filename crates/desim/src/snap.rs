//! The binary container every on-disk format is written against.
//!
//! Three formats share one shape — a 4-byte magic, a `u16` version, a
//! body and an FNV-1a-64 checksum — and this module is the only code that
//! reads or writes it:
//!
//! * `.ersp` checkpoints (`erapid_core::checkpoint`): header + body,
//!   [`seal`]ed;
//! * `.ertr` injection traces (`traffic::trace`): header + meta + LEB128
//!   [`SnapWriter::varint`] entries, [`seal`]ed;
//! * `.erpd` delivery logs (`erapid_core::stream`): header + [`Snap`]
//!   records + an `END.` trailer whose checksum folds the records only,
//!   so the file can be appended to and truncated back to a cursor.
//!
//! The pieces:
//!
//! * [`SnapWriter`] / [`SnapReader`] — little-endian primitives, LEB128
//!   varints and the [`SnapReader::header`] magic/version check, with
//!   typed truncation errors (no panics on corrupt input);
//! * [`varint_push_back`] / [`varint_next`] — the same varints on an
//!   in-memory byte queue the caller owns (unchecked: not for input);
//! * [`seal`] / [`unseal`] — append and verify the trailing checksum;
//! * [`Snap`] — the round-trip trait for value types (flits, packets, RNG
//!   streams); every container struct instead pairs `save_state` with a
//!   `load_state(&mut self)` overlay onto a freshly built twin, so nothing
//!   the config fixes (capacities, route tables, meter and histogram
//!   geometry, windows) and nothing a recount of the restored contents
//!   gives (occupancies, heap tie-break numbers) is persisted;
//! * [`fnv1a`] / [`fnv1a_update`] — the FNV-1a-64 checksum itself.
//!
//! Decoding is *strict*: every length read from the stream must match the
//! geometry of the freshly-built target or fit the bytes that remain, and
//! every byte of the payload must be consumed. A mismatch is a typed
//! [`SnapError`], never a panic or an unbounded allocation — the
//! checkpoint layer treats any error as "this snapshot is bad, fall back
//! to the previous one".

/// Typed error from encoding or decoding any of the container formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input is malformed (truncation, bad tag, bad varint, trailing
    /// bytes, an out-of-range field).
    Format(String),
    /// The input declares a format version this build does not read.
    Version(u16),
    /// The stored checksum does not match the payload.
    Checksum {
        /// Checksum stored in the input.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The input was taken under a different configuration than the
    /// system it is being restored into.
    Mismatch(String),
    /// Filesystem I/O failed (message of the underlying error).
    Io(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Format(msg) => write!(f, "malformed input: {msg}"),
            SnapError::Version(v) => write!(f, "unsupported format version {v}"),
            SnapError::Checksum { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::Mismatch(msg) => write!(f, "config mismatch: {msg}"),
            SnapError::Io(msg) => write!(f, "I/O failed: {msg}"),
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

/// Appends the FNV-1a-64 of everything in `bytes` as a little-endian
/// trailer.
pub fn seal(mut bytes: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Verifies and strips a [`seal`] trailer, returning the payload before
/// it. Shorter than the trailer is `Format`; a wrong sum is `Checksum`.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapError> {
    let at = bytes
        .len()
        .checked_sub(8)
        .ok_or_else(|| SnapError::Format("shorter than its checksum".into()))?;
    let (payload, trailer) = bytes.split_at(at);
    let stored = SnapReader::new(trailer).u64()?;
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(SnapError::Checksum { stored, computed });
    }
    Ok(payload)
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

    /// Creates an empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
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

    /// Writes a container header: the 4-byte magic, then the `u16`
    /// format version.
    pub fn header(&mut self, magic: &[u8; 4], version: u16) {
        self.tag(magic);
        self.u16(version);
    }

    /// Writes a LEB128 varint: 7 bits per byte, low group first, the high
    /// bit set on every byte but the last.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Writes one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16`, little-endian.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    #[inline]
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

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Format(format!(
                "{} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Reads the next `n` raw bytes (caller handles length framing).
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
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

    /// Reads and verifies a container header written by
    /// [`SnapWriter::header`]: a wrong magic is `Format`, any other
    /// version is `Version`.
    pub fn header(&mut self, magic: &[u8; 4], version: u16) -> Result<(), SnapError> {
        self.tag(magic)?;
        match self.u16()? {
            v if v == version => Ok(()),
            v => Err(SnapError::Version(v)),
        }
    }

    /// Reads a LEB128 varint written by [`SnapWriter::varint`]. More than
    /// 64 bits of value (a tenth byte above 1, or an eleventh byte) is
    /// `Format`.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, SnapError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(SnapError::Format(format!(
            "varint overflows u64 at offset {}",
            self.pos
        )))
    }

    /// Reads and verifies a 4-byte section tag.
    pub fn tag(&mut self, t: &[u8; 4]) -> Result<(), SnapError> {
        let at = self.pos;
        let got = self.bytes(4)?;
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
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a bool (strict: only 0 or 1).
    #[inline]
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Format(format!("bad bool byte {b:#x}"))),
        }
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.bytes(8)?;
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

/// Appends `v` to an in-memory byte queue as a LEB128 varint, the bytes
/// [`SnapWriter::varint`] writes: the coding of `router`'s injector
/// backlogs, which pop packets off the front as they push them on the back.
#[inline]
pub fn varint_push_back(q: &mut std::collections::VecDeque<u8>, mut v: u64) {
    while v >= 0x80 {
        q.push_back(v as u8 | 0x80);
        v >>= 7;
    }
    q.push_back(v as u8);
}

/// Reads one varint pushed by [`varint_push_back`] from `bytes`. The bytes
/// are the caller's own, not input, so nothing is checked: a sequence
/// that ends inside a varint reads as if a zero byte followed, and groups
/// past the tenth are ignored.
#[inline]
pub fn varint_next(bytes: &mut impl Iterator<Item = u8>) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    while shift < 64 {
        let byte = bytes.next().unwrap_or(0);
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    v
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
        let bytes = r.bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Format("string is not UTF-8".to_string()))
    }
}

/// Saves a slice with its length (the mirror of [`load_vec_exact`]).
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
        let err = SnapReader::new(&bytes).len_eq(2, "field").unwrap_err();
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
    fn varint_round_trips_and_rejects_overflow() {
        let values = [0, 1, 0x7f, 0x80, 300, u64::MAX - 1, u64::MAX];
        let mut w = SnapWriter::new();
        values.iter().for_each(|&v| w.varint(v));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        for v in values {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.expect_end().unwrap();
        // The in-memory pair writes the same bytes and reads them back.
        let mut q = std::collections::VecDeque::new();
        values.iter().for_each(|&v| varint_push_back(&mut q, v));
        assert!(q.iter().eq(bytes.iter()));
        let mut it = q.into_iter();
        for v in values {
            assert_eq!(varint_next(&mut it), v);
        }
        assert_eq!(it.next(), None);
        // u64::MAX is nine 0xff bytes and a final 0x01: a larger tenth
        // group, an eleventh byte or a cut-off varint is malformed.
        let over = [&[0xff; 9][..], &[0x02]].concat();
        for bad in [&over[..], &[0xff; 11], &[0x80]] {
            let got = SnapReader::new(bad).varint();
            assert!(matches!(got, Err(SnapError::Format(_))), "{bad:?}");
        }
    }

    #[test]
    fn header_and_seal_are_checked_and_typed() {
        let mut w = SnapWriter::new();
        w.header(b"ERXX", 3);
        let sealed = seal(w.into_bytes());
        let payload = unseal(&sealed).unwrap();
        assert!(SnapReader::new(payload).header(b"ERXX", 3).is_ok());
        let wrong_magic = SnapReader::new(payload).header(b"ERYY", 3);
        assert!(matches!(wrong_magic, Err(SnapError::Format(_))));
        let skew = SnapReader::new(payload).header(b"ERXX", 4);
        assert_eq!(skew, Err(SnapError::Version(3)));
        // Shorter than the 8-byte trailer is malformed; a flip is caught.
        assert!(matches!(unseal(&sealed[..7]), Err(SnapError::Format(_))));
        let mut flipped = sealed.clone();
        flipped[2] ^= 1;
        assert!(matches!(unseal(&flipped), Err(SnapError::Checksum { .. })));
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
