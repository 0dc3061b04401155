//! Crash-safe checkpoint/restore of a running [`System`].
//!
//! A snapshot (`.ersp`) captures the *entire* mutable simulation state —
//! boards, router VA/SA lists, the SRS receiver slots and its wake/retune/
//! relock queues, occupancy integrals, fault-plan cursor, the injection
//! source (generator RNG streams, scenario RNG streams or a replay cursor,
//! as one tagged section) and the telemetry state that decides future
//! events — plus the [`StreamCursor`] of the streaming export, so a killed
//! run resumes byte-identical to an uninterrupted one. Only live state is
//! stored: a word that nothing reads is not kept frozen in the body, and
//! nothing the streaming sink already wrote (trace records, delivery rows)
//! is stored twice — a system holding either refuses to checkpoint.
//!
//! ## Snapshot layout
//!
//! | field | bytes | meaning |
//! |---|---|---|
//! | magic | 4 | `ERSP` |
//! | version | 2 | `SNAP_VERSION` (8) |
//! | fingerprint | 8 | FNV-1a-64 of `format!("{cfg:?}")` |
//! | cursor | 32 | [`StreamCursor`] (trace/delivery positions) |
//! | body | … | [`System::save_state`] byte stream |
//! | checksum | 8 | FNV-1a-64 over everything above |
//!
//! ## Atomicity and fallback
//!
//! Snapshots are written to `ckpt-<cycle>.ersp.tmp` and `rename`d into
//! place after an fsync, so a reader never observes a half-written file
//! under its final name. Restore ([`resume_latest`]) walks the directory's
//! snapshots newest-first and takes the first one whose checksum, magic,
//! version and config fingerprint all verify — a torn, truncated or
//! bit-flipped newest snapshot falls back to the previous good one
//! instead of panicking. [`Checkpointer`] keeps the last two on disk for
//! exactly this reason.
//!
//! Not serialized (config-derived or scratch): geometry, rate ladders,
//! power models, the fault *plan* (only its cursor), per-cycle scratch
//! buffers, and any in-flight message-level DBR round — checkpoints are
//! taken only at quiescent `R_w` boundaries (see
//! [`System::can_checkpoint`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::config::SystemConfig;
use crate::stream::StreamCursor;
use crate::system::System;
use desim::snap::{fnv1a, seal, unseal, Snap, SnapError, SnapReader, SnapWriter};
use desim::Cycle;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Magic prefix of a snapshot file.
const SNAP_MAGIC: [u8; 4] = *b"ERSP";
/// Snapshot format version this build reads and writes. Version 8 drops
/// the packet source from every in-flight record (router flits, TX-queue
/// and arrival packets, injector backlogs) and the occupancy integrals'
/// unread completed-window count. Version 7 stores
/// the SRS's settle queue in place of its pending grants, and drops the
/// threshold-watch dirty set (the per-flow pending flags and the occupancy
/// integrals' touched/steady latches). Version 6 holds no observations: no
/// trace records (only the tracer's dropped count), no delivery rows and
/// no metric-registry section, so a checkpoint follows a `drain_window`.
/// Version 5 dropped each router input VC's never-read high-water mark;
/// version 4 stored the power meter as lit-laser cycles per power class
/// and the latency means as integer `(count, sum)` pairs, and dropped the
/// SRS power cache; version 3 stored the injection source as one tagged
/// section and dropped the retired words version 2 kept frozen; version 2
/// stored the SRS as its O(B·W) receiver slots, version 1 as a dense
/// per-laser bank. Older versions are refused, not converted.
const SNAP_VERSION: u16 = 8;
/// Env var setting the checkpoint cadence in `R_w` windows (0 disables).
const CHECKPOINT_EVERY_ENV: &str = "ERAPID_CHECKPOINT_EVERY";

/// FNV-1a-64 over the config's `Debug` rendering — cheap structural
/// identity that refuses to overlay a snapshot onto a differently-shaped
/// system before any geometry check runs.
pub fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// Serializes `sys` + `cursor` into a self-verifying snapshot byte block.
/// Fails (typed, no panic) if the system is not quiescent.
pub fn encode_snapshot(sys: &System, cursor: StreamCursor) -> Result<Vec<u8>, SnapError> {
    let mut w = SnapWriter::new();
    w.header(&SNAP_MAGIC, SNAP_VERSION);
    w.u64(config_fingerprint(sys.config()));
    cursor.save(&mut w);
    sys.save_state(&mut w)?;
    Ok(seal(w.into_bytes()))
}

/// Verifies a snapshot's checksum, magic, version and config fingerprint;
/// returns its stream cursor and the [`System::load_state`] body. Every
/// corruption mode is a typed error — the caller's contract is "any
/// `Err` means try the previous snapshot".
pub fn decode_snapshot(bytes: &[u8], fingerprint: u64) -> Result<(StreamCursor, &[u8]), SnapError> {
    let mut r = SnapReader::new(unseal(bytes)?);
    r.header(&SNAP_MAGIC, SNAP_VERSION)?;
    let fp = r.u64()?;
    if fp != fingerprint {
        return Err(SnapError::Mismatch(format!(
            "snapshot config fingerprint {fp:#018x} != this config's {fingerprint:#018x}"
        )));
    }
    let cursor = StreamCursor::load(&mut r)?;
    Ok((cursor, r.bytes(r.remaining())?))
}

/// Overlays a decoded snapshot onto a freshly-constructed system built
/// from the same config (and, under replay, the same trace). Returns the
/// stream cursor to resume the [`crate::stream::StreamSink`] at. The whole
/// file (checksum, header, config fingerprint) is verified before `sys` is
/// touched, so a snapshot refused there leaves `sys` unchanged.
pub fn restore_system(sys: &mut System, bytes: &[u8]) -> Result<StreamCursor, SnapError> {
    let fp = config_fingerprint(sys.config());
    let (cursor, body) = decode_snapshot(bytes, fp)?;
    let mut r = SnapReader::new(body);
    sys.load_state(&mut r)?;
    r.expect_end()?;
    Ok(cursor)
}

/// Window-cadence checkpoint writer: atomic tmp-then-rename snapshots,
/// pruned to the newest `keep` so a torn newest file always has a good
/// predecessor.
pub struct Checkpointer {
    dir: PathBuf,
    every_cycles: Cycle,
    keep: usize,
    written: Vec<PathBuf>,
    last_at: Option<Cycle>,
    count: u64,
}

impl Checkpointer {
    /// Creates a checkpointer writing into `dir` every `every_windows`
    /// `R_w` windows of `window` cycles each (a cadence past `u64::MAX`
    /// cycles saturates, i.e. never fires). Keeps the newest 2 snapshots.
    pub fn new(dir: impl Into<PathBuf>, every_windows: u64, window: Cycle) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            every_cycles: every_windows.max(1).saturating_mul(window),
            keep: 2,
            written: Vec::new(),
            last_at: None,
            count: 0,
        })
    }

    /// Cadence from `ERAPID_CHECKPOINT_EVERY` in windows: unset defaults to
    /// `default_windows`, `0` (or unparsable) disables (returns `None`).
    pub fn from_env(
        dir: impl Into<PathBuf>,
        window: Cycle,
        default_windows: u64,
    ) -> io::Result<Option<Self>> {
        let every = match std::env::var(CHECKPOINT_EVERY_ENV) {
            Ok(v) => v.trim().parse::<u64>().unwrap_or(0),
            Err(_) => default_windows,
        };
        if every == 0 {
            return Ok(None);
        }
        Self::new(dir, every, window).map(Some)
    }

    /// Snapshots written so far this run.
    pub fn written_count(&self) -> u64 {
        self.count
    }

    /// True when the hook should snapshot at this cycle: on cadence, not
    /// already taken, and the system quiescent (a round in flight skips to
    /// the next boundary).
    pub fn due(&self, sys: &System) -> bool {
        let now = sys.now();
        now > 0
            && now.is_multiple_of(self.every_cycles)
            && self.last_at != Some(now)
            && sys.can_checkpoint()
    }

    /// Writes a snapshot if one is due. `cursor` must cover everything the
    /// streaming sink has durably flushed (i.e. call this *after*
    /// [`crate::stream::StreamSink::flush_window`] at the same boundary).
    /// Returns whether a snapshot was written.
    pub fn maybe_checkpoint(&mut self, sys: &System, cursor: StreamCursor) -> io::Result<bool> {
        if !self.due(sys) {
            return Ok(false);
        }
        let bytes = encode_snapshot(sys, cursor).map_err(|e| io::Error::other(e.to_string()))?;
        let name = format!("ckpt-{:012}.ersp", sys.now());
        let tmp = self.dir.join(format!("{name}.tmp"));
        let fin = self.dir.join(&name);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &fin)?;
        self.written.push(fin);
        self.last_at = Some(sys.now());
        self.count += 1;
        while self.written.len() > self.keep {
            let old = self.written.remove(0);
            let _ = fs::remove_file(old);
        }
        Ok(true)
    }
}

/// Restores `sys` from the newest snapshot in `dir` that both verifies
/// *and* overlays cleanly, falling back past any that do not: walks
/// `ckpt-*.ersp` newest-first (the zero-padded cycle number makes
/// lexicographic = numeric order), so a torn newest snapshot falls back to
/// its predecessor. Returns the snapshot used and the stream cursor to
/// resume at, or `None` when no snapshot works — in which case `sys` may
/// be partially overlaid and the caller must rebuild it before a cold
/// start.
pub fn resume_latest(sys: &mut System, dir: &Path) -> Option<(PathBuf, StreamCursor)> {
    let names = snapshot_paths(dir)?;
    for p in names.iter().rev() {
        let Ok(bytes) = fs::read(p) else { continue };
        // `restore_system` verifies the whole file before it touches `sys`,
        // so a snapshot it refuses there leaves `sys` as built.
        if let Ok(cursor) = restore_system(sys, &bytes) {
            return Some((p.clone(), cursor));
        }
    }
    None
}

/// Snapshot files in `dir`, cycle-ascending (zero-padded names make
/// lexicographic order numeric).
fn snapshot_paths(dir: &Path) -> Option<Vec<PathBuf>> {
    let mut names: Vec<PathBuf> = fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "ersp")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("ckpt-"))
        })
        .collect();
    names.sort();
    Some(names)
}
