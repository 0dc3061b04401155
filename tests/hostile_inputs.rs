//! Hostile-input sweep: one seeded mutation loop over every byte and text
//! input the library decodes.
//!
//! * `.ersp` snapshots, through `unseal` and `restore_system` (B = 4);
//! * `.ertr` traces (`from_binary`);
//! * `.erpd` delivery logs (`decode_deliveries`, the body of
//!   `read_deliveries`);
//! * dumpi-text and OTF2-JSONL ingest (`ingest_str`);
//! * the scenario and burst specs a `SystemConfig` carries, through
//!   `try_validate`, `System::new` and the sources' per-cycle polls.
//!
//! Mutations: bit flips, truncation at every cut class (empty, each header
//! byte, each trailer byte, anywhere in the body), length and count fields
//! inflated to `u64::MAX` (and to 2^30, the largest count a capped
//! sequence admits), and reordered records. Byte formats get each
//! mutation twice: raw, and re-sealed so the body decoder, not the
//! checksum, has to object. Every mutant must come back `Ok` or as a typed
//! error — never a panic, an unbounded allocation or a hang; a re-sealed
//! inflated length must be refused. The located cases (which error, at
//! which byte) stay in each format's own tests, except the `.ersp` board
//! indices below, which a restore must refuse because the run would panic.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::desim::rng::Pcg32;
use erapid_suite::desim::snap::{fnv1a, seal, unseal, Snap, SnapError, SnapWriter};
use erapid_suite::erapid_core::checkpoint::{encode_snapshot, restore_system};
use erapid_suite::erapid_core::config::{BurstSpec, NetworkMode, SystemConfig};
use erapid_suite::erapid_core::metrics::PacketDelivery;
use erapid_suite::erapid_core::stream::{
    decode_deliveries, StreamCursor, StreamPaths, StreamSink, DELIV_TRAILER,
};
use erapid_suite::erapid_core::system::{System, WindowFlush};
use erapid_suite::erapid_workloads::ingest::{ingest_str, ExternalFormat};
use erapid_suite::erapid_workloads::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use erapid_suite::traffic::generator::build_bursty_generators;
use erapid_suite::traffic::pattern::TrafficPattern;
use erapid_suite::traffic::trace::{InjectionTrace, TraceError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Random mutants per mutation kind and input.
const MUTANTS: usize = 256;

/// Runs one decode, turning a panic into a failure that names the input
/// and the mutant.
fn survive<T>(input: &str, case: &str, decode: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(decode)).unwrap_or_else(|_| panic!("{input}: {case} panicked"))
}

fn flip(bytes: &mut [u8], rng: &mut Pcg32) {
    if !bytes.is_empty() {
        let at = rng.below(bytes.len() as u32) as usize;
        bytes[at] ^= 1 << rng.below(8);
    }
}

/// Cut points of every class: each of the first 16 bytes (empty, inside
/// and just past a header), each of the last 24 (inside a trailer), and
/// random cuts through the body.
fn cuts(len: usize, rng: &mut Pcg32) -> Vec<usize> {
    let mut at: Vec<usize> = (0..16.min(len))
        .chain(len.saturating_sub(24)..len)
        .collect();
    at.extend((0..MUTANTS).map(|_| rng.below(len as u32) as usize));
    at
}

/// A byte format: its pristine payload, how a payload becomes a
/// correctly-sealed file, its record width, and its decoder.
struct ByteFormat<'a> {
    name: &'static str,
    payload: Vec<u8>,
    record: usize,
    seal: &'a dyn Fn(&[u8]) -> Vec<u8>,
    decode: &'a dyn Fn(&[u8]) -> bool,
}

impl ByteFormat<'_> {
    fn check(&self, case: &str, file: &[u8]) -> bool {
        survive(self.name, case, || (self.decode)(file))
    }

    fn resealed(&self, case: &str, payload: &[u8]) -> bool {
        self.check(&format!("re-sealed {case}"), &(self.seal)(payload))
    }

    /// The shared mutation loop.
    fn sweep(&self, rng: &mut Pcg32) {
        let file = (self.seal)(&self.payload);
        assert!(
            self.check("pristine", &file),
            "{}: pristine input refused",
            self.name
        );
        for cut in cuts(file.len(), rng) {
            self.check(&format!("cut at {cut}"), &file[..cut]);
        }
        for cut in cuts(self.payload.len(), rng) {
            self.resealed(&format!("cut at {cut}"), &self.payload[..cut]);
        }
        for i in 0..MUTANTS {
            let mut raw = file.clone();
            flip(&mut raw, rng);
            self.check(&format!("flip {i}"), &raw);
            let mut body = self.payload.clone();
            flip(&mut body, rng);
            self.resealed(&format!("flip {i}"), &body);
        }
        // Every 8-byte word that could be a length or count (1..=4096)
        // inflated to u64::MAX, and to 2^30: the largest count a capped
        // sequence accepts, which must still be bounded by the bytes left.
        for at in 0..=self.payload.len() - 8 {
            let word = &self.payload[at..at + 8];
            if !(1..=4096).contains(&u64::from_le_bytes(word.try_into().unwrap())) {
                continue;
            }
            for big in [u64::MAX, 1 << 30] {
                let mut body = self.payload.clone();
                body[at..at + 8].copy_from_slice(&big.to_le_bytes());
                self.resealed(&format!("{big} at {at}"), &body);
            }
        }
        let records = self.payload.len() / self.record;
        for i in 0..MUTANTS {
            let (a, b) = (rng.below(records as u32), rng.below(records as u32));
            let (a, b) = (
                a.min(b) as usize * self.record,
                a.max(b) as usize * self.record,
            );
            let mut body = self.payload.clone();
            if a != b {
                let (head, tail) = body.split_at_mut(b);
                head[a..a + self.record].swap_with_slice(&mut tail[..self.record]);
            }
            self.resealed(&format!("swap {a}/{b} ({i})"), &body);
        }
    }
}

/// A text format: its pristine document and its decoder.
fn sweep_text(name: &str, text: &str, decode: &dyn Fn(&str) -> bool, rng: &mut Pcg32) {
    let check = |case: &str, t: &str| survive(name, case, || decode(t));
    assert!(check("pristine", text), "{name}: pristine input refused");
    let bytes = text.as_bytes();
    for cut in cuts(bytes.len(), rng) {
        check(
            &format!("cut at {cut}"),
            &String::from_utf8_lossy(&bytes[..cut]),
        );
    }
    for i in 0..MUTANTS {
        let mut b = bytes.to_vec();
        flip(&mut b, rng);
        check(&format!("flip {i}"), &String::from_utf8_lossy(&b));
    }
    // Numbers inflated to u64::MAX, and one past it.
    let digits: Vec<usize> = (text.char_indices())
        .filter(|&(i, c)| c.is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
        .map(|(i, _)| i)
        .collect();
    for i in 0..MUTANTS {
        let at = digits[rng.below(digits.len() as u32) as usize];
        let end = at
            + text[at..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(text.len() - at);
        let wide = ["18446744073709551615", "18446744073709551616"][i % 2];
        check(
            &format!("{wide} at {at}"),
            &format!("{}{wide}{}", &text[..at], &text[end..]),
        );
    }
    let lines: Vec<&str> = text.lines().collect();
    let n = lines.len() as u32;
    for i in 0..MUTANTS {
        let mut l = lines.clone();
        l.swap(rng.below(n) as usize, rng.below(n) as usize);
        check(&format!("line swap {i}"), &l.join("\n"));
    }
}

fn fixture() -> InjectionTrace {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/uniform_b4d4.ertr");
    InjectionTrace::load(&p).expect("fixture loads")
}

/// Bounded allocation, witnessed: the process never reserved more than
/// 2 GiB of address space (a decoder that trusted an inflated length
/// would have asked for far more). Linux only; elsewhere a no-op.
fn assert_bounded_allocation() {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return;
    };
    let peak_kb: u64 = (status.lines())
        .find_map(|l| l.strip_prefix("VmPeak:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmPeak in /proc/self/status");
    assert!(peak_kb < 2 << 20, "peak address space {peak_kb} kB");
}

#[test]
fn snapshots_survive_mutation() {
    let cfg = SystemConfig::small(NetworkMode::PB);
    let plan = || PhasePlan::new(1000, 2000);
    let fresh = || System::new(cfg.clone(), TrafficPattern::Complement, 0.5, plan());
    let mut sys = fresh();
    while sys.now() < cfg.schedule.window {
        sys.step();
    }
    let file = encode_snapshot(&sys, StreamCursor::start()).expect("quiescent at a boundary");
    let decode = |b: &[u8]| unseal(b).is_ok() && restore_system(&mut fresh(), b).is_ok();
    ByteFormat {
        name: ".ersp",
        payload: file[..file.len() - 8].to_vec(),
        record: 8,
        seal: &|p| seal(p.to_vec()),
        decode: &decode,
    }
    .sweep(&mut Pcg32::new(0x05EE_DE55, 1));
    assert_bounded_allocation();
}

/// Re-sealed `.ersp` bodies whose board state indexes past the geometry
/// are refused by the restore with a typed error. Restored, each would
/// panic the run with an index out of bounds: a TX-queue packet's VC
/// (`Board::tx_depart`'s credit return) or destination node (the route
/// table at the far board), a ready-destination entry (the SRS flow
/// lookup), and a pending node credit's port or VC (`Router::credit`).
#[test]
fn board_indices_past_the_geometry_are_refused() {
    let cfg = SystemConfig::small(NetworkMode::NpNb);
    let plan = || PhasePlan::new(1000, 2000);
    let fresh = || System::new(cfg.clone(), TrafficPattern::Complement, 0.6, plan());
    let mut sys = fresh();
    // A cycle where some TX queue holds a ready packet.
    let (s, d) = loop {
        sys.step();
        let ready = (0..cfg.boards).find_map(|s| {
            let dests = sys.board(s).ready_dests();
            dests.first().map(|&d| (s, d))
        });
        if let Some(at) = ready {
            break at;
        }
        assert!(sys.now() < 4000, "no TX queue ever held a ready packet");
    };
    let file = encode_snapshot(&sys, StreamCursor::start()).expect("NP-NB is always quiescent");
    let body = &file[..file.len() - 8];
    let refused = |case: &str, mutant: Vec<u8>| {
        let got = restore_system(&mut fresh(), &seal(mutant));
        assert!(matches!(got, Err(SnapError::Format(_))), "{case}: {got:?}");
    };

    // The ready packet, found by its bytes: dst at +8, vc at +23.
    let pkt = *sys.board(s).tx_queue(d).peek().expect("ready packet");
    let mut w = SnapWriter::new();
    pkt.save(&mut w);
    let pkt_bytes = w.into_bytes();
    let at: Vec<usize> = (body.windows(pkt_bytes.len()))
        .enumerate()
        .filter(|(_, win)| *win == pkt_bytes.as_slice())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(at.len(), 1, "the ready packet's bytes occur once");
    let mut bad = body.to_vec();
    bad[at[0] + 23] = u8::MAX;
    refused("ready packet on VC 255", bad);
    let mut bad = body.to_vec();
    bad[at[0] + 8..at[0] + 12].copy_from_slice(&cfg.nodes().to_le_bytes());
    refused("ready packet toward a node past the last", bad);

    // Board `s`'s section ends `[ready dests: n, u16 × n][node credits:
    // m, (u16, u8) × m]` right before the next section's tag; `m` is the
    // count whose position puts the known ready list just before it.
    let tags: Vec<usize> = (body.windows(4))
        .enumerate()
        .filter(|(_, t)| *t == b"BRDS" || *t == b"SRSS")
        .map(|(i, _)| i)
        .collect();
    let end = tags[s as usize + 1];
    let dests = sys.board(s).ready_dests();
    let word = |i: usize| u64::from_le_bytes(body[i..i + 8].try_into().expect("8 bytes"));
    let mut ready_list = (dests.len() as u64).to_le_bytes().to_vec();
    ready_list.extend(dests.iter().flat_map(|d| d.to_le_bytes()));
    let m = (0..64)
        .find(|&m| {
            let credits = end - 8 - 3 * m;
            word(credits) == m as u64 && body[credits - ready_list.len()..credits] == ready_list[..]
        })
        .expect("board tail located");
    let credits = end - 8 - 3 * m;
    let splice = |at: usize, old: usize, new: &[u8]| {
        let mut bad = body[..at].to_vec();
        bad.extend_from_slice(new);
        bad.extend_from_slice(&body[at + old..]);
        bad
    };
    let ready_at = credits - ready_list.len();
    let past_b = [1, 0, 0, 0, 0, 0, 0, 0, cfg.boards as u8, 0];
    refused(
        "ready destination past the last board",
        splice(ready_at, ready_list.len(), &past_b),
    );
    let past_ports = (cfg.nodes_per_board + cfg.boards) as u8;
    for (case, credit) in [
        (
            "node credit to a port past the router's",
            [past_ports, 0, 0],
        ),
        ("node credit on VC 255", [0, 0, u8::MAX]),
    ] {
        let mut new = 1u64.to_le_bytes().to_vec();
        new.extend_from_slice(&credit);
        refused(case, splice(credits, 8 + 3 * m, &new));
    }
}

#[test]
fn traces_survive_mutation() {
    let trace = fixture();
    let file = trace.to_binary();
    let decode = |b: &[u8]| InjectionTrace::from_binary(b).is_ok();
    let ertr = ByteFormat {
        name: ".ertr",
        payload: file[..file.len() - 8].to_vec(),
        record: 3,
        seal: &|p| seal(p.to_vec()),
        decode: &decode,
    };
    let mut rng = Pcg32::new(0x05EE_DE57, 2);
    ertr.sweep(&mut rng);

    // Varint lengths inflated to u64::MAX and re-sealed: the two meta
    // string lengths (after the 26 fixed header bytes) and the entry count
    // are refused before anything is allocated for them.
    let varint = |v: u64| {
        let mut w = SnapWriter::new();
        w.varint(v);
        w.into_bytes()
    };
    let mut at = 26;
    for (what, len) in [
        ("pattern", trace.meta.pattern.len()),
        ("git_sha", trace.meta.git_sha.len()),
        ("entry count", trace.entries.len()),
    ] {
        let field = varint(len as u64);
        assert_eq!(ertr.payload[at..at + field.len()], field, "{what} at {at}");
        let mut body = ertr.payload.clone();
        body.splice(at..at + field.len(), varint(u64::MAX));
        assert!(!ertr.resealed(&format!("u64::MAX {what}"), &body));
        at += field.len() + len;
    }
    // Reordered entries are refused as out of order.
    for _ in 0..MUTANTS {
        let mut t = trace.clone();
        let n = t.entries.len() as u32;
        let (a, b) = (rng.below(n) as usize, rng.below(n) as usize);
        if t.entries[a].cycle == t.entries[b].cycle {
            continue;
        }
        t.entries.swap(a, b);
        assert!(matches!(
            InjectionTrace::from_binary(&t.to_binary()),
            Err(TraceError::OutOfOrder { .. })
        ));
    }
    assert_bounded_allocation();
}

#[test]
fn delivery_logs_survive_mutation() {
    let path = std::env::temp_dir().join(format!("erapid-hostile-{}.erpd", std::process::id()));
    let packets = (0..200u64)
        .map(|i| PacketDelivery {
            id: i,
            dst: (i % 16) as u32,
            injected_at: 7 * i,
            delivered_at: 7 * i + 40 + i % 9,
            labelled: i % 4 != 0,
        })
        .collect();
    let flush = WindowFlush {
        records: Vec::new(),
        packets,
    };
    let paths = StreamPaths {
        trace: None,
        deliveries: Some(path.clone()),
    };
    let mut sink = StreamSink::create(&paths).expect("create");
    sink.flush_window(&flush, &[], &[]).expect("flush");
    sink.finalize().expect("finalize");
    let file = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);

    // Sealing an `.erpd` is its trailer: record count and the checksum of
    // the records after the 6-byte header.
    let trailer = |p: &[u8]| {
        let records = p.get(6..).unwrap_or_default();
        let mut w = SnapWriter::new();
        w.bytes(p);
        w.tag(&DELIV_TRAILER);
        w.u64(records.len() as u64 / 29);
        w.u64(fnv1a(records));
        w.into_bytes()
    };
    let decode = |b: &[u8]| decode_deliveries(b).is_ok();
    let erpd = ByteFormat {
        name: ".erpd",
        payload: file[..file.len() - 20].to_vec(),
        record: 29,
        seal: &trailer,
        decode: &decode,
    };
    assert_eq!(trailer(&erpd.payload), file);
    erpd.sweep(&mut Pcg32::new(0x05EE_DE59, 3));

    // The trailer count is outside the checksum: inflating it is refused
    // by the length check, before any allocation.
    let mut inflated = file.clone();
    let at = file.len() - 16;
    inflated[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(!erpd.check("u64::MAX record count", &inflated));
    assert_bounded_allocation();
}

#[test]
fn ingest_survives_mutation() {
    let trace = fixture();
    let meta = trace.meta.clone();
    let mut dumpi = String::from("# cycle src dst\n");
    let mut otf2 = String::new();
    for e in &trace.entries {
        dumpi.push_str(&format!("{} {} {} 64\n", e.cycle, e.src, e.dst));
        otf2.push_str(&format!(
            "{{\"t\":{},\"src\":{},\"dst\":{}}}\n",
            e.cycle, e.src, e.dst
        ));
    }
    let mut rng = Pcg32::new(0x05EE_DE5B, 4);
    for (name, text, format) in [
        ("dumpi", &dumpi, ExternalFormat::DumpiText),
        ("OTF2", &otf2, ExternalFormat::Otf2Jsonl),
    ] {
        let decode = |t: &str| ingest_str(t, format, meta.clone()).is_ok();
        sweep_text(name, text, &decode, &mut rng);
    }
    assert_bounded_allocation();
}

/// Keeps `v` or, half the time, replaces it with an edge value.
fn edge_u64(rng: &mut Pcg32, v: &mut u64) {
    if rng.bernoulli(0.5) {
        *v = [0, 1, 2, u64::MAX - 1, u64::MAX][rng.below(5) as usize];
    }
}

fn edge_f64(rng: &mut Pcg32, v: &mut f64) {
    if rng.bernoulli(0.5) {
        *v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, 1e308][rng.below(6) as usize];
    }
}

/// Config specs: each mutant `ScenarioSpec` or `BurstSpec` is refused by
/// `try_validate`, or it builds a `System` and its source polls cycles
/// 0..64 and both sides of the first and last phase edge up to 2^40
/// without a panic.
#[test]
fn config_specs_survive_mutation() {
    const HORIZON: u64 = 1 << 40;
    let plan = PhasePlan::new(100, 100);
    let mut rng = Pcg32::new(0x05EE_DE5D, 5);
    let (mut refused, mut polled) = (0, 0);
    for case in 0..3000 {
        let (boards, per_board) = [(2, 1), (4, 4), (8, 8)][case % 3];
        let mut cfg = SystemConfig::geometry(NetworkMode::NpNb, boards, per_board);
        let kind = rng.below(5) as usize;
        // The cycle lengths the source's behaviour turns on.
        let edges = if kind == 4 {
            let mut b = BurstSpec {
                burstiness: 4.0,
                dwell: 1000.0,
            };
            edge_f64(&mut rng, &mut b.burstiness);
            edge_f64(&mut rng, &mut b.dwell);
            cfg.burst = Some(b);
            Vec::new()
        } else {
            let mut spec = ScenarioSpec::paper_suite()[kind].clone();
            edge_f64(&mut rng, &mut spec.rate_scale);
            let edges = match &mut spec.kind {
                ScenarioKind::ZipfHotspot {
                    exponent,
                    rotate_every,
                } => {
                    edge_f64(&mut rng, exponent);
                    edge_u64(&mut rng, rotate_every);
                    vec![*rotate_every]
                }
                ScenarioKind::Diurnal { period, trough } => {
                    edge_u64(&mut rng, period);
                    edge_f64(&mut rng, trough);
                    vec![*period / 2, *period]
                }
                ScenarioKind::IncastStorm {
                    period,
                    burst,
                    intensity,
                    background,
                    ..
                } => {
                    edge_u64(&mut rng, period);
                    edge_u64(&mut rng, burst);
                    edge_f64(&mut rng, intensity);
                    edge_f64(&mut rng, background);
                    vec![*burst, *period]
                }
                ScenarioKind::Collective {
                    comm,
                    compute,
                    intensity,
                } => {
                    edge_u64(&mut rng, comm);
                    edge_u64(&mut rng, compute);
                    edge_f64(&mut rng, intensity);
                    vec![*comm, comm.wrapping_add(*compute)]
                }
            };
            cfg.scenario = Some(spec);
            edges
        };
        let name = format!("{:?} {:?}, {} nodes", cfg.scenario, cfg.burst, cfg.nodes());
        if cfg.try_validate().is_err() {
            refused += 1;
            continue;
        }
        // Both sides of each phase edge's first and last boundary.
        let cycles: Vec<u64> = (0..64)
            .chain(
                edges
                    .iter()
                    .filter(|&&e| (1..=HORIZON).contains(&e))
                    .flat_map(|&e| {
                        let last = HORIZON / e * e;
                        [e - 1, e, e + 1, last - 1, last, last + 1]
                    }),
            )
            .filter(|&t| t <= HORIZON)
            .collect();
        let (nodes, rate) = (cfg.nodes(), cfg.capacity().injection_rate(0.5));
        survive("config spec", &name, || {
            System::new(cfg.clone(), TrafficPattern::Uniform, 0.5, plan);
            let mut due = Vec::new();
            if let Some(spec) = &cfg.scenario {
                let mut engine = ScenarioEngine::new(spec.clone(), nodes, rate, cfg.seed);
                for &t in &cycles {
                    engine.poll_into(t, &mut due);
                }
            } else if let Some(b) = cfg.burst {
                let uniform = TrafficPattern::Uniform;
                let mut gens =
                    build_bursty_generators(nodes, &uniform, rate, b.burstiness, b.dwell, cfg.seed);
                for &t in &cycles {
                    due.extend(gens.iter_mut().filter_map(|g| g.poll(t)));
                }
            }
            assert!(due.iter().all(|r| r.src < nodes && r.dst < nodes));
        });
        polled += 1;
    }
    assert!(
        refused > 0 && polled > 0,
        "{refused} refused, {polled} polled"
    );
}
