//! Equivalence property tests: the word-parallel round-robin arbiter
//! against its retained slice-based oracle.
//!
//! The router's hot path arbitrates over packed `u64` request words
//! (`RoundRobinArbiter::arbitrate_words`); the original boolean-slice
//! implementation survives as the executable specification
//! (`RoundRobinArbiter::arbitrate`). These tests drive both forms through
//! randomized request sets and long grant histories — the rotor evolves
//! with every grant, so a single mismatched winner anywhere in the history
//! cascades and fails loudly.
//!
//! Cases are generated from fixed-seed `desim::rng` streams (no external
//! property-testing crate — the build runs offline), so every failure
//! reproduces exactly.

use desim::rng::Pcg32;
use router::arbiter::RoundRobinArbiter;
use router::words;

/// Arbiter widths covering sub-word, exact-word and multi-word sets, with
/// both sides of every 64-bit boundary.
const WIDTHS: &[usize] = &[1, 2, 3, 63, 64, 65, 127, 128, 129, 190, 256];

/// Packs a request slice into words (bit `i` set iff `bools[i]`).
fn pack(bools: &[bool]) -> Vec<u64> {
    let mut w = vec![0u64; words::words_for(bools.len())];
    for (i, _) in bools.iter().enumerate().filter(|(_, &b)| b) {
        words::set(&mut w, i);
    }
    w
}

/// Draws a request slice with roughly `density` fraction of bits set.
fn random_requests(rng: &mut Pcg32, n: usize, density: f64) -> Vec<bool> {
    (0..n).map(|_| rng.bernoulli(density)).collect()
}

#[test]
fn round_robin_words_match_slice_oracle_over_histories() {
    for &n in WIDTHS {
        for (stream, density) in [(0, 0.02), (1, 0.2), (2, 0.6), (3, 0.97)] {
            let mut rng = Pcg32::stream(0xA2B1_7E57 + n as u64, stream);
            let mut word_arb = RoundRobinArbiter::new(n);
            let mut oracle = RoundRobinArbiter::new(n);
            for step in 0..400 {
                let reqs = random_requests(&mut rng, n, density);
                let words = pack(&reqs);
                let got = word_arb.arbitrate_words(&words);
                let want = oracle.arbitrate(&reqs);
                assert_eq!(
                    got, want,
                    "round-robin divergence at n={n} density={density} step={step}"
                );
            }
        }
    }
}

#[test]
fn empty_and_full_request_sets_agree() {
    for &n in WIDTHS {
        let mut word_rr = RoundRobinArbiter::new(n);
        let mut oracle_rr = RoundRobinArbiter::new(n);
        let empty = vec![false; n];
        let full = vec![true; n];
        // Alternate empty/full for 3·n rounds: every rotor position gets
        // exercised, with idle rounds interleaved (which must not advance
        // the rotor).
        for round in 0..3 * n {
            let reqs = if round % 2 == 0 { &full } else { &empty };
            let words = pack(reqs);
            assert_eq!(
                word_rr.arbitrate_words(&words),
                oracle_rr.arbitrate(reqs),
                "round-robin n={n} round={round}"
            );
        }
    }
}

#[test]
fn single_bit_at_word_boundaries_agrees() {
    // A lone requester at each boundary-adjacent position, arbitrated from
    // every possible rotor position: the wrapped masked scan must find the
    // single set bit wherever the rotor starts.
    for &n in &[64usize, 65, 128, 129, 190] {
        let boundary_bits: Vec<usize> = [0usize, 1, 62, 63, 64, 65, 126, 127, 128, 129, n - 1]
            .iter()
            .copied()
            .filter(|&b| b < n)
            .collect();
        for &bit in &boundary_bits {
            let mut reqs = vec![false; n];
            reqs[bit] = true;
            let words = pack(&reqs);
            for start in boundary_bits.iter().copied() {
                let mut word_arb = RoundRobinArbiter::new(n);
                let mut oracle = RoundRobinArbiter::new(n);
                // Park both rotors at `start + 1` via a granted request.
                let mut park = vec![false; n];
                park[start] = true;
                let park_words = pack(&park);
                assert_eq!(word_arb.arbitrate_words(&park_words), Some(start));
                assert_eq!(oracle.arbitrate(&park), Some(start));
                assert_eq!(
                    word_arb.arbitrate_words(&words),
                    oracle.arbitrate(&reqs),
                    "n={n} bit={bit} rotor after {start}"
                );
                assert_eq!(word_arb.arbitrate_words(&words), Some(bit));
            }
        }
    }
}

#[test]
fn rotor_snapshot_roundtrip_preserves_equivalence() {
    // Save/load the word arbiter mid-history; the restored arbiter must
    // continue to track the (never-serialized) oracle exactly.
    let n = 129;
    let mut rng = Pcg32::stream(0x00C0_FFEE, 7);
    let mut word_arb = RoundRobinArbiter::new(n);
    let mut oracle = RoundRobinArbiter::new(n);
    for _ in 0..100 {
        let reqs = random_requests(&mut rng, n, 0.3);
        assert_eq!(
            word_arb.arbitrate_words(&pack(&reqs)),
            oracle.arbitrate(&reqs)
        );
    }
    let mut w = desim::snap::SnapWriter::new();
    word_arb.save_state(&mut w);
    let bytes = w.into_bytes();
    let mut restored = RoundRobinArbiter::new(n);
    let mut r = desim::snap::SnapReader::new(&bytes);
    restored.load_state(&mut r).unwrap();
    for _ in 0..100 {
        let reqs = random_requests(&mut rng, n, 0.3);
        assert_eq!(
            restored.arbitrate_words(&pack(&reqs)),
            oracle.arbitrate(&reqs)
        );
    }
}
