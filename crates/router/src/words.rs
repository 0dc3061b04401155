//! Packed `u64` bitset words — the router's arbitration currency.
//!
//! VA/SA arbitration operates on requester sets indexed by
//! `r = in_port · V + in_vc`. Rather than boolean slices or candidate
//! `Vec<u16>` lists, the hot path keeps each set as `ceil(n / 64)` packed
//! `u64` words and walks set members with `trailing_zeros`, so one machine
//! word carries 64 requesters and an empty set costs one load to skip.
//!
//! Invariant shared by every consumer: bits at positions `>= n` are never
//! set. All iteration helpers visit members in **ascending index order**,
//! which is exactly the `(port asc, vc asc)` canonical order the slice
//! scans used — position-identity with the oracles depends on it.

/// Words needed to hold an `n`-bit set.
#[inline]
pub fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Sets bit `i`.
#[inline]
pub fn set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

/// Clears bit `i`.
#[inline]
pub fn clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// Whether bit `i` is set.
#[inline]
pub fn test(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Whether any bit is set.
#[inline]
pub fn any(words: &[u64]) -> bool {
    words.iter().any(|&w| w != 0)
}

/// Number of set bits.
#[inline]
pub fn count(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// The set bits, ascending. Each word is read once, as the iteration
/// reaches it.
#[inline]
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

/// Packs a boolean slice into words (a test helper, not a hot path).
#[cfg(test)]
pub(crate) fn pack(bools: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; words_for(bools.len())];
    for (i, &b) in bools.iter().enumerate() {
        if b {
            set(&mut words, i);
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_clear_roundtrip() {
        let mut w = vec![0u64; words_for(130)];
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!test(&w, i));
            set(&mut w, i);
            assert!(test(&w, i));
        }
        assert_eq!(count(&w), 8);
        assert!(any(&w));
        clear(&mut w, 64);
        assert!(!test(&w, 64));
        assert_eq!(count(&w), 7);
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let idx = [0usize, 5, 63, 64, 100, 127, 128];
        let mut w = vec![0u64; words_for(129)];
        for &i in &idx {
            set(&mut w, i);
        }
        assert_eq!(ones(&w).collect::<Vec<_>>(), idx);
    }

    #[test]
    fn pack_matches_bools() {
        let bools: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let w = pack(&bools);
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!(test(&w, i), b);
        }
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
    }
}
