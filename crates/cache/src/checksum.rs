//! Checksums for persisted cache metadata (DESIGN.md §6.5).
//!
//! Every flash-resident metadata page the cache may trust after a crash
//! — SOC bucket pages and LOC region footers — ends in a 64-bit
//! checksum. Recovery validates it before believing anything else on
//! the page; a mismatch demotes the page to "never written" (SOC bucket
//! treated as virgin, LOC region treated as unsealed). The hash is the
//! same splitmix64 family the fault plan uses: fast, deterministic, and
//! with 64-bit output collisions are not a practical concern for
//! torn-page detection in a simulator.
//!
//! This module holds the primitives, [`page_checksum`] and `mix64`;
//! the formats that use them live in [`crate::layout`]. A LOC footer
//! block ends in the digest of the rest of the block, and a SOC bucket
//! page's trailer folds the digest of each of its entries. The digest
//! deals the input's 8-byte words round-robin onto [`LANES`]
//! independent fold chains, which a superscalar core runs side by side.

/// Independent fold chains. Word `w` of the input belongs to lane
/// `w % LANES`.
pub const LANES: usize = 4;

/// Lane 0's initial state; lane `i` starts from `SEED + i` mixed once,
/// so equal words on different lanes fold to different states. The
/// bucket trailer's fold starts from it too.
pub(crate) const SEED: u64 = 0xC0FF_EE00_5EED_1234;

/// One splitmix64 finalizer step.
#[inline]
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("caller passes 8 bytes"))
}

/// Checksums a byte slice (the digest of DESIGN.md §6.5).
///
/// The input is read as 8-byte little-endian words. Lane `i` folds
/// words `i`, `i + LANES`, `i + 2·LANES`, … in order, each step
/// `state = mix64(state ^ word)`, so every lane is sensitive to the
/// order of its own words. The lanes are then folded in lane order into
/// one state by the same step (the fold is not commutative and the
/// lanes start from different states, so words that trade lanes
/// change the digest), then a zero-padded tail word if the length is
/// not a multiple of 8, and the byte length last so truncations and
/// extensions change the digest.
pub fn page_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64; LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = mix64(SEED.wrapping_add(i as u64));
    }
    let mut stripes = bytes.chunks_exact(8 * LANES);
    for stripe in stripes.by_ref() {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = mix64(*lane ^ word(w));
        }
    }
    // The last, partial stripe: whole words keep their lanes.
    let mut words = stripes.remainder().chunks_exact(8);
    for (lane, w) in lanes.iter_mut().zip(words.by_ref()) {
        *lane = mix64(*lane ^ word(w));
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = mix64(h ^ lane);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix64(h ^ u64::from_le_bytes(tail));
    }
    mix64(h ^ bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whole words in [`sample`]: what a 4 KiB page leaves once its
    /// trailing checksum is cut off, so the last stripe is partial.
    const WORDS: usize = 511;

    /// [`WORDS`] words, no two equal, plus a 5-byte tail.
    fn sample() -> Vec<u8> {
        let mut bytes: Vec<u8> = (0..WORDS as u64).flat_map(|w| mix64(w).to_le_bytes()).collect();
        bytes.extend_from_slice(&[1, 2, 3, 4, 5]);
        bytes
    }

    /// The last word `lane` folds.
    fn last_word(lane: usize) -> usize {
        (0..WORDS).rev().find(|w| w % LANES == lane).expect("every lane has a word")
    }

    fn swap_words(bytes: &mut [u8], a: usize, b: usize) {
        for i in 0..8 {
            bytes.swap(a * 8 + i, b * 8 + i);
        }
    }

    #[test]
    fn checksum_is_deterministic_and_length_sensitive() {
        let a = page_checksum(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a, page_checksum(&[1, 2, 3, 4, 5, 6, 7, 8, 9]));
        assert_ne!(a, page_checksum(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 0]));
        assert_ne!(a, page_checksum(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }

    #[test]
    fn every_bit_of_a_word_on_every_lane_and_of_the_tail_is_covered() {
        let base = sample();
        let digest = page_checksum(&base);
        // Per lane its first word, one mid-page and its last (in the
        // partial stripe for some lanes); then the tail.
        let mut byte_positions = Vec::new();
        for lane in 0..LANES {
            for w in [lane, 60 * LANES + lane, last_word(lane)] {
                byte_positions.extend(w * 8..w * 8 + 8);
            }
        }
        byte_positions.extend(WORDS * 8..base.len());
        for pos in byte_positions {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[pos] ^= 1 << bit;
                assert_ne!(digest, page_checksum(&flipped), "flip of byte {pos} bit {bit}");
            }
        }
    }

    #[test]
    fn swapping_unequal_words_changes_the_digest() {
        let base = sample();
        let digest = page_checksum(&base);
        // Within a lane: neighbours, and first against last.
        for lane in 0..LANES {
            for (a, b) in [(lane, lane + LANES), (lane, last_word(lane))] {
                let mut swapped = base.clone();
                swap_words(&mut swapped, a, b);
                assert_ne!(digest, page_checksum(&swapped), "words {a} and {b} (lane {lane})");
            }
        }
        // Across lanes: same stripe, and different stripes.
        for a in 0..LANES {
            for b in a + 1..LANES {
                for (wa, wb) in [(a, b), (a, 40 * LANES + b)] {
                    let mut swapped = base.clone();
                    swap_words(&mut swapped, wa, wb);
                    assert_ne!(digest, page_checksum(&swapped), "words {wa} and {wb}");
                }
            }
        }
    }

    #[test]
    fn every_length_up_to_two_stripes_and_a_tail_has_its_own_digest() {
        for fill in [0u8, 0xA5] {
            let bytes = [fill; 72];
            let mut digests: Vec<u64> = (0..=72).map(|n| page_checksum(&bytes[..n])).collect();
            digests.sort_unstable();
            digests.dedup();
            assert_eq!(digests.len(), 73, "two lengths of {fill:#x} bytes share a digest");
        }
    }
}
