//! Per-bucket bloom filters for the SOC.
//!
//! CacheLib keeps a small bloom filter per SOC bucket so that lookups of
//! absent keys skip the flash read entirely (the SOC has no in-DRAM
//! index — that is its whole point). We use one 128-bit filter per
//! bucket with `K` probe bits. A rewrite that drops keys from the bucket
//! rebuilds the filter from the authoritative entry list (CacheLib's
//! rebuild-on-write); one that only adds a key ORs that key's bits in,
//! which yields the same filter.
//! At a typical occupancy of ~20 small objects per bucket the false
//! positive rate is ≈5%.

use crate::Key;

/// Number of probe bits per key.
const K: u32 = 4;
/// 64-bit words per bucket filter.
const WORDS: usize = 2;
const BITS: u64 = (WORDS * 64) as u64;

fn mix(key: Key, round: u32) -> u64 {
    let mut z = key ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn bits_for(key: Key) -> [u64; WORDS] {
    let mut m = [0u64; WORDS];
    for r in 0..K {
        let bit = mix(key, r) % BITS;
        m[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }
    m
}

/// An array of per-bucket 128-bit bloom filters.
#[derive(Debug, Clone)]
pub struct BloomArray {
    filters: Vec<[u64; WORDS]>,
}

impl BloomArray {
    /// Creates filters for `buckets` buckets, all empty.
    pub fn new(buckets: usize) -> Self {
        BloomArray { filters: vec![[0; WORDS]; buckets] }
    }

    /// Number of buckets covered.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Adds `key` to bucket `bucket`'s filter.
    pub fn insert(&mut self, bucket: usize, key: Key) {
        let m = bits_for(key);
        let f = &mut self.filters[bucket];
        for (fw, mw) in f.iter_mut().zip(m.iter()) {
            *fw |= mw;
        }
    }

    /// Whether `key` may be present in bucket `bucket`. False means
    /// definitely absent. The probes are hashed one at a time and the
    /// answer is the first clear bit's, so a key an empty or sparse
    /// filter rejects costs about one probe.
    pub fn may_contain(&self, bucket: usize, key: Key) -> bool {
        let f = &self.filters[bucket];
        (0..K).all(|r| {
            let bit = mix(key, r) % BITS;
            f[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Bucket `bucket`'s filter bits, to compare a live filter with a
    /// fresh [`BloomArray::rebuild`].
    pub fn filter(&self, bucket: usize) -> [u64; WORDS] {
        self.filters[bucket]
    }

    /// Rebuilds bucket `bucket`'s filter from an entry iterator (done
    /// whenever keys leave the bucket, since per-bucket blooms cannot
    /// delete; a rewrite that only adds a key [`BloomArray::insert`]s
    /// it, which sets the same bits).
    pub fn rebuild<I: IntoIterator<Item = Key>>(&mut self, bucket: usize, keys: I) {
        let mut f = [0u64; WORDS];
        for k in keys {
            let m = bits_for(k);
            for (fw, mw) in f.iter_mut().zip(m.iter()) {
                *fw |= mw;
            }
        }
        self.filters[bucket] = f;
    }

    /// Clears every filter.
    pub fn clear(&mut self) {
        self.filters.iter_mut().for_each(|f| *f = [0; WORDS]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_are_maybe_present() {
        let mut b = BloomArray::new(4);
        for k in 0..100u64 {
            b.insert((k % 4) as usize, k);
        }
        for k in 0..100u64 {
            assert!(b.may_contain((k % 4) as usize, k));
        }
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let b = BloomArray::new(1);
        for k in 0..1000u64 {
            assert!(!b.may_contain(0, k));
        }
    }

    #[test]
    fn rebuild_drops_old_keys_mostly() {
        let mut b = BloomArray::new(1);
        for k in 0..64u64 {
            b.insert(0, k);
        }
        // Rebuild with only one key: most other keys must now miss.
        b.rebuild(0, [1u64]);
        assert!(b.may_contain(0, 1));
        let false_hits = (1000..2000u64).filter(|&k| b.may_contain(0, k)).count();
        assert!(false_hits < 20, "false-positive rate too high after rebuild: {false_hits}");
    }

    #[test]
    fn false_positive_rate_is_low_for_sparse_buckets() {
        let mut b = BloomArray::new(1);
        // A typical SOC bucket holds ~10-40 small objects.
        for k in 0..20u64 {
            b.insert(0, k);
        }
        let fp = (10_000..20_000u64).filter(|&k| b.may_contain(0, k)).count();
        // 20 keys × 4 bits in 128 bits ⇒ ~47% of bits set ⇒ fp ≈ 5%.
        assert!(fp < 1000, "fp = {fp}");
    }

    #[test]
    fn inserting_one_more_key_equals_rebuilding_with_it() {
        let mut grown = BloomArray::new(1);
        for n in 0..40u64 {
            grown.insert(0, n * 7919);
            let mut rebuilt = BloomArray::new(1);
            rebuilt.rebuild(0, (0..=n).map(|k| k * 7919));
            assert_eq!(grown.filter(0), rebuilt.filter(0), "after {} keys", n + 1);
        }
    }

    #[test]
    fn probing_bit_by_bit_answers_as_the_whole_mask() {
        let mut b = BloomArray::new(1);
        for n in 0..40u64 {
            b.insert(0, n * 7919);
            let f = b.filter(0);
            for k in 0..2_000u64 {
                let m = bits_for(k);
                let whole = f.iter().zip(&m).all(|(fw, mw)| fw & mw == *mw);
                assert_eq!(b.may_contain(0, k), whole, "key {k} after {} keys", n + 1);
            }
        }
    }

    #[test]
    fn clear_resets() {
        let mut b = BloomArray::new(2);
        b.insert(0, 7);
        b.clear();
        assert!(!b.may_contain(0, 7));
    }
}
