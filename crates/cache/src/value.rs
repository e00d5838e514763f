//! Object values: real bytes or synthetic sizes.
//!
//! Trace replays care about object *sizes*, not contents; storing real
//! payloads for hundreds of millions of accesses would dwarf the machine.
//! `Value::Synthetic` carries only a length; its flash copy is
//! deterministic filler derived from the key, and the device sees
//! full-size writes either way. A SOC bucket page materializes its
//! values when it is serialized; a sealed LOC region hands the payload
//! store its values themselves, and the store materializes a block's
//! bytes only when the block is read. Values are immutable, which is
//! what makes that deferral sound. `Value::Real` carries actual bytes
//! for functional tests and examples.

use std::sync::Arc;

use crate::checksum::mix64;
use crate::Key;

/// An object value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Size-only value; bytes are derived from the key when needed.
    Synthetic(u32),
    /// Actual payload bytes.
    Real(Arc<[u8]>),
}

impl Value {
    /// Creates a real value from bytes.
    pub fn real(bytes: impl Into<Arc<[u8]>>) -> Self {
        Value::Real(bytes.into())
    }

    /// Creates a synthetic (size-only) value.
    pub fn synthetic(len: u32) -> Self {
        Value::Synthetic(len)
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Value::Synthetic(n) => *n as usize,
            Value::Real(b) => b.len(),
        }
    }

    /// Whether the value is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared payload buffer of a real value, `None` for synthetic
    /// ones. Cloning the returned `Arc` is the zero-copy way to hand a
    /// value across cache layers (DESIGN.md §5.3) — `Value::clone`
    /// itself only bumps this refcount, never copies bytes.
    pub fn as_real(&self) -> Option<&Arc<[u8]>> {
        match self {
            Value::Real(b) => Some(b),
            Value::Synthetic(_) => None,
        }
    }

    /// Writes the value's bytes into `out` (which must be `len()` long).
    ///
    /// Synthetic bytes are a deterministic function of `key` and
    /// position, so read-back verification is possible even for
    /// synthetic values when the backing store retains data.
    pub fn materialize(&self, key: Key, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.len());
        self.materialize_at(key, 0, out);
    }

    /// Writes the value's bytes `[start, start + out.len())` into `out`
    /// — the slice of [`Value::to_bytes`] starting at `start`, which is
    /// how a read of a sealed region materialises an object that a
    /// block boundary cuts.
    pub fn materialize_at(&self, key: Key, start: usize, out: &mut [u8]) {
        debug_assert!(start + out.len() <= self.len());
        match self {
            Value::Real(b) => out.copy_from_slice(&b[start..start + out.len()]),
            Value::Synthetic(_) => {
                // One splitmix64 output per 8 bytes. The counter is the
                // only state carried between words, so the generator
                // seeks to any word in one multiply, and whole words are
                // written by a fixed-width loop the compiler unrolls;
                // the variable-length copies happen only at the ends.
                const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
                let mut x = (key ^ GAMMA).wrapping_add(GAMMA.wrapping_mul((start / 8) as u64));
                let mut next = || {
                    let z = mix64(x);
                    x = x.wrapping_add(GAMMA);
                    z.to_le_bytes()
                };
                let skip = start % 8;
                let mut out = out;
                if skip != 0 {
                    let head = out.len().min(8 - skip);
                    out[..head].copy_from_slice(&next()[skip..skip + head]);
                    out = &mut out[head..];
                }
                let mut words = out.chunks_exact_mut(8);
                for word in words.by_ref() {
                    word.copy_from_slice(&next());
                }
                let tail = words.into_remainder();
                if !tail.is_empty() {
                    tail.copy_from_slice(&next()[..tail.len()]);
                }
            }
        }
    }

    /// Materializes into a fresh vector.
    pub fn to_bytes(&self, key: Key) -> Vec<u8> {
        let mut out = vec![0u8; self.len()];
        self.materialize(key, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_value_round_trips() {
        let v = Value::real(vec![1u8, 2, 3]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.to_bytes(42), vec![1, 2, 3]);
    }

    #[test]
    fn synthetic_is_deterministic_per_key() {
        let v = Value::synthetic(100);
        assert_eq!(v.to_bytes(7), v.to_bytes(7));
        assert_ne!(v.to_bytes(7), v.to_bytes(8));
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn synthetic_handles_non_multiple_of_eight() {
        let v = Value::synthetic(13);
        assert_eq!(v.to_bytes(1).len(), 13);
    }

    /// Synthetic flash content is what `verify_flash_key` and the repo
    /// benchmark's audit compare against: these bytes are a format, not
    /// an implementation detail.
    #[test]
    fn synthetic_bytes_are_pinned() {
        const KEY: Key = 0x0123_4567_89AB_CDEF;
        const HEAD: [u8; 13] = [190, 46, 179, 147, 213, 60, 115, 31, 41, 203, 29, 43, 224];
        for n in [0usize, 5, 8, 13] {
            assert_eq!(Value::synthetic(n as u32).to_bytes(KEY), HEAD[..n], "length {n}");
        }
        let page = Value::synthetic(4096).to_bytes(KEY);
        assert_eq!(page[..13], HEAD);
        assert_eq!(page[4088..], [48, 140, 1, 170, 180, 20, 68, 114]);
        // FNV-1a over the whole page: independent of the cache's own
        // checksum, so neither can drift to match the other.
        let fnv = page.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!(fnv, 0x3860_0785_5BA3_E8E8);
        // The stream depends on the key, and an unaligned destination
        // sees the same bytes.
        assert_ne!(Value::synthetic(13).to_bytes(KEY + 1), HEAD);
        let mut shifted = [0u8; 16];
        Value::synthetic(13).materialize(KEY, &mut shifted[3..]);
        assert_eq!(shifted[3..], HEAD);
    }

    /// Any window of an object, aligned or not, reads as the matching
    /// slice of the whole object's bytes.
    #[test]
    fn materialize_at_equals_the_slice_of_to_bytes() {
        let real: Vec<u8> = (0..1_000u32).map(|i| (i * 7 % 253) as u8).collect();
        let mut rng = 0x5EED_u64;
        let mut draw = |n: usize| {
            rng = mix64(rng);
            (rng % n as u64) as usize
        };
        for case in 0..2_000 {
            let key = case as Key * 0x1234_5678_9ABC;
            let value = if case % 4 == 0 {
                Value::real(real[..draw(real.len() + 1)].to_vec())
            } else {
                Value::synthetic(draw(5_000) as u32)
            };
            let whole = value.to_bytes(key);
            let start = draw(whole.len() + 1);
            let len = draw(whole.len() - start + 1);
            let mut out = vec![0xAAu8; len];
            value.materialize_at(key, start, &mut out);
            assert_eq!(
                out,
                whole[start..start + len],
                "case {case}: {start}+{len} of {}",
                whole.len()
            );
        }
    }

    #[test]
    fn empty_values() {
        assert!(Value::synthetic(0).is_empty());
        assert!(Value::real(Vec::new()).is_empty());
    }

    #[test]
    fn as_real_exposes_the_shared_buffer_and_clone_is_zero_copy() {
        let v = Value::real(vec![1u8, 2, 3]);
        let c = v.clone();
        // Cloning a real value must share the allocation, not copy it.
        assert!(Arc::ptr_eq(v.as_real().unwrap(), c.as_real().unwrap()));
        assert!(Value::synthetic(3).as_real().is_none());
    }
}
