//! Hash maps keyed by cache [`Key`]s.
//!
//! The DRAM cache's slab map and the LOC's key map are probed on every
//! operation. std's default hasher, SipHash-1-3, defends a map against
//! keys an adversary picks to collide; these keys come from the
//! simulator's own workload generators and traces, so nobody picks
//! them, and one splitmix64 finalizer ([`mix64`]) spreads them well at
//! a fraction of the cost.
//! The hasher is also seedless: no per-map random seed decides an
//! iteration order. Code whose output depends on order still walks an
//! ordered list or sorts; it never relies on a map's order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::checksum::mix64;
use crate::Key;

/// Hashes a `u64` key with one [`mix64`] step.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // `Key` hashes through `write_u64`; other input folds bytewise.
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = mix64(self.0 ^ key);
    }
}

/// A map from [`Key`] hashed with [`KeyHasher`].
pub(crate) type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn a_key_hashes_to_its_mix64_in_every_map() {
        let build = BuildHasherDefault::<KeyHasher>::default();
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(build.hash_one(key), mix64(key));
        }
    }
}
