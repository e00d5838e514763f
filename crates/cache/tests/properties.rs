//! Property tests for the cache structures: LRU model equivalence,
//! SOC bucket semantics, and the exact bytes of the flash pages built
//! into reused scratch buffers.

use fdpcache_cache::ram::RamCache;
use fdpcache_cache::soc::Soc;
use fdpcache_cache::value::Value;
use fdpcache_core::{IoManager, PlacementHandle, SharedController};
use fdpcache_ftl::FtlConfig;
use fdpcache_nvme::{Controller, MemStore};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum LruOp {
    Put { key: u8, size: u16 },
    Get { key: u8 },
    Remove { key: u8 },
}

fn lru_op() -> impl Strategy<Value = LruOp> {
    prop_oneof![
        (any::<u8>(), 1..500u16).prop_map(|(key, size)| LruOp::Put { key, size }),
        any::<u8>().prop_map(|key| LruOp::Get { key }),
        any::<u8>().prop_map(|key| LruOp::Remove { key }),
    ]
}

/// A deliberately naive reference LRU for model checking.
struct RefLru {
    order: Vec<(u64, u32)>, // MRU first
    capacity: u64,
}

impl RefLru {
    fn used(&self) -> u64 {
        self.order.iter().map(|&(_, s)| s as u64).sum()
    }
    fn get(&mut self, key: u64) -> Option<u32> {
        let pos = self.order.iter().position(|&(k, _)| k == key)?;
        let e = self.order.remove(pos);
        self.order.insert(0, e);
        Some(e.1)
    }
    fn put(&mut self, key: u64, size: u32) -> Vec<u64> {
        self.order.retain(|&(k, _)| k != key);
        let mut evicted = Vec::new();
        if size as u64 > self.capacity {
            evicted.push(key);
            return evicted;
        }
        self.order.insert(0, (key, size));
        while self.used() > self.capacity {
            let (k, _) = self.order.pop().expect("non-empty");
            evicted.push(k);
        }
        evicted
    }
    fn remove(&mut self, key: u64) -> bool {
        let before = self.order.len();
        self.order.retain(|&(k, _)| k != key);
        self.order.len() != before
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The slab LRU behaves identically to a naive reference model.
    #[test]
    fn ram_cache_matches_reference_lru(ops in prop::collection::vec(lru_op(), 1..200)) {
        let mut real = RamCache::new(2_000, 0);
        let mut model = RefLru { order: Vec::new(), capacity: 2_000 };
        for op in ops {
            match op {
                LruOp::Put { key, size } => {
                    let evicted: Vec<u64> = real
                        .put(key as u64, Value::synthetic(size as u32))
                        .map(|e| e.key)
                        .collect();
                    let expected = model.put(key as u64, size as u32);
                    prop_assert_eq!(evicted, expected);
                }
                LruOp::Get { key } => {
                    let got = real.get(key as u64).map(|v| v.len() as u32);
                    prop_assert_eq!(got, model.get(key as u64));
                }
                LruOp::Remove { key } => {
                    prop_assert_eq!(real.remove(key as u64).is_some(), model.remove(key as u64));
                }
            }
            real.check_invariants();
            prop_assert_eq!(real.used_bytes(), model.used());
            prop_assert_eq!(real.len(), model.order.len());
        }
    }

    /// SOC: after any insert sequence, every key reported present parses
    /// back from the on-flash page, and the newest value per key wins.
    #[test]
    fn soc_bucket_contents_match_flash(
        inserts in prop::collection::vec((0..50u64, 1..900u32), 1..80)
    ) {
        let ctrl = Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap();
        let nsid = ctrl.create_namespace(128, vec![0]).unwrap();
        let shared: SharedController = Arc::new(ctrl);
        let mut io = IoManager::new(shared, nsid, 4).unwrap();
        let mut soc = Soc::new(0, 8, 4096, PlacementHandle::DEFAULT);
        let mut last: std::collections::HashMap<u64, u32> = Default::default();
        for (key, size) in inserts {
            soc.insert(&mut io, key, Value::synthetic(size)).unwrap();
            last.insert(key, size);
        }
        for b in 0..8 {
            prop_assert!(soc.verify_bucket(&mut io, b).unwrap(), "bucket {b} diverged from flash");
        }
        // Any still-present key must carry its newest size.
        for (key, size) in last {
            if let Some(v) = soc.lookup(&mut io, key).unwrap() {
                prop_assert_eq!(v.len() as u32, size, "stale size for key {}", key);
            }
        }
    }
}

/// Flash pages are serialized into long-lived scratch buffers that hold
/// whatever the previous read or write left there (DESIGN.md §5.3).
/// These properties rebuild every page from its logical content into a
/// *zeroed* buffer with a serializer written from the documented format
/// alone, and demand the bytes on flash be identical.
mod page_bytes_props {
    use std::collections::{BTreeSet, HashSet};
    use std::sync::Arc;

    use fdpcache_cache::bloom::BloomArray;
    use fdpcache_cache::builder::{build_device_faulted, StoreKind};
    use fdpcache_cache::checksum::page_checksum;
    use fdpcache_cache::layout::decode_bucket;
    use fdpcache_cache::loc::Loc;
    use fdpcache_cache::soc::Soc;
    use fdpcache_cache::value::Value;
    use fdpcache_core::{IoManager, PlacementHandle, SharedController};
    use fdpcache_ftl::FtlConfig;
    use fdpcache_nvme::{Controller, FaultConfig, FaultRates, MemStore, NvmeError};
    use proptest::prelude::*;

    const PAGE: usize = 4096;

    fn io(blocks: u64) -> IoManager {
        let ctrl = Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap();
        let nsid = ctrl.create_namespace(blocks, vec![0]).unwrap();
        let shared: SharedController = Arc::new(ctrl);
        IoManager::new(shared, nsid, 4).unwrap()
    }

    fn seal_checksum(page: &mut [u8]) {
        let cut = page.len() - 8;
        let sum = page_checksum(&page[..cut]);
        page[cut..].copy_from_slice(&sum.to_le_bytes());
    }

    /// One splitmix64 finalizer step, as DESIGN.md §6.5 spells it.
    fn mix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A SOC bucket page from scratch: magic "SOCB", entry count, then
    /// `key, size, bytes` per entry; zeros; and the bucket trailer of
    /// DESIGN.md §6.5 — seeded with the count, each entry's digest
    /// (`page_checksum` of its 12-byte header plus payload) folded in
    /// list order, closed with the used byte length.
    fn reference_bucket_page(entries: &[(u64, Vec<u8>)]) -> Vec<u8> {
        let mut page = vec![0u8; PAGE];
        page[0..4].copy_from_slice(&0x534F_4342u32.to_le_bytes());
        page[4..8].copy_from_slice(&(entries.len() as u32).to_le_bytes());
        let mut h = mix64(0xC0FF_EE00_5EED_1234 ^ entries.len() as u64);
        let mut off = 8;
        for (key, bytes) in entries {
            let end = off + 12 + bytes.len();
            page[off..off + 8].copy_from_slice(&key.to_le_bytes());
            page[off + 8..off + 12].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
            page[off + 12..end].copy_from_slice(bytes);
            h = mix64(h ^ page_checksum(&page[off..end]));
            off = end;
        }
        let trailer = mix64(h ^ off as u64);
        page[PAGE - 8..].copy_from_slice(&trailer.to_le_bytes());
        page
    }

    /// The SOC's bucket policy, naively: newest first, replace in
    /// place of the old copy's slot, evict from the tail until the new
    /// entry fits under the trailer.
    fn model_insert(list: &mut Vec<(u64, Vec<u8>)>, key: u64, bytes: Vec<u8>) {
        list.retain(|(k, _)| *k != key);
        let used = |l: &Vec<(u64, Vec<u8>)>| 8 + l.iter().map(|(_, b)| 12 + b.len()).sum::<usize>();
        while used(list) + 12 + bytes.len() > PAGE - 8 && list.pop().is_some() {}
        list.insert(0, (key, bytes));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert { key: u64, size: u32 },
        Remove { key: u64 },
        Lookup { key: u64 },
    }

    /// Four inserts to each remove and lookup, so buckets and regions
    /// fill, evict and wrap.
    fn op(keys: u64, sizes: std::ops::Range<u32>) -> impl Strategy<Value = Op> {
        (0..6u8, 0..keys, sizes).prop_map(|(kind, key, size)| match kind {
            0..=3 => Op::Insert { key, size },
            4 => Op::Remove { key },
            _ => Op::Lookup { key },
        })
    }

    /// What the device does to the commands of one SOC op.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        None,
        /// Every read fails: the read-modify-write read is absorbed
        /// after its retry and the page is rebuilt whole.
        Reads,
        /// Every write fails: the page write exhausts its retries.
        Writes,
    }

    /// [`op`] for the SOC: a third of the values carry real bytes, and
    /// one op in six runs under a device that fails its reads or its
    /// writes.
    fn soc_op() -> impl Strategy<Value = (Op, Option<u8>, Fault)> {
        (op(48, 1..1300), 0..3u8, any::<u8>(), 0..12u8).prop_map(|(op, real, fill, fault)| {
            let fault = match fault {
                0 => Fault::Reads,
                1 => Fault::Writes,
                _ => Fault::None,
            };
            (op, (real == 0).then_some(fill), fault)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every insert, replace, evict, remove and lookup —
        /// across buckets, synthetic and real payloads alike — each
        /// bucket page on flash is byte-for-byte the reference page of
        /// the authoritative list (so it parses to that list and the
        /// gap before the trailer is zero), the list is what the naive
        /// model holds, and the bucket's bloom filter is what a
        /// from-scratch rebuild gives. That holds whether the op's
        /// read-modify-write read succeeded or faulted: the page the
        /// store reads back encodes the list of the bucket's last
        /// acknowledged write; an insert whose write exhausted its
        /// retries leaves list and flash exactly as they were, and a
        /// remove whose write did drops the key and disowns the page.
        #[test]
        fn soc_pages_and_blooms_are_exact(ops in prop::collection::vec(soc_op(), 1..120)) {
            const BUCKETS: u64 = 4;
            let ctrl = build_device_faulted(
                FtlConfig::tiny_test(),
                StoreKind::Mem,
                false,
                FaultConfig::default(),
            )
            .unwrap();
            let nsid = ctrl.create_namespace(64, vec![0]).unwrap();
            let mut io = IoManager::new(ctrl.clone(), nsid, 4).unwrap();
            let mut soc = Soc::new(0, BUCKETS, PAGE as u32, PlacementHandle::DEFAULT);
            let mut model: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); BUCKETS as usize];
            let mut written = BTreeSet::new();
            let mut page = vec![0u8; PAGE];
            for (op, real, fault) in ops {
                ctrl.set_fault_rates(match fault {
                    Fault::None => FaultRates::default(),
                    Fault::Reads => FaultRates { read_err_ppm: 1_000_000, ..FaultRates::default() },
                    Fault::Writes => FaultRates { write_err_ppm: 1_000_000, ..FaultRates::default() },
                });
                match op {
                    Op::Insert { key, size } => {
                        let value = match real {
                            Some(fill) => Value::real(
                                (0..size).map(|i| fill.wrapping_add(i as u8)).collect::<Vec<u8>>(),
                            ),
                            None => Value::synthetic(size),
                        };
                        let bytes = value.to_bytes(key);
                        let b = soc.bucket_index(key);
                        match soc.insert(&mut io, key, value) {
                            Ok(_) => {
                                prop_assert!(fault != Fault::Writes, "insert acknowledged unwritten");
                                model_insert(&mut model[b as usize], key, bytes);
                                written.insert(b);
                            }
                            Err(e) => {
                                prop_assert!(fault == Fault::Writes && e.is_injected_fault(), "{}", e);
                            }
                        }
                    }
                    Op::Remove { key } => {
                        let b = soc.bucket_index(key);
                        let held = model[b as usize].iter().any(|(k, _)| *k == key);
                        prop_assert_eq!(soc.remove(&mut io, key).unwrap(), held);
                        model[b as usize].retain(|(k, _)| *k != key);
                        if held && fault == Fault::Writes {
                            // The key is gone from the list; the page
                            // that still lists it is never read again.
                            written.remove(&b);
                        }
                        prop_assert_eq!(soc.bucket_on_flash(key), written.contains(&b));
                    }
                    Op::Lookup { key } if fault == Fault::None => {
                        let b = soc.bucket_index(key);
                        let held = model[b as usize].iter().find(|(k, _)| *k == key);
                        let got = soc.lookup(&mut io, key).unwrap();
                        prop_assert_eq!(got.map(|v| v.to_bytes(key)), held.map(|(_, bytes)| bytes.clone()));
                    }
                    // Lookups under faults (demote, repair) are the
                    // degraded-mode properties' subject.
                    Op::Lookup { .. } => {}
                }
                ctrl.set_fault_rates(FaultRates::default());
                for b in 0..BUCKETS {
                    let entries = soc.bucket_entries(b);
                    let sizes: Vec<(u64, u32)> =
                        model[b as usize].iter().map(|(k, bytes)| (*k, bytes.len() as u32)).collect();
                    prop_assert_eq!(&entries, &sizes, "bucket {} list", b);
                    let mut fresh = BloomArray::new(1);
                    fresh.rebuild(0, entries.iter().map(|&(k, _)| k));
                    prop_assert_eq!(soc.bloom().filter(b as usize), fresh.filter(0), "bucket {} bloom", b);
                    if !written.contains(&b) {
                        continue;
                    }
                    io.read(soc.bucket_block(b), &mut page).unwrap();
                    let listed: Vec<(u64, &[u8])> =
                        model[b as usize].iter().map(|(k, bytes)| (*k, &bytes[..])).collect();
                    prop_assert_eq!(decode_bucket(&page), Ok(listed));
                    prop_assert!(page == reference_bucket_page(&model[b as usize]), "bucket {} bytes", b);
                }
            }
        }

        /// Seals, delete-driven footer rewrites and eviction retirements
        /// all serialize into one reused footer buffer, each footer
        /// shorter or longer than the last. Every footer on flash must
        /// equal its own content re-serialized into a zeroed buffer;
        /// every persisted key must be listed by some footer and no
        /// deleted key by any.
        #[test]
        fn loc_footers_equal_a_zeroed_reference(ops in prop::collection::vec(op(40, 100..3000), 1..150)) {
            const REGIONS: u32 = 4;
            const REGION_BLOCKS: u64 = 8;
            let mut io = io(64);
            let handle = PlacementHandle::DEFAULT;
            let mut loc = Loc::new(0, REGIONS, REGION_BLOCKS, PAGE as u32, false, handle, handle);
            prop_assert_eq!(loc.meta_blocks(), 1);
            let mut deleted: HashSet<u64> = HashSet::new();
            for op in ops {
                match op {
                    Op::Insert { key, size } => {
                        loc.insert(&mut io, key, Value::synthetic(size)).unwrap();
                        deleted.remove(&key);
                    }
                    Op::Remove { key } => {
                        loc.remove(&mut io, key).unwrap();
                        deleted.insert(key);
                    }
                    Op::Lookup { key } => {
                        loc.lookup(&mut io, key).unwrap();
                    }
                }
            }
            let mut listed: HashSet<u64> = HashSet::new();
            let mut block = vec![0u8; PAGE];
            for region in 0..REGIONS {
                match io.read(loc.meta_start_block(region), &mut block) {
                    Ok(_) => {}
                    Err(NvmeError::Unwritten(_)) => continue,
                    Err(e) => panic!("footer read: {e}"),
                }
                let u32_at = |o: usize| u32::from_le_bytes(block[o..o + 4].try_into().unwrap());
                let count = u32_at(24) as usize;
                prop_assert!(32 + count * 16 <= PAGE - 8, "region {} count {}", region, count);
                // Header as documented (DESIGN.md §6.4): magic "LOCM",
                // version, seal sequence, region, block index, entries
                // here, entries in the whole footer.
                let mut reference = vec![0u8; PAGE];
                reference[0..4].copy_from_slice(&0x4C4F_434Du32.to_le_bytes());
                reference[4..8].copy_from_slice(&2u32.to_le_bytes());
                reference[8..16].copy_from_slice(&block[8..16]);
                reference[16..20].copy_from_slice(&region.to_le_bytes());
                reference[20..24].copy_from_slice(&0u32.to_le_bytes());
                reference[24..28].copy_from_slice(&(count as u32).to_le_bytes());
                reference[28..32].copy_from_slice(&(count as u32).to_le_bytes());
                reference[32..32 + count * 16].copy_from_slice(&block[32..32 + count * 16]);
                seal_checksum(&mut reference);
                prop_assert!(block == reference, "region {} footer differs from its zeroed rebuild", region);
                for e in 0..count {
                    let at = 32 + e * 16;
                    listed.insert(u64::from_le_bytes(block[at..at + 8].try_into().unwrap()));
                }
            }
            for key in loc.persisted_keys() {
                prop_assert!(listed.contains(&key), "persisted key {} is in no footer", key);
            }
            for key in &deleted {
                prop_assert!(!listed.contains(key), "deleted key {} is still in a footer", key);
            }
        }
    }
}

mod shard_routing_props {
    use fdpcache_cache::shard_index;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Routing is total and deterministic over arbitrary keys: any
        /// `(key, shards)` pair maps to one in-range index, the same
        /// one every time.
        #[test]
        fn shard_index_total_and_deterministic(
            keys in prop::collection::vec(any::<u64>(), 1..200),
            shards in 1usize..=64,
        ) {
            for &key in &keys {
                let idx = shard_index(key, shards);
                prop_assert!(idx < shards, "key {key} routed out of range: {idx} >= {shards}");
                prop_assert_eq!(idx, shard_index(key, shards), "routing not deterministic");
            }
        }

        /// Routing is roughly uniform: a chi-square statistic over the
        /// shard occupancy of a contiguous key block stays within a
        /// generous bound of its (shards − 1)-degree expectation.
        /// Contiguous keys are the adversarial input — trace keys are
        /// dense anonymized ids — and the splitmix64 finalizer must
        /// still spread them.
        #[test]
        fn shard_index_spreads_keys_uniformly(base in any::<u64>(), shards in 2usize..=16) {
            const SAMPLES: u64 = 8_000;
            let mut counts = vec![0u64; shards];
            for i in 0..SAMPLES {
                counts[shard_index(base.wrapping_add(i), shards)] += 1;
            }
            let expected = SAMPLES as f64 / shards as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| {
                    let d = c as f64 - expected;
                    d * d / expected
                })
                .sum();
            // 99.999th-percentile of χ²(15) is ≈ 51; the bound below
            // is looser still at every shard count, so a genuinely
            // skewed hash fails while statistical noise never does.
            let bound = 4.0 * shards as f64 + 24.0;
            prop_assert!(chi2 < bound, "chi2 {chi2:.1} over bound {bound:.1}: {counts:?}");
        }

        /// The multi-threaded replayer's partition (`shard % workers`)
        /// balances shard ownership across workers — every worker owns
        /// ⌊N/M⌋ or ⌈N/M⌉ shards — and routing stays stable when
        /// evaluated concurrently from many threads, so a request is
        /// claimed by exactly one worker no matter which thread asks.
        #[test]
        fn shard_partition_is_balanced_and_thread_stable(
            keys in prop::collection::vec(any::<u64>(), 1..64),
            shards in 1usize..=16,
            workers in 1usize..=8,
        ) {
            let mut owned = vec![0usize; workers];
            for s in 0..shards {
                owned[s % workers] += 1;
            }
            for &count in &owned {
                prop_assert!(
                    (shards / workers..=shards.div_ceil(workers)).contains(&count),
                    "unbalanced ownership {owned:?} for {shards} shards / {workers} workers"
                );
            }
            // Each worker evaluates the routing independently on its
            // own thread (as run_pool_round does); their claims must
            // partition every key set exactly.
            let claims: Vec<Vec<u64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let keys = &keys;
                        scope.spawn(move || {
                            keys.iter()
                                .copied()
                                .filter(|&k| shard_index(k, shards) % workers == w)
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("claim thread")).collect()
            });
            let mut claimed: Vec<u64> = claims.into_iter().flatten().collect();
            claimed.sort_unstable();
            let mut expected = keys.clone();
            expected.sort_unstable();
            prop_assert_eq!(claimed, expected, "workers must claim every key exactly once");
        }
    }
}

mod pool_props {
    use fdpcache_cache::builder::{build_device, StoreKind};
    use fdpcache_cache::value::Value;
    use fdpcache_cache::{CacheConfig, ConcurrentPool, GetOutcome, NvmConfig};
    use fdpcache_core::RoundRobinPolicy;
    use fdpcache_ftl::FtlConfig;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum PoolOp {
        Put { key: u8, size: u16 },
        Get { key: u8 },
        Delete { key: u8 },
    }

    fn pool_op() -> impl Strategy<Value = PoolOp> {
        prop_oneof![
            (any::<u8>(), 1..2_000u16).prop_map(|(key, size)| PoolOp::Put { key, size }),
            any::<u8>().prop_map(|key| PoolOp::Get { key }),
            any::<u8>().prop_map(|key| PoolOp::Delete { key }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Pool semantics against a reference map: a non-miss GET always
        /// returns the size of the latest PUT, never a deleted or stale
        /// value (evictions may turn hits into misses, which the model
        /// allows).
        #[test]
        fn pool_matches_reference_map(ops in prop::collection::vec(pool_op(), 1..150), pairs in 1..3usize) {
            let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
            let config = CacheConfig {
                ram_bytes: 4 << 10,
                ram_item_overhead: 0,
                nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
                use_fdp: true,
            };
            let pool = ConcurrentPool::new(&ctrl, &config, pairs, 0.9, || {
                Box::new(RoundRobinPolicy::new())
            })
            .unwrap();
            let mut model: std::collections::HashMap<u64, u32> = Default::default();
            for op in ops {
                match op {
                    PoolOp::Put { key, size } => {
                        pool.put(key as u64, Value::synthetic(size as u32)).unwrap();
                        model.insert(key as u64, size as u32);
                    }
                    PoolOp::Get { key } => {
                        let (outcome, v) = pool.get(key as u64).unwrap();
                        if outcome != GetOutcome::Miss {
                            let got = v.expect("hit carries value").len() as u32;
                            let expected = model.get(&(key as u64)).copied();
                            prop_assert_eq!(Some(got), expected, "stale value for key {}", key);
                        }
                    }
                    PoolOp::Delete { key } => {
                        pool.delete(key as u64).unwrap();
                        model.remove(&(key as u64));
                        let (outcome, _) = pool.get(key as u64).unwrap();
                        prop_assert_eq!(outcome, GetOutcome::Miss, "delete must stick for key {}", key);
                    }
                }
            }
        }
    }
}
