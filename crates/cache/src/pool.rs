//! Engine pools: multiple `<SOC, LOC>` engine pairs on one device.
//!
//! "A single instance of CacheLib can consist of multiple DRAM and SSD
//! cache engines, each with their configured resource budgets" (§2.3),
//! and the placement allocator hands *each* pair its own handles: "SOC
//! and LOC in each I/O engine pair get different allocation of placement
//! handles during initialization" (§5.3).
//!
//! [`EnginePool`] builds `pairs` hybrid caches, each on its own
//! namespace slice of the shared device with its own DRAM budget, and
//! routes keys by hash. With FDP enabled and enough device RUHs
//! (2 × pairs), every SOC and LOC across the pool writes through a
//! distinct reclaim unit handle — the full-device use of the paper's
//! 8-handle PM9D3 configuration.
//!
//! `EnginePool` itself is the single-threaded (`&mut self`) variant;
//! [`crate::ConcurrentPool`] wraps the same shards behind per-shard
//! mutexes and adds the lock-free DRAM-hit read path. The shard
//! routing here ([`shard_index`]) is shared by both.

use fdpcache_core::{PlacementPolicy, SharedController};
use fdpcache_nvme::NamespaceId;

use crate::builder::{attach, create_namespace};
use crate::cache::{GetOutcome, HybridCache};
use crate::config::CacheConfig;
use crate::error::CacheError;
use crate::stats::CacheStats;
use crate::value::Value;
use crate::Key;

/// A pool of hybrid caches sharding one device by key hash.
#[derive(Debug)]
pub struct EnginePool {
    shards: Vec<HybridCache>,
}

/// splitmix64 finalizer — the same uniform hash family the SOC uses.
fn shard_hash(key: Key) -> u64 {
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard a key routes to in a pool of `shards` shards.
///
/// Deterministic and total: every `(key, shards)` pair with
/// `shards > 0` maps to exactly one index in `0..shards`, always the
/// same one. [`EnginePool`] and [`crate::ConcurrentPool`] share this
/// routing, so a key's home shard does not depend on which pool flavor
/// serves it.
///
/// # Panics
///
/// Panics if `shards == 0` (a pool cannot be empty).
pub fn shard_index(key: Key, shards: usize) -> usize {
    assert!(shards > 0, "shard routing over an empty pool");
    (shard_hash(key) % shards as u64) as usize
}

/// Bytes-weighted pool ALWA over per-shard `(device, application)`
/// byte totals ([`HybridCache::amp_bytes`]); 1.0 before any
/// application bytes reach flash. Shared by both pool flavors so the
/// amplification definition cannot drift between them.
pub(crate) fn pool_alwa(amp: impl Iterator<Item = (u64, u64)>) -> f64 {
    let (dev, app) = amp.fold((0u64, 0u64), |(d, a), (dev, app)| (d + dev, a + app));
    if app == 0 {
        1.0
    } else {
        dev as f64 / app as f64
    }
}

impl EnginePool {
    /// Builds `pairs` engine pairs over the controller, splitting
    /// `total_utilization` of the device's unallocated capacity and the
    /// configured DRAM budget evenly among them.
    ///
    /// The policy decides handle assignment pair by pair; with the
    /// default round-robin policy and ≥ `2 × pairs` device RUHs every
    /// engine gets a dedicated handle, and with one more than that all
    /// pairs' LOC footers share the next one.
    ///
    /// # Errors
    ///
    /// [`CacheError::Config`] for a zero pair count; otherwise
    /// propagates namespace/cache construction failures.
    pub fn new(
        ctrl: &SharedController,
        config: &CacheConfig,
        pairs: usize,
        total_utilization: f64,
        mut policy_factory: impl FnMut() -> Box<dyn PlacementPolicy>,
    ) -> Result<Self, CacheError> {
        if pairs == 0 {
            return Err(CacheError::Config("engine pool needs at least one pair".into()));
        }
        let mut shards = Vec::with_capacity(pairs);
        let per_shard_config =
            CacheConfig { ram_bytes: (config.ram_bytes / pairs as u64).max(1), ..config.clone() };
        let num_ruhs = ctrl.config().num_ruhs;
        for pair in 0..pairs {
            // Each shard takes an equal share of the ORIGINAL capacity:
            // shard i takes share/(remaining fraction) of what is left.
            let frac = crate::builder::equal_share_fraction(pair, pairs, total_utilization);
            let ruh_list = (0..num_ruhs).collect();
            let nsid = create_namespace(ctrl, frac, ruh_list)?;
            let (io, mut allocator) = attach(ctrl, nsid, config, policy_factory(), pair, pairs)?;
            shards.push(HybridCache::new(&per_shard_config, io, &mut allocator)?);
        }
        Ok(EnginePool { shards })
    }

    /// Rebuilds a pool after a crash from the namespaces a previous
    /// [`EnginePool::new`] carved (DESIGN.md §6.6). `nsids` lists those
    /// namespaces **in pair order** — namespaces survive in the
    /// controller and cannot be re-carved, so recovery reattaches them.
    /// Handle assignment replays the exact construction sequence of
    /// `new` (the same per-pair allocator, then SOC, LOC and metadata
    /// handle inside [`HybridCache::recover`]), so every engine lands
    /// back on the reclaim unit handles it wrote through before the
    /// crash.
    ///
    /// Each shard's flash-resident state (SOC buckets, sealed LOC
    /// regions) is rebuilt from on-device metadata; DRAM contents,
    /// read indexes and statistics start empty.
    ///
    /// # Errors
    ///
    /// [`CacheError::Config`] for an empty namespace list; otherwise
    /// propagates attach/recovery failures.
    pub fn recover(
        ctrl: &SharedController,
        config: &CacheConfig,
        nsids: &[NamespaceId],
        mut policy_factory: impl FnMut() -> Box<dyn PlacementPolicy>,
    ) -> Result<Self, CacheError> {
        if nsids.is_empty() {
            return Err(CacheError::Config("engine pool needs at least one pair".into()));
        }
        let pairs = nsids.len();
        let mut shards = Vec::with_capacity(pairs);
        let per_shard_config =
            CacheConfig { ram_bytes: (config.ram_bytes / pairs as u64).max(1), ..config.clone() };
        for (pair, &nsid) in nsids.iter().enumerate() {
            let (io, mut allocator) = attach(ctrl, nsid, config, policy_factory(), pair, pairs)?;
            shards.push(HybridCache::recover(&per_shard_config, io, &mut allocator)?);
        }
        Ok(EnginePool { shards })
    }

    /// Number of engine pairs.
    pub fn pairs(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to.
    pub fn shard_of(&self, key: Key) -> usize {
        shard_index(key, self.shards.len())
    }

    /// Consumes the pool, yielding its shards in index order (the
    /// conversion path into [`crate::ConcurrentPool`], which re-wraps
    /// each shard behind its own lock).
    pub fn into_shards(self) -> Vec<HybridCache> {
        self.shards
    }

    /// Immutable access to a shard.
    pub fn shard(&self, idx: usize) -> Option<&HybridCache> {
        self.shards.get(idx)
    }

    /// The shard `key` routes to, for a caller that serves the request
    /// itself.
    pub fn shard_for(&mut self, key: Key) -> &mut HybridCache {
        let idx = self.shard_of(key);
        &mut self.shards[idx]
    }

    /// Looks up `key` in its shard.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn get(&mut self, key: Key) -> Result<(GetOutcome, Option<Value>), CacheError> {
        self.shard_for(key).get(key)
    }

    /// Inserts `key` into its shard.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and size rejections.
    pub fn put(&mut self, key: Key, value: Value) -> Result<(), CacheError> {
        self.shard_for(key).put(key, value)
    }

    /// Deletes `key` from its shard.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn delete(&mut self, key: Key) -> Result<bool, CacheError> {
        self.shard_for(key).delete(key)
    }

    /// Aggregated statistics across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total = total.merge(&s.stats());
        }
        total
    }

    /// Pool-wide ALWA (bytes-weighted across shards).
    pub fn alwa(&self) -> f64 {
        pool_alwa(self.shards.iter().map(HybridCache::amp_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_device, StoreKind};
    use crate::config::NvmConfig;
    use fdpcache_core::RoundRobinPolicy;
    use fdpcache_ftl::FtlConfig;

    fn pool(pairs: usize, fdp: bool) -> (SharedController, EnginePool) {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, fdp).unwrap();
        let config = CacheConfig {
            ram_bytes: 8192,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: fdp,
        };
        let pool =
            EnginePool::new(&ctrl, &config, pairs, 0.9, || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        (ctrl, pool)
    }

    #[test]
    fn zero_pairs_rejected() {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 4096,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        assert!(matches!(
            EnginePool::new(&ctrl, &config, 0, 0.9, || Box::new(RoundRobinPolicy::new())),
            Err(CacheError::Config(_))
        ));
    }

    #[test]
    fn keys_route_deterministically_and_serve() {
        let (_ctrl, mut p) = pool(2, true);
        for k in 0..200u64 {
            p.put(k, Value::synthetic(64)).unwrap();
        }
        for k in 0..200u64 {
            let (_, v) = p.get(k).unwrap();
            assert_eq!(v.expect("present").len(), 64, "key {k}");
        }
        assert_eq!(p.stats().gets, 200);
        assert_eq!(p.stats().puts, 200);
    }

    #[test]
    fn shards_receive_balanced_traffic() {
        let (_ctrl, p) = pool(2, true);
        let counts = (0..10_000u64).fold([0usize; 2], |mut acc, k| {
            acc[p.shard_of(k)] += 1;
            acc
        });
        for c in counts {
            assert!((4_000..6_000).contains(&c), "unbalanced shards: {counts:?}");
        }
    }

    #[test]
    fn pairs_use_disjoint_handles_with_fdp() {
        let (ctrl, p) = pool(2, true);
        let mut ruhs = Vec::new();
        for (i, shard) in p.shards.iter().enumerate() {
            let nsid = (i + 1) as u32;
            let ns = ctrl.namespace(nsid).unwrap();
            for h in [shard.navy().soc().handle(), shard.navy().loc().handle()] {
                ruhs.push(ns.resolve_pid(h.dspec().expect("fdp handle")).unwrap());
            }
        }
        ruhs.sort_unstable();
        ruhs.dedup();
        assert_eq!(ruhs.len(), 4, "2 pairs must occupy 4 distinct device RUHs");
    }

    #[test]
    fn nonfdp_pool_uses_default_handles() {
        let (_ctrl, p) = pool(2, false);
        for shard in &p.shards {
            assert!(shard.navy().soc().handle().is_default());
            assert!(shard.navy().loc().handle().is_default());
            assert!(shard.navy().loc().meta_handle().is_default());
        }
    }

    #[test]
    fn footers_take_the_first_free_handle_or_stay_with_their_loc() {
        // The tiny device has 4 RUHs. One pair leaves two free: footers
        // get the first of them.
        let (_ctrl, p) = pool(1, true);
        let loc = p.shards[0].navy().loc();
        assert_eq!(loc.meta_handle().dspec(), Some(2));
        // Two pairs use all four: each LOC keeps its own footers, and
        // none falls onto the default handle (pair 0's SOC stream).
        let (_ctrl, p) = pool(2, true);
        for shard in &p.shards {
            let loc = shard.navy().loc();
            assert_eq!(loc.meta_handle(), loc.handle());
            assert!(!loc.meta_handle().is_default());
        }
    }

    #[test]
    fn deletes_route_to_owning_shard() {
        let (_ctrl, mut p) = pool(2, true);
        p.put(42, Value::synthetic(64)).unwrap();
        assert!(p.delete(42).unwrap());
        let (outcome, _) = p.get(42).unwrap();
        assert_eq!(outcome, GetOutcome::Miss);
        assert!(!p.delete(42).unwrap());
    }

    #[test]
    fn pool_recovers_surviving_shards_after_crash() {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 2048,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let mut p =
            EnginePool::new(&ctrl, &config, 2, 0.9, || Box::new(RoundRobinPolicy::new())).unwrap();
        for k in 0..300u64 {
            p.put(k, Value::synthetic(64)).unwrap();
        }
        p.delete(7).unwrap();
        let survivors: Vec<(usize, Vec<u64>)> =
            p.shards.iter().enumerate().map(|(i, s)| (i, s.persisted_keys())).collect();
        let handles = |s: &HybridCache| {
            let navy = s.navy();
            (navy.soc().handle(), navy.loc().handle(), navy.loc().meta_handle())
        };
        let old_handles: Vec<_> = p.shards.iter().map(handles).collect();
        drop(p);
        // Namespaces 1 and 2 survive in the controller; reattach them.
        let r = EnginePool::recover(&ctrl, &config, &[1, 2], || Box::new(RoundRobinPolicy::new()))
            .unwrap();
        let mut r = r;
        for (shard, keys) in &survivors {
            assert!(!keys.is_empty(), "shard {shard} never reached flash");
            for k in keys {
                assert_ne!(*k, 7, "deleted key must not be persisted");
                let idx = r.shard_of(*k);
                assert_eq!(idx, *shard, "routing must be stable across recovery");
                let (_, v) = r.get(*k).unwrap();
                assert!(v.is_some(), "sealed key {k} lost across pool recovery");
            }
        }
        let (outcome, _) = r.get(7).unwrap();
        assert_eq!(outcome, GetOutcome::Miss, "deleted key resurrected by recovery");
        for (i, s) in r.shards.iter().enumerate() {
            assert_eq!(
                handles(s),
                old_handles[i],
                "shard {i} must recover onto its pre-crash placement handles"
            );
        }
    }

    #[test]
    fn recover_rejects_empty_namespace_list() {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 4096,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        assert!(matches!(
            EnginePool::recover(&ctrl, &config, &[], || Box::new(RoundRobinPolicy::new())),
            Err(CacheError::Config(_))
        ));
    }

    #[test]
    fn alwa_aggregates_across_shards() {
        let (_ctrl, mut p) = pool(2, true);
        for k in 0..500u64 {
            p.put(k, Value::synthetic(64)).unwrap();
        }
        // 64-byte objects in 4 KiB buckets: pool ALWA far above 1.
        assert!(p.alwa() > 2.0, "alwa = {}", p.alwa());
    }
}
