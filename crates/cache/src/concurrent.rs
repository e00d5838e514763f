//! A thread-safe sharded cache tier: [`ConcurrentPool`].
//!
//! [`crate::EnginePool`] routes keys across N `<SOC, LOC>` engine pairs
//! but takes `&mut self`, so the paper's multi-worker topology (one
//! queue pair per worker thread, §5.4) used to stop at the device
//! boundary: N threads could share the *device* (PR 1's fine-grained
//! controller locking) but not the *cache* above it. `ConcurrentPool`
//! closes that gap — `get`/`put`/`delete` take `&self` and are callable
//! from any thread.
//!
//! Design (DESIGN.md §5.1):
//!
//! * Each shard is a complete [`HybridCache`] (DRAM LRU + SOC + LOC) on
//!   its own namespace of the shared device, behind its **own**
//!   [`parking_lot::Mutex`]. Keys route by the same splitmix64 hash the
//!   engine pool uses ([`crate::pool::shard_index`]), so two operations
//!   contend only when their keys share a shard — the classic
//!   CacheLib-style sharded-pool locking model. (An owning-worker-thread
//!   variant with a bounded request channel was considered; the
//!   lock-per-shard design won on the vendored crossbeam shim, whose
//!   `std::sync::mpsc`-backed channels serialize every request through
//!   an extra hop, and keeps the call path synchronous.)
//! * Per-key operations take exactly one shard lock; nothing in the
//!   pool holds two shard locks at once, so there is no lock-ordering
//!   hazard and no pool-wide serialization point on the data path.
//! * Aggregate views ([`ConcurrentPool::stats`], latency histograms,
//!   ALWA) lock shards one at a time and merge on read — the same
//!   merge-on-read pattern the controller uses for its per-namespace
//!   atomic statistics. A merged snapshot is therefore *per-shard
//!   consistent* but not a point-in-time cut across shards.
//! * Each shard's virtual clock advances independently (its own queue
//!   pair); [`ConcurrentPool::now_ns`] reports the **maximum** across
//!   shards, i.e. the completion frontier of the parallel shard array.
//!
//! * **Lock-free DRAM hits** (DESIGN.md §5.1a): `get` first probes the
//!   shard's epoch-protected [`ReadIndex`] — the publication surface
//!   its `RamCache` maintains — entirely without the shard mutex. A hit
//!   clones the `Arc`-backed value, bumps the calling thread's stripe of
//!   the shard's [`ReadSideStats`] (one counter: hits, and through them
//!   virtual host time), and returns. Only on an index miss does `get`
//!   fall back to the locked path for the flash lookup. Readers on the
//!   head of a Zipf keyspace therefore never serialize behind writers or
//!   each other, and what a hit reads of the shard sits on lines no
//!   writer dirties.
//!
//! What is and is not linearizable: operations on the *same key* are
//! linearizable. Writes serialize through the key's shard lock, and a
//! lock-free read observes the index — which the writer updates *while
//! holding the lock* — so a completed `put` is visible to every later
//! `get` on any thread, and a completed `delete` (which unpublishes
//! before the lock is released) can never be observed un-deleted.
//! Multi-key reads (`stats`, `alwa`) and operations on different keys
//! have no cross-shard ordering guarantees.

use std::mem::offset_of;
use std::sync::Arc;

use fdpcache_core::{IoStats, PlacementPolicy, SharedController};
use fdpcache_metrics::Histogram;
use parking_lot::Mutex;

use crate::cache::{GetOutcome, HybridCache};
use crate::config::CacheConfig;
use crate::error::CacheError;
use crate::index::ReadIndex;
use crate::pool::{shard_index, EnginePool};
use crate::stats::{CacheStats, ReadSideStats};
use crate::value::Value;
use crate::Key;

/// Unlocked handles onto a shard's read index and read-side counters
/// (cloned out of the cache at construction so `get` can use them
/// without touching the mutex). Never written afterwards, and aligned so
/// that nothing else shares their 128-byte line.
#[derive(Debug)]
#[repr(align(128))]
struct ReadHandles {
    index: Arc<ReadIndex>,
    read_stats: Arc<ReadSideStats>,
}

/// One shard: the read-only handles a DRAM hit goes through, then the
/// locked hybrid cache, whose mutex word and contents every SET dirties.
#[derive(Debug)]
#[repr(C)]
struct Shard {
    read: ReadHandles,
    cache: Mutex<HybridCache>,
}

const _: () = {
    assert!(align_of::<Shard>() == 128 && size_of::<Shard>().is_multiple_of(128));
    assert!(offset_of!(Shard, read) == 0 && size_of::<ReadHandles>() == 128);
    assert!(offset_of!(Shard, cache) == 128);
};

impl Shard {
    fn new(cache: HybridCache) -> Self {
        let read = ReadHandles { index: cache.read_index(), read_stats: cache.read_stats() };
        Shard { read, cache: Mutex::new(cache) }
    }
}

/// A concurrent sharded cache pool: N locked [`HybridCache`] shards on
/// one shared device, callable from any thread through `&self`. DRAM
/// hits are served lock-free (see the module docs).
#[derive(Debug)]
pub struct ConcurrentPool {
    shards: Vec<Shard>,
}

impl ConcurrentPool {
    /// Builds `shards` engine pairs over the controller — same
    /// construction as [`EnginePool::new`] (equal capacity/DRAM split,
    /// staggered placement-handle assignment) — and wraps each behind
    /// its own lock.
    ///
    /// # Errors
    ///
    /// [`CacheError::Config`] for a zero shard count; otherwise
    /// propagates namespace/cache construction failures.
    pub fn new(
        ctrl: &SharedController,
        config: &CacheConfig,
        shards: usize,
        total_utilization: f64,
        policy_factory: impl FnMut() -> Box<dyn PlacementPolicy>,
    ) -> Result<Self, CacheError> {
        Ok(Self::from_engine_pool(EnginePool::new(
            ctrl,
            config,
            shards,
            total_utilization,
            policy_factory,
        )?))
    }

    /// Wraps an already-built engine pool's shards behind per-shard
    /// locks, making them callable from any thread.
    pub fn from_engine_pool(pool: EnginePool) -> Self {
        ConcurrentPool { shards: pool.into_shards().into_iter().map(Shard::new).collect() }
    }

    /// Rebuilds a concurrent pool after a crash from the surviving
    /// namespaces, via [`EnginePool::recover`]. Every shard wrapper is
    /// constructed fresh: the lock-free read path starts on the
    /// recovered cache's **new, empty** [`ReadIndex`] and zeroed
    /// [`ReadSideStats`] — no epoch-protected node from the crashed
    /// instance can be observed, and keys deleted before the crash
    /// cannot be resurrected through a stale index handle
    /// (DESIGN.md §6.6).
    ///
    /// # Errors
    ///
    /// [`CacheError::Config`] for an empty namespace list; otherwise
    /// propagates attach/recovery failures.
    pub fn recover(
        ctrl: &SharedController,
        config: &CacheConfig,
        nsids: &[fdpcache_nvme::NamespaceId],
        policy_factory: impl FnMut() -> Box<dyn PlacementPolicy>,
    ) -> Result<Self, CacheError> {
        Ok(Self::from_engine_pool(EnginePool::recover(ctrl, config, nsids, policy_factory)?))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to (same routing as
    /// [`EnginePool::shard_of`]).
    pub fn shard_of(&self, key: Key) -> usize {
        shard_index(key, self.shards.len())
    }

    /// Runs `f` with exclusive access to shard `idx` (replay drivers
    /// pin a tenant to a shard; tests inspect engines). Returns `None`
    /// for an out-of-range index.
    pub fn with_shard<R>(&self, idx: usize, f: impl FnOnce(&mut HybridCache) -> R) -> Option<R> {
        self.shards.get(idx).map(|s| f(&mut s.cache.lock()))
    }

    /// Looks up `key` in its shard. Callable from any thread.
    ///
    /// A DRAM hit is served **without the shard lock**: the probe walks
    /// the shard's epoch-protected read index, records the hit in the
    /// calling thread's stripe of the shard's hit counter (which also
    /// carries the per-op virtual host time), and returns an
    /// `Arc`-shared value. Flash lookups and misses fall back to the
    /// locked path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn get(&self, key: Key) -> Result<(GetOutcome, Option<Value>), CacheError> {
        let shard = &self.shards[self.shard_of(key)];
        if let Some(value) = shard.read.index.get(key) {
            shard.read.read_stats.record_ram_hit();
            return Ok((GetOutcome::RamHit, Some(value)));
        }
        shard.cache.lock().get(key)
    }

    /// Looks up `key` through the shard lock unconditionally — the
    /// pre-lock-free read path, kept callable as the reference the
    /// lock-free property tests compare against.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn get_locked(&self, key: Key) -> Result<(GetOutcome, Option<Value>), CacheError> {
        self.shards[self.shard_of(key)].cache.lock().get(key)
    }

    /// Inserts `key` into its shard. Callable from any thread.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and size rejections.
    pub fn put(&self, key: Key, value: Value) -> Result<(), CacheError> {
        self.shards[self.shard_of(key)].cache.lock().put(key, value)
    }

    /// Deletes `key` from its shard. Callable from any thread.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn delete(&self, key: Key) -> Result<bool, CacheError> {
        self.shards[self.shard_of(key)].cache.lock().delete(key)
    }

    /// Runs an epoch-reclamation sweep on every shard's read index and
    /// returns the retired nodes still awaiting their grace period —
    /// the bounded-memory probe of the reclamation safety tests.
    pub fn collect_read_garbage(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read.index.collect();
                s.read.index.garbage_len()
            })
            .sum()
    }

    /// Toggles flash-hit promotion into DRAM on every shard.
    pub fn set_promote_on_nvm_hit(&self, promote: bool) {
        for s in &self.shards {
            s.cache.lock().set_promote_on_nvm_hit(promote);
        }
    }

    /// Reconfigures every shard's device queue depth (commands kept in
    /// flight; 1 = synchronous per-command model).
    pub fn set_queue_depth(&self, depth: usize) {
        for s in &self.shards {
            s.cache.lock().set_queue_depth(depth);
        }
    }

    /// Reaps every shard's in-flight device completions, advancing each
    /// virtual clock past its last one. Call at measurement boundaries
    /// when replaying with a queue depth above 1 (the virtual-time
    /// frontier [`ConcurrentPool::now_ns`] only reflects reaped work).
    pub fn drain_io(&self) {
        for s in &self.shards {
            s.cache.lock().drain_io();
        }
    }

    /// Empties every shard's device latency histograms (see
    /// [`HybridCache::reset_latency`]).
    pub fn reset_latency(&self) {
        for s in &self.shards {
            s.cache.lock().reset_latency();
        }
    }

    /// Retunes every shard's breaker probe-backoff schedule (see
    /// [`HybridCache::set_breaker_backoff`]).
    pub fn set_breaker_backoff(&self, initial_ns: u64, max_ns: u64) {
        for s in &self.shards {
            s.cache.lock().set_breaker_backoff(initial_ns, max_ns);
        }
    }

    /// Runs one budgeted patrol-scrub slice on every shard (the page
    /// budget applies per shard; see [`HybridCache::scrub`]). Shards
    /// whose breaker is open skip their slice. Returns the pool totals
    /// `(pages_read, repairs)`.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures.
    pub fn scrub(&self, budget_pages_per_shard: u64) -> Result<(u64, u64), CacheError> {
        let mut pages = 0;
        let mut repairs = 0;
        for s in &self.shards {
            let (p, r) = s.cache.lock().scrub(budget_pages_per_shard)?;
            pages += p;
            repairs += r;
        }
        Ok((pages, repairs))
    }

    /// Aggregated cache statistics, merged on read shard by shard
    /// (per-shard consistent, not a cross-shard point-in-time cut).
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |acc, s| acc.merge(&s.cache.lock().stats()))
    }

    /// Aggregated device-side I/O counters across every shard's queue
    /// pair.
    pub fn io_stats(&self) -> IoStats {
        self.shards
            .iter()
            .fold(IoStats::default(), |acc, s| acc.merge(&s.cache.lock().navy().io().stats()))
    }

    /// Pool-wide ALWA (bytes-weighted across shards).
    pub fn alwa(&self) -> f64 {
        crate::pool::pool_alwa(self.shards.iter().map(|s| s.cache.lock().amp_bytes()))
    }

    /// The pool's virtual-time frontier: the maximum simulated clock
    /// across shards. Shards run in parallel, so the slowest shard's
    /// clock is when the pool as a whole is done with submitted work.
    pub fn now_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.lock().now_ns()).max().unwrap_or(0)
    }

    /// Merged device read-latency histogram across shards.
    pub fn read_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.shards {
            h.merge(s.cache.lock().navy().read_latency());
        }
        h
    }

    /// Merged device write-latency histogram across shards.
    pub fn write_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.shards {
            h.merge(s.cache.lock().navy().write_latency());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_device, StoreKind};
    use crate::config::NvmConfig;
    use fdpcache_core::RoundRobinPolicy;
    use fdpcache_ftl::FtlConfig;

    fn pool(shards: usize) -> (SharedController, ConcurrentPool) {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 8192,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let pool =
            ConcurrentPool::new(&ctrl, &config, shards, 0.9, || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        (ctrl, pool)
    }

    #[test]
    fn zero_shards_rejected() {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 4096,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        assert!(matches!(
            ConcurrentPool::new(&ctrl, &config, 0, 0.9, || Box::new(RoundRobinPolicy::new())),
            Err(CacheError::Config(_))
        ));
    }

    #[test]
    fn serves_through_shared_reference() {
        let (_ctrl, p) = pool(2);
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
    fn routing_matches_engine_pool() {
        let (_ctrl, p) = pool(4);
        for k in 0..1_000u64 {
            assert_eq!(p.shard_of(k), shard_index(k, 4));
        }
    }

    #[test]
    fn threads_share_the_pool_without_losing_ops() {
        let (ctrl, p) = pool(4);
        const THREADS: u64 = 4;
        const OPS: u64 = 500;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let p = &p;
                scope.spawn(move || {
                    for i in 0..OPS {
                        let key = t * OPS + i;
                        p.put(key, Value::synthetic(64)).unwrap();
                        let (_, v) = p.get(key).unwrap();
                        assert_eq!(v.expect("own put visible").len(), 64);
                    }
                });
            }
        });
        let s = p.stats();
        assert_eq!(s.puts, THREADS * OPS);
        assert_eq!(s.gets, THREADS * OPS);
        ctrl.with_ftl(|f| f.check_invariants());
    }

    #[test]
    fn delete_routes_to_owning_shard() {
        let (_ctrl, p) = pool(2);
        p.put(42, Value::synthetic(64)).unwrap();
        assert!(p.delete(42).unwrap());
        let (outcome, _) = p.get(42).unwrap();
        assert_eq!(outcome, GetOutcome::Miss);
        assert!(!p.delete(42).unwrap());
    }

    #[test]
    fn recovered_pool_starts_with_empty_read_indexes() {
        let (ctrl, p) = pool(2);
        for k in 0..300u64 {
            p.put(k, Value::synthetic(64)).unwrap();
        }
        p.delete(11).unwrap();
        let survivors: Vec<u64> =
            (0..2).flat_map(|i| p.with_shard(i, |c| c.persisted_keys()).unwrap()).collect();
        assert!(!survivors.is_empty());
        let config = CacheConfig {
            ram_bytes: 8192,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        drop(p);
        let r =
            ConcurrentPool::recover(&ctrl, &config, &[1, 2], || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        // Fresh read path: nothing published, no epoch garbage pending.
        for k in &survivors {
            let s = &r.shards[r.shard_of(*k)];
            assert!(s.read.index.get(*k).is_none(), "recovered shard must start unpublished");
        }
        assert_eq!(r.collect_read_garbage(), 0);
        assert_eq!(r.stats().gets, 0, "recovered stats must start zeroed");
        // Flash survivors serve (through the locked path — DRAM is cold)
        // and the pre-crash delete holds on both read paths.
        for k in &survivors {
            let (_, v) = r.get(*k).unwrap();
            assert!(v.is_some(), "sealed key {k} lost across recovery");
        }
        let (outcome, _) = r.get(11).unwrap();
        assert_eq!(outcome, GetOutcome::Miss, "lock-free path resurrected a deleted key");
        let (outcome, _) = r.get_locked(11).unwrap();
        assert_eq!(outcome, GetOutcome::Miss, "locked path resurrected a deleted key");
    }

    #[test]
    fn pool_scrub_patrols_every_shard() {
        let (_ctrl, p) = pool(2);
        for k in 0..500u64 {
            p.put(k, Value::synthetic(64)).unwrap();
        }
        let (pages, repairs) = p.scrub(100_000).unwrap();
        assert!(pages > 0, "patrol must cover flash-resident state");
        assert_eq!(repairs, 0, "clean device must need no repairs");
        assert_eq!(p.stats().scrubbed_pages, pages);
        for k in 0..500u64 {
            let (_, v) = p.get(k).unwrap();
            assert!(v.is_some(), "scrub must not disturb key {k}");
        }
    }

    #[test]
    fn merged_views_cover_all_shards() {
        let (_ctrl, p) = pool(2);
        for k in 0..500u64 {
            p.put(k, Value::synthetic(64)).unwrap();
        }
        assert!(p.alwa() > 1.0, "alwa = {}", p.alwa());
        assert!(p.io_stats().writes > 0);
        assert!(p.write_latency().count() > 0);
        assert!(p.now_ns() > 0);
        assert!(p.with_shard(0, |c| c.stats().puts).unwrap() > 0);
        assert!(p.with_shard(99, |_| ()).is_none());
    }
}
