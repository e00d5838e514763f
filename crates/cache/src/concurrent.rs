//! Engine pools: [`ConcurrentPool`], multiple `<SOC, LOC>` engine pairs
//! on one device, callable from any thread.
//!
//! "A single instance of CacheLib can consist of multiple DRAM and SSD
//! cache engines, each with their configured resource budgets" (§2.3),
//! and the placement allocator hands *each* pair its own handles: "SOC
//! and LOC in each I/O engine pair get different allocation of placement
//! handles during initialization" (§5.3). With FDP enabled and enough
//! device RUHs (2 × pairs), every SOC and LOC across the pool writes
//! through a distinct reclaim unit handle — the full-device use of the
//! paper's 8-handle PM9D3 configuration. `get`/`put`/`delete` take
//! `&self`, so the paper's multi-worker topology (one queue pair per
//! worker thread, §5.4) reaches through the cache, not just the device.
//!
//! Design (DESIGN.md §5.1):
//!
//! * Each shard is a complete [`HybridCache`] (DRAM LRU + SOC + LOC) on
//!   its own namespace of the shared device, behind its **own** lock.
//!   Keys route by a splitmix64 hash ([`shard_index`]), so two
//!   operations contend only when their keys share a shard — the
//!   classic CacheLib-style sharded-pool locking model. A caller that
//!   serves a request itself (exact LRU, a virtual-time charge per op)
//!   takes the shard through [`ConcurrentPool::with_shard`].
//! * The shard lock is a FIFO handoff: a ticket pair on a line of its
//!   own, spun on and then yielded on, in front of a mutex that is
//!   therefore never contended. A waiter never parks on a futex, an
//!   unlock never pays a wake, and two clients take strict turns
//!   instead of one re-winning the lock it just released.
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

use std::hint::spin_loop;
use std::mem::offset_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use fdpcache_core::{IoStats, PlacementPolicy, SharedController};
use fdpcache_nvme::NamespaceId;
use parking_lot::{Mutex, MutexGuard};

use crate::builder::{attach, create_namespace, equal_share_fraction};
use crate::cache::{GetOutcome, HybridCache};
use crate::checksum::mix64;
use crate::config::CacheConfig;
use crate::error::CacheError;
use crate::index::ReadIndex;
use crate::stats::{CacheStats, ReadSideStats};
use crate::value::Value;
use crate::Key;

/// The shard a key routes to in a pool of `shards` shards: a splitmix64
/// finalizer — the same uniform hash family the SOC uses — modulo the
/// shard count.
///
/// Deterministic and total: every `(key, shards)` pair with
/// `shards > 0` maps to exactly one index in `0..shards`, always the
/// same one, so a key's home shard survives recovery.
///
/// # Panics
///
/// Panics if `shards == 0` (a pool cannot be empty).
pub fn shard_index(key: Key, shards: usize) -> usize {
    assert!(shards > 0, "shard routing over an empty pool");
    (mix64(key) % shards as u64) as usize
}

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

/// A shard's FIFO handoff: the ticket the next arrival takes and the
/// ticket now allowed in. Every waiter spins on `serving`, so the pair
/// sits alone on its 128-byte line: neither the read handles nor the
/// cache a holder works on share it.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Tickets {
    next: AtomicUsize,
    serving: AtomicUsize,
}

/// `spin_loop` rounds a waiter spends before it starts yielding its
/// core between checks. At ≈ 15 ns a round (2-vCPU Xeon) this is
/// ≈ 15 µs, several mean shard holds (≈ 2–4 µs), so two clients on two
/// cores hand the shard over without a syscall; a waiter whose
/// predecessor is descheduled (more threads than cores) yields so that
/// the predecessor can run and pass the turn on.
const SPIN_BUDGET: u32 = 1 << 10;

/// Exclusive access to a shard's cache. Fields drop in order: the
/// (uncontended) mutex is released before the turn passes on.
struct ShardGuard<'a> {
    cache: MutexGuard<'a, HybridCache>,
    _turn: Turn<'a>,
}

/// Passes the shard to the next ticket when dropped, unwinding
/// included.
struct Turn<'a>(&'a Tickets);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.0.serving.fetch_add(1, Ordering::Release);
    }
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = HybridCache;
    fn deref(&self) -> &HybridCache {
        &self.cache
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut HybridCache {
        &mut self.cache
    }
}

/// One shard: the read-only handles a DRAM hit goes through, the ticket
/// pair every locked operation queues on, then the hybrid cache, whose
/// contents every SET dirties.
#[derive(Debug)]
#[repr(C)]
struct Shard {
    read: ReadHandles,
    turn: Tickets,
    cache: Mutex<HybridCache>,
}

const _: () = {
    assert!(align_of::<Shard>() == 128 && size_of::<Shard>().is_multiple_of(128));
    assert!(offset_of!(Shard, read) == 0 && size_of::<ReadHandles>() == 128);
    assert!(offset_of!(Shard, turn) == 128 && size_of::<Tickets>() == 128);
    assert!(offset_of!(Shard, cache) == 256);
};

impl Shard {
    fn new(mut cache: HybridCache) -> Self {
        let read = ReadHandles { index: cache.read_index(), read_stats: cache.read_stats() };
        Shard { read, turn: Tickets::default(), cache: Mutex::new(cache) }
    }

    /// Takes the shard in arrival order: draws a ticket, spins on
    /// `serving` for [`SPIN_BUDGET`] rounds and yields between checks
    /// after that. Only the ticket holder ever locks the mutex, so that
    /// lock never waits.
    ///
    /// Orderings: `next` only hands out distinct tickets and publishes
    /// nothing, so its increment is `Relaxed`; the `Acquire` load of
    /// `serving` pairs with the previous holder's `Release` increment
    /// in [`Turn`]'s drop (the mutex orders the cache itself as well).
    fn lock(&self) -> ShardGuard<'_> {
        let ticket = self.turn.next.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0;
        while self.turn.serving.load(Ordering::Acquire) != ticket {
            if spins < SPIN_BUDGET {
                spins += 1;
                spin_loop();
            } else {
                thread::yield_now();
            }
        }
        let turn = Turn(&self.turn);
        ShardGuard { cache: self.cache.lock(), _turn: turn }
    }
}

/// A concurrent sharded cache pool: N locked [`HybridCache`] shards on
/// one shared device, callable from any thread through `&self`. DRAM
/// hits are served lock-free (see the module docs).
#[derive(Debug)]
pub struct ConcurrentPool {
    shards: Vec<Shard>,
}

/// Each shard's slice of the DRAM budget.
fn per_shard_config(config: &CacheConfig, shards: usize) -> CacheConfig {
    CacheConfig { ram_bytes: (config.ram_bytes / shards as u64).max(1), ..config.clone() }
}

impl ConcurrentPool {
    /// Builds `shards` engine pairs over the controller, splitting
    /// `total_utilization` of the device's unallocated capacity and the
    /// configured DRAM budget evenly among them, and wraps each behind
    /// its own lock.
    ///
    /// The policy decides handle assignment pair by pair; with the
    /// default round-robin policy and ≥ `2 × shards` device RUHs every
    /// engine gets a dedicated handle, and with one more than that all
    /// pairs' LOC footers share the next one.
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
        mut policy_factory: impl FnMut() -> Box<dyn PlacementPolicy>,
    ) -> Result<Self, CacheError> {
        if shards == 0 {
            return Err(CacheError::Config("engine pool needs at least one pair".into()));
        }
        let shard_config = per_shard_config(config, shards);
        let num_ruhs = ctrl.config().num_ruhs;
        let mut pool = Vec::with_capacity(shards);
        for pair in 0..shards {
            // Each shard takes an equal share of the ORIGINAL capacity.
            let frac = equal_share_fraction(pair, shards, total_utilization);
            let nsid = create_namespace(ctrl, frac, (0..num_ruhs).collect())?;
            let (io, mut allocator) = attach(ctrl, nsid, config, policy_factory(), pair, shards)?;
            pool.push(Shard::new(HybridCache::new(&shard_config, io, &mut allocator)?));
        }
        Ok(ConcurrentPool { shards: pool })
    }

    /// Rebuilds a pool after a crash from the namespaces a previous
    /// [`ConcurrentPool::new`] carved (DESIGN.md §6.6). `nsids` lists
    /// those namespaces **in pair order** — namespaces survive in the
    /// controller and cannot be re-carved, so recovery reattaches them.
    /// Handle assignment replays the exact construction sequence of
    /// `new` (the same per-pair allocator, then SOC, LOC and metadata
    /// handle inside [`HybridCache::recover`]), so every engine lands
    /// back on the reclaim unit handles it wrote through before the
    /// crash.
    ///
    /// Each shard's flash-resident state (SOC buckets, sealed LOC
    /// regions) is rebuilt from on-device metadata. Every shard wrapper
    /// is constructed fresh: the lock-free read path starts on the
    /// recovered cache's **new, empty** [`ReadIndex`] and zeroed
    /// [`ReadSideStats`] — no epoch-protected node from the crashed
    /// instance can be observed, and keys deleted before the crash
    /// cannot be resurrected through a stale index handle.
    ///
    /// # Errors
    ///
    /// [`CacheError::Config`] for an empty namespace list or one that
    /// names a namespace twice (two shards would overwrite each other's
    /// blocks); otherwise propagates attach/recovery failures.
    pub fn recover(
        ctrl: &SharedController,
        config: &CacheConfig,
        nsids: &[NamespaceId],
        mut policy_factory: impl FnMut() -> Box<dyn PlacementPolicy>,
    ) -> Result<Self, CacheError> {
        if nsids.is_empty() {
            return Err(CacheError::Config("engine pool needs at least one pair".into()));
        }
        if let Some((i, nsid)) = nsids.iter().enumerate().find(|(i, n)| nsids[..*i].contains(n)) {
            return Err(CacheError::Config(format!("namespace {nsid} listed twice (pair {i})")));
        }
        let shards = nsids.len();
        let shard_config = per_shard_config(config, shards);
        let mut pool = Vec::with_capacity(shards);
        for (pair, &nsid) in nsids.iter().enumerate() {
            let (io, mut allocator) = attach(ctrl, nsid, config, policy_factory(), pair, shards)?;
            pool.push(Shard::new(HybridCache::recover(&shard_config, io, &mut allocator)?));
        }
        Ok(ConcurrentPool { shards: pool })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to ([`shard_index`]).
    pub fn shard_of(&self, key: Key) -> usize {
        shard_index(key, self.shards.len())
    }

    /// Runs `f` with exclusive access to shard `idx` (replay drivers
    /// pin a tenant to a shard; tests inspect engines). Returns `None`
    /// for an out-of-range index.
    pub fn with_shard<R>(&self, idx: usize, f: impl FnOnce(&mut HybridCache) -> R) -> Option<R> {
        self.shards.get(idx).map(|s| f(&mut s.lock()))
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
        shard.lock().get(key)
    }

    /// Looks up `key` through the shard lock unconditionally — the
    /// pre-lock-free read path, kept callable as the reference the
    /// lock-free property tests compare against.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn get_locked(&self, key: Key) -> Result<(GetOutcome, Option<Value>), CacheError> {
        self.shards[self.shard_of(key)].lock().get(key)
    }

    /// Inserts `key` into its shard. Callable from any thread.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and size rejections.
    pub fn put(&self, key: Key, value: Value) -> Result<(), CacheError> {
        self.shards[self.shard_of(key)].lock().put(key, value)
    }

    /// Deletes `key` from its shard. Callable from any thread.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn delete(&self, key: Key) -> Result<bool, CacheError> {
        self.shards[self.shard_of(key)].lock().delete(key)
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
            s.lock().set_promote_on_nvm_hit(promote);
        }
    }

    /// Reconfigures every shard's device queue depth (commands kept in
    /// flight; 1 = synchronous per-command model).
    pub fn set_queue_depth(&self, depth: usize) {
        for s in &self.shards {
            s.lock().set_queue_depth(depth);
        }
    }

    /// Reaps every shard's in-flight device completions, advancing each
    /// virtual clock past its last one. Call at measurement boundaries
    /// when replaying with a queue depth above 1 (the virtual-time
    /// frontier [`ConcurrentPool::now_ns`] only reflects reaped work).
    pub fn drain_io(&self) {
        for s in &self.shards {
            s.lock().drain_io();
        }
    }

    /// Retunes every shard's breaker probe-backoff schedule (see
    /// [`HybridCache::set_breaker_backoff`]).
    pub fn set_breaker_backoff(&self, initial_ns: u64, max_ns: u64) {
        for s in &self.shards {
            s.lock().set_breaker_backoff(initial_ns, max_ns);
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
            let (p, r) = s.lock().scrub(budget_pages_per_shard)?;
            pages += p;
            repairs += r;
        }
        Ok((pages, repairs))
    }

    /// Aggregated cache statistics, merged on read shard by shard
    /// (per-shard consistent, not a cross-shard point-in-time cut).
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |acc, s| acc.merge(&s.lock().stats()))
    }

    /// Aggregated device-side I/O counters across every shard's queue
    /// pair.
    pub fn io_stats(&self) -> IoStats {
        self.shards
            .iter()
            .fold(IoStats::default(), |acc, s| acc.merge(&s.lock().navy().io().stats()))
    }

    /// Pool-wide ALWA: device bytes over application bytes, summed across
    /// shards ([`HybridCache::amp_bytes`]); 1.0 before any application
    /// bytes reach flash.
    pub fn alwa(&self) -> f64 {
        let (dev, app) = self.shards.iter().fold((0u64, 0u64), |(d, a), s| {
            let (dev, app) = s.lock().amp_bytes();
            (d + dev, a + app)
        });
        if app == 0 {
            1.0
        } else {
            dev as f64 / app as f64
        }
    }

    /// The pool's virtual-time frontier: the maximum simulated clock
    /// across shards. Shards run in parallel, so the slowest shard's
    /// clock is when the pool as a whole is done with submitted work.
    pub fn now_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().now_ns()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_device, StoreKind};
    use crate::config::NvmConfig;
    use fdpcache_core::RoundRobinPolicy;
    use fdpcache_ftl::FtlConfig;

    fn config(ram_bytes: u64, use_fdp: bool) -> CacheConfig {
        CacheConfig {
            ram_bytes,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp,
        }
    }

    fn policy() -> Box<dyn PlacementPolicy> {
        Box::new(RoundRobinPolicy::new())
    }

    fn pool_on(shards: usize, fdp: bool) -> (SharedController, ConcurrentPool) {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, fdp).unwrap();
        let pool = ConcurrentPool::new(&ctrl, &config(8192, fdp), shards, 0.9, policy).unwrap();
        (ctrl, pool)
    }

    fn pool(shards: usize) -> (SharedController, ConcurrentPool) {
        pool_on(shards, true)
    }

    /// A shard's SOC, LOC and LOC-footer handles.
    fn handles(c: &mut HybridCache) -> [fdpcache_core::PlacementHandle; 3] {
        let navy = c.navy();
        [navy.soc().handle(), navy.loc().handle(), navy.loc().meta_handle()]
    }

    #[test]
    fn zero_shards_rejected() {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        assert!(matches!(
            ConcurrentPool::new(&ctrl, &config(4096, true), 0, 0.9, policy),
            Err(CacheError::Config(_))
        ));
    }

    #[test]
    fn pairs_use_disjoint_handles_with_fdp() {
        let (ctrl, p) = pool(2);
        let mut ruhs = Vec::new();
        for i in 0..2 {
            let ns = ctrl.namespace((i + 1) as u32).unwrap();
            for h in &p.with_shard(i, handles).unwrap()[..2] {
                ruhs.push(ns.resolve_pid(h.dspec().expect("fdp handle")).unwrap());
            }
        }
        ruhs.sort_unstable();
        ruhs.dedup();
        assert_eq!(ruhs.len(), 4, "2 pairs must occupy 4 distinct device RUHs");
    }

    #[test]
    fn nonfdp_pool_uses_default_handles() {
        let (_ctrl, p) = pool_on(2, false);
        for i in 0..2 {
            assert!(p.with_shard(i, handles).unwrap().iter().all(|h| h.is_default()));
        }
    }

    #[test]
    fn footers_take_the_first_free_handle_or_stay_with_their_loc() {
        // The tiny device has 4 RUHs. One pair leaves two free: footers
        // get the first of them.
        let (_ctrl, p) = pool(1);
        assert_eq!(p.with_shard(0, handles).unwrap()[2].dspec(), Some(2));
        // Two pairs use all four: each LOC keeps its own footers, and
        // none falls onto the default handle (pair 0's SOC stream).
        let (_ctrl, p) = pool(2);
        for i in 0..2 {
            let [_, loc, meta] = p.with_shard(i, handles).unwrap();
            assert_eq!(meta, loc);
            assert!(!meta.is_default());
        }
    }

    #[test]
    fn recover_lands_on_the_pre_crash_handles() {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let config = config(2048, true);
        let p = ConcurrentPool::new(&ctrl, &config, 2, 0.9, policy).unwrap();
        for k in 0..300u64 {
            p.put(k, Value::synthetic(64)).unwrap();
        }
        p.delete(7).unwrap();
        let survivors: Vec<Vec<u64>> =
            (0..2).map(|i| p.with_shard(i, |c| c.persisted_keys()).unwrap()).collect();
        let old_handles: Vec<_> = (0..2).map(|i| p.with_shard(i, handles).unwrap()).collect();
        drop(p);
        // Namespaces 1 and 2 survive in the controller; reattach them.
        let r = ConcurrentPool::recover(&ctrl, &config, &[1, 2], policy).unwrap();
        for (shard, keys) in survivors.iter().enumerate() {
            assert!(!keys.is_empty(), "shard {shard} never reached flash");
            for &k in keys {
                assert_ne!(k, 7, "deleted key must not be persisted");
                assert_eq!(r.shard_of(k), shard, "routing must be stable across recovery");
                let (_, v) = r.get(k).unwrap();
                assert!(v.is_some(), "sealed key {k} lost across pool recovery");
            }
        }
        let (outcome, _) = r.get(7).unwrap();
        assert_eq!(outcome, GetOutcome::Miss, "deleted key resurrected by recovery");
        for (i, old) in old_handles.iter().enumerate() {
            assert_eq!(
                &r.with_shard(i, handles).unwrap(),
                old,
                "shard {i} must recover onto its pre-crash placement handles"
            );
        }
    }

    #[test]
    fn recover_rejects_empty_namespace_list() {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        assert!(matches!(
            ConcurrentPool::recover(&ctrl, &config(4096, true), &[], policy),
            Err(CacheError::Config(_))
        ));
    }

    #[test]
    fn recover_rejects_a_repeated_namespace() {
        let (ctrl, p) = pool(2);
        drop(p);
        let opened = ctrl.namespace_stats(1).unwrap();
        for nsids in [[1, 1], [2, 2]] {
            assert!(matches!(
                ConcurrentPool::recover(&ctrl, &config(8192, true), &nsids, policy),
                Err(CacheError::Config(_))
            ));
        }
        // Rejected before anything attached: no recovery read was issued.
        assert_eq!(ctrl.namespace_stats(1).unwrap(), opened);
        assert!(ConcurrentPool::recover(&ctrl, &config(8192, true), &[1, 2], policy).is_ok());
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

    /// Eight threads on two shards, more than a 2-vCPU host has cores:
    /// a handoff may find its next ticket holder descheduled, so the
    /// pool only finishes if waiters fall back to yielding.
    #[test]
    fn oversubscribed_pool_hands_every_shard_on() {
        let (ctrl, p) = pool(2);
        const THREADS: u64 = 8;
        const OPS: u64 = 256;
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (p, start) = (&p, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..OPS {
                        let key = t * OPS + i;
                        p.put(key, Value::synthetic(64)).unwrap();
                        let (_, v) = p.get(key).unwrap();
                        assert_eq!(v.expect("own put visible").len(), 64, "key {key}");
                        if i % 4 == 0 {
                            assert!(p.delete(key).unwrap(), "own put deletable: key {key}");
                            assert_eq!(p.get(key).unwrap().0, GetOutcome::Miss, "key {key}");
                        }
                    }
                });
            }
        });
        let s = p.stats();
        assert_eq!(s.puts, THREADS * OPS);
        assert_eq!(s.gets, THREADS * (OPS + OPS / 4));
        assert_eq!(s.deletes, THREADS * OPS / 4);
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
        drop(p);
        let r = ConcurrentPool::recover(&ctrl, &config(8192, true), &[1, 2], policy).unwrap();
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
        assert!(p.now_ns() > 0);
        assert!(p.with_shard(0, |c| c.stats().puts).unwrap() > 0);
        assert!(p.with_shard(99, |_| ()).is_none());
    }
}
