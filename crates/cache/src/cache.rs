//! The hybrid cache: DRAM LRU front + Navy flash engines, wired to the
//! placement layer exactly like the paper's upstreamed CacheLib changes.

use std::sync::Arc;

use fdpcache_core::{IoManager, IoStats, PlacementHandle, PlacementHandleAllocator};

use crate::breaker::{BreakerState, FlashBreaker};
use crate::config::CacheConfig;
use crate::engine::{NavyEngine, NvmSource};
use crate::error::CacheError;
use crate::index::ReadIndex;
use crate::ram::{Evicted, RamCache};
use crate::stats::{CacheStats, ReadSideStats};
use crate::value::Value;
use crate::Key;

/// Where a GET was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetOutcome {
    /// Served from DRAM.
    RamHit,
    /// Served from the flash Small Object Cache.
    SocHit,
    /// Served from the flash Large Object Cache.
    LocHit,
    /// Not in the cache.
    Miss,
}

/// Host CPU time charged per cache operation (ns) on the simulated
/// clock; drives the throughput readout. The lock-free read path
/// charges the same amount per DRAM hit ([`ReadSideStats::host_ns`] is
/// its hit count times this), so virtual-time accounting is unchanged
/// by where a hit is served.
pub const HOST_OP_NS: u64 = 2_000;

/// A CacheLib-style hybrid cache instance.
///
/// Construction allocates placement handles for the SOC, the LOC and
/// the LOC's footers from the [`PlacementHandleAllocator`] when
/// `use_fdp` is set; otherwise everything uses the default handle and
/// the device intermixes it — the paper's Non-FDP baseline.
#[derive(Debug)]
pub struct HybridCache {
    ram: RamCache,
    /// DRAM evictions on their way to flash; reused by every put and
    /// promotion so neither allocates for them (DESIGN.md §5.3).
    evicted: Vec<Evicted>,
    navy: NavyEngine,
    stats: CacheStats,
    /// Counters for GETs served off the lock-free read path (shared
    /// with the pool's unlocked `get`); folded into [`Self::stats`] and
    /// [`Self::now_ns`] on read.
    read_stats: Arc<ReadSideStats>,
    promote_on_nvm_hit: bool,
    /// Per-shard flash circuit breaker (DESIGN.md §6.7): opens on a
    /// `Failing` device and degrades this shard to DRAM-only serving.
    breaker: FlashBreaker,
}

impl HybridCache {
    /// The `[SOC, LOC, LOC-footer]` placement handles, in the one
    /// allocation order construction and recovery share. The footer
    /// handle is the namespace's metadata handle — the first identifier
    /// the data engines sharing the allocator's list leave free, or the
    /// LOC's own when they leave none. FDP off: all default.
    fn allocate_handles(
        config: &CacheConfig,
        allocator: &mut PlacementHandleAllocator,
    ) -> [PlacementHandle; 3] {
        if !config.use_fdp {
            return [PlacementHandle::DEFAULT; 3];
        }
        let (soc, loc) = (allocator.allocate("soc"), allocator.allocate("loc"));
        [soc, loc, allocator.allocate_metadata(loc)]
    }

    /// Builds a cache over `io` (one namespace of the shared device).
    ///
    /// # Errors
    ///
    /// Configuration validation and engine construction failures.
    pub fn new(
        config: &CacheConfig,
        io: IoManager,
        allocator: &mut PlacementHandleAllocator,
    ) -> Result<Self, CacheError> {
        config.validate(io.block_bytes()).map_err(CacheError::Config)?;
        let [soc, loc, meta] = Self::allocate_handles(config, allocator);
        let navy = NavyEngine::new(&config.nvm, io, soc, loc, meta)?;
        Ok(HybridCache {
            ram: RamCache::new(config.ram_bytes, config.ram_item_overhead),
            evicted: Vec::new(),
            navy,
            stats: CacheStats::default(),
            read_stats: Arc::new(ReadSideStats::default()),
            promote_on_nvm_hit: true,
            breaker: FlashBreaker::new(),
        })
    }

    /// Rebuilds a cache from the metadata persisted on flash after a
    /// crash (the warm-restart path, DESIGN.md §6.4–6.6): a cache fresh
    /// from [`HybridCache::new`] whose flash engines replay their
    /// checksummed on-device structures (`NavyEngine::recover`).
    /// Everything DRAM-resident stays fresh — an empty [`RamCache`]
    /// whose lock-free [`ReadIndex`], once a pool asks for it, is
    /// brand-new (with its own epoch collector, so no pre-crash guard or
    /// retired node can touch it), and zeroed [`CacheStats`] (pre-crash
    /// acknowledged application bytes must not be double-counted into
    /// post-recovery ALWA/DLWA denominators).
    ///
    /// Handle allocation is [`HybridCache::new`]'s (SOC, LOC, then the
    /// metadata handle), so a recovered cache writes through the same
    /// placement handles as its previous life.
    ///
    /// # Errors
    ///
    /// Configuration validation and engine recovery failures
    /// ([`CacheError::Config`] when the store does not retain payload
    /// bytes).
    pub fn recover(
        config: &CacheConfig,
        io: IoManager,
        allocator: &mut PlacementHandleAllocator,
    ) -> Result<Self, CacheError> {
        let mut cache = Self::new(config, io, allocator)?;
        cache.navy.recover()?;
        Ok(cache)
    }

    /// Keys whose latest acknowledged copy is persisted on flash right
    /// now (see [`NavyEngine::persisted_keys`]) — the set a
    /// crash-and-recover cycle must serve. DRAM-only objects are
    /// volatile by design and excluded.
    pub fn persisted_keys(&self) -> Vec<Key> {
        self.navy.persisted_keys()
    }

    /// The lock-free DRAM read index this cache publishes into, built
    /// by the first call (see [`RamCache::read_index`]). A pool may probe
    /// it from any thread without locking the cache, pairing hits with
    /// [`Self::read_stats`] accounting.
    pub fn read_index(&mut self) -> Arc<ReadIndex> {
        Arc::clone(self.ram.read_index())
    }

    /// The shared atomic counters for lock-free hits.
    pub fn read_stats(&self) -> Arc<ReadSideStats> {
        Arc::clone(&self.read_stats)
    }

    /// Disables promotion of flash hits into DRAM, so a later read of
    /// the same key goes back to flash. No figure row turns this off:
    /// it is the read-back seam of the fault, recovery and chaos
    /// checks, which read every key from the device.
    pub fn set_promote_on_nvm_hit(&mut self, promote: bool) {
        self.promote_on_nvm_hit = promote;
    }

    /// Cache statistics. The fault/retry/repair/requeue counters are
    /// folded in from the engine and I/O layers on read (monotonic, so
    /// `delta`/`merge` work unchanged); everything else counts at this
    /// layer.
    pub fn stats(&self) -> CacheStats {
        let mut s = self.stats;
        self.read_stats.fold_into(&mut s);
        let soc = self.navy.soc().stats();
        let loc = self.navy.loc().stats();
        s.faults = self.navy.io().stats().faults;
        s.retries = soc.write_retries
            + soc.read_retries
            + loc.seal_retries
            + loc.footer_retries
            + loc.read_retries
            + loc.discard_retries;
        s.repairs = soc.repair_writes + loc.repair_writes;
        s.requeues = loc.requeued_objects;
        s
    }

    /// The flash engine pair.
    pub fn navy(&self) -> &NavyEngine {
        &self.navy
    }

    /// Mutable flash engine access (clock control in replays).
    pub fn navy_mut(&mut self) -> &mut NavyEngine {
        &mut self.navy
    }

    /// The DRAM cache.
    pub fn ram(&self) -> &RamCache {
        &self.ram
    }

    /// Simulated time observed by this cache's I/O path (ns), including
    /// host time accrued by lock-free DRAM hits (which cannot advance
    /// the `&mut` queue-pair clock; their count, kept in a striped
    /// atomic side counter, stands for it). With a queue depth above 1, call
    /// [`HybridCache::drain_io`] first so in-flight completions are
    /// reflected.
    pub fn now_ns(&self) -> u64 {
        self.navy.io().now_ns() + self.read_stats.host_ns()
    }

    /// Reconfigures the device queue depth of this cache's queue pair
    /// (commands kept in flight; 1 = synchronous per-command model).
    pub fn set_queue_depth(&mut self, depth: usize) {
        self.navy.io_mut().set_queue_depth(depth);
    }

    /// Reaps every in-flight device completion, advancing the virtual
    /// clock past the last one. Call at measurement boundaries when
    /// replaying with a queue depth above 1.
    pub fn drain_io(&mut self) {
        self.navy.io_mut().flush();
    }

    /// Empties the device latency histograms (see
    /// [`IoManager::reset_latency`](fdpcache_core::IoManager::reset_latency)).
    pub fn reset_latency(&mut self) {
        self.navy.io_mut().reset_latency();
    }

    /// Application-level write amplification of the flash layer.
    pub fn alwa(&self) -> f64 {
        self.navy.alwa()
    }

    /// Verifies one key's on-flash bytes against the acknowledged
    /// object (see [`NavyEngine::verify_key`]); the probe behind the
    /// bench crate's zero-lost-writes gates.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures only.
    pub fn verify_flash_key(&mut self, key: Key) -> Result<crate::engine::FlashVerify, CacheError> {
        self.navy.verify_key(key)
    }

    /// The byte totals behind ALWA: `(device bytes written, application
    /// bytes handed to the flash engines)`. Pools fold these across
    /// shards to report bytes-weighted pool-wide amplification.
    pub fn amp_bytes(&self) -> (u64, u64) {
        let io = self.navy.io().stats();
        let soc = self.navy.soc().stats();
        let loc = self.navy.loc().stats();
        (io.bytes_written, soc.app_bytes_written + loc.app_bytes_written)
    }

    fn io_mut(&mut self) -> &mut IoManager {
        self.navy.io_mut()
    }

    /// The per-shard flash circuit breaker (state, open/close counts,
    /// and the virtual-time transition trace the chaos gate replays).
    pub fn breaker(&self) -> &FlashBreaker {
        &self.breaker
    }

    /// Retunes the breaker's probe-backoff schedule (see
    /// [`FlashBreaker::set_backoff`]). Chaos replays with short op
    /// budgets shorten it: an open shard serves at host-op cost only,
    /// so its virtual clock crawls toward the probe deadline.
    pub fn set_breaker_backoff(&mut self, initial_ns: u64, max_ns: u64) {
        self.breaker.set_backoff(initial_ns, max_ns);
    }

    /// Advances the breaker state machine against the device's current
    /// health verdict. On the `Closed → Open` edge this shard enters
    /// degraded mode: LOC requeues are parked so background drains stop
    /// hammering a failing device.
    fn poll_breaker(&mut self) -> BreakerState {
        let health = self.navy.io().health();
        let now = self.navy.io().now_ns();
        let was = self.breaker.state();
        let state = self.breaker.poll(health, now);
        if was == BreakerState::Closed && state == BreakerState::Open {
            self.stats.breaker_opens += 1;
            self.navy.set_park_requeues(true);
        }
        state
    }

    /// Judges a half-open probe from the device command delta it
    /// produced. Zero commands (e.g. a LOC insert into the active
    /// buffer) is
    /// inconclusive and leaves the breaker half-open; a fault-free
    /// delta closes the breaker, credits the health monitor one
    /// recovery step, and drains the requeues parked while degraded.
    fn settle_probe(&mut self, before: IoStats) -> Result<(), CacheError> {
        let after = self.navy.io().stats();
        let commands = |s: &IoStats| s.writes + s.reads + s.discards + s.faults;
        if commands(&after) == commands(&before) {
            return Ok(());
        }
        let now = self.navy.io().now_ns();
        if after.faults == before.faults {
            self.breaker.probe_succeeded(now);
            self.stats.breaker_closes += 1;
            self.navy.io_mut().credit_health_recovery();
            self.navy.set_park_requeues(false);
            self.navy.drain_parked()?;
        } else {
            self.breaker.probe_failed(now);
        }
        Ok(())
    }

    /// Routes a DRAM eviction toward flash through the breaker: shed
    /// while open (caches are lossy; nothing acknowledged is lost),
    /// probe-wrapped while half-open, plain [`Self::flash_insert`]
    /// while closed.
    fn degraded_flash_insert(&mut self, key: Key, value: Value) -> Result<(), CacheError> {
        match self.poll_breaker() {
            BreakerState::Open => {
                self.stats.shed_evictions += 1;
                Ok(())
            }
            state => {
                // Only a half-open probe reads the I/O snapshot.
                let probe = (state == BreakerState::HalfOpen).then(|| self.navy.io().stats());
                self.flash_insert(key, value)?;
                if let Some(before) = probe {
                    self.settle_probe(before)?;
                }
                Ok(())
            }
        }
    }

    /// Runs one budgeted patrol-scrub slice over the flash engines
    /// (about `budget_pages` device pages of patrol reads; see
    /// [`NavyEngine::scrub`]), repairing latent corruption through the
    /// existing repair paths before a client read can observe it.
    /// Returns `(pages_read, repairs)`. A no-op while the breaker is
    /// open — patrol traffic must not hammer a failing device.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures.
    pub fn scrub(&mut self, budget_pages: u64) -> Result<(u64, u64), CacheError> {
        if self.poll_breaker() == BreakerState::Open {
            return Ok((0, 0));
        }
        let (pages, repairs) = self.navy.scrub(budget_pages)?;
        self.stats.scrubbed_pages += pages;
        self.stats.scrub_repairs += repairs;
        Ok((pages, repairs))
    }

    /// Looks up `key`. Flash hits are promoted into DRAM (which may
    /// cascade evictions back to flash, the paper's read-driven flash
    /// write traffic). While the breaker is open the flash layers are
    /// not consulted: the lookup degrades to a DRAM-only miss (counted
    /// in [`CacheStats::degraded_misses`]) rather than queueing more
    /// work on a failing device.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn get(&mut self, key: Key) -> Result<(GetOutcome, Option<Value>), CacheError> {
        self.stats.gets += 1;
        self.io_mut().advance(HOST_OP_NS);
        if let Some(v) = self.ram.get(key) {
            self.stats.ram_hits += 1;
            return Ok((GetOutcome::RamHit, Some(v)));
        }
        self.stats.nvm_lookups += 1;
        let breaker = self.poll_breaker();
        if breaker == BreakerState::Open {
            self.stats.degraded_misses += 1;
            return Ok((GetOutcome::Miss, None));
        }
        let probe = (breaker == BreakerState::HalfOpen).then(|| self.navy.io().stats());
        let found = self.navy.lookup(key)?;
        if let Some(before) = probe {
            self.settle_probe(before)?;
        }
        match found {
            Some((value, source)) => {
                let outcome = match source {
                    NvmSource::Soc => {
                        self.stats.soc_hits += 1;
                        GetOutcome::SocHit
                    }
                    NvmSource::Loc => {
                        self.stats.loc_hits += 1;
                        GetOutcome::LocHit
                    }
                };
                if self.promote_on_nvm_hit {
                    self.ram_put(key, value.clone(), true)?;
                }
                Ok((outcome, Some(value)))
            }
            None => Ok((GetOutcome::Miss, None)),
        }
    }

    /// Inserts `key`. Every RAM eviction is offered to flash (shed only
    /// while the breaker is open).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; objects larger than a LOC region are
    /// rejected with [`CacheError::ObjectTooLarge`].
    pub fn put(&mut self, key: Key, value: Value) -> Result<(), CacheError> {
        if value.len() > self.navy.loc().max_object_bytes() {
            return Err(CacheError::ObjectTooLarge {
                size: value.len(),
                max: self.navy.loc().max_object_bytes(),
            });
        }
        self.stats.puts += 1;
        self.io_mut().advance(HOST_OP_NS);
        self.ram_put(key, value, false)
    }

    /// Puts `key` into DRAM and offers every eviction to flash, oldest
    /// first — except, for a `promoted` flash hit too big for DRAM, the
    /// key itself: flash already holds it.
    fn ram_put(&mut self, key: Key, value: Value, promoted: bool) -> Result<(), CacheError> {
        let mut evicted = std::mem::take(&mut self.evicted);
        evicted.extend(self.ram.put(key, value).filter(|e| !(promoted && e.key == key)));
        let offered =
            evicted.drain(..).try_for_each(|e| self.degraded_flash_insert(e.key, e.value));
        self.evicted = evicted;
        offered
    }

    /// Removes `key` from every layer. Returns whether it was present
    /// anywhere.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn delete(&mut self, key: Key) -> Result<bool, CacheError> {
        self.stats.deletes += 1;
        self.io_mut().advance(HOST_OP_NS);
        let in_ram = self.ram.remove(key).is_some();
        let in_navy = self.navy.remove(key)?;
        Ok(in_ram || in_navy)
    }

    fn flash_insert(&mut self, key: Key, value: Value) -> Result<(), CacheError> {
        self.stats.nvm_insert_attempts += 1;
        let len = value.len() as u64;
        if self.navy.insert(key, value)? {
            self.stats.nvm_inserts += 1;
            self.stats.nvm_app_bytes += len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NvmConfig;
    use crate::engine::FlashVerify;
    use fdpcache_core::{HealthState, RoundRobinPolicy, SharedController};
    use fdpcache_ftl::FtlConfig;
    use fdpcache_nvme::{Controller, MemStore};

    use std::sync::Arc;

    fn build(ram_bytes: u64, use_fdp: bool) -> HybridCache {
        let ctrl = Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap();
        let blocks = ctrl.unallocated_lbas();
        let nsid = ctrl.create_namespace(blocks, vec![0, 1]).unwrap();
        let identity = ctrl.identify();
        let ns = ctrl.namespace(nsid).unwrap().clone();
        let shared: SharedController = Arc::new(ctrl);
        let io = IoManager::new(shared, nsid, 4).unwrap();
        let mut alloc =
            PlacementHandleAllocator::discover(&identity, &ns, Box::new(RoundRobinPolicy::new()));
        let config = CacheConfig {
            ram_bytes,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
            use_fdp,
        };
        HybridCache::new(&config, io, &mut alloc).unwrap()
    }

    #[test]
    fn ram_hit_after_put() {
        let mut c = build(1 << 20, true);
        c.put(1, Value::synthetic(100)).unwrap();
        let (outcome, v) = c.get(1).unwrap();
        assert_eq!(outcome, GetOutcome::RamHit);
        assert_eq!(v.unwrap().len(), 100);
        assert!((c.stats().hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn miss_for_absent_key() {
        let mut c = build(1 << 20, true);
        let (outcome, v) = c.get(404).unwrap();
        assert_eq!(outcome, GetOutcome::Miss);
        assert!(v.is_none());
    }

    #[test]
    fn ram_eviction_lands_in_flash_and_serves_soc_hit() {
        // RAM fits only ~10 of the 100-byte items.
        let mut c = build(1_000, true);
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        assert!(c.stats().nvm_inserts > 0, "evictions must reach flash");
        // An early key must now be served from the SOC.
        let (outcome, v) = c.get(0).unwrap();
        assert_eq!(outcome, GetOutcome::SocHit);
        assert_eq!(v.unwrap().len(), 90);
    }

    #[test]
    fn a_lone_cache_never_builds_its_read_index() {
        // DRAM fits ~10 of the 90-byte items: puts evict to flash.
        let mut c = build(1_000, true);
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        assert!(c.stats().nvm_inserts > 0, "DRAM must have evicted");
        assert_eq!(c.get(99).unwrap().0, GetOutcome::RamHit);
        // A flash hit promotes into DRAM, evicting again.
        assert_eq!(c.get(0).unwrap().0, GetOutcome::SocHit);
        assert!(c.delete(99).unwrap());
        assert!(!c.ram().index_built(), "nothing read lock-free, yet the index was built");
        // The first request builds it from what DRAM holds now.
        let index = c.read_index();
        assert!(c.ram().index_built());
        assert_eq!(index.peek(0), Some(Value::synthetic(90)));
        assert_eq!(index.peek(99), None);
        c.ram().check_invariants();
    }

    #[test]
    fn large_objects_serve_loc_hits() {
        let mut c = build(1_000, true);
        c.put(7, Value::synthetic(10_000)).unwrap(); // bypasses RAM (too big)
        let (outcome, _) = c.get(7).unwrap();
        assert_eq!(outcome, GetOutcome::LocHit);
    }

    #[test]
    fn nvm_hit_promotes_to_ram() {
        let mut c = build(1_000, true);
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        let (first, _) = c.get(0).unwrap();
        assert_eq!(first, GetOutcome::SocHit);
        let (second, _) = c.get(0).unwrap();
        assert_eq!(second, GetOutcome::RamHit, "flash hit must promote into DRAM");
    }

    #[test]
    fn promotion_can_be_disabled() {
        let mut c = build(1_000, true);
        c.set_promote_on_nvm_hit(false);
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        let (first, _) = c.get(0).unwrap();
        assert_eq!(first, GetOutcome::SocHit);
        let (second, _) = c.get(0).unwrap();
        assert_eq!(second, GetOutcome::SocHit);
    }

    #[test]
    fn delete_removes_everywhere() {
        let mut c = build(1_000, true);
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        assert!(c.delete(0).unwrap()); // in flash by now
        assert!(c.delete(99).unwrap()); // in RAM
        let (o1, _) = c.get(0).unwrap();
        let (o2, _) = c.get(99).unwrap();
        assert_eq!(o1, GetOutcome::Miss);
        assert_eq!(o2, GetOutcome::Miss);
        assert!(!c.delete(424242).unwrap());
    }

    #[test]
    fn oversized_put_is_rejected() {
        let mut c = build(1 << 20, true);
        let max = c.navy().loc().max_object_bytes();
        assert!(matches!(
            c.put(1, Value::synthetic(max as u32 + 1)),
            Err(CacheError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn fdp_mode_segregates_handles_nonfdp_does_not() {
        let fdp = build(1_000, true);
        assert_ne!(fdp.navy().soc().handle(), fdp.navy().loc().handle());
        let nonfdp = build(1_000, false);
        assert_eq!(nonfdp.navy().soc().handle(), nonfdp.navy().loc().handle());
        assert!(nonfdp.navy().soc().handle().is_default());
    }

    #[test]
    fn clock_advances_with_operations() {
        let mut c = build(1 << 20, true);
        let t0 = c.now_ns();
        c.put(1, Value::synthetic(100)).unwrap();
        c.get(1).unwrap();
        assert!(c.now_ns() >= t0 + 2 * HOST_OP_NS);
    }

    #[test]
    fn recover_preserves_flash_and_forgets_dram() {
        let ctrl = Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap();
        let blocks = ctrl.unallocated_lbas();
        let nsid = ctrl.create_namespace(blocks, vec![0, 1]).unwrap();
        let identity = ctrl.identify();
        let ns = ctrl.namespace(nsid).unwrap().clone();
        let shared: SharedController = Arc::new(ctrl);
        let config = CacheConfig {
            ram_bytes: 1_000,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let mut alloc =
            PlacementHandleAllocator::discover(&identity, &ns, Box::new(RoundRobinPolicy::new()));
        let io = IoManager::new(Arc::clone(&shared), nsid, 4).unwrap();
        let mut c = HybridCache::new(&config, io, &mut alloc).unwrap();
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        c.delete(0).unwrap();
        let survivors = c.persisted_keys();
        assert!(!survivors.is_empty());
        assert!(!survivors.contains(&0), "deleted key must leave the persisted set");
        // Crash: every host-side structure is dropped; only the device
        // (controller + store) survives.
        drop(c);
        let mut alloc2 =
            PlacementHandleAllocator::discover(&identity, &ns, Box::new(RoundRobinPolicy::new()));
        let io2 = IoManager::new(shared, nsid, 4).unwrap();
        let mut r = HybridCache::recover(&config, io2, &mut alloc2).unwrap();
        assert_eq!(r.ram().len(), 0, "DRAM must come back empty");
        assert_eq!(r.stats().gets, 0, "stats must come back zeroed");
        for k in survivors {
            let (_, v) = r.get(k).unwrap();
            assert!(v.is_some(), "persisted key {k} lost by recovery");
        }
        let (o, _) = r.get(0).unwrap();
        assert_eq!(o, GetOutcome::Miss, "deleted key resurrected by recovery");
        // Recovered engines write through the same placement handles.
        assert_ne!(r.navy().soc().handle(), r.navy().loc().handle());
    }

    fn build_faulted(
        ram_bytes: u64,
        fault: fdpcache_nvme::FaultConfig,
    ) -> (SharedController, HybridCache) {
        use crate::builder::{build_cache, build_device_faulted, create_namespace, StoreKind};
        let ctrl =
            build_device_faulted(FtlConfig::tiny_test(), StoreKind::Mem, true, fault).unwrap();
        let nsid = create_namespace(&ctrl, 0.9, vec![0, 1]).unwrap();
        let config = CacheConfig {
            ram_bytes,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let cache = build_cache(&ctrl, nsid, &config, Box::new(RoundRobinPolicy::new())).unwrap();
        (ctrl, cache)
    }

    /// Drives eviction-driven flash writes until the breaker trips.
    fn storm_until_open(ctrl: &SharedController, c: &mut HybridCache) {
        ctrl.set_fault_rates(fdpcache_nvme::FaultRates {
            write_err_ppm: 1_000_000,
            ..fdpcache_nvme::FaultRates::default()
        });
        let mut k = 1_000u64;
        while c.breaker().state() != BreakerState::Open {
            c.put(k, Value::synthetic(90)).unwrap();
            k += 1;
            assert!(k < 20_000, "breaker never opened under a 100% write-fault storm");
        }
    }

    #[test]
    fn breaker_opens_under_write_storm_and_degrades_to_dram_only() {
        let (ctrl, mut c) = build_faulted(1_000, fdpcache_nvme::FaultConfig::default());
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        assert!(c.stats().nvm_inserts > 0, "seeding must reach flash");
        storm_until_open(&ctrl, &mut c);
        assert_eq!(c.navy().io().health(), HealthState::Failing);
        assert_eq!(c.stats().breaker_opens, 1);
        assert!(c.navy().park_requeues(), "requeues must park while degraded");
        // A flash-resident key degrades to a miss without touching the
        // device (early seed keys left DRAM long ago).
        let resident = *c.persisted_keys().iter().min().expect("flash must hold keys");
        let reads_before = c.navy().io().stats().reads;
        let (o, v) = c.get(resident).unwrap();
        assert_eq!(o, GetOutcome::Miss);
        assert!(v.is_none());
        assert_eq!(c.navy().io().stats().reads, reads_before, "open breaker must not issue I/O");
        assert!(c.stats().degraded_misses >= 1);
        // Evictions shed instead of queueing onto the failing device.
        let shed_before = c.stats().shed_evictions;
        for k in 50_000..50_050u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        assert!(c.stats().shed_evictions > shed_before);
        // DRAM keeps serving: the freshest key is still a RAM hit.
        let (o, _) = c.get(50_049).unwrap();
        assert_eq!(o, GetOutcome::RamHit);
    }

    #[test]
    fn breaker_probe_recloses_after_faults_clear() {
        let (ctrl, mut c) = build_faulted(1_000, fdpcache_nvme::FaultConfig::default());
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        storm_until_open(&ctrl, &mut c);
        let resident = *c.persisted_keys().iter().min().expect("flash must hold keys");
        // Device recovers; the next lookup past the probe backoff is the
        // half-open probe and must both serve the hit and reclose.
        ctrl.set_fault_rates(fdpcache_nvme::FaultRates::default());
        c.navy_mut().io_mut().advance(60_000_000);
        let (o, v) = c.get(resident).unwrap();
        assert_eq!(o, GetOutcome::SocHit, "probe lookup must serve the flash hit");
        assert!(v.is_some());
        assert_eq!(c.breaker().state(), BreakerState::Closed);
        assert_eq!(c.stats().breaker_closes, 1);
        assert!(!c.navy().park_requeues(), "parked requeues must drain on reclose");
        // Flash writes resume.
        let inserts_before = c.stats().nvm_inserts;
        for k in 90_000..90_100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        assert!(c.stats().nvm_inserts > inserts_before);
    }

    #[test]
    fn failed_probe_reopens_and_doubles_backoff() {
        let (ctrl, mut c) = build_faulted(1_000, fdpcache_nvme::FaultConfig::default());
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        storm_until_open(&ctrl, &mut c);
        // Storm continues on reads too, so the probe itself faults.
        ctrl.set_fault_rates(fdpcache_nvme::FaultRates {
            read_err_ppm: 1_000_000,
            write_err_ppm: 1_000_000,
            ..fdpcache_nvme::FaultRates::default()
        });
        let resident = *c.persisted_keys().iter().min().expect("flash must hold keys");
        c.navy_mut().io_mut().advance(60_000_000);
        let (o, _) = c.get(resident).unwrap();
        assert_eq!(o, GetOutcome::Miss, "faulted probe must not surface a hit");
        assert_eq!(c.breaker().state(), BreakerState::Open, "failed probe must reopen");
        assert_eq!(c.stats().breaker_closes, 0);
        // And the reopened breaker keeps shedding without more probes
        // until the doubled backoff elapses.
        let (o, _) = c.get(resident).unwrap();
        assert_eq!(o, GetOutcome::Miss);
        assert!(c.stats().degraded_misses >= 1);
    }

    #[test]
    fn scrub_patrols_cleanly_on_a_healthy_device() {
        let mut c = build(1_000, true);
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        let (pages, repairs) = c.scrub(100_000).unwrap();
        assert!(pages > 0, "patrol must read sealed flash state");
        assert_eq!(repairs, 0, "clean device must need no repairs");
        let s = c.stats();
        assert_eq!(s.scrubbed_pages, pages);
        assert_eq!(s.scrub_repairs, 0);
        for k in c.persisted_keys() {
            let (_, v) = c.get(k).unwrap();
            assert!(v.is_some(), "scrub must not disturb persisted key {k}");
        }
    }

    #[test]
    fn scrub_repairs_corruption_without_losing_persisted_keys() {
        let (ctrl, mut c) = build_faulted(1_000, fdpcache_nvme::FaultConfig::default());
        for k in 0..100u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        // Latent corruption starts landing on reads; patrol scrubbing
        // finds it and repairs through the normal paths.
        ctrl.set_fault_rates(fdpcache_nvme::FaultRates {
            corruption_ppm: 120_000,
            ..fdpcache_nvme::FaultRates::default()
        });
        let mut repairs = 0;
        for _ in 0..30 {
            repairs += c.scrub(100_000).unwrap().1;
        }
        assert!(repairs > 0, "corruption storm must trigger scrub repairs");
        // Storm ends; fault-free probes must re-close the breaker. It
        // can first open on the next poll (the storm's faults are still
        // in the health window), and probes against memory-served or
        // RAM-resident keys are inconclusive, so sweep every persisted
        // key until one probe lands a clean device read.
        ctrl.set_fault_rates(fdpcache_nvme::FaultRates::default());
        for _ in 0..40 {
            c.navy_mut().io_mut().advance(500_000_000);
            for k in c.persisted_keys() {
                let _ = c.get(k).unwrap();
            }
            if c.breaker().state() == BreakerState::Closed {
                break;
            }
        }
        assert_eq!(c.breaker().state(), BreakerState::Closed);
        for k in c.persisted_keys() {
            let (_, v) = c.get(k).unwrap();
            assert!(v.is_some(), "acknowledged key {k} lost under scrub-and-repair");
        }
    }

    #[test]
    fn stats_track_layers() {
        let mut c = build(1_000, true);
        for k in 0..50u64 {
            c.put(k, Value::synthetic(90)).unwrap();
        }
        for k in 0..25u64 {
            // First get may hit flash and promote; second must hit DRAM.
            c.get(k).unwrap();
            c.get(k).unwrap();
        }
        let s = c.stats();
        assert_eq!(s.gets, 50);
        assert!(s.ram_hits > 0);
        assert!(s.soc_hits > 0);
        assert!(s.hit_ratio() > 0.9);
        assert!(s.nvm_hit_ratio() > 0.0);
    }

    /// Two SOCs driven by one thread, each writing its pages through
    /// one source over its own bucket table. Interleaved inserts, removes and
    /// lookups on the same bucket indexes, with bytes that differ per
    /// cache and per put: after every step every key of either cache
    /// must verify against its own device, and every written page
    /// holding one must read back byte for byte as the page of its own
    /// current list — no byte of the other SOC's page, and no page of
    /// an older list.
    #[test]
    fn two_socs_on_one_thread_keep_their_own_pages() {
        const KEYS: u64 = 48;
        let mut caches = [build(600, true), build(600, true)];
        let mut rng = 0x5EED_u64;
        let mut verified = 0;
        for step in 0..400u64 {
            rng =
                rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let draw = rng >> 33;
            let which = (step % 2) as usize;
            let key = draw % KEYS;
            let c = &mut caches[which];
            match draw % 5 {
                0..=2 => {
                    let len = 60 + (draw % 500) as usize;
                    let fill = (which as u8 + 1).wrapping_mul(97).wrapping_add(step as u8);
                    c.put(key, Value::real(vec![fill; len])).unwrap();
                }
                3 => {
                    c.delete(key).unwrap();
                }
                _ => {
                    c.get(key).unwrap();
                }
            }
            for (i, c) in caches.iter_mut().enumerate() {
                for k in 0..KEYS {
                    match c.verify_flash_key(k).unwrap() {
                        FlashVerify::Verified => verified += 1,
                        FlashVerify::Absent => {}
                        other => panic!("step {step}: cache {i} key {k}: {other:?}"),
                    }
                    let soc = c.navy().soc();
                    if soc.contains(k) && soc.bucket_on_flash(k) {
                        let bucket = soc.bucket_index(k);
                        let (block, want) = (soc.bucket_block(bucket), soc.reference_page(bucket));
                        let mut page = vec![0u8; want.len()];
                        c.navy_mut().io_mut().read(block, &mut page).unwrap();
                        assert!(page == want, "step {step}: cache {i} bucket {bucket}");
                    }
                }
            }
        }
        assert!(verified > 0, "no key ever reached flash");
        for c in &caches {
            let soc = c.navy().soc().stats();
            assert!(soc.inserts > 0 && soc.removes > 0 && soc.hits > 0, "{soc:?}");
        }
    }
}
