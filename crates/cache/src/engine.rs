//! The Navy engine pair: SOC + LOC behind one namespace, with
//! size-threshold routing. Every object offered is written (the
//! paper's Navy admits every DRAM eviction).
//!
//! Concurrency note: everything here runs **under the shard mutex**.
//! Flash lookups drive the shard's `&mut` queue pair and advance its
//! virtual clock, so they cannot join the lock-free DRAM-hit path
//! ([`crate::ReadIndex`]) — `ConcurrentPool::get` only falls through
//! to this layer after the index misses (DESIGN.md §5.1a).

use fdpcache_core::{IoManager, PlacementHandle};
use fdpcache_metrics::Histogram;

use crate::config::NvmConfig;
use crate::error::CacheError;
use crate::loc::Loc;
use crate::soc::Soc;
use crate::value::Value;
use crate::Key;

/// Which flash engine served a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmSource {
    /// Small Object Cache.
    Soc,
    /// Large Object Cache.
    Loc,
}

/// Outcome of verifying one key's on-flash bytes against the
/// authoritative in-memory copy ([`NavyEngine::verify_key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashVerify {
    /// The key is not in either flash engine.
    Absent,
    /// On-flash bytes match the acknowledged object exactly.
    Verified,
    /// On-flash bytes differ — a torn or lost acknowledged write.
    Mismatch,
    /// Verification could not run (payload-free store, or the
    /// verification read itself hit an injected fault).
    Unverifiable,
}

/// The flash cache: an engine pair sharing one I/O manager.
///
/// Layout within the namespace: SOC buckets occupy the first
/// `soc_fraction` of blocks, LOC regions the remainder (any tail blocks
/// that do not fill a whole region are unused, mirroring CacheLib's
/// region-aligned allocation).
#[derive(Debug)]
pub struct NavyEngine {
    io: IoManager,
    soc: Soc,
    loc: Loc,
    size_threshold: u32,
    /// While set (degraded-mode serving, flash breaker open), objects
    /// rescued from failed seals stay parked in the LOC's requeue
    /// channel instead of being re-driven into a failing device; they
    /// drain — never drop — when the breaker closes.
    park_requeues: bool,
    /// Round-robin patrol-scrub position over SOC buckets then LOC
    /// regions.
    scrub_cursor: u64,
}

impl NavyEngine {
    /// Builds the engine pair over `io`, writing SOC data through
    /// `soc_handle`, LOC region payloads through `loc_handle` and LOC
    /// region footers through `meta_handle` (DESIGN.md §6.4: footers
    /// live for minutes, regions for hours, so they must not share
    /// reclaim units when the device can keep them apart).
    ///
    /// # Errors
    ///
    /// [`CacheError::Config`] when the namespace cannot fit at least one
    /// SOC bucket and two LOC regions.
    pub fn new(
        cfg: &NvmConfig,
        io: IoManager,
        soc_handle: PlacementHandle,
        loc_handle: PlacementHandle,
        meta_handle: PlacementHandle,
    ) -> Result<Self, CacheError> {
        let (soc_blocks, region_blocks, num_regions) = Self::geometry(cfg, &io)?;
        let soc = Soc::new(0, soc_blocks, io.block_bytes(), soc_handle);
        let loc = Loc::new(
            soc_blocks,
            num_regions,
            region_blocks,
            io.block_bytes(),
            cfg.trim_on_region_evict,
            loc_handle,
            meta_handle,
        );
        Ok(NavyEngine {
            io,
            soc,
            loc,
            size_threshold: cfg.size_threshold,
            park_requeues: false,
            scrub_cursor: 0,
        })
    }

    /// Computes the SOC/LOC split for a namespace (recovery replays into
    /// an engine built by [`NavyEngine::new`], so it derives
    /// bit-identical geometry from the same configuration).
    fn geometry(cfg: &NvmConfig, io: &IoManager) -> Result<(u64, u64, u32), CacheError> {
        let block_bytes = io.block_bytes();
        let total_blocks = io.blocks();
        let soc_blocks = ((total_blocks as f64) * cfg.soc_fraction).floor() as u64;
        let region_blocks = cfg.region_bytes / block_bytes as u64;
        let loc_space = total_blocks - soc_blocks;
        // Each region's footprint is its payload blocks plus its footer
        // slot in the trailing metadata area.
        let num_regions =
            (loc_space / (region_blocks + Loc::meta_blocks_for(region_blocks))) as u32;
        if soc_blocks == 0 {
            return Err(CacheError::Config("namespace too small for any SOC bucket".into()));
        }
        if num_regions < 2 {
            return Err(CacheError::Config(format!(
                "LOC needs at least 2 regions, got {num_regions} \
                 ({loc_space} blocks / {region_blocks} blocks-per-region)"
            )));
        }
        Ok((soc_blocks, region_blocks, num_regions))
    }

    /// Replays the metadata both engines persist at runtime (SOC bucket
    /// pages, LOC region footers — DESIGN.md §6.4–6.5) into this pair,
    /// fresh from [`NavyEngine::new`] with the pre-crash configuration
    /// over the same namespace. Every structure is read back and
    /// checksum-validated before it is trusted.
    ///
    /// # Errors
    ///
    /// [`CacheError::Config`] for a store that does not retain payload
    /// bytes; otherwise propagates non-injected I/O failures from the
    /// recovery reads.
    pub(crate) fn recover(&mut self) -> Result<(), CacheError> {
        self.soc.recover(&mut self.io)?;
        self.loc.recover(&mut self.io)
    }

    /// The SOC engine.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// The LOC engine.
    pub fn loc(&self) -> &Loc {
        &self.loc
    }

    /// Re-binds both engines' data placement handles
    /// (dynamic-placement experiments; paper §5.5 lesson 2). Subsequent
    /// SOC bucket writes and LOC region payload writes carry the new
    /// handles. The LOC's metadata handle is left alone: footers keep
    /// going where construction put them, whatever the data streams are
    /// rebound to.
    pub fn set_handles(&mut self, soc: PlacementHandle, loc: PlacementHandle) {
        self.soc.set_handle(soc);
        self.loc.set_handle(loc);
    }

    /// The underlying I/O manager.
    pub fn io(&self) -> &IoManager {
        &self.io
    }

    /// Mutable access to the I/O manager (clock control in replays).
    pub fn io_mut(&mut self) -> &mut IoManager {
        &mut self.io
    }

    /// Application-level write amplification (paper Equation 2): device
    /// bytes submitted over application object bytes admitted.
    pub fn alwa(&self) -> f64 {
        let app = self.soc.stats().app_bytes_written + self.loc.stats().app_bytes_written;
        if app == 0 {
            1.0
        } else {
            self.io.stats().bytes_written as f64 / app as f64
        }
    }

    /// Observed device write-latency histogram.
    pub fn write_latency(&self) -> &Histogram {
        self.io.write_latency()
    }

    /// Observed device read-latency histogram.
    pub fn read_latency(&self) -> &Histogram {
        self.io.read_latency()
    }

    /// Whether an object of this size routes to the SOC.
    pub fn is_small(&self, len: usize) -> bool {
        len < self.size_threshold as usize
    }

    /// Writes an object to flash (post-RAM-eviction path). Returns
    /// whether it is now on flash.
    ///
    /// Recovery: a SOC insert that fails persistently under injected
    /// faults was rolled back by the SOC and returns `false` (the
    /// object was never acknowledged as on flash). LOC seal failures
    /// are recovered inside the LOC (retry, then quarantine + requeue);
    /// the requeued objects are re-inserted here.
    ///
    /// # Errors
    ///
    /// Object-size errors and non-injected I/O errors.
    pub fn insert(&mut self, key: Key, value: Value) -> Result<bool, CacheError> {
        // A key may change size class between inserts; the copy in the
        // other engine (if any) would be stale and must be dropped.
        let admitted = if self.is_small(value.len()) {
            self.loc.remove(&mut self.io, key)?;
            match self.soc.insert(&mut self.io, key, value) {
                Ok(_) => true,
                // Rolled back by the SOC: treated as not admitted.
                Err(e) if e.is_injected_fault() => false,
                Err(e) => return Err(e),
            }
        } else {
            self.soc.remove(&mut self.io, key)?;
            self.loc.insert(&mut self.io, key, value)?;
            true
        };
        self.drain_loc_requeue()?;
        Ok(admitted)
    }

    /// Re-queues objects rescued from failed LOC seals: each goes to
    /// the SOC when it fits a bucket, otherwise back into the LOC's
    /// fresh active region (different blocks, so per-LBA faults do not
    /// repeat). Bounded at two passes — a requeue whose own seal also
    /// persistently fails propagates as unrecoverable rather than
    /// looping.
    fn drain_loc_requeue(&mut self) -> Result<(), CacheError> {
        if self.park_requeues {
            // Degraded mode: rescued objects stay parked rather than
            // being re-driven into a failing device (and never escalate
            // to Unrecoverable while the breaker is not closed).
            return Ok(());
        }
        for _pass in 0..2 {
            let pending = self.loc.take_requeued();
            if pending.is_empty() {
                return Ok(());
            }
            for (key, value) in pending {
                if value.len() <= self.soc.max_object_bytes() {
                    match self.soc.reinsert(&mut self.io, key, value.clone()) {
                        Ok(_) => continue,
                        // SOC also faulting: fall through to the LOC.
                        Err(e) if e.is_injected_fault() => {}
                        Err(e) => return Err(e),
                    }
                    self.loc.reinsert(&mut self.io, key, value)?;
                } else {
                    self.loc.reinsert(&mut self.io, key, value)?;
                }
            }
        }
        let leftover = self.loc.take_requeued();
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(CacheError::Unrecoverable(format!(
                "seal failures: {} objects could not be requeued",
                leftover.len()
            )))
        }
    }

    /// Switches requeue parking (see the `park_requeues` field). The
    /// breaker sets this when it opens; clearing it does **not** drain
    /// by itself — call [`NavyEngine::drain_parked`].
    pub fn set_park_requeues(&mut self, park: bool) {
        self.park_requeues = park;
    }

    /// Whether rescued seal objects are currently being parked.
    pub fn park_requeues(&self) -> bool {
        self.park_requeues
    }

    /// Drains every parked requeue back into the engines (breaker
    /// re-close path).
    ///
    /// # Errors
    ///
    /// [`CacheError::Unrecoverable`] when objects still cannot be
    /// re-homed, non-injected I/O errors otherwise.
    pub fn drain_parked(&mut self) -> Result<(), CacheError> {
        self.drain_loc_requeue()
    }

    /// One budgeted patrol-scrub step: reads back roughly `budget`
    /// device pages (SOC bucket pages, LOC sealed objects — a LOC
    /// region is scrubbed whole, so the budget can overshoot by one
    /// region's object count) and verifies them against the
    /// authoritative in-memory state, repairing any corruption found
    /// before a client read can observe it. The cursor round-robins SOC
    /// buckets then LOC regions across calls, covering the whole flash
    /// footprint. Returns `(pages_read, repairs)`.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures.
    pub fn scrub(&mut self, budget: u64) -> Result<(u64, u64), CacheError> {
        let soc_buckets = self.soc.num_buckets();
        let slots = soc_buckets + self.loc.num_regions() as u64;
        let mut pages = 0u64;
        let mut repairs = 0u64;
        let mut visited = 0u64;
        while pages < budget && visited < slots {
            visited += 1;
            let slot = self.scrub_cursor % slots;
            self.scrub_cursor = self.scrub_cursor.wrapping_add(1);
            let (p, r) = if slot < soc_buckets {
                self.soc.scrub_bucket(&mut self.io, slot)?
            } else {
                self.loc.scrub_region(&mut self.io, (slot - soc_buckets) as u32)?
            };
            pages += p;
            repairs += r;
        }
        // A LOC repair may have sealed the active region; its rescued
        // objects re-home now unless degraded mode parks them.
        self.drain_loc_requeue()?;
        Ok((pages, repairs))
    }

    /// Looks an object up in both engines (SOC first for small-object
    /// dominant workloads; order does not affect correctness since keys
    /// live in exactly one engine by size). Read faults are recovered
    /// inside the engines (demote to miss + targeted repair-write); the
    /// repair may seal a LOC region, so requeues drain here too.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures.
    pub fn lookup(&mut self, key: Key) -> Result<Option<(Value, NvmSource)>, CacheError> {
        if let Some(v) = self.soc.lookup(&mut self.io, key)? {
            return Ok(Some((v, NvmSource::Soc)));
        }
        let found = self.loc.lookup(&mut self.io, key)?;
        self.drain_loc_requeue()?;
        Ok(found.map(|v| (v, NvmSource::Loc)))
    }

    /// Removes an object from whichever engine holds it. Removal
    /// always takes effect even under persistent injected faults (the
    /// SOC invalidates a bucket page it cannot rewrite) — a removal
    /// that resurrected its key would serve stale data.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures.
    pub fn remove(&mut self, key: Key) -> Result<bool, CacheError> {
        let in_soc = self.soc.remove(&mut self.io, key)?;
        let in_loc = self.loc.remove(&mut self.io, key)?;
        Ok(in_soc || in_loc)
    }

    /// Keys with a live, persisted copy on flash right now (SOC bucket
    /// pages plus footer-persisted LOC index entries; LOC active-buffer
    /// objects are volatile and excluded). The must-survive oracle for
    /// crash tests: after a kill at any point, `NavyEngine::recover`
    /// must bring every one of these back.
    pub fn persisted_keys(&self) -> Vec<Key> {
        let mut keys = self.soc.persisted_keys();
        keys.extend(self.loc.persisted_keys());
        keys
    }

    /// Verifies `key`'s on-flash bytes against the acknowledged object
    /// (the "zero lost acknowledged writes" probe behind the bench
    /// crate's fault gate). SOC keys verify their whole bucket's
    /// serialization; LOC keys compare the covering-block read against
    /// the indexed value.
    ///
    /// # Errors
    ///
    /// Never — injected faults during verification reads are reported
    /// as [`FlashVerify::Unverifiable`], non-injected errors propagate.
    pub fn verify_key(&mut self, key: Key) -> Result<FlashVerify, CacheError> {
        if !self.io.retains_data() {
            return Ok(FlashVerify::Unverifiable);
        }
        if self.soc.contains(key) {
            if !self.soc.bucket_on_flash(key) {
                // Pending full rewrite after a failed repair: the
                // authoritative copy is in memory, nothing on flash.
                return Ok(FlashVerify::Unverifiable);
            }
            return match self.soc.verify_bucket(&mut self.io, self.soc.bucket_index(key)) {
                Ok(true) => Ok(FlashVerify::Verified),
                Ok(false) => Ok(FlashVerify::Mismatch),
                Err(e) if e.is_injected_fault() => Ok(FlashVerify::Unverifiable),
                Err(e) => Err(e),
            };
        }
        if self.loc.contains(key) {
            return match self.loc.verify_object(&mut self.io, key) {
                Ok(Some(true)) => Ok(FlashVerify::Verified),
                Ok(Some(false)) => Ok(FlashVerify::Mismatch),
                Ok(None) => Ok(FlashVerify::Absent),
                Err(e) if e.is_injected_fault() => Ok(FlashVerify::Unverifiable),
                Err(e) => Err(e),
            };
        }
        Ok(FlashVerify::Absent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdpcache_core::SharedController;
    use fdpcache_ftl::FtlConfig;
    use fdpcache_nvme::{Controller, DataStore, FillSource, MemStore, NamespaceId};

    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn engine() -> NavyEngine {
        engine_over(Box::new(MemStore::new()))
    }

    fn engine_over(store: Box<dyn DataStore>) -> NavyEngine {
        let ctrl = Controller::new(FtlConfig::tiny_test(), store).unwrap();
        let blocks = ctrl.unallocated_lbas();
        let nsid = ctrl.create_namespace(blocks, vec![0, 1]).unwrap();
        engine_on(Arc::new(ctrl), nsid)
    }

    /// A fresh engine over namespace `nsid` of `ctrl`, as
    /// [`engine_over`] configures it.
    fn engine_on(ctrl: SharedController, nsid: NamespaceId) -> NavyEngine {
        let io = IoManager::new(ctrl, nsid, 4).unwrap();
        let cfg = NvmConfig {
            soc_fraction: 0.1,
            region_bytes: 16 * 4096, // 16-block regions for the tiny device
            size_threshold: 2048,
            trim_on_region_evict: false,
            io_lanes: 4,
        };
        NavyEngine::new(
            &cfg,
            io,
            PlacementHandle::with_dspec(0),
            PlacementHandle::with_dspec(1),
            PlacementHandle::with_dspec(1),
        )
        .unwrap()
    }

    #[test]
    fn small_objects_go_to_soc() {
        let mut e = engine();
        assert!(e.insert(1, Value::synthetic(100)).unwrap());
        assert_eq!(e.soc().stats().inserts, 1);
        assert_eq!(e.loc().stats().inserts, 0);
        let (v, src) = e.lookup(1).unwrap().unwrap();
        assert_eq!(v.len(), 100);
        assert_eq!(src, NvmSource::Soc);
    }

    #[test]
    fn large_objects_go_to_loc() {
        let mut e = engine();
        assert!(e.insert(2, Value::synthetic(10_000)).unwrap());
        assert_eq!(e.loc().stats().inserts, 1);
        assert_eq!(e.soc().stats().inserts, 0);
        let (_, src) = e.lookup(2).unwrap().unwrap();
        assert_eq!(src, NvmSource::Loc);
    }

    #[test]
    fn threshold_boundary_routes_correctly() {
        let mut e = engine();
        e.insert(3, Value::synthetic(2047)).unwrap();
        e.insert(4, Value::synthetic(2048)).unwrap();
        assert_eq!(e.soc().stats().inserts, 1);
        assert_eq!(e.loc().stats().inserts, 1);
    }

    #[test]
    fn engines_use_distinct_placement_handles() {
        let e = engine();
        assert_ne!(e.soc().handle(), e.loc().handle());
    }

    #[test]
    fn alwa_reflects_soc_page_amplification() {
        let mut e = engine();
        // 100-byte objects each cost a 4096-byte page write: ALWA ≈ 41.
        for k in 0..50u64 {
            e.insert(k, Value::synthetic(100)).unwrap();
        }
        let alwa = e.alwa();
        assert!(alwa > 30.0 && alwa < 50.0, "alwa = {alwa}");
    }

    #[test]
    fn remove_covers_both_engines() {
        let mut e = engine();
        e.insert(1, Value::synthetic(100)).unwrap();
        e.insert(2, Value::synthetic(10_000)).unwrap();
        assert!(e.remove(1).unwrap());
        assert!(e.remove(2).unwrap());
        assert!(!e.remove(3).unwrap());
        assert!(e.lookup(1).unwrap().is_none());
        assert!(e.lookup(2).unwrap().is_none());
    }

    /// What a [`CountingStore`] counts.
    #[derive(Default)]
    struct Counts {
        /// Payload loads: every `read_block`/`read_blocks` call, the
        /// transfers a charged read skips.
        loads: AtomicU64,
        /// Bytes the stored sources made.
        made: AtomicU64,
        /// `write_block`/`write_blocks` calls.
        byte_writes: AtomicU64,
    }

    /// A [`MemStore`] that counts payload loads, the bytes its sources
    /// make and its byte writes.
    struct CountingStore {
        inner: MemStore,
        counts: Arc<Counts>,
    }

    impl CountingStore {
        fn new() -> (Self, Arc<Counts>) {
            let counts = Arc::new(Counts::default());
            (CountingStore { inner: MemStore::new(), counts: counts.clone() }, counts)
        }
    }

    impl DataStore for CountingStore {
        fn attach(&self, exported_lbas: u64, lba_bytes: u32) {
            self.inner.attach(exported_lbas, lba_bytes);
        }
        fn write_block(&self, lba: u64, data: &[u8]) {
            self.counts.byte_writes.fetch_add(1, Ordering::Relaxed);
            self.inner.write_block(lba, data);
        }
        fn read_block(&self, lba: u64, out: &mut [u8]) -> bool {
            self.counts.loads.fetch_add(1, Ordering::Relaxed);
            self.inner.read_block(lba, out)
        }
        fn discard(&self, lba: u64) {
            self.inner.discard(lba);
        }
        fn retains_data(&self) -> bool {
            self.inner.retains_data()
        }
        fn write_blocks(&self, lba: u64, data: &[u8], block_bytes: usize) {
            self.counts.byte_writes.fetch_add(1, Ordering::Relaxed);
            self.inner.write_blocks(lba, data, block_bytes);
        }
        fn write_source(
            &self,
            lba: u64,
            nlb: u64,
            block_bytes: usize,
            source: &FillSource,
            base: usize,
        ) {
            let (source, counts) = (source.clone(), self.counts.clone());
            let counted: FillSource = Arc::new(move |at, out: &mut [u8]| {
                counts.made.fetch_add(out.len() as u64, Ordering::Relaxed);
                source(at, out);
            });
            self.inner.write_source(lba, nlb, block_bytes, &counted, base);
        }
        fn read_blocks(&self, lba: u64, out: &mut [u8], block_bytes: usize) {
            self.counts.loads.fetch_add(1, Ordering::Relaxed);
            self.inner.read_blocks(lba, out, block_bytes);
        }
        fn discard_blocks(&self, lba: u64, count: u64) {
            self.inner.discard_blocks(lba, count);
        }
    }

    #[test]
    fn hits_charge_their_read_but_only_checks_load_bytes() {
        let (store, counts) = CountingStore::new();
        let mut e = engine_over(Box::new(store));
        let loads = || counts.loads.load(Ordering::Relaxed);
        // Key 1 in the SOC; keys 10.. of 10 000 bytes fill LOC region
        // 0 (16 blocks) and seal it, key 10 at its start.
        e.insert(1, Value::synthetic(100)).unwrap();
        for k in 10..20u64 {
            e.insert(k, Value::synthetic(10_000)).unwrap();
        }
        assert!(e.loc().stats().seals >= 1);

        // A SOC hit and a sealed LOC hit: one charged read each, with
        // the bytes of a bucket page and of the three covering blocks,
        // and no payload load.
        let hit = |e: &mut NavyEngine, key, source, len, bytes| {
            let (io, n) = (e.io().stats(), loads());
            let (v, src) = e.lookup(key).unwrap().unwrap();
            assert_eq!((src, v.len()), (source, len));
            let after = e.io().stats();
            assert_eq!(after.reads, io.reads + 1, "key {key}: one device read");
            assert_eq!(after.bytes_read, io.bytes_read + bytes, "key {key}: bytes charged");
            assert_eq!(loads(), n, "key {key}: a hit loads no payload");
        };
        hit(&mut e, 1, NvmSource::Soc, 100, 4096);
        hit(&mut e, 10, NvmSource::Loc, 10_000, 3 * 4096);

        // Verification loads and compares: a bucket, then an object.
        let n = loads();
        assert_eq!(e.verify_key(1).unwrap(), FlashVerify::Verified);
        assert_eq!(e.verify_key(10).unwrap(), FlashVerify::Verified);
        assert_eq!(loads(), n + 2);
        let garbage = vec![0xEEu8; 4096];
        let soc_block = e.soc().bucket_block(e.soc().bucket_index(1));
        let loc_block = e.loc().region_start_block(0);
        e.io_mut().write(soc_block, &garbage, PlacementHandle::with_dspec(0)).unwrap();
        e.io_mut().write(loc_block, &garbage, PlacementHandle::with_dspec(1)).unwrap();
        assert_eq!(e.verify_key(1).unwrap(), FlashVerify::Mismatch);
        assert_eq!(e.verify_key(10).unwrap(), FlashVerify::Mismatch);

        // The patrol scrub on a data-retaining store loads every page it
        // counts — the repair's read-modify-write read is only charged —
        // and its comparison finds both corruptions.
        let n = loads();
        let (pages, repairs) = e.scrub(u64::MAX).unwrap();
        assert_eq!(repairs, 2);
        assert_eq!(loads(), n + pages, "every scrubbed page is a load");
        assert_eq!(e.verify_key(1).unwrap(), FlashVerify::Verified);
        assert_eq!(e.verify_key(10).unwrap(), FlashVerify::Verified);
    }

    /// SOC bucket writes make no byte: each insert or remove charges
    /// its read-modify-write read and the store keeps the page's
    /// source, so verifying one SOC key makes exactly its bucket page.
    #[test]
    fn soc_writes_make_no_bytes_until_a_read_asks() {
        let (store, counts) = CountingStore::new();
        let mut e = engine_over(Box::new(store));
        let loads = || counts.loads.load(Ordering::Relaxed);
        let made = || counts.made.load(Ordering::Relaxed);
        let mut rng = 0x50C_u64;
        let (mut replaces, mut removes) = (0, 0);
        for step in 0..600u64 {
            rng =
                rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let draw = rng >> 33;
            let key = draw % 400;
            if step % 6 == 5 {
                removes += u64::from(e.remove(key).unwrap());
            } else {
                replaces += u64::from(e.soc().contains(key));
                e.insert(key, Value::synthetic(100 + (draw % 1900) as u32)).unwrap();
            }
        }
        let soc = e.soc().stats();
        assert!(replaces > 0 && removes > 0, "{replaces} replaces, {removes} removes");
        assert!(soc.collision_evictions > 0 && soc.rmw_reads > 0, "{soc:?}");
        assert_eq!(soc.page_writes, soc.inserts + removes);
        assert_eq!(loads(), 0, "an RMW read loads no page");
        assert_eq!(made(), 0, "a bucket write makes no byte");
        let key = (0..400).find(|&k| e.soc().contains(k)).expect("a key in the SOC");
        assert_eq!(e.verify_key(key).unwrap(), FlashVerify::Verified);
        assert_eq!(loads(), 1);
        assert_eq!(made(), u64::from(e.io().block_bytes()), "one page");
    }

    /// Seals make no byte: the store keeps each region's source, and
    /// verifying a sealed LOC key makes exactly the blocks covering it.
    #[test]
    fn seals_make_no_bytes_until_a_read_asks() {
        let (store, counts) = CountingStore::new();
        let mut e = engine_over(Box::new(store));
        let made = || counts.made.load(Ordering::Relaxed);
        // Six 10 000-byte objects fill a 16-block region; 36 seal five.
        for k in 10..46u64 {
            e.insert(k, Value::synthetic(10_000)).unwrap();
        }
        assert!(e.loc().stats().seals >= 5, "{:?}", e.loc().stats());
        assert_eq!(made(), 0, "sealing regions and their footers makes no byte");
        // Key 12 sits at byte 20 000 of region 0: blocks 4..=7.
        assert_eq!(e.verify_key(12).unwrap(), FlashVerify::Verified);
        assert_eq!(made(), 4 * 4096, "only the covering blocks");
    }

    /// The cache issues no byte write: SOC pages, sealed regions and
    /// every LOC footer — at a seal, at a delete's scrub, at an
    /// eviction's retirement — reach the store as sources, and neither
    /// a patrol scrub nor a recovery writes bytes either.
    #[test]
    fn no_cache_write_is_a_byte_write() {
        let (store, counts) = CountingStore::new();
        let mut e = engine_over(Box::new(store));
        for step in 0..2_000u64 {
            let key = step * 7 % 401;
            if step % 5 == 4 {
                e.remove(key).unwrap();
            } else {
                let len = if key % 4 == 0 { 300 } else { 5_000 + (step % 7) as u32 * 1_000 };
                e.insert(key, Value::synthetic(len)).unwrap();
            }
        }
        let loc = e.loc().stats();
        assert!(loc.seals > 20 && loc.region_evictions > 0 && loc.footer_rewrites > 0, "{loc:?}");
        assert!(e.soc().stats().page_writes > 0);
        let (pages, _) = e.scrub(u64::MAX).unwrap();
        assert!(pages > 0);
        let persisted = e.loc().persisted_keys();
        assert!(!persisted.is_empty());
        let mut recovered = engine_on(e.io().controller().clone(), e.io().namespace().nsid());
        recovered.recover().unwrap();
        assert_eq!(recovered.loc().persisted_keys(), persisted);
        for key in persisted {
            assert_eq!(recovered.verify_key(key).unwrap(), FlashVerify::Verified, "key {key}");
        }
        assert_eq!(counts.byte_writes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn config_rejects_too_small_namespace() {
        let ctrl = Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap();
        let nsid = ctrl.create_namespace(8, vec![0]).unwrap();
        let shared: SharedController = Arc::new(ctrl);
        let io = IoManager::new(shared, nsid, 4).unwrap();
        let cfg = NvmConfig { region_bytes: 16 * 4096, ..NvmConfig::default() };
        let dflt = PlacementHandle::DEFAULT;
        assert!(matches!(NavyEngine::new(&cfg, io, dflt, dflt, dflt), Err(CacheError::Config(_))));
    }
}
