//! The Small Object Cache: a set-associative flash cache for billions of
//! tiny objects (paper §2.3).
//!
//! Design, matching CacheLib's SOC:
//!
//! * the flash space is an array of page-sized *buckets* (4 KiB);
//! * a uniform hash maps each key to exactly one bucket;
//! * every insert rewrites the whole bucket in place — a random
//!   single-page write, the pattern that drives DLWA in the paper;
//! * within a bucket, entries are FIFO: colliding inserts evict the
//!   oldest entries to make room;
//! * a per-bucket bloom filter avoids flash reads for absent keys;
//! * there is **no DRAM index** — that is the SOC's reason to exist.
//!
//! The authoritative entry list per bucket lives in memory (see the crate
//! docs' simulator concession); the on-flash page format is
//! [`crate::layout`]'s, exact and tested for round-trip fidelity.
//!
//! A bucket write records its page; it does not make it (DESIGN.md
//! §5.3). An insert or remove charges its read-modify-write read
//! ([`IoManager::read_charged`]: the device cost, no bytes), edits the
//! entry list, and writes the page as one [`FillSource`] over a
//! snapshot of the edited list — clones of its keys and values, each a
//! refcount bump or a length copy. The payload store keeps the source
//! and calls it, which runs [`encode_bucket`], the one page builder,
//! only when the block is read: by verification, scrub or
//! recovery. Every page is therefore built whole from the list, and the
//! trailer (§6.5) is folded from digests of the bytes the builder just
//! wrote, so nothing read back from the device is carried forward. A
//! store that retains no data is handed one shared source of zeros, so
//! its writes allocate nothing.
//!
//! Concurrency note: the SOC is single-threaded state owned by its
//! shard — lookups mutate bloom/bucket bookkeeping and charge device
//! time on the shard's `&mut` queue pair, so every SOC call happens
//! under the shard lock. Only the DRAM tier publishes into the
//! lock-free read index (DESIGN.md §5.1a).

use fdpcache_core::{IoManager, PlacementHandle};
use fdpcache_nvme::FillSource;

use crate::bloom::BloomArray;
use crate::checksum::mix64;
use crate::error::CacheError;
use crate::layout::{bucket_entry_bytes, bucket_room, decode_bucket, encode_bucket, page_source};
use crate::retry::{issue, recovery_read, Retry};
use crate::value::Value;
use crate::Key;

/// SOC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocStats {
    /// Successful inserts.
    pub inserts: u64,
    /// Entries evicted by bucket collisions.
    pub collision_evictions: u64,
    /// Lookup attempts.
    pub lookups: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Bloom-filter rejections (saved flash reads).
    pub bloom_rejects: u64,
    /// Read-modify-write page reads performed.
    pub rmw_reads: u64,
    /// Bucket page writes performed.
    pub page_writes: u64,
    /// Application bytes inserted (object sizes).
    pub app_bytes_written: u64,
    /// Explicit removals.
    pub removes: u64,
    /// Bucket-page write re-submissions after injected faults.
    pub write_retries: u64,
    /// Bucket rewrites abandoned after every retry failed (the
    /// triggering operation was rolled back and reported an error).
    pub write_faults: u64,
    /// Bucket-page reads that completed with an injected fault.
    pub read_faults: u64,
    /// Targeted repair-writes: bucket pages rewritten from the
    /// authoritative list after a read fault.
    pub repair_writes: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    key: Key,
    value: Value,
}

impl Entry {
    /// Bytes the entry occupies in a bucket page.
    #[inline]
    fn flash_len(&self) -> usize {
        bucket_entry_bytes(self.value.len())
    }
}

/// Encodes the page of `entries` into `page`.
fn encode_entries(entries: &[Entry], page: &mut [u8]) {
    encode_bucket(entries.iter().map(|e| (e.key, &e.value)), page);
}

/// One pass over a bucket's entry list: the list position of `key`,
/// if it is listed, and the page bytes its entries use (of the
/// [`bucket_room`] a page leaves them).
fn walk(entries: &[Entry], key: Key) -> (Option<usize>, usize) {
    let mut hit = None;
    let mut used = 0;
    for (pos, e) in entries.iter().enumerate() {
        if e.key == key {
            hit = Some(pos);
        }
        used += e.flash_len();
    }
    (hit, used)
}

/// The Small Object Cache engine.
#[derive(Debug)]
pub struct Soc {
    base_block: u64,
    num_buckets: u64,
    bucket_bytes: u32,
    /// Authoritative per-bucket entries, newest first.
    buckets: Vec<Vec<Entry>>,
    /// Whether the bucket page has ever been written (skips the RMW read
    /// for virgin buckets, as CacheLib does via its bloom "not present").
    written: Vec<bool>,
    /// Per-bucket filters; bucket `b`'s always equals a
    /// [`BloomArray::rebuild`] over `buckets[b]`. Whoever changes an
    /// entry list restores that before returning ([`Soc::insert_impl`],
    /// [`Soc::remove`], [`Soc::recover`]); nothing else writes a filter.
    bloom: BloomArray,
    handle: PlacementHandle,
    stats: SocStats,
    /// Reusable rollback buffer: the entries the insert in flight
    /// evicted, oldest first. Empty between inserts.
    evicted: Vec<Entry>,
}

impl Soc {
    /// Creates a SOC over `num_buckets` buckets starting at
    /// namespace-relative block `base_block`, writing through `handle`.
    pub fn new(
        base_block: u64,
        num_buckets: u64,
        bucket_bytes: u32,
        handle: PlacementHandle,
    ) -> Self {
        Soc {
            base_block,
            num_buckets,
            bucket_bytes,
            buckets: vec![Vec::new(); num_buckets as usize],
            written: vec![false; num_buckets as usize],
            bloom: BloomArray::new(num_buckets as usize),
            handle,
            stats: SocStats::default(),
            evicted: Vec::new(),
        }
    }

    /// Replays the bucket pages persisted on flash into this SOC, fresh
    /// from [`Soc::new`] with the pre-crash geometry (DESIGN.md §6.5).
    /// A page is trusted only if [`decode_bucket`] accepts it; others
    /// stay virgin buckets. Recovered values are the page's payload
    /// bytes, so they encode bit-identically to what was on flash.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures (a bucket whose
    /// [`recovery_read`] stays faulted is treated as lost — recovery
    /// must not wedge on a flaky page).
    pub(crate) fn recover(&mut self, io: &mut IoManager) -> Result<(), CacheError> {
        debug_assert!(self.written.iter().all(|w| !w), "SOC not fresh");
        let mut page = vec![0u8; self.bucket_bytes as usize];
        for bucket in 0..self.num_buckets {
            let block = self.bucket_block(bucket);
            if !recovery_read(io, block, &mut page, &mut self.stats.read_faults)? {
                continue;
            }
            // A readable page that is not a valid bucket (torn or
            // foreign) is not trusted.
            let Ok(entries) = decode_bucket(&page) else { continue };
            let entry =
                |(key, bytes): (Key, &[u8])| Entry { key, value: Value::real(bytes.to_vec()) };
            self.buckets[bucket as usize] = entries.into_iter().map(entry).collect();
            self.written[bucket as usize] = true;
            self.rebuild_bloom(bucket);
        }
        Ok(())
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> u64 {
        self.num_buckets
    }

    /// Total SOC capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.num_buckets * self.bucket_bytes as u64
    }

    /// The placement handle this engine writes through.
    pub fn handle(&self) -> PlacementHandle {
        self.handle
    }

    /// Re-binds the placement handle used for subsequent writes
    /// (dynamic-placement experiments; paper §5.5 lesson 2). Takes
    /// effect on the next device write; data already on flash keeps its
    /// original placement.
    pub fn set_handle(&mut self, handle: PlacementHandle) {
        self.handle = handle;
    }

    /// Engine statistics.
    pub fn stats(&self) -> SocStats {
        self.stats
    }

    /// Largest object the SOC can hold.
    pub fn max_object_bytes(&self) -> usize {
        self.room() - bucket_entry_bytes(0)
    }

    /// Bytes of a bucket page available to its entries.
    #[inline]
    fn room(&self) -> usize {
        bucket_room(self.bucket_bytes as usize)
    }

    /// The key's bucket under a uniform hash, the splitmix64 finalizer
    /// (the paper's model assumes a well-behaved uniform hash, §4.2).
    #[inline]
    fn bucket_of(&self, key: Key) -> u64 {
        mix64(key) % self.num_buckets
    }

    /// Namespace-relative block holding `bucket`'s page. Public so
    /// crash drivers can compute scripted fault coordinates (every
    /// bucket operation is a command starting at this block).
    pub fn bucket_block(&self, bucket: u64) -> u64 {
        self.base_block + bucket
    }

    /// The authoritative `(key, size)` list of `bucket`, newest first:
    /// the keys and payload lengths its on-flash page decodes to
    /// ([`decode_bucket`]).
    pub fn bucket_entries(&self, bucket: u64) -> Vec<(Key, u32)> {
        self.buckets[bucket as usize].iter().map(|e| (e.key, e.value.len() as u32)).collect()
    }

    /// The per-bucket bloom filters (read-only; for tests and audits).
    pub fn bloom(&self) -> &BloomArray {
        &self.bloom
    }

    /// The [`page_source`] of `bucket`'s current list: on a store that
    /// retains data, a snapshot of the list — clones of its keys and
    /// values — that [`encode_bucket`] builds the page from whenever the
    /// store reads the block.
    fn page_source(&self, io: &IoManager, bucket: u64) -> FillSource {
        page_source(io.retains_data(), self.bucket_bytes as usize, || {
            let entries = self.buckets[bucket as usize].clone();
            move |_, page: &mut [u8]| encode_entries(&entries, page)
        })
    }

    /// The page of `bucket`'s current list, built into a fresh buffer.
    #[cfg(test)]
    pub(crate) fn reference_page(&self, bucket: u64) -> Vec<u8> {
        let mut page = vec![0u8; self.bucket_bytes as usize];
        encode_entries(&self.buckets[bucket as usize], &mut page);
        page
    }

    /// The read-modify-write read: a real SOC must fetch the page
    /// before modifying it, so every rewrite of an existing page issues
    /// it. It is charged — device time, NAND read, faults, `bytes_read`
    /// — and copies nothing ([`IoManager::read_charged`]): the new page
    /// is built from the authoritative list, not from the old one.
    ///
    /// Recovery (DESIGN.md §6): an injected fault is absorbed after
    /// [`Retry::Once`] — the authoritative entry list lives in memory,
    /// so a persistently unreadable old page does not block the rewrite.
    fn rmw_read(&mut self, io: &mut IoManager, bucket: u64) -> Result<(), CacheError> {
        if !self.written[bucket as usize] {
            return Ok(());
        }
        let block = self.bucket_block(bucket);
        let len = self.bucket_bytes as usize;
        let read = || io.read_charged(block, len);
        if issue(Retry::Once, || self.stats.read_faults += 1, read)?.is_ok() {
            self.stats.rmw_reads += 1;
        }
        Ok(())
    }

    /// Writes `bucket`'s page, one block holding `source`'s bytes,
    /// through the placement handle.
    ///
    /// Recovery (DESIGN.md §6): an injected fault is retried under
    /// [`Retry::Write`]; a persistent failure propagates so the caller
    /// can roll back its in-memory mutation — the bucket is then still
    /// exactly its pre-operation self, on flash and in memory.
    fn write_page(
        &mut self,
        io: &mut IoManager,
        bucket: u64,
        source: FillSource,
    ) -> Result<(), CacheError> {
        let (block, handle) = (self.bucket_block(bucket), self.handle);
        let write = || io.write_with(block, 1, source.clone(), handle);
        if let Err(fault) = issue(Retry::Write, || self.stats.write_retries += 1, write)? {
            self.stats.write_faults += 1;
            return Err(fault.into());
        }
        self.written[bucket as usize] = true;
        self.stats.page_writes += 1;
        Ok(())
    }

    /// Rewrites the bucket page from the authoritative list alone — the
    /// repair and scrub path, where the page on flash is the thing in
    /// doubt: the charged read-modify-write read, then the page write.
    /// The bloom filter is untouched: a rewrite alone never changes the
    /// list.
    fn rewrite_bucket(&mut self, io: &mut IoManager, bucket: u64) -> Result<(), CacheError> {
        self.rmw_read(io, bucket)?;
        let source = self.page_source(io, bucket);
        self.write_page(io, bucket, source)
    }

    /// Blooms cannot delete: after entries left `bucket`, rebuild its
    /// filter from the authoritative list.
    fn rebuild_bloom(&mut self, bucket: u64) {
        self.bloom.rebuild(bucket as usize, self.buckets[bucket as usize].iter().map(|e| e.key));
    }

    /// Inserts an object. Colliding oldest entries are evicted to make
    /// room (FIFO within the bucket). Returns the number of entries
    /// evicted by collision.
    ///
    /// If the bucket rewrite fails persistently under injected faults,
    /// the in-memory mutation is **rolled back** (the new entry is
    /// withdrawn, replaced/evicted entries are restored) before the
    /// error propagates: a failed insert is never acknowledged and the
    /// bucket — in memory and on flash — is exactly its pre-insert
    /// self, so no previously acknowledged object is lost.
    ///
    /// # Errors
    ///
    /// [`CacheError::ObjectTooLarge`] when the object cannot fit in an
    /// empty bucket, or I/O errors.
    pub fn insert(
        &mut self,
        io: &mut IoManager,
        key: Key,
        value: Value,
    ) -> Result<u64, CacheError> {
        self.insert_impl(io, key, value, true)
    }

    /// Re-homes an object the cache already acknowledged (requeues out
    /// of failed LOC seals): identical to [`Soc::insert`] except the
    /// object does not count as new application bytes — it was counted
    /// at first admission, and recounting would bias ALWA downward
    /// under fault scenarios.
    pub(crate) fn reinsert(
        &mut self,
        io: &mut IoManager,
        key: Key,
        value: Value,
    ) -> Result<u64, CacheError> {
        self.insert_impl(io, key, value, false)
    }

    /// [`Soc::insert`] and [`Soc::reinsert`]: the charged RMW read, one
    /// walk of the pre-insert list, the list edit, the page write, and
    /// the rollback of the list if the write is abandoned.
    fn insert_impl(
        &mut self,
        io: &mut IoManager,
        key: Key,
        value: Value,
        count_app_bytes: bool,
    ) -> Result<u64, CacheError> {
        let len = value.len();
        if bucket_entry_bytes(len) > self.room() {
            return Err(CacheError::ObjectTooLarge { size: len, max: self.max_object_bytes() });
        }
        let bucket = self.bucket_of(key);
        self.rmw_read(io, bucket)?;
        let room = self.room();
        let entries = &mut self.buckets[bucket as usize];
        let (hit, used) = walk(entries, key);
        // Replace any existing entry for the key (kept for rollback).
        let replaced = hit.map(|pos| (pos, entries.remove(pos)));
        // Evict oldest entries until the new one fits (kept for
        // rollback, oldest first).
        let need = bucket_entry_bytes(len);
        let mut kept = used - replaced.as_ref().map_or(0, |(_, old)| old.flash_len());
        while kept + need > room {
            let Some(old) = entries.pop() else { break };
            kept -= old.flash_len();
            self.evicted.push(old);
        }
        let evicted = self.evicted.len() as u64;
        // The only keys to leave the list; with none, the filter just
        // gains the new key.
        let pure_insert = replaced.is_none() && evicted == 0;
        // The value moves into the bucket; the page source shares it.
        entries.insert(0, Entry { key, value });
        let source = self.page_source(io, bucket);
        if let Err(e) = self.write_page(io, bucket, source) {
            // Roll back to the exact pre-insert bucket.
            let entries = &mut self.buckets[bucket as usize];
            entries.remove(0);
            entries.extend(self.evicted.drain(..).rev());
            if let Some((pos, old)) = replaced {
                entries.insert(pos, old);
            }
            return Err(e);
        }
        self.evicted.clear();
        if pure_insert {
            self.bloom.insert(bucket as usize, key);
        } else {
            self.rebuild_bloom(bucket);
        }
        self.stats.collision_evictions += evicted;
        if count_app_bytes {
            self.stats.inserts += 1;
            self.stats.app_bytes_written += len as u64;
        }
        Ok(evicted)
    }

    /// Looks up an object. A bloom reject answers without touching
    /// flash; otherwise the bucket page read is charged in full —
    /// virtual time, NAND read, faults, `bytes_read` — without copying
    /// the page ([`IoManager::read_charged`]), and the authoritative
    /// list is consulted.
    ///
    /// A hit hands back the stored value **without touching its
    /// bytes**: for `Value::Real` the clone below is a refcount bump on
    /// the shared `Arc<[u8]>`, for `Value::Synthetic` it copies a
    /// length. A lookup moves no payload bytes at all.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn lookup(&mut self, io: &mut IoManager, key: Key) -> Result<Option<Value>, CacheError> {
        self.stats.lookups += 1;
        let bucket = self.bucket_of(key);
        if !self.bloom.may_contain(bucket as usize, key) {
            self.stats.bloom_rejects += 1;
            return Ok(None);
        }
        if self.written[bucket as usize] {
            let block = self.bucket_block(bucket);
            let len = self.bucket_bytes as usize;
            if issue(Retry::Busy, || {}, || io.read_charged(block, len))?.is_err() {
                // Demote to miss + targeted repair (DESIGN.md §6): the
                // authoritative entry list is intact in memory, so
                // rewrite the page from it; future lookups hit again. A
                // persistently failing repair leaves the page marked
                // unwritten — the next insert rewrites it in full
                // without the RMW read.
                self.stats.read_faults += 1;
                match self.rewrite_bucket(io, bucket) {
                    Ok(()) => self.stats.repair_writes += 1,
                    Err(e) if e.is_injected_fault() => self.written[bucket as usize] = false,
                    Err(e) => return Err(e),
                }
                return Ok(None);
            }
        }
        let found =
            self.buckets[bucket as usize].iter().find(|e| e.key == key).map(|e| e.value.clone());
        if found.is_some() {
            self.stats.hits += 1;
        }
        Ok(found)
    }

    /// Removes an object if present, rewriting its bucket. Returns
    /// whether it was present.
    ///
    /// Removal **always** takes effect: the authoritative in-memory
    /// list drops the entry even when the bucket rewrite fails
    /// persistently under injected faults — a removal that silently
    /// resurrected its key would serve stale data (the engine relies
    /// on this when a key changes size class: the superseded SOC copy
    /// must never outlive the new LOC copy). On a persistent rewrite
    /// failure the bucket's on-flash page is marked unwritten instead,
    /// so lookups serve from the list without trusting the stale page
    /// and the next insert rewrites it whole.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures only.
    pub fn remove(&mut self, io: &mut IoManager, key: Key) -> Result<bool, CacheError> {
        let bucket = self.bucket_of(key);
        let Some(pos) = self.buckets[bucket as usize].iter().position(|e| e.key == key) else {
            return Ok(false);
        };
        self.rmw_read(io, bucket)?;
        self.buckets[bucket as usize].remove(pos);
        self.rebuild_bloom(bucket);
        let source = self.page_source(io, bucket);
        match self.write_page(io, bucket, source) {
            Ok(()) => {}
            Err(e) if e.is_injected_fault() => {
                // The stale page must not be read again; invalidate it.
                self.written[bucket as usize] = false;
            }
            Err(e) => return Err(e),
        }
        self.stats.removes += 1;
        Ok(true)
    }

    /// Verifies that the on-flash serialization of `bucket` matches the
    /// authoritative in-memory list (requires a data-retaining store).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; returns `Ok(false)` on mismatch.
    pub fn verify_bucket(&mut self, io: &mut IoManager, bucket: u64) -> Result<bool, CacheError> {
        if !self.written[bucket as usize] {
            return Ok(true);
        }
        let mut page = vec![0u8; self.bucket_bytes as usize];
        io.read(self.bucket_block(bucket), &mut page)?;
        let listed = self.buckets[bucket as usize].iter().map(|e| (e.key, e.value.len()));
        Ok(decode_bucket(&page)
            .is_ok_and(|entries| entries.iter().map(|&(k, bytes)| (k, bytes.len())).eq(listed)))
    }

    /// The patrol read of `bucket`: whether its page verifies on a
    /// store that retains data; elsewhere the read is only charged —
    /// it can detect injected faults but has no bytes to compare. An
    /// injected fault is counted and reads as `false`.
    fn patrol_read(&mut self, io: &mut IoManager, bucket: u64) -> Result<bool, CacheError> {
        let read = if io.retains_data() {
            self.verify_bucket(io, bucket)
        } else {
            let len = self.bucket_bytes as usize;
            io.read_charged(self.bucket_block(bucket), len).map(|_| true).map_err(CacheError::from)
        };
        match read {
            Err(e) if e.is_injected_fault() => {
                self.stats.read_faults += 1;
                Ok(false)
            }
            read => read,
        }
    }

    /// Patrol-reads one bucket page (no-op for virgin buckets) and
    /// repairs it from the authoritative in-memory entry list when the
    /// read faults or the serialization mismatches (torn/corrupted
    /// pages fail the trailing checksum at parse time, DESIGN.md §6.5)
    /// — *before* a client lookup can observe the corruption. The
    /// rewritten page is verified in turn: a rewrite onto a
    /// permanently unreadable block "succeeds" yet still faults on
    /// read-back, so the repair falls back to invalidating the page
    /// (lookups then serve from the authoritative list with no device
    /// read) — the same invalidation a persistently unwritable repair
    /// takes. Both forms count as repairs. Returns
    /// `(pages_read, repairs)`.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures.
    pub(crate) fn scrub_bucket(
        &mut self,
        io: &mut IoManager,
        bucket: u64,
    ) -> Result<(u64, u64), CacheError> {
        if !self.written[bucket as usize] {
            return Ok((0, 0));
        }
        if self.patrol_read(io, bucket)? {
            return Ok((1, 0));
        }
        match self.rewrite_bucket(io, bucket) {
            Ok(()) => {
                // Verify the fresh copy: on a permanently unreadable
                // block the rewrite completes but the page still
                // faults, and a client lookup must never touch it.
                if !self.patrol_read(io, bucket)? {
                    self.written[bucket as usize] = false;
                }
                self.stats.repair_writes += 1;
                Ok((2, 1))
            }
            Err(e) if e.is_injected_fault() => {
                // Persistently unwritable: invalidate the page so the
                // next insert rewrites it in full without the RMW read
                // (lookups serve from the authoritative list meanwhile).
                self.written[bucket as usize] = false;
                Ok((1, 1))
            }
            Err(e) => Err(e),
        }
    }

    /// Bucket index a key hashes to (exposed for tests and experiments).
    pub fn bucket_index(&self, key: Key) -> u64 {
        self.bucket_of(key)
    }

    /// Whether the authoritative list currently holds `key` (no device
    /// I/O; used by flash verification).
    pub fn contains(&self, key: Key) -> bool {
        self.buckets[self.bucket_of(key) as usize].iter().any(|e| e.key == key)
    }

    /// Whether the bucket holding `key` has a live on-flash page to
    /// verify against (false after a persistently failed repair).
    pub fn bucket_on_flash(&self, key: Key) -> bool {
        self.written[self.bucket_of(key) as usize]
    }

    /// Keys whose serialized copy is live on flash right now (entries
    /// in buckets with a written, un-invalidated page). These are
    /// exactly the SOC objects a crash-and-recover cycle must bring
    /// back — the must-survive oracle for crash tests.
    pub fn persisted_keys(&self) -> Vec<Key> {
        let mut keys = Vec::new();
        for (b, entries) in self.buckets.iter().enumerate() {
            if self.written[b] {
                keys.extend(entries.iter().map(|e| e.key));
            }
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdpcache_core::SharedController;
    use fdpcache_ftl::FtlConfig;
    use fdpcache_nvme::{Controller, MemStore};

    use std::sync::Arc;

    fn io(blocks: u64) -> IoManager {
        let ctrl = Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap();
        let nsid = ctrl.create_namespace(blocks, vec![0, 1]).unwrap();
        let shared: SharedController = Arc::new(ctrl);
        IoManager::new(shared, nsid, 4).unwrap()
    }

    fn soc(buckets: u64) -> (Soc, IoManager) {
        (Soc::new(0, buckets, 4096, PlacementHandle::with_dspec(0)), io(buckets + 64))
    }

    #[test]
    fn insert_then_lookup_hits() {
        let (mut s, mut io) = soc(16);
        s.insert(&mut io, 42, Value::synthetic(100)).unwrap();
        let v = s.lookup(&mut io, 42).unwrap().unwrap();
        assert_eq!(v.len(), 100);
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn absent_key_misses_via_bloom() {
        let (mut s, mut io) = soc(16);
        s.insert(&mut io, 1, Value::synthetic(10)).unwrap();
        let reads_before = io.stats().reads;
        // A key hashing to a different bucket must be bloom-rejected
        // without any flash read.
        let mut other = 2u64;
        while s.bucket_index(other) == s.bucket_index(1) {
            other += 1;
        }
        assert!(s.lookup(&mut io, other).unwrap().is_none());
        assert_eq!(io.stats().reads, reads_before);
        assert!(s.stats().bloom_rejects >= 1);
    }

    #[test]
    fn duplicate_insert_replaces() {
        let (mut s, mut io) = soc(4);
        s.insert(&mut io, 9, Value::synthetic(50)).unwrap();
        s.insert(&mut io, 9, Value::synthetic(70)).unwrap();
        assert_eq!(s.lookup(&mut io, 9).unwrap().unwrap().len(), 70);
        // Still exactly one entry in the bucket.
        let b = s.bucket_index(9);
        assert_eq!(s.buckets[b as usize].len(), 1);
    }

    #[test]
    fn collision_evicts_oldest_fifo() {
        let (mut s, mut io) = soc(1); // every key collides
                                      // Four ~1 KiB entries fit (4×(12+1000)+8 ≤ 4096); the fifth evicts.
        for k in 1..=4u64 {
            assert_eq!(s.insert(&mut io, k, Value::synthetic(1000)).unwrap(), 0);
        }
        let evicted = s.insert(&mut io, 5, Value::synthetic(1000)).unwrap();
        assert_eq!(evicted, 1);
        assert!(s.lookup(&mut io, 1).unwrap().is_none(), "oldest must be evicted");
        assert!(s.lookup(&mut io, 5).unwrap().is_some());
    }

    #[test]
    fn oversized_object_rejected() {
        let (mut s, mut io) = soc(4);
        let err = s.insert(&mut io, 1, Value::synthetic(4096)).unwrap_err();
        assert!(matches!(err, CacheError::ObjectTooLarge { .. }));
    }

    #[test]
    fn max_object_fits_exactly() {
        let (mut s, mut io) = soc(4);
        let max = s.max_object_bytes();
        s.insert(&mut io, 1, Value::synthetic(max as u32)).unwrap();
        assert!(s.lookup(&mut io, 1).unwrap().is_some());
    }

    #[test]
    fn remove_rewrites_and_forgets() {
        let (mut s, mut io) = soc(4);
        s.insert(&mut io, 5, Value::synthetic(10)).unwrap();
        assert!(s.remove(&mut io, 5).unwrap());
        assert!(s.lookup(&mut io, 5).unwrap().is_none());
        assert!(!s.remove(&mut io, 5).unwrap());
    }

    #[test]
    fn every_insert_writes_one_page() {
        let (mut s, mut io) = soc(8);
        for k in 0..20u64 {
            s.insert(&mut io, k, Value::synthetic(64)).unwrap();
        }
        assert_eq!(io.stats().writes, 20, "each SOC insert is one full-page write");
        assert_eq!(s.stats().page_writes, 20);
    }

    #[test]
    fn serialization_round_trips_on_flash() {
        let (mut s, mut io) = soc(4);
        for k in 0..12u64 {
            s.insert(&mut io, k, Value::synthetic(100 + k as u32)).unwrap();
        }
        for b in 0..4 {
            assert!(s.verify_bucket(&mut io, b).unwrap(), "bucket {b} mismatched");
        }
    }

    #[test]
    fn real_values_survive_round_trip() {
        let (mut s, mut io) = soc(2);
        s.insert(&mut io, 7, Value::real(vec![0xAB; 333])).unwrap();
        let v = s.lookup(&mut io, 7).unwrap().unwrap();
        assert_eq!(v.to_bytes(7), vec![0xAB; 333]);
        assert!(s.verify_bucket(&mut io, s.bucket_index(7)).unwrap());
    }

    #[test]
    fn lookup_hands_back_the_inserted_arc_without_copying() {
        let (mut s, mut io) = soc(2);
        let value = Value::real(vec![0xCD; 100]);
        let arc = value.as_real().unwrap().clone();
        s.insert(&mut io, 9, value).unwrap();
        let hit = s.lookup(&mut io, 9).unwrap().unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&arc, hit.as_real().unwrap()),
            "SOC hit must share the inserted buffer (zero-copy)"
        );
    }

    #[test]
    fn recover_rebuilds_buckets_from_flash() {
        let (mut s, mut io) = soc(8);
        for k in 0..30u64 {
            s.insert(&mut io, k, Value::synthetic(64 + k as u32)).unwrap();
        }
        s.remove(&mut io, 3).unwrap();
        let survivors = s.persisted_keys();
        drop(s);
        let mut r = Soc::new(0, 8, 4096, PlacementHandle::with_dspec(0));
        r.recover(&mut io).unwrap();
        let mut recovered = r.persisted_keys();
        let mut expected = survivors.clone();
        recovered.sort_unstable();
        expected.sort_unstable();
        assert_eq!(recovered, expected);
        assert!(r.lookup(&mut io, 3).unwrap().is_none(), "removed key must stay dead");
        for k in survivors {
            let v = r.lookup(&mut io, k).unwrap().expect("survivor lost");
            assert_eq!(v.len(), 64 + k as usize, "size mangled for key {k}");
            // Recovered bytes must match the original synthetic
            // materialization exactly.
            assert_eq!(v.to_bytes(k), Value::synthetic(64 + k as u32).to_bytes(k));
        }
        // Re-serialization of recovered buckets is bit-identical.
        for b in 0..8 {
            assert!(r.verify_bucket(&mut io, b).unwrap(), "bucket {b} mismatched after recovery");
        }
    }

    #[test]
    fn recover_treats_corrupt_page_as_virgin() {
        let (mut s, mut io) = soc(4);
        s.insert(&mut io, 1, Value::synthetic(100)).unwrap();
        let bucket = s.bucket_index(1);
        let block = s.bucket_block(bucket);
        // Corrupt the persisted page out-of-band (simulated torn write).
        let mut page = vec![0u8; 4096];
        io.read(block, &mut page).unwrap();
        page[100] ^= 0xFF;
        io.write(block, &page, PlacementHandle::with_dspec(0)).unwrap();
        drop(s);
        let mut r = Soc::new(0, 4, 4096, PlacementHandle::with_dspec(0));
        r.recover(&mut io).unwrap();
        assert!(r.lookup(&mut io, 1).unwrap().is_none(), "corrupt bucket must not be trusted");
        assert!(r.persisted_keys().is_empty());
    }

    /// One bucket holding keys 1..=5, newest first, sizes all
    /// different; returns it with its page as read from flash.
    fn five_entry_bucket() -> (Soc, IoManager, Vec<u8>) {
        let (mut s, mut io) = soc(1);
        for k in 1..=5u64 {
            s.insert(&mut io, k, Value::synthetic(90 + 17 * k as u32)).unwrap();
        }
        let page = page_on_flash(&s, &mut io, 0);
        (s, io, page)
    }

    fn page_on_flash(s: &Soc, io: &mut IoManager, bucket: u64) -> Vec<u8> {
        let mut page = vec![0u8; 4096];
        io.read(s.bucket_block(bucket), &mut page).unwrap();
        page
    }

    /// Nothing the device hands back is carried into the next page: a
    /// page scribbled in the store — a payload byte, or a key in an
    /// entry header — is rebuilt whole by the next insert into its
    /// bucket.
    #[test]
    fn a_scribbled_page_is_rebuilt_whole_by_the_next_insert() {
        for what in ["payload", "key"] {
            let (mut s, mut io, mut page) = five_entry_bucket();
            // A byte of the middle entry's payload, or of key 4 (the
            // second entry).
            let at = if what == "payload" {
                let entries = decode_bucket(&page).unwrap();
                entries[2].1.as_ptr() as usize - page.as_ptr() as usize + 7
            } else {
                page.windows(8).position(|w| w == 4u64.to_le_bytes()).unwrap()
            };
            page[at] ^= 0x04;
            io.write(s.bucket_block(0), &page, s.handle()).unwrap();
            assert!(!s.verify_bucket(&mut io, 0).unwrap(), "{what}: the scribble shows");
            let (writes, rmw_reads) = (s.stats().page_writes, s.stats().rmw_reads);
            s.insert(&mut io, 6, Value::synthetic(200)).unwrap();
            assert_eq!((s.stats().page_writes, s.stats().rmw_reads), (writes + 1, rmw_reads + 1));
            let rebuilt = page_on_flash(&s, &mut io, 0);
            assert_eq!(rebuilt, s.reference_page(0), "{what}");
            assert!(s.verify_bucket(&mut io, 0).unwrap(), "{what}");
        }
    }

    /// A page write's source holds clones of its list's values. An
    /// entry that leaves the list — replaced, evicted or removed — is
    /// held by nobody once the next write of its bucket has replaced
    /// the old source: its buffer's strong count is back at the test's
    /// own 1.
    #[test]
    fn a_value_leaving_its_bucket_dies_with_the_next_write() {
        let (mut s, mut io) = soc(1);
        let real = |fill: u8, len: usize| {
            let value = Value::real(vec![fill; len]);
            let arc = value.as_real().unwrap().clone();
            (value, arc)
        };
        // Replaced.
        let (value, replaced) = real(1, 300);
        s.insert(&mut io, 1, value).unwrap();
        assert_eq!(Arc::strong_count(&replaced), 3, "test, list and page source");
        s.insert(&mut io, 1, real(2, 300).0).unwrap();
        assert_eq!(Arc::strong_count(&replaced), 1, "replaced");
        // Evicted: key 2 ages out behind 1000-byte inserts.
        let (value, evicted) = real(3, 1000);
        s.insert(&mut io, 2, value).unwrap();
        let mut key = 10;
        while s.contains(2) {
            assert_eq!(Arc::strong_count(&evicted), 3);
            s.insert(&mut io, key, Value::synthetic(1000)).unwrap();
            key += 1;
        }
        assert!(s.stats().collision_evictions >= 2);
        assert_eq!(Arc::strong_count(&evicted), 1, "evicted");
        // Removed.
        let (value, removed) = real(4, 500);
        s.insert(&mut io, 3, value).unwrap();
        assert!(s.remove(&mut io, 3).unwrap());
        assert_eq!(Arc::strong_count(&removed), 1, "removed");
        assert!(s.verify_bucket(&mut io, 0).unwrap());
    }

    #[test]
    fn uniform_hash_spreads_keys() {
        let s = Soc::new(0, 64, 4096, PlacementHandle::DEFAULT);
        let mut counts = vec![0u32; 64];
        for k in 0..64_000u64 {
            counts[s.bucket_index(k) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min > 800 && max < 1200, "hash skew: min={min} max={max}");
    }
}
