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
//! docs' simulator concession); serialization to the on-flash format is
//! exact and tested for round-trip fidelity.
//!
//! Concurrency note: the SOC is single-threaded state owned by its
//! shard — lookups mutate bloom/bucket bookkeeping and charge device
//! time on the shard's `&mut` queue pair, so every SOC call happens
//! under the shard mutex. Only the DRAM tier publishes into the
//! lock-free read index (DESIGN.md §5.1a).

use fdpcache_core::{IoManager, PlacementHandle};
use fdpcache_nvme::{NvmeError, RetryPolicy};

use crate::bloom::BloomArray;
use crate::checksum::page_checksum;
use crate::error::CacheError;
use crate::value::Value;
use crate::Key;

/// On-flash bucket header: magic + entry count.
const HEADER_BYTES: usize = 8;
const MAGIC: u32 = 0x534F_4342; // "SOCB"
/// Per-entry metadata: key (8) + size (4).
const ENTRY_META_BYTES: usize = 12;
/// Trailing page checksum (DESIGN.md §6.5): recovery trusts a bucket
/// page only when the last 8 bytes checksum the rest of it.
const CHECKSUM_BYTES: usize = 8;

/// Bucket-page writes run under this unified [`RetryPolicy`] before an
/// operation gives up on the device (first submit plus three retries);
/// injected faults are transient by default, so retries recover
/// everything but scripted bad blocks. Immediate (zero-backoff) so the
/// schedule reproduces the legacy 4-attempt loop bit-identically.
fn write_retry() -> RetryPolicy {
    RetryPolicy::immediate(4)
}

/// One extra attempt for transient failures (busy lookup spikes, RMW /
/// recovery reads): the legacy single-retry sites.
fn transient_retry() -> RetryPolicy {
    RetryPolicy::immediate(2)
}

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
    /// Reusable page buffer for RMW reads and serialization. Arbitrary
    /// bytes between uses: every reader overwrites the whole page and
    /// [`Soc::serialize_bucket`] zeroes what it does not write.
    scratch: Vec<u8>,
}

/// Uniform hash: splitmix64 finalizer (the paper's model assumes a
/// well-behaved uniform hash, §4.2).
#[inline]
fn bucket_hash(key: Key) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
            scratch: vec![0u8; bucket_bytes as usize],
        }
    }

    /// Rebuilds a SOC from the bucket pages persisted on flash
    /// (DESIGN.md §6.5). Each bucket page is read back and trusted only
    /// if its trailing checksum validates; never-written and
    /// checksum-failing pages come back as virgin buckets. Recovered
    /// values are materialized payload bytes ([`Value::real`]), so they
    /// serialize bit-identically to what was on flash.
    ///
    /// Requires a data-retaining store; geometry arguments must match
    /// the pre-crash instance (the caller rebuilds them from
    /// configuration, which is host-side input, not recovered state).
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures (an injected read fault is
    /// retried once, then the bucket is treated as lost — recovery
    /// must not wedge on a flaky page).
    pub fn recover(
        base_block: u64,
        num_buckets: u64,
        bucket_bytes: u32,
        handle: PlacementHandle,
        io: &mut IoManager,
    ) -> Result<Self, CacheError> {
        let mut soc = Soc::new(base_block, num_buckets, bucket_bytes, handle);
        let mut page = vec![0u8; bucket_bytes as usize];
        for bucket in 0..num_buckets {
            let block = soc.bucket_block(bucket);
            let mut schedule = transient_retry().schedule(block);
            let mut res = io.read(block, &mut page);
            while res.as_ref().is_err_and(|e| e.is_injected_fault())
                && schedule.next_backoff_ns().is_some()
            {
                soc.stats.read_faults += 1;
                res = io.read(block, &mut page);
            }
            match res {
                Ok(_) => {}
                Err(NvmeError::Unwritten(_)) => continue,
                Err(e) if e.is_injected_fault() => continue,
                Err(e) => return Err(e.into()),
            }
            let Some(parsed) = Self::parse_bucket(&page) else {
                // Readable but not a valid bucket (torn or foreign
                // page): recovery must not trust it.
                continue;
            };
            let mut off = HEADER_BYTES;
            for (key, size) in parsed {
                off += ENTRY_META_BYTES;
                let bytes = page[off..off + size as usize].to_vec();
                off += size as usize;
                soc.buckets[bucket as usize].push(Entry { key, value: Value::real(bytes) });
            }
            soc.written[bucket as usize] = true;
            soc.rebuild_bloom(bucket);
        }
        Ok(soc)
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
        self.bucket_bytes as usize - HEADER_BYTES - ENTRY_META_BYTES - CHECKSUM_BYTES
    }

    /// Bytes of a bucket page available to the header + entries (the
    /// trailing checksum is reserved).
    #[inline]
    fn usable_bucket_bytes(&self) -> usize {
        self.bucket_bytes as usize - CHECKSUM_BYTES
    }

    #[inline]
    fn bucket_of(&self, key: Key) -> u64 {
        bucket_hash(key) % self.num_buckets
    }

    /// Namespace-relative block holding `bucket`'s page. Public so
    /// crash drivers can compute scripted fault coordinates (every
    /// bucket operation is a command starting at this block).
    pub fn bucket_block(&self, bucket: u64) -> u64 {
        self.base_block + bucket
    }

    fn bucket_payload(&self, bucket: u64) -> usize {
        self.buckets[bucket as usize]
            .iter()
            .map(|e| ENTRY_META_BYTES + e.value.len())
            .sum::<usize>()
            + HEADER_BYTES
    }

    /// The authoritative `(key, size)` list of `bucket`, newest first:
    /// what its on-flash page parses to ([`Soc::parse_bucket`]).
    pub fn bucket_entries(&self, bucket: u64) -> Vec<(Key, u32)> {
        self.buckets[bucket as usize].iter().map(|e| (e.key, e.value.len() as u32)).collect()
    }

    /// The per-bucket bloom filters (read-only; for tests and audits).
    pub fn bloom(&self) -> &BloomArray {
        &self.bloom
    }

    /// Serializes a bucket's entries into the on-flash page format in
    /// one pass over `out`, whatever it held before (DESIGN.md §5.3):
    /// header and entries are written in place, only the gap between
    /// the last entry and the trailing checksum is zeroed.
    fn serialize_bucket(&self, bucket: u64, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.bucket_bytes as usize);
        let entries = &self.buckets[bucket as usize];
        out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        out[4..8].copy_from_slice(&(entries.len() as u32).to_le_bytes());
        let mut off = HEADER_BYTES;
        for e in entries {
            let len = e.value.len();
            out[off..off + 8].copy_from_slice(&e.key.to_le_bytes());
            out[off + 8..off + 12].copy_from_slice(&(len as u32).to_le_bytes());
            off += ENTRY_META_BYTES;
            e.value.materialize(e.key, &mut out[off..off + len]);
            off += len;
        }
        let cut = out.len() - CHECKSUM_BYTES;
        out[off..cut].fill(0);
        let sum = page_checksum(&out[..cut]);
        out[cut..].copy_from_slice(&sum.to_le_bytes());
    }

    /// Parses an on-flash bucket page into `(key, size)` pairs. Returns
    /// `None` when the page is not a serialized bucket (wrong magic,
    /// inconsistent lengths, or a trailing checksum mismatch — recovery
    /// treats such a page as never written).
    pub fn parse_bucket(page: &[u8]) -> Option<Vec<(Key, u32)>> {
        if page.len() < HEADER_BYTES + CHECKSUM_BYTES {
            return None;
        }
        let cut = page.len() - CHECKSUM_BYTES;
        let stored = u64::from_le_bytes(page[cut..].try_into().ok()?);
        if stored != page_checksum(&page[..cut]) {
            return None;
        }
        let magic = u32::from_le_bytes(page[0..4].try_into().ok()?);
        if magic != MAGIC {
            return None;
        }
        let count = u32::from_le_bytes(page[4..8].try_into().ok()?) as usize;
        let mut out = Vec::with_capacity(count);
        let mut off = HEADER_BYTES;
        for _ in 0..count {
            if off + ENTRY_META_BYTES > cut {
                return None;
            }
            let key = u64::from_le_bytes(page[off..off + 8].try_into().ok()?);
            let size = u32::from_le_bytes(page[off + 8..off + 12].try_into().ok()?);
            off += ENTRY_META_BYTES;
            if off + size as usize > cut {
                return None;
            }
            off += size as usize;
            out.push((key, size));
        }
        Some(out)
    }

    /// Writes the bucket page through the placement handle, performing
    /// the read-modify-write read first when the page already exists.
    ///
    /// Recovery (DESIGN.md §6): an injected fault on the RMW read is
    /// absorbed after one retry (the authoritative entry list lives in
    /// memory; the read models device cost only). An injected fault on
    /// the page write is retried under the unified [`write_retry`]
    /// policy (four attempts, zero backoff — the legacy schedule); a
    /// persistent failure propagates so the caller can roll back its
    /// in-memory mutation — the bucket is then still exactly its
    /// pre-operation self, on flash and in memory. The bloom filter is
    /// the caller's to update: a rewrite alone never changes the list.
    fn rewrite_bucket(&mut self, io: &mut IoManager, bucket: u64) -> Result<(), CacheError> {
        let block = self.bucket_block(bucket);
        let mut page = std::mem::take(&mut self.scratch);
        if self.written[bucket as usize] {
            // RMW read: real SOC must fetch the page before modifying.
            let mut schedule = transient_retry().schedule(block);
            let mut read = io.read(block, &mut page);
            while read.as_ref().is_err_and(|e| e.is_injected_fault())
                && schedule.next_backoff_ns().is_some()
            {
                self.stats.read_faults += 1;
                read = io.read(block, &mut page);
            }
            match read {
                Ok(_) => self.stats.rmw_reads += 1,
                // The page is about to be fully rewritten from the
                // authoritative list; a persistently unreadable old
                // page does not block the rewrite.
                Err(e) if e.is_injected_fault() => {}
                Err(e) => {
                    self.scratch = page;
                    return Err(e.into());
                }
            }
        }
        if io.retains_data() {
            self.serialize_bucket(bucket, &mut page);
        }
        let mut schedule = write_retry().schedule(block);
        let res = loop {
            match io.write(block, &page, self.handle) {
                Ok(_) => break Ok(()),
                Err(e) if e.is_injected_fault() => match schedule.next_backoff_ns() {
                    Some(backoff_ns) => {
                        if backoff_ns > 0 {
                            io.advance(backoff_ns);
                        }
                        self.stats.write_retries += 1;
                    }
                    None => break Err(e),
                },
                Err(e) => break Err(e),
            }
        };
        self.scratch = page;
        match res {
            Ok(()) => {}
            Err(e) => {
                if e.is_injected_fault() {
                    self.stats.write_faults += 1;
                }
                return Err(e.into());
            }
        }
        self.written[bucket as usize] = true;
        self.stats.page_writes += 1;
        Ok(())
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

    fn insert_impl(
        &mut self,
        io: &mut IoManager,
        key: Key,
        value: Value,
        count_app_bytes: bool,
    ) -> Result<u64, CacheError> {
        let len = value.len();
        let need = ENTRY_META_BYTES + len;
        if HEADER_BYTES + need > self.usable_bucket_bytes() {
            return Err(CacheError::ObjectTooLarge { size: len, max: self.max_object_bytes() });
        }
        let bucket = self.bucket_of(key);
        let entries = &mut self.buckets[bucket as usize];
        // Replace any existing entry for the key (kept for rollback).
        let replaced =
            entries.iter().position(|e| e.key == key).map(|pos| (pos, entries.remove(pos)));
        // Evict oldest entries until the new one fits (kept for
        // rollback, newest-evicted first).
        let mut evicted_entries = Vec::new();
        let mut payload = self.bucket_payload(bucket);
        while payload + need > self.usable_bucket_bytes() {
            match self.buckets[bucket as usize].pop() {
                Some(e) => {
                    payload -= ENTRY_META_BYTES + e.value.len();
                    evicted_entries.push(e);
                }
                None => break,
            }
        }
        let evicted = evicted_entries.len() as u64;
        // The only keys to leave the list; with none, the filter just
        // gains the new key.
        let pure_insert = replaced.is_none() && evicted_entries.is_empty();
        // The value moves into the bucket; the only bytes touched are
        // the serialization into the page scratch below.
        self.buckets[bucket as usize].insert(0, Entry { key, value });
        if let Err(e) = self.rewrite_bucket(io, bucket) {
            // Roll back to the exact pre-insert bucket.
            let entries = &mut self.buckets[bucket as usize];
            entries.remove(0);
            for old in evicted_entries.into_iter().rev() {
                entries.push(old);
            }
            if let Some((pos, old)) = replaced {
                let pos = pos.min(entries.len());
                entries.insert(pos, old);
            }
            return Err(e);
        }
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
    /// flash; otherwise the bucket page is read (real I/O cost) and the
    /// authoritative list is consulted.
    ///
    /// A hit hands back the stored value **without touching its
    /// bytes**: for `Value::Real` the clone below is a refcount bump on
    /// the shared `Arc<[u8]>`, for `Value::Synthetic` it copies a
    /// length. The page read into the reusable scratch buffer is the
    /// only byte traffic.
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
            let mut page = std::mem::take(&mut self.scratch);
            let mut schedule = transient_retry().schedule(block);
            let mut res = io.read(block, &mut page);
            while res.as_ref().is_err_and(|e| e.is_busy()) && schedule.next_backoff_ns().is_some() {
                // Transient busy: one immediate retry.
                res = io.read(block, &mut page);
            }
            self.scratch = page;
            match res {
                Ok(_) => {}
                Err(e) if e.is_injected_fault() => {
                    // Demote to miss + targeted repair (DESIGN.md §6):
                    // the authoritative entry list is intact in memory,
                    // so rewrite the page from it; future lookups hit
                    // again. A persistently failing repair leaves the
                    // page marked unwritten — the next insert rewrites
                    // it in full without the RMW read.
                    self.stats.read_faults += 1;
                    match self.rewrite_bucket(io, bucket) {
                        Ok(()) => self.stats.repair_writes += 1,
                        Err(e2) if e2.is_injected_fault() => {
                            self.written[bucket as usize] = false;
                        }
                        Err(e2) => return Err(e2),
                    }
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
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
        let entries = &mut self.buckets[bucket as usize];
        let Some(pos) = entries.iter().position(|e| e.key == key) else {
            return Ok(false);
        };
        entries.remove(pos);
        self.rebuild_bloom(bucket);
        match self.rewrite_bucket(io, bucket) {
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
        let Some(parsed) = Self::parse_bucket(&page) else {
            return Ok(false);
        };
        Ok(parsed == self.bucket_entries(bucket))
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
        let intact = if io.retains_data() {
            match self.verify_bucket(io, bucket) {
                Ok(ok) => ok,
                Err(e) if e.is_injected_fault() => {
                    self.stats.read_faults += 1;
                    false
                }
                Err(e) => return Err(e),
            }
        } else {
            // Payload-free store: the patrol read can detect injected
            // faults but has no bytes to compare.
            let mut page = std::mem::take(&mut self.scratch);
            let res = io.read(self.bucket_block(bucket), &mut page);
            self.scratch = page;
            match res {
                Ok(_) => true,
                Err(e) if e.is_injected_fault() => {
                    self.stats.read_faults += 1;
                    false
                }
                Err(e) => return Err(e.into()),
            }
        };
        if intact {
            return Ok((1, 0));
        }
        match self.rewrite_bucket(io, bucket) {
            Ok(()) => {
                // Verify the fresh copy: on a permanently unreadable
                // block the rewrite completes but the page still
                // faults, and a client lookup must never touch it.
                let readable = if io.retains_data() {
                    match self.verify_bucket(io, bucket) {
                        Ok(ok) => ok,
                        Err(e) if e.is_injected_fault() => {
                            self.stats.read_faults += 1;
                            false
                        }
                        Err(e) => return Err(e),
                    }
                } else {
                    let mut page = std::mem::take(&mut self.scratch);
                    let res = io.read(self.bucket_block(bucket), &mut page);
                    self.scratch = page;
                    match res {
                        Ok(_) => true,
                        Err(e) if e.is_injected_fault() => {
                            self.stats.read_faults += 1;
                            false
                        }
                        Err(e) => return Err(e.into()),
                    }
                };
                if !readable {
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
    fn parse_rejects_garbage() {
        assert!(Soc::parse_bucket(&[0u8; 4096]).is_none());
        assert!(Soc::parse_bucket(&[]).is_none());
        let mut page = vec![0u8; 4096];
        page[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        page[4..8].copy_from_slice(&1000u32.to_le_bytes()); // count too big
        assert!(Soc::parse_bucket(&page).is_none());
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
        let mut r = Soc::recover(0, 8, 4096, PlacementHandle::with_dspec(0), &mut io).unwrap();
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
        let mut r = Soc::recover(0, 4, 4096, PlacementHandle::with_dspec(0), &mut io).unwrap();
        assert!(r.lookup(&mut io, 1).unwrap().is_none(), "corrupt bucket must not be trusted");
        assert!(r.persisted_keys().is_empty());
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
