//! The Large Object Cache: a log-structured flash cache (paper §2.3).
//!
//! Matching CacheLib's LOC:
//!
//! * the flash space is divided into *regions* (16 MiB default, aligned
//!   with erase-block/reclaim-unit sizes);
//! * objects append into an in-memory active region; a full region is
//!   *sealed* — written to flash sequentially in large chunks that
//!   share one image of the region's objects, whose bytes the payload
//!   store makes only when they are read — and a fresh region opens;
//! * when no free region remains, the oldest sealed region is evicted
//!   (FIFO) and its live copies dropped; the region's blocks are simply
//!   overwritten by the next seal (no TRIM), exactly like CacheLib —
//!   the optional `trim_on_region_evict` flag reproduces the paper's
//!   shelved FDP-specialized eviction policy (§5.5);
//! * one DRAM key map holds each key's live copy — buffered, or
//!   (region, offset, length) on flash — and the regions whose footers
//!   still list a superseded copy of it: the LOC pays DRAM for small
//!   flash metadata, the opposite tradeoff to the SOC;
//! * a dedicated *metadata area* after the region array holds one
//!   *footer* per region persisting its entry table (key, offset,
//!   length) under a checksum, written as part of the same
//!   all-or-nothing seal batch — this is what makes the DRAM key map
//!   rebuildable after a crash (`Loc::recover`, DESIGN.md §6.4).
//!   Keeping footers *outside* the regions preserves the LOC's
//!   region-aligned payload layout: every region is a whole
//!   `region_bytes` of payload, so regions pack into reclaim units and
//!   invalidate in region-sized chunks exactly as they did before
//!   footers existed — which is what keeps segregated-stream GC cheap
//!   (the paper's core FDP argument). The same argument one level
//!   down keeps footers out of the regions' *reclaim units*: a footer
//!   is rewritten at every eviction, delete and scrub of its region,
//!   so footers go through a placement handle of their own and are
//!   written only as long as their entry table. Deletes rewrite the
//!   footer *before* the in-memory removal is acknowledged, so a crash
//!   can never resurrect a deleted key from a stale footer.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

use fdpcache_core::{IoBatch, IoManager, PlacementHandle};
use fdpcache_nvme::{FillSource, NvmeError};

use crate::error::CacheError;
use crate::keymap::KeyMap;
use crate::layout::{Footer, FooterEntry, FooterGeometry, Malformed};
use crate::retry::{issue, recovery_read, Retry};
use crate::value::Value;
use crate::Key;

/// Size of each device write when sealing a region (64 KiB): large
/// sequential I/O like CacheLib's region flushes.
const SEAL_CHUNK_BYTES: usize = 64 << 10;

/// LOC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocStats {
    /// Objects inserted.
    pub inserts: u64,
    /// Regions sealed (flushed to flash).
    pub seals: u64,
    /// Regions evicted to make room.
    pub region_evictions: u64,
    /// Objects dropped by region eviction.
    pub evicted_objects: u64,
    /// Lookup attempts.
    pub lookups: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Application bytes inserted (object sizes).
    pub app_bytes_written: u64,
    /// Explicit removals.
    pub removes: u64,
    /// Seal batch re-submissions after an injected fault.
    pub seal_retries: u64,
    /// Seals abandoned after every retry failed (region quarantined,
    /// its objects handed back for requeueing).
    pub seal_faults: u64,
    /// Regions permanently quarantined by persistent seal faults.
    pub quarantined_regions: u64,
    /// Sealed-object reads that completed with an injected fault and
    /// were demoted to a miss.
    pub read_faults: u64,
    /// Targeted repair-writes: objects re-inserted after a read fault
    /// so subsequent lookups hit again.
    pub repair_writes: u64,
    /// Objects handed back for requeueing out of failed seals (never
    /// silently dropped).
    pub requeued_objects: u64,
    /// Region-evict TRIMs skipped after persistent discard faults
    /// (advisory command; data correctness is unaffected).
    pub discard_faults: u64,
    /// Region footers rewritten outside a seal (delete persistence and
    /// cross-region scrubs of superseded entries).
    pub footer_rewrites: u64,
    /// Footer blocks that reached the device — seal, rewrite and retire
    /// paths alike (failed attempts excluded). Times the block size,
    /// the LOC's metadata share of device bytes.
    pub footer_blocks_written: u64,
    /// Footer-write re-submissions outside a seal after an injected
    /// fault (seal-time footers retry with their batch, in
    /// `seal_retries`).
    pub footer_retries: u64,
    /// Footer rewrites that failed persistently under injected faults
    /// and fell back to invalidating the footer wholesale (the region's
    /// remaining entries then survive only in DRAM — a crash treats the
    /// region as evicted, never serves stale entries from it).
    pub footer_faults: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionState {
    Free,
    Active,
    Sealed,
    /// Every seal attempt on this region failed; it is withdrawn from
    /// rotation permanently (a grown-bad erase block).
    Quarantined,
}

#[derive(Debug)]
struct Region {
    state: RegionState,
    /// Keys this region's footer lists, in fill order (ascending
    /// offset): its live objects and superseded copies not yet
    /// scrubbed. Eviction and patrol scrubs walk it. A key's [`Slot`]
    /// inverts these lists (its live copy's region plus
    /// [`Slot::older`]); every change to one goes through a `Loc`
    /// method that updates both.
    keys: Vec<Key>,
    /// Monotonic sequence stamped into the footer at seal time;
    /// recovery orders regions by it so newer copies of a key
    /// supersede older ones.
    seal_seq: u64,
}

/// An object in the active buffer: key, offset in the region, value.
type Buffered = (Key, u32, Value);

/// Writes bytes `[at, at + out.len())` of a sealed region into `out`:
/// the overlapping parts of `objects` (ordered by offset), and zeros in
/// the gaps superseded or removed objects left and in the tail padding.
fn fill_region(objects: &[Buffered], at: usize, out: &mut [u8]) {
    let end = at + out.len();
    let first = objects.partition_point(|(_, off, v)| *off as usize + v.len() <= at);
    let mut pos = at;
    for (key, off, value) in &objects[first..] {
        let off = *off as usize;
        if off >= end {
            break;
        }
        let from = off.max(pos);
        let to = (off + value.len()).min(end);
        out[pos - at..from - at].fill(0);
        value.materialize_at(*key, from - off, &mut out[from - at..to - at]);
        pos = to;
    }
    out[pos - at..].fill(0);
}

/// A sealed object's place on flash and its authoritative value.
#[derive(Debug, Clone)]
struct SealedCopy {
    region: u32,
    offset: u32,
    value: Value,
}

/// A key's live copy.
#[derive(Debug)]
enum Live {
    /// Buffered at this position of [`Loc::buffer`].
    Active(u32),
    /// Sealed on flash.
    Sealed(SealedCopy),
}

/// Everything the LOC knows of one key: its live copy, if any, and the
/// regions whose footers still list a superseded copy. A key's
/// *listing* — the regions whose [`Region::keys`] hold it — is
/// `older` plus its sealed live copy's region; most keys have one
/// copy on flash, and their `older` stays empty and unallocated.
#[derive(Debug, Default)]
struct Slot {
    live: Option<Live>,
    older: Vec<u32>,
}

impl Slot {
    /// Drops the live copy. A sealed one's region still lists the key,
    /// so it joins `older`; a buffered one's position is returned.
    fn supersede(&mut self) -> Option<u32> {
        match self.live.take()? {
            Live::Active(pos) => Some(pos),
            Live::Sealed(copy) => {
                self.older.push(copy.region);
                None
            }
        }
    }

    /// The sealed live copy, if the key has one.
    fn sealed(&self) -> Option<&SealedCopy> {
        match &self.live {
            Some(Live::Sealed(copy)) => Some(copy),
            _ => None,
        }
    }

    /// The regions that list the key.
    fn listing(&self) -> impl Iterator<Item = u32> + '_ {
        self.older.iter().copied().chain(self.sealed().map(|c| c.region))
    }

    /// Drops `region` from the superseded copies' regions.
    fn drop_older(&mut self, region: u32) {
        if let Some(i) = self.older.iter().position(|&r| r == region) {
            self.older.swap_remove(i);
        }
    }

    /// Whether nothing of the key is left: no live copy, no listing.
    fn is_empty(&self) -> bool {
        self.live.is_none() && self.older.is_empty()
    }
}

/// Drops `region` from `key`'s superseded copies' regions, and the
/// key's slot once nothing of it is left.
fn unlist(slots: &mut KeyMap<Slot>, key: Key, region: u32) {
    if let Entry::Occupied(mut e) = slots.entry(key) {
        e.get_mut().drop_older(region);
        if e.get().is_empty() {
            e.remove();
        }
    }
}

/// The Large Object Cache engine.
#[derive(Debug)]
pub struct Loc {
    base_block: u64,
    region_blocks: u64,
    block_bytes: u32,
    num_regions: u32,
    /// The footer format's geometry: block size, slot blocks and the
    /// region payload its entries address.
    footer: FooterGeometry,
    regions: Vec<Region>,
    free: VecDeque<u32>,
    sealed_fifo: VecDeque<u32>,
    active: Option<u32>,
    /// Bytes of the active region its objects occupy; nothing is
    /// materialised until a read of the sealed region asks for it.
    active_fill: usize,
    /// The active region's objects in fill order, which is offset
    /// order: at the seal, once its superseded positions are dropped,
    /// this is the region's image.
    buffer: Vec<Buffered>,
    /// Positions of `buffer` whose object a later insert or a remove
    /// superseded; the buffer holds `buffer.len() - superseded.len()`
    /// live objects.
    superseded: Vec<u32>,
    /// Every key the LOC holds or a footer lists. Every insert, lookup
    /// and remove of either engine probes it once.
    slots: KeyMap<Slot>,
    trim_on_evict: bool,
    handle: PlacementHandle,
    /// Placement handle for footer writes: the namespace's metadata
    /// handle, or `handle` itself when the data engines left no
    /// identifier free (DESIGN.md §6.4).
    meta_handle: PlacementHandle,
    /// Next seal sequence number (resumes past the recovered maximum).
    next_seal_seq: u64,
    stats: LocStats,
    /// Reusable block-aligned buffer for the sealed-object reads whose
    /// bytes are compared — scrub, verification and `read_raw` — so
    /// none pays a heap allocation per read. Lookups copy no bytes: their
    /// read is charged only (DESIGN.md §5.3).
    read_scratch: Vec<u8>,
    /// Objects rescued from a persistently failing seal, waiting for
    /// the engine to re-queue them ([`Loc::take_requeued`]).
    pending_requeue: Vec<(Key, Value)>,
}

impl Loc {
    /// Creates a LOC over `num_regions` regions of `region_blocks` blocks
    /// each, starting at namespace-relative block `base_block`. The
    /// region array is followed by the metadata area (one
    /// [`Loc::meta_blocks`]-sized footer slot per region), so the LOC's
    /// total footprint is `num_regions * (region_blocks +
    /// meta_blocks)`. Payload writes go through `handle`, footer writes
    /// through `meta_handle`.
    pub fn new(
        base_block: u64,
        num_regions: u32,
        region_blocks: u64,
        block_bytes: u32,
        trim_on_evict: bool,
        handle: PlacementHandle,
        meta_handle: PlacementHandle,
    ) -> Self {
        let bb = block_bytes as usize;
        let meta_blocks = Self::meta_blocks_for(region_blocks) as usize;
        let footer = FooterGeometry::new(bb, meta_blocks, region_blocks as usize * bb);
        Loc {
            base_block,
            region_blocks,
            block_bytes,
            num_regions,
            footer,
            regions: (0..num_regions)
                .map(|_| Region { state: RegionState::Free, keys: Vec::new(), seal_seq: 0 })
                .collect(),
            free: (0..num_regions).collect(),
            sealed_fifo: VecDeque::new(),
            active: None,
            active_fill: 0,
            buffer: Vec::new(),
            superseded: Vec::new(),
            slots: KeyMap::default(),
            trim_on_evict,
            handle,
            meta_handle,
            next_seal_seq: 1,
            stats: LocStats::default(),
            read_scratch: Vec::new(),
            pending_requeue: Vec::new(),
        }
    }

    /// Metadata-area blocks per region for a given region size (~1.6%
    /// of the region, at least one block). An associated function so
    /// the engine's geometry computation can budget the metadata area
    /// before a `Loc` exists.
    pub fn meta_blocks_for(region_blocks: u64) -> u64 {
        (region_blocks / 64).max(1)
    }

    /// Footer slot size (blocks) in the metadata area for this LOC's
    /// region geometry.
    pub fn meta_blocks(&self) -> u64 {
        Self::meta_blocks_for(self.region_blocks)
    }

    /// Reads `region`'s footer back (`buf` is slot-sized scratch):
    /// block 0 alone, which the decoder judges before its total is
    /// believed, then exactly the further blocks that total calls for.
    /// Whatever an older, longer footer left further down the slot is
    /// never read. `None` is an unsealed region: unreadable, never
    /// written ([`recovery_read`]), or rejected by the decoder (torn,
    /// stale or corrupt).
    fn read_footer(
        &mut self,
        io: &mut IoManager,
        region: u32,
        buf: &mut [u8],
    ) -> Result<Option<Footer>, CacheError> {
        let bb = self.block_bytes as usize;
        let start = self.meta_start_block(region);
        if !recovery_read(io, start, &mut buf[..bb], &mut self.stats.read_faults)? {
            return Ok(None);
        }
        let blocks = match self.footer.decode(region, &buf[..bb]) {
            Err(Malformed::Short { blocks }) => blocks,
            decoded => return Ok(decoded.ok()),
        };
        if !recovery_read(io, start + 1, &mut buf[bb..blocks * bb], &mut self.stats.read_faults)? {
            return Ok(None);
        }
        Ok(self.footer.decode(region, &buf[..blocks * bb]).ok())
    }

    /// The blocks covering a sealed object: the first block, their
    /// length in bytes, and the object's byte range within them.
    fn covering_blocks(&self, entry: &SealedCopy) -> (u64, usize, std::ops::Range<usize>) {
        let block_bytes = self.block_bytes as u64;
        let first_block = entry.offset as u64 / block_bytes;
        let last_byte = entry.offset as u64 + entry.value.len().max(1) as u64 - 1;
        let nblocks = last_byte / block_bytes - first_block + 1;
        let start = entry.offset as usize - (first_block * block_bytes) as usize;
        (
            self.region_start_block(entry.region) + first_block,
            (nblocks * block_bytes) as usize,
            start..start + entry.value.len(),
        )
    }

    /// The covering-block read for a sealed object: grows the reusable
    /// scratch buffer as needed (amortized to zero allocations) and
    /// reads the covering blocks from the device, returning the byte
    /// range of the object within the scratch.
    fn read_covering_blocks(
        &mut self,
        io: &mut IoManager,
        entry: &SealedCopy,
    ) -> Result<std::ops::Range<usize>, CacheError> {
        let (block, need, range) = self.covering_blocks(entry);
        if self.read_scratch.len() < need {
            self.read_scratch.resize(need, 0);
        }
        io.read(block, &mut self.read_scratch[..need])?;
        Ok(range)
    }

    /// The covering-block read charged without its transfer
    /// ([`IoManager::read_charged`]): the same device cost and faults
    /// as [`Loc::read_covering_blocks`], no bytes copied.
    fn charge_covering_blocks(
        &self,
        io: &mut IoManager,
        entry: &SealedCopy,
    ) -> Result<(), NvmeError> {
        let (block, need, _) = self.covering_blocks(entry);
        io.read_charged(block, need).map(drop)
    }

    /// Number of regions.
    pub fn num_regions(&self) -> u32 {
        self.num_regions
    }

    /// Namespace-relative start block of `region` — the start LBA of
    /// its seal's payload write. Public so crash drivers can compute
    /// scripted fault coordinates (e.g. kill the first command of a
    /// region seal).
    pub fn region_start_block(&self, region: u32) -> u64 {
        self.base_block + region as u64 * self.region_blocks
    }

    /// Namespace-relative first footer block of `region`: its slot in
    /// the metadata area that follows the region array, the start LBA
    /// of its footer write and read commands (crash drivers target it
    /// to kill inside metadata persistence).
    pub fn meta_start_block(&self, region: u32) -> u64 {
        self.base_block
            + self.num_regions as u64 * self.region_blocks
            + region as u64 * self.meta_blocks()
    }

    /// Region size in bytes: all of it payload, since footers live in
    /// the separate metadata area.
    pub fn region_bytes(&self) -> usize {
        (self.region_blocks * self.block_bytes as u64) as usize
    }

    /// Total LOC capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.num_regions as u64 * self.region_bytes() as u64
    }

    /// Largest storable object: one region.
    pub fn max_object_bytes(&self) -> usize {
        self.region_bytes()
    }

    /// The placement handle region payloads are written through.
    pub fn handle(&self) -> PlacementHandle {
        self.handle
    }

    /// The placement handle footers are written through.
    pub fn meta_handle(&self) -> PlacementHandle {
        self.meta_handle
    }

    /// Re-binds the placement handle used for subsequent payload
    /// writes (dynamic-placement experiments; paper §5.5 lesson 2).
    /// Takes effect on the next region seal; data already on flash
    /// keeps its original placement. The metadata handle is left
    /// alone: rebinding the data stream must not drag the short-lived
    /// footers into it.
    pub fn set_handle(&mut self, handle: PlacementHandle) {
        self.handle = handle;
    }

    /// Engine statistics.
    pub fn stats(&self) -> LocStats {
        self.stats
    }

    /// Objects currently sealed on flash (a count over every key; the
    /// active buffer's objects are not included).
    pub fn len(&self) -> usize {
        self.slots.values().filter(|s| s.sealed().is_some()).count()
    }

    /// Whether no object is sealed on flash.
    pub fn is_empty(&self) -> bool {
        !self.slots.values().any(|s| s.sealed().is_some())
    }

    /// Flushes the active region to flash as **one** batched
    /// submission: every 64 KiB chunk of the region becomes one queued
    /// write and the whole region validates and maps under a single
    /// media-lock acquisition ([`IoManager::submit_batch`]), instead of
    /// N sequential synchronous writes. At queue depths above 1 the
    /// chunks pipeline across device lanes; at depth 1 the timing is
    /// bit-identical to the old sequential loop.
    ///
    /// No region buffer exists, and the seal makes no byte: the region
    /// is one shared image — the active buffer's live objects as `(key,
    /// offset, value)` in fill order, which is offset order, values
    /// shared, never copied — and each chunk's
    /// write carries that image as a source ([`IoBatch::write_with`])
    /// from the chunk's offset on. The payload store keeps the source
    /// and makes a block's bytes (objects, zeroed gaps and tail
    /// padding) only when the block is read. The footer's chunks carry
    /// its source alike ([`FooterGeometry::source`]), over an owned
    /// copy of its entry table, so a stale footer block never keeps the
    /// region's values alive.
    ///
    /// Recovery (DESIGN.md §6): an injected device fault fails the
    /// batch all-or-nothing (the controller's fault gate plus FTL
    /// rollback guarantee none of the region landed), so the seal is
    /// simply re-submitted under [`Retry::Write`]. If every attempt
    /// fails the region is **quarantined** (withdrawn from
    /// rotation like a grown-bad erase block) and its objects are
    /// parked in [`Loc::take_requeued`] for the engine to re-queue —
    /// acknowledged inserts are never silently dropped. Only
    /// non-injected errors (caller bugs) propagate.
    fn seal_active(&mut self, io: &mut IoManager) -> Result<(), CacheError> {
        let Some(region) = self.active else {
            return Ok(());
        };
        // Write the full region (tail padding included) so the previous
        // contents of these blocks are entirely invalidated on device.
        let start_block = self.region_start_block(region);
        // The footer rides in the same all-or-nothing batch: a crash
        // mid-seal leaves neither payload nor footer, so recovery reads
        // the region as unsealed (its objects were buffered, i.e.
        // acknowledged-but-not-sealed — the documented volatile class).
        let seq = self.next_seal_seq;
        self.drop_superseded();
        let image = Arc::new(std::mem::take(&mut self.buffer));
        let source: FillSource = {
            let image = image.clone();
            Arc::new(move |at, out| fill_region(&image, at, out))
        };
        let footer_blocks = self.footer.blocks_for(image.len()) as u64;
        let footer = self.footer.source(
            io.retains_data(),
            region,
            seq,
            image.iter().map(|(k, off, v)| (*k, *off, v.len() as u32)),
        );
        let meta_start = self.meta_start_block(region);
        let (bb, region_blocks) = (self.block_bytes, self.region_blocks);
        let (handle, meta_handle) = (self.handle, self.meta_handle);
        let seal = || {
            let mut batch = IoBatch::new();
            Self::queue_chunks(&mut batch, bb, start_block, region_blocks, &source, handle);
            Self::queue_chunks(&mut batch, bb, meta_start, footer_blocks, &footer, meta_handle);
            io.submit_batch(batch)
        };
        let landed = match issue(Retry::Write, || self.stats.seal_retries += 1, seal) {
            Ok(res) => res.is_ok(),
            Err(e) => {
                // A kill or a caller bug: the region stays active, with
                // its objects buffered.
                self.buffer = image.to_vec();
                self.compact_buffer();
                return Err(e);
            }
        };
        // Either way the buffer is empty now.
        self.active = None;
        self.active_fill = 0;
        if !landed {
            // Persistent failure: quarantine the region and hand every
            // buffered object back for requeueing. Its key list is
            // empty: keys join it only when a seal lands.
            self.stats.seal_faults += 1;
            self.stats.quarantined_regions += 1;
            self.regions[region as usize].state = RegionState::Quarantined;
            self.stats.requeued_objects += image.len() as u64;
            for (key, _, value) in image.iter() {
                if let Entry::Occupied(mut e) = self.slots.entry(*key) {
                    e.get_mut().live = None;
                    if e.get().is_empty() {
                        e.remove();
                    }
                }
                self.pending_requeue.push((*key, value.clone()));
            }
            return Ok(());
        }
        // Publish each key's sealed copy.
        for (key, offset, value) in image.iter() {
            let slot = self.slots.get_mut(key).expect("a buffered key has a slot");
            slot.live =
                Some(Live::Sealed(SealedCopy { region, offset: *offset, value: value.clone() }));
        }
        self.regions[region as usize].keys = image.iter().map(|&(key, ..)| key).collect();
        self.regions[region as usize].state = RegionState::Sealed;
        self.regions[region as usize].seal_seq = seq;
        self.next_seal_seq += 1;
        self.sealed_fifo.push_back(region);
        self.stats.seals += 1;
        self.stats.footer_blocks_written += footer_blocks;
        Ok(())
    }

    /// Queues `blocks` blocks of `block_bytes` at `start` holding
    /// `source`'s bytes as commands of [`SEAL_CHUNK_BYTES`] each, the
    /// last one shorter.
    fn queue_chunks(
        batch: &mut IoBatch,
        block_bytes: u32,
        start: u64,
        blocks: u64,
        source: &FillSource,
        handle: PlacementHandle,
    ) {
        let chunk_blocks = (SEAL_CHUNK_BYTES as u64 / block_bytes as u64).max(1);
        for first in (0..blocks).step_by(chunk_blocks as usize) {
            let nlb = chunk_blocks.min(blocks - first);
            let base = (first * block_bytes as u64) as usize;
            batch.write_with(start + first, nlb, source.clone(), base, handle);
        }
    }

    /// Rewrites `region`'s persisted footer to list exactly the keys
    /// whose live copy it holds (delete persistence, superseded-entry
    /// scrubs), and drops every other key from its list. Retries injected
    /// faults ([`Loc::write_footer`]), then falls back to invalidating
    /// the footer wholesale — either way no stale entry survives on
    /// flash. Only non-injected errors propagate.
    fn rewrite_footer(&mut self, io: &mut IoManager, region: u32) -> Result<(), CacheError> {
        // A key whose live copy a region holds is on the region's list
        // (seal, recovery), so the list is a superset of the region's live
        // keys, and it is in fill order: the kept entries ascend by offset.
        let mut keys = std::mem::take(&mut self.regions[region as usize].keys);
        let mut entries: Vec<FooterEntry> = Vec::with_capacity(keys.len());
        let slots = &mut self.slots;
        keys.retain(|&k| match slots.get(&k).and_then(Slot::sealed) {
            Some(c) if c.region == region => {
                entries.push((k, c.offset, c.value.len() as u32));
                true
            }
            _ => {
                unlist(slots, k, region);
                false
            }
        });
        debug_assert!(
            entries.is_sorted_by_key(|&(_, off, _)| off),
            "region {region} out of fill order"
        );
        // The rebuilt footer lists exactly the region's live entries, and
        // so does the in-memory key list: superseded copies are gone from
        // flash now, and leaving them listed would trigger a redundant
        // rewrite the next time one of them is evicted.
        self.regions[region as usize].keys = keys;
        let seq = self.regions[region as usize].seal_seq;
        self.write_footer(io, region, seq, entries)
    }

    /// Retires `region`'s persisted footer by overwriting its first
    /// block with an *empty* footer stamped with a fresh seal sequence
    /// (the old footer's further blocks go stale behind it). Unlike a
    /// discard, this keeps the on-flash seal-sequence chain monotonic —
    /// recovery still sees the region's retirement seq and cannot hand
    /// out a sequence number that an older surviving footer outranks —
    /// and it records the eviction durably (an all-zero/discarded
    /// footer is indistinguishable from a never-sealed region). Falls
    /// back to [`Loc::invalidate_footer`] on a persistent injected
    /// fault; either way no evicted key survives on flash.
    fn retire_footer(&mut self, io: &mut IoManager, region: u32) -> Result<(), CacheError> {
        let seq = self.next_seal_seq;
        self.next_seal_seq += 1;
        self.write_footer(io, region, seq, Vec::new())
    }

    /// Writes one footer over the head of `region`'s footer slot — as
    /// many blocks as the entry table needs, one for an empty footer —
    /// as one command carrying its source ([`FooterGeometry::source`]),
    /// retrying injected faults under [`Retry::Write`] and invalidating
    /// the slot when every attempt fails.
    fn write_footer(
        &mut self,
        io: &mut IoManager,
        region: u32,
        seal_seq: u64,
        entries: Vec<FooterEntry>,
    ) -> Result<(), CacheError> {
        let footer_blocks = self.footer.blocks_for(entries.len()) as u64;
        let source = self.footer.source(io.retains_data(), region, seal_seq, entries);
        let (start, handle) = (self.meta_start_block(region), self.meta_handle);
        let write = || io.write_with(start, footer_blocks, source.clone(), handle);
        if issue(Retry::Write, || self.stats.footer_retries += 1, write)?.is_ok() {
            self.stats.footer_rewrites += 1;
            self.stats.footer_blocks_written += footer_blocks;
            Ok(())
        } else {
            self.stats.footer_faults += 1;
            self.invalidate_footer(io, region)
        }
    }

    /// Invalidates `region`'s persisted footer by discarding its whole
    /// slot: recovery then reads the region as unsealed. A persistent
    /// discard fault is counted and tolerated — the stale-footer window
    /// it leaves closes at the region's next seal, which overwrites the
    /// footer under a fresh sequence (DESIGN.md §6.4).
    fn invalidate_footer(&mut self, io: &mut IoManager, region: u32) -> Result<(), CacheError> {
        self.discard(io, self.meta_start_block(region), self.meta_blocks())
    }

    /// One advisory TRIM command: an injected fault is retried under
    /// [`Retry::Once`], then counted in [`LocStats::discard_faults`] and
    /// skipped. Only non-injected errors propagate.
    fn discard(&mut self, io: &mut IoManager, start: u64, blocks: u64) -> Result<(), CacheError> {
        if issue(Retry::Once, || {}, || io.discard(start, blocks))?.is_err() {
            self.stats.discard_faults += 1;
        }
        Ok(())
    }

    /// Scrubs `key` out of every sealed region footer that still lists
    /// it, so a crash cannot resurrect it. The key must have no sealed
    /// live copy left: a rewrite drops every key whose live copy the
    /// region does not hold. The footers come from the key's slot, so a
    /// scrub costs one key, not every key the LOC holds; they are
    /// rewritten in ascending region order.
    fn scrub_footers_for_key(&mut self, io: &mut IoManager, key: Key) -> Result<(), CacheError> {
        for r in self.scrub_candidates(key) {
            self.rewrite_footer(io, r)?;
        }
        Ok(())
    }

    /// Sealed regions that list `key`, ascending.
    fn scrub_candidates(&self, key: Key) -> Vec<u32> {
        let listing = self.slots.get(&key).into_iter().flat_map(Slot::listing);
        let mut candidates: Vec<u32> =
            listing.filter(|&r| self.regions[r as usize].state == RegionState::Sealed).collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    }

    /// Drains the objects rescued from failed seals. The engine calls
    /// this after every operation that may have sealed and re-queues
    /// each object (SOC if it fits, else a fresh LOC region).
    pub fn take_requeued(&mut self) -> Vec<(Key, Value)> {
        std::mem::take(&mut self.pending_requeue)
    }

    /// Evicts the oldest sealed region (FIFO, as CacheLib's default and
    /// the paper's DLWA model assume), dropping the live copies it holds.
    ///
    /// No other footer needs a scrub: a key's live copy is its newest
    /// seal, so the regions listing its superseded copies were sealed
    /// before this one and, FIFO, were evicted before it.
    fn evict_region(&mut self, io: &mut IoManager) -> Result<(), CacheError> {
        let Some(region) = self.sealed_fifo.pop_front() else {
            return Ok(());
        };
        for key in std::mem::take(&mut self.regions[region as usize].keys) {
            let Entry::Occupied(mut e) = self.slots.entry(key) else {
                unreachable!("a listed key has a slot")
            };
            let slot = e.get_mut();
            // Only drop the live copy if this region holds it (the key
            // may have been rewritten into a newer region since).
            if slot.sealed().is_some_and(|c| c.region == region) {
                debug_assert!(slot.older.is_empty(), "key {key}: older copy outlived {region}");
                slot.live = None;
                self.stats.evicted_objects += 1;
            } else {
                slot.drop_older(region);
            }
            if slot.is_empty() {
                e.remove();
            }
        }
        if self.trim_on_evict {
            // One DSM deallocate covering the whole region (a single
            // command; identical through the batch or direct path).
            // The TRIM is advisory — a skipped one leaves the region's
            // blocks to be overwritten by the next seal, exactly like
            // the non-TRIM policy.
            self.discard(io, self.region_start_block(region), self.region_blocks)?;
        }
        // The region's persisted footer must not outlive its in-memory
        // copies: a crash after this point would otherwise resurrect
        // the evicted (possibly since-deleted) keys. The footer lives
        // in the metadata area, so the payload TRIM above never covers
        // it.
        self.retire_footer(io, region)?;
        self.regions[region as usize].state = RegionState::Free;
        self.free.push_back(region);
        self.stats.region_evictions += 1;
        Ok(())
    }

    /// Opens a fresh active region, evicting if necessary.
    fn open_region(&mut self, io: &mut IoManager) -> Result<(), CacheError> {
        if self.free.is_empty() {
            self.evict_region(io)?;
        }
        let region = self.free.pop_front().ok_or_else(|| {
            if self.stats.quarantined_regions > 0 {
                // Not a sizing mistake: quarantine ate the rotation.
                CacheError::Unrecoverable(format!(
                    "no LOC region left to open ({} quarantined by persistent seal faults)",
                    self.stats.quarantined_regions
                ))
            } else {
                CacheError::Config("LOC has no regions to open (capacity too small)".into())
            }
        })?;
        self.regions[region as usize].state = RegionState::Active;
        debug_assert!(self.regions[region as usize].keys.is_empty(), "a free region lists no key");
        self.active = Some(region);
        self.active_fill = 0;
        Ok(())
    }

    /// Inserts an object, sealing/opening regions as needed.
    ///
    /// # Errors
    ///
    /// [`CacheError::ObjectTooLarge`] for objects exceeding a region, or
    /// I/O failures.
    pub fn insert(&mut self, io: &mut IoManager, key: Key, value: Value) -> Result<(), CacheError> {
        self.insert_impl(io, key, value, true)
    }

    /// Re-homes an object the cache already acknowledged (repair-writes
    /// after read faults, requeues out of failed seals): identical to
    /// [`Loc::insert`] except the object does **not** count as new
    /// application bytes — it was counted when first admitted, and
    /// recounting would bias ALWA downward under fault scenarios (the
    /// extra *device* bytes the re-home costs still show up in the
    /// numerator, which is exactly the amplification faults cause).
    pub(crate) fn reinsert(
        &mut self,
        io: &mut IoManager,
        key: Key,
        value: Value,
    ) -> Result<(), CacheError> {
        self.insert_impl(io, key, value, false)
    }

    fn insert_impl(
        &mut self,
        io: &mut IoManager,
        key: Key,
        value: Value,
        count_app_bytes: bool,
    ) -> Result<(), CacheError> {
        let len = value.len();
        if len > self.max_object_bytes() {
            return Err(CacheError::ObjectTooLarge { size: len, max: self.max_object_bytes() });
        }
        if self.active.is_none() {
            self.open_region(io)?;
        }
        // Seal when the payload area overflows — or, rarely, when the
        // footer's entry table is full (footer capacity is sized for
        // ~250 entries per 4 KiB footer block, far above the object
        // counts large-object regions see in practice). The table lists
        // live objects only, not the positions overwrites superseded.
        if self.active_fill + len > self.region_bytes()
            || self.buffer.len() - self.superseded.len() >= self.footer.capacity()
        {
            self.seal_active(io)?;
            self.open_region(io)?;
        }
        let offset = self.active_fill as u32;
        self.active_fill += len;
        // Supersede any older copy at once, so lookups never serve stale
        // data after an overwrite.
        let slot = self.slots.entry(key).or_default();
        if let Some(pos) = slot.supersede() {
            self.superseded.push(pos);
        }
        slot.live = Some(Live::Active(self.buffer.len() as u32));
        self.buffer.push((key, offset, value));
        // Objects as small as a few bytes, overwritten over and over,
        // would grow the buffer by a position each: keep at least half
        // of it live.
        if self.superseded.len() > self.buffer.len() / 2 {
            self.compact_buffer();
        }
        if count_app_bytes {
            self.stats.inserts += 1;
            self.stats.app_bytes_written += len as u64;
        }
        Ok(())
    }

    /// Looks up an object. Objects still in the active buffer are served
    /// from memory (as CacheLib serves in-flight regions); sealed objects
    /// cost a charged device read of the covering blocks — virtual time,
    /// NAND reads, faults and `bytes_read`, with no bytes copied
    /// ([`IoManager::read_charged`]).
    ///
    /// The returned value is the authoritative indexed one, handed back
    /// **zero-copy**: cloning a `Value::Real` bumps the shared
    /// `Arc<[u8]>` refcount, cloning a `Value::Synthetic` copies a
    /// length — the lookup never materializes or re-copies payload
    /// bytes into a fresh allocation.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn lookup(&mut self, io: &mut IoManager, key: Key) -> Result<Option<Value>, CacheError> {
        self.stats.lookups += 1;
        let entry = match self.slots.get(&key).and_then(|s| s.live.as_ref()) {
            None => return Ok(None),
            Some(Live::Active(pos)) => {
                self.stats.hits += 1;
                return Ok(Some(self.buffer[*pos as usize].2.clone()));
            }
            Some(Live::Sealed(copy)) => copy.clone(),
        };
        // Charge the covering-block read for real device timing. An
        // injected fault that outlasts `Retry::Busy` demotes the
        // lookup to a miss and triggers a targeted repair-write
        // (DESIGN.md §6).
        if issue(Retry::Busy, || {}, || self.charge_covering_blocks(io, &entry))?.is_err() {
            self.stats.read_faults += 1;
            // Demote to miss: drop the unreadable copy, then
            // repair-write the (authoritative) value into the current
            // active region so future lookups hit.
            self.demote(key);
            self.reinsert(io, key, entry.value)?;
            self.stats.repair_writes += 1;
            return Ok(None);
        }
        self.stats.hits += 1;
        // The authoritative value is returned; the bytes on flash match
        // it on a data-retaining store ([`Loc::verify_object`] and the
        // patrol scrub compare them).
        Ok(Some(entry.value))
    }

    /// Reads an object's raw bytes from flash (requires a data-retaining
    /// store; used by round-trip verification tests).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    #[cfg(test)]
    pub fn read_raw(
        &mut self,
        io: &mut IoManager,
        key: Key,
    ) -> Result<Option<Vec<u8>>, CacheError> {
        let Some(entry) = self.sealed(key).cloned() else {
            return Ok(None);
        };
        let range = self.read_covering_blocks(io, &entry)?;
        Ok(Some(self.read_scratch[range].to_vec()))
    }

    /// Whether the LOC currently holds `key` (active buffer or flash;
    /// no device I/O).
    pub fn contains(&self, key: Key) -> bool {
        self.slots.get(&key).is_some_and(|s| s.live.is_some())
    }

    /// `key`'s sealed live copy, if it has one.
    fn sealed(&self, key: Key) -> Option<&SealedCopy> {
        self.slots.get(&key).and_then(Slot::sealed)
    }

    /// Drops `key`'s sealed live copy, which its region's footer still
    /// lists, before a repair-write re-homes the object.
    fn demote(&mut self, key: Key) {
        if let Some(slot) = self.slots.get_mut(&key) {
            slot.supersede();
        }
    }

    /// The active buffer's live objects, in fill order.
    fn live_objects(&mut self) -> impl Iterator<Item = &Buffered> {
        self.superseded.sort_unstable();
        let mut dead = self.superseded.iter().copied().peekable();
        let live = move |&(pos, _): &(usize, _)| dead.next_if_eq(&(pos as u32)).is_none();
        self.buffer.iter().enumerate().filter(live).map(|(_, object)| object)
    }

    /// Drops the buffer's superseded positions, keeping fill order.
    /// Slots still name the old positions.
    fn drop_superseded(&mut self) {
        if !self.superseded.is_empty() {
            self.buffer = self.live_objects().cloned().collect();
            self.superseded.clear();
        }
    }

    /// Drops the buffer's superseded positions and points each live
    /// key's slot at its object's new position.
    fn compact_buffer(&mut self) {
        self.drop_superseded();
        for (pos, (key, ..)) in self.buffer.iter().enumerate() {
            let slot = self.slots.get_mut(key).expect("a buffered key has a slot");
            slot.live = Some(Live::Active(pos as u32));
        }
    }

    /// Verifies that the on-flash bytes of `key` match its indexed
    /// value (requires a data-retaining store). Returns `None` when the
    /// key is absent, `Some(true)` for active-buffer objects (not yet
    /// on flash) and matching sealed objects, `Some(false)` on a byte
    /// mismatch — a torn or lost acknowledged write.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (callers treat injected faults as
    /// "unverifiable", not as mismatches).
    pub fn verify_object(
        &mut self,
        io: &mut IoManager,
        key: Key,
    ) -> Result<Option<bool>, CacheError> {
        let entry = match self.slots.get(&key).and_then(|s| s.live.as_ref()) {
            None => return Ok(None),
            // Still buffered in DRAM; nothing on flash to verify yet.
            Some(Live::Active(_)) => return Ok(Some(true)),
            Some(Live::Sealed(copy)) => copy.clone(),
        };
        let range = self.read_covering_blocks(io, &entry)?;
        let expect = entry.value.to_bytes(key);
        Ok(Some(self.read_scratch[range] == expect[..]))
    }

    /// Patrol-reads every indexed object of `region` (no-op unless the
    /// region is sealed), demoting and repair-writing any whose
    /// covering blocks fault or whose bytes mismatch the authoritative
    /// indexed value — the read-fault recovery path of [`Loc::lookup`],
    /// run *before* a client read can observe the corruption. Repairs
    /// relocate the object into the active region, so a permanent bad
    /// block stops being read for that key. Byte comparison needs a
    /// data-retaining store; fault-demotion works on any store.
    /// Returns `(pages_read, repairs)`.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures.
    pub(crate) fn scrub_region(
        &mut self,
        io: &mut IoManager,
        region: u32,
    ) -> Result<(u64, u64), CacheError> {
        if self.regions[region as usize].state != RegionState::Sealed {
            return Ok((0, 0));
        }
        // The region's key list holds every live key it stores, in fill
        // order: reads and repairs follow the layout, not a map's order.
        let keys = self.regions[region as usize].keys.clone();
        let retains = io.retains_data();
        let mut pages = 0u64;
        let mut repairs = 0u64;
        for key in keys {
            // Skip superseded copies, and re-fetch per key: an earlier
            // repair in this sweep may have sealed the active region and
            // evicted this one.
            let Some(entry) = self.sealed(key).filter(|e| e.region == region).cloned() else {
                continue;
            };
            pages += 1;
            // A payload-free store has no bytes to compare: its patrol
            // read is only charged.
            let read = if retains {
                self.read_covering_blocks(io, &entry)
                    .map(|range| self.read_scratch[range] == entry.value.to_bytes(key)[..])
            } else {
                self.charge_covering_blocks(io, &entry).map(|()| true).map_err(CacheError::from)
            };
            let intact = match read {
                Ok(intact) => intact,
                Err(e) if e.is_injected_fault() => {
                    self.stats.read_faults += 1;
                    false
                }
                Err(e) => return Err(e),
            };
            if !intact {
                self.demote(key);
                self.reinsert(io, key, entry.value)?;
                self.stats.repair_writes += 1;
                repairs += 1;
            }
        }
        Ok((pages, repairs))
    }

    /// Removes an object. Its bytes become dead space in the region
    /// until eviction reclaims them, but the removal is **persisted
    /// before it is acknowledged**: the key's live copy is dropped in
    /// memory first, and then every sealed region footer that still
    /// lists the key — the live copy's and any superseded older
    /// copies' — is rewritten without it, so a crash-and-recover cycle
    /// can never resurrect a deleted key (DESIGN.md §6.4).
    /// Active-buffer copies are dropped in memory only (the buffer is
    /// volatile by definition).
    ///
    /// Like [`Soc::remove`](crate::soc::Soc::remove), the in-memory
    /// removal always takes effect: a persistent injected fault on the
    /// footer rewrite falls back to invalidating the footer wholesale
    /// rather than resurrecting the key.
    ///
    /// # Errors
    ///
    /// Propagates non-injected I/O failures (including a scripted kill,
    /// in which case the removal was never acknowledged).
    pub fn remove(&mut self, io: &mut IoManager, key: Key) -> Result<bool, CacheError> {
        let Some(slot) = self.slots.get_mut(&key).filter(|s| s.live.is_some()) else {
            return Ok(false);
        };
        if let Some(pos) = slot.supersede() {
            self.superseded.push(pos);
        }
        if slot.older.is_empty() {
            // Buffered only: no footer lists the key.
            self.slots.remove(&key);
        } else {
            // The rewrites drop the key's last listing, and with it its slot.
            self.scrub_footers_for_key(io, key)?;
        }
        self.stats.removes += 1;
        Ok(true)
    }

    /// Keys with a live, sealed, footer-persisted copy on flash right
    /// now — exactly the LOC objects a crash-and-recover cycle must
    /// bring back (active-buffer objects are volatile and excluded).
    /// Ascending, so callers that sample the list see the same keys
    /// whatever the key map's layout.
    pub fn persisted_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self
            .slots
            .iter()
            .filter(|(_, s)| {
                s.sealed()
                    .is_some_and(|c| self.regions[c.region as usize].state == RegionState::Sealed)
            })
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Replays the region footers persisted on flash into this LOC,
    /// fresh from [`Loc::new`] with the pre-crash geometry and policy
    /// (DESIGN.md §6.4). A region is sealed only if
    /// [`FooterGeometry::decode`] accepts its footer. Sealed regions replay in
    /// ascending seal-sequence order, their payload re-read, so a newer
    /// copy of a key supersedes an older one. The active buffer stays
    /// empty and the statistics count only recovery's own read faults:
    /// recovered objects were counted as application bytes in their
    /// first life, and recounting them would bias ALWA.
    ///
    /// # Errors
    ///
    /// [`CacheError::Config`] without a data-retaining store; otherwise
    /// propagates non-injected I/O failures. A [`recovery_read`] that
    /// stays faulted leaves the affected region unsealed.
    pub(crate) fn recover(&mut self, io: &mut IoManager) -> Result<(), CacheError> {
        debug_assert!(self.slots.is_empty() && self.sealed_fifo.is_empty(), "LOC not fresh");
        if !io.retains_data() {
            return Err(CacheError::Config(
                "LOC recovery requires a data-retaining store (payload bytes must survive)".into(),
            ));
        }
        let mut buf = vec![0u8; self.footer.slot_bytes()];
        let mut sealed: Vec<(u64, u32, Vec<FooterEntry>)> = Vec::new();
        for region in 0..self.num_regions {
            if let Some(Footer { seq, entries }) = self.read_footer(io, region, &mut buf)? {
                sealed.push((seq, region, entries));
            }
        }
        // Ascending seal order: later regions supersede earlier ones
        // for keys that were overwritten between seals.
        sealed.sort_unstable_by_key(|&(seq, region, _)| (seq, region));
        let mut payload = vec![0u8; self.region_bytes()];
        for (seq, region, entries) in sealed {
            if entries.is_empty() {
                // A retired (or fully scrubbed) footer: the region holds
                // no live objects, so it stays free — but its sequence
                // still advances the seal-seq high-water mark so the
                // recovered engine never reissues an on-flash sequence.
                self.next_seal_seq = self.next_seal_seq.max(seq + 1);
                continue;
            }
            // Footer valid but payload unreadable: the region's objects
            // are lost as if evicted; leave it free.
            let start = self.region_start_block(region);
            if !recovery_read(io, start, &mut payload, &mut self.stats.read_faults)? {
                continue;
            }
            self.free.retain(|&r| r != region);
            let r = &mut self.regions[region as usize];
            r.state = RegionState::Sealed;
            r.seal_seq = seq;
            r.keys = entries.iter().map(|&(k, _, _)| k).collect();
            self.sealed_fifo.push_back(region);
            self.next_seal_seq = self.next_seal_seq.max(seq + 1);
            for (key, offset, len) in entries {
                let value = Value::real(payload[offset as usize..(offset + len) as usize].to_vec());
                // A copy an earlier region sealed is superseded; its
                // region still lists the key.
                let slot = self.slots.entry(key).or_default();
                slot.supersede();
                slot.live = Some(Live::Sealed(SealedCopy { region, offset, value }));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdpcache_core::SharedController;
    use fdpcache_ftl::FtlConfig;
    use fdpcache_nvme::{Controller, MemStore};

    use std::sync::Arc;

    const BLOCK: u32 = 4096;

    fn io(blocks: u64) -> IoManager {
        let ctrl = Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap();
        let nsid = ctrl.create_namespace(blocks, vec![0, 1]).unwrap();
        let shared: SharedController = Arc::new(ctrl);
        IoManager::new(shared, nsid, 4).unwrap()
    }

    /// 4 regions × 8 blocks (32 KiB regions).
    fn fresh() -> Loc {
        Loc::new(0, 4, 8, BLOCK, false, PlacementHandle::with_dspec(1), PlacementHandle::DEFAULT)
    }

    fn loc() -> (Loc, IoManager) {
        (fresh(), io(64))
    }

    /// `key`'s copy in the active buffer, if it has one.
    fn buffered(l: &Loc, key: Key) -> Option<&Buffered> {
        match l.slots.get(&key)?.live.as_ref()? {
            Live::Active(pos) => Some(&l.buffer[*pos as usize]),
            Live::Sealed(_) => None,
        }
    }

    /// `l`, fresh, with what `io` holds replayed into it.
    fn recovered(mut l: Loc, io: &mut IoManager) -> Loc {
        l.recover(io).unwrap();
        l
    }

    #[test]
    fn insert_then_lookup_from_active_buffer() {
        let (mut l, mut io) = loc();
        l.insert(&mut io, 1, Value::synthetic(5000)).unwrap();
        let v = l.lookup(&mut io, 1).unwrap().unwrap();
        assert_eq!(v.len(), 5000);
        // Nothing flushed yet.
        assert_eq!(io.stats().writes, 0);
    }

    #[test]
    fn seal_happens_when_region_fills() {
        let (mut l, mut io) = loc();
        // Region is 32 KiB; three 12 KiB objects overflow it.
        l.insert(&mut io, 1, Value::synthetic(12_000)).unwrap();
        l.insert(&mut io, 2, Value::synthetic(12_000)).unwrap();
        l.insert(&mut io, 3, Value::synthetic(12_000)).unwrap();
        assert_eq!(l.stats().seals, 1);
        assert!(io.stats().bytes_written >= 32 << 10, "full region must be written");
        // Sealed object readable.
        assert!(l.lookup(&mut io, 1).unwrap().is_some());
    }

    #[test]
    fn sealed_bytes_round_trip() {
        let (mut l, mut io) = loc();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        l.insert(&mut io, 7, Value::real(payload.clone())).unwrap();
        // Force a seal by overfilling (payload area is 28 KiB: one
        // footer block of the 8 is reserved).
        l.insert(&mut io, 8, Value::synthetic(25_000)).unwrap();
        assert!(l.stats().seals >= 1);
        let raw = l.read_raw(&mut io, 7).unwrap().unwrap();
        assert_eq!(raw, payload);
    }

    #[test]
    fn fifo_eviction_drops_oldest_region() {
        let (mut l, mut io) = loc();
        // Fill all 4 regions plus one: first region's objects must vanish.
        for k in 0..10u64 {
            l.insert(&mut io, k, Value::synthetic(16_000)).unwrap();
        }
        assert!(l.stats().region_evictions >= 1);
        assert!(l.lookup(&mut io, 0).unwrap().is_none(), "object in first region must be gone");
        assert!(l.lookup(&mut io, 9).unwrap().is_some());
    }

    #[test]
    fn lookups_hand_back_the_inserted_arc_without_copying() {
        let (mut l, mut io) = loc();
        let value = Value::real(vec![0xEF; 10_000]);
        let arc = value.as_real().unwrap().clone();
        l.insert(&mut io, 4, value).unwrap();
        // Active-buffer hit shares the buffer…
        let hit = l.lookup(&mut io, 4).unwrap().unwrap();
        assert!(std::sync::Arc::ptr_eq(&arc, hit.as_real().unwrap()), "active hit copied bytes");
        // …and so does a sealed hit (force a seal, then re-look-up).
        l.insert(&mut io, 5, Value::synthetic(25_000)).unwrap();
        assert!(l.stats().seals >= 1);
        let sealed = l.lookup(&mut io, 4).unwrap().unwrap();
        assert!(std::sync::Arc::ptr_eq(&arc, sealed.as_real().unwrap()), "sealed hit copied bytes");
    }

    #[test]
    fn overwrite_supersedes_old_copy() {
        let (mut l, mut io) = loc();
        l.insert(&mut io, 5, Value::synthetic(10_000)).unwrap();
        l.insert(&mut io, 5, Value::synthetic(20_000)).unwrap();
        assert_eq!(l.lookup(&mut io, 5).unwrap().unwrap().len(), 20_000);
        assert_eq!((l.len(), l.buffer.len() - l.superseded.len()), (0, 1));
    }

    #[test]
    fn seal_lists_the_buffer_in_fill_order_whatever_the_map_order() {
        let (mut l, mut io) = wide_loc();
        // Scattered keys, one overwritten and one removed on the way:
        // the footer must list the survivors as the buffer was filled,
        // the overwrite at its second position.
        let keys: Vec<Key> = (0..300u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        for &k in &keys {
            l.insert(&mut io, k, Value::synthetic(1000)).unwrap();
        }
        l.insert(&mut io, keys[3], Value::synthetic(900)).unwrap();
        assert!(l.remove(&mut io, keys[7]).unwrap());
        l.insert(&mut io, 1, Value::synthetic(BIG)).unwrap(); // seals region 0
        let mut expected: Vec<(Key, u32, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32 * 1000, 1000)).collect();
        expected.retain(|&(k, ..)| k != keys[3] && k != keys[7]);
        expected.push((keys[3], 300_000, 900));
        let mut buf = vec![0u8; l.footer.slot_bytes()];
        let listed = l.read_footer(&mut io, 0, &mut buf).unwrap().expect("sealed footer").entries;
        assert_eq!(listed, expected);
        assert_eq!(l.regions[0].keys, expected.iter().map(|&(k, ..)| k).collect::<Vec<_>>());
    }

    #[test]
    fn an_early_seal_counts_live_objects_not_buffer_positions() {
        let (mut l, mut io) = loc();
        let cap = l.footer.capacity();
        let small = || Value::synthetic(10);
        // One key overwritten more times than a footer holds entries is
        // one live object: no seal.
        for _ in 0..cap + 50 {
            l.insert(&mut io, 1, small()).unwrap();
            inverted_listing::check(&l);
        }
        assert_eq!(l.stats().seals, 0, "overwrites sealed the region");
        // Live objects up to one short of the table, then overwrites
        // that push the positions past it.
        for k in 2..cap as u64 {
            l.insert(&mut io, k, small()).unwrap();
        }
        for _ in 0..3 {
            l.insert(&mut io, 1, small()).unwrap();
        }
        assert_eq!(l.stats().seals, 0, "sealed when positions reached the table's size");
        assert!(l.buffer.len() > cap, "the buffer holds {} positions", l.buffer.len());
        l.insert(&mut io, cap as u64, small()).unwrap();
        inverted_listing::check(&l);
        assert_eq!(l.stats().seals, 0, "sealed before the table was full");
        // The table is full: the next object seals every live one.
        l.insert(&mut io, 10_000, small()).unwrap();
        assert_eq!(l.stats().seals, 1);
        let mut buf = vec![0u8; l.footer.slot_bytes()];
        let listed = l.read_footer(&mut io, 0, &mut buf).unwrap().expect("sealed footer").entries;
        // Key 1's live copy is its last overwrite, behind every other key
        // but the last.
        let order: Vec<Key> = (2..cap as u64).chain([1, cap as u64]).collect();
        assert_eq!(listed.iter().map(|e| e.0).collect::<Vec<_>>(), order);
    }

    #[test]
    fn a_seal_the_device_refuses_leaves_the_region_buffered() {
        use fdpcache_nvme::{FaultConfig, FaultKind, FaultStore, ScriptedFault};
        // The seal's first command (region 0 starts at block 0) is a
        // kill point; the retry after it lands.
        let kill = ScriptedFault { kind: FaultKind::Kill, lba: 0, at_access: 0, repeats: 1 };
        let faults = FaultConfig { scripted: vec![kill], ..Default::default() };
        let store = FaultStore::new(Box::new(MemStore::new()), faults);
        let ctrl = Controller::new(FtlConfig::tiny_test(), Box::new(store)).unwrap();
        let nsid = ctrl.create_namespace(64, vec![0, 1]).unwrap();
        let mut io = IoManager::new(Arc::new(ctrl), nsid, 4).unwrap();
        let (mut l, _) = loc();
        for k in [1, 2, 1] {
            l.insert(&mut io, k, Value::synthetic(9_000)).unwrap();
        }
        let err = l.insert(&mut io, 3, Value::synthetic(9_000)).unwrap_err();
        assert!(err.is_kill(), "{err:?}");
        inverted_listing::check(&l);
        assert_eq!(l.stats().seals, 0);
        assert_eq!(buffered(&l, 1).map(|b| b.1), Some(18_000), "key 1's overwrite lost");
        assert_eq!(buffered(&l, 2).map(|b| b.1), Some(9_000));
        l.insert(&mut io, 3, Value::synthetic(9_000)).unwrap();
        assert_eq!(l.stats().seals, 1);
        let mut buf = vec![0u8; l.footer.slot_bytes()];
        let listed = l.read_footer(&mut io, 0, &mut buf).unwrap().expect("sealed footer").entries;
        assert_eq!(listed, vec![(2, 9_000, 9_000), (1, 18_000, 9_000)]);
    }

    #[test]
    fn remove_hides_object() {
        let (mut l, mut io) = loc();
        l.insert(&mut io, 5, Value::synthetic(10_000)).unwrap();
        assert!(l.remove(&mut io, 5).unwrap());
        assert!(l.lookup(&mut io, 5).unwrap().is_none());
        assert!(!l.remove(&mut io, 5).unwrap());
    }

    #[test]
    fn oversized_object_rejected() {
        let (mut l, mut io) = loc();
        let too_big = l.max_object_bytes() + 1;
        assert!(matches!(
            l.insert(&mut io, 1, Value::synthetic(too_big as u32)),
            Err(CacheError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn object_spanning_blocks_reads_correctly() {
        let (mut l, mut io) = loc();
        // Offset the second object so it straddles block boundaries.
        l.insert(&mut io, 1, Value::synthetic(3000)).unwrap();
        let payload: Vec<u8> = (0..6000u32).map(|i| (i % 241) as u8).collect();
        l.insert(&mut io, 2, Value::real(payload.clone())).unwrap();
        l.insert(&mut io, 3, Value::synthetic(25_000)).unwrap(); // force seal
        assert_eq!(l.read_raw(&mut io, 2).unwrap().unwrap(), payload);
    }

    #[test]
    fn trim_on_evict_issues_discards() {
        let mut io_mgr = io(64);
        let mut l =
            Loc::new(0, 4, 8, BLOCK, true, PlacementHandle::DEFAULT, PlacementHandle::DEFAULT);
        for k in 0..12u64 {
            l.insert(&mut io_mgr, k, Value::synthetic(16_000)).unwrap();
        }
        assert!(l.stats().region_evictions >= 1);
        assert!(io_mgr.stats().discards >= 1, "trim_on_evict must discard region blocks");
    }

    #[test]
    fn recover_rebuilds_sealed_regions_from_footers() {
        let (mut l, mut io) = loc();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 239) as u8).collect();
        l.insert(&mut io, 1, Value::real(payload.clone())).unwrap();
        l.insert(&mut io, 2, Value::synthetic(12_000)).unwrap();
        l.insert(&mut io, 3, Value::synthetic(12_000)).unwrap(); // seals region 0
        l.insert(&mut io, 4, Value::synthetic(10_000)).unwrap(); // active (volatile)
        assert_eq!(l.stats().seals, 1);
        assert_eq!(l.persisted_keys(), vec![1, 2]);
        drop(l);
        let mut r = recovered(fresh(), &mut io);
        assert_eq!(r.persisted_keys(), vec![1, 2]);
        assert!(r.lookup(&mut io, 3).unwrap().is_none(), "in-flight seal key 3 must be volatile");
        assert!(r.lookup(&mut io, 4).unwrap().is_none(), "active-buffer key 4 must be volatile");
        assert_eq!(r.read_raw(&mut io, 1).unwrap().unwrap(), payload, "payload bytes mangled");
        assert_eq!(r.lookup(&mut io, 2).unwrap().unwrap().len(), 12_000);
        assert_eq!(r.stats().app_bytes_written, 0, "recovered objects must not recount app bytes");
        // The recovered LOC keeps working: inserts seal into the free
        // regions with a sequence past the recovered maximum.
        for k in 10..16u64 {
            r.insert(&mut io, k, Value::synthetic(16_000)).unwrap();
        }
        assert!(r.lookup(&mut io, 14).unwrap().is_some());
    }

    #[test]
    fn deleted_key_stays_dead_across_recovery() {
        let (mut l, mut io) = loc();
        // Key 5's first copy seals into region 0; its overwrite seals
        // into region 1 — region 0's footer still lists the stale copy.
        l.insert(&mut io, 5, Value::synthetic(12_000)).unwrap();
        l.insert(&mut io, 6, Value::synthetic(12_000)).unwrap();
        l.insert(&mut io, 7, Value::synthetic(12_000)).unwrap(); // seals region 0
        l.insert(&mut io, 5, Value::synthetic(13_000)).unwrap();
        l.insert(&mut io, 8, Value::synthetic(25_000)).unwrap(); // seals region 1
        assert_eq!(l.stats().seals, 2);
        // Delete must scrub *both* footers before acknowledging.
        assert!(l.remove(&mut io, 5).unwrap());
        assert!(l.stats().footer_rewrites >= 2, "both footers must be rewritten");
        drop(l);
        let mut r = recovered(fresh(), &mut io);
        assert!(r.lookup(&mut io, 5).unwrap().is_none(), "deleted key resurrected by recovery");
        assert!(r.lookup(&mut io, 6).unwrap().is_some(), "unrelated key lost by the scrub");
        assert!(r.lookup(&mut io, 7).unwrap().is_some());
    }

    #[test]
    fn overwrites_recover_to_the_newest_sealed_copy() {
        let (mut l, mut io) = loc();
        let old: Vec<u8> = vec![0x0D; 12_000];
        let new: Vec<u8> = vec![0x0E; 13_000];
        l.insert(&mut io, 5, Value::real(old)).unwrap();
        l.insert(&mut io, 6, Value::synthetic(12_000)).unwrap();
        l.insert(&mut io, 7, Value::synthetic(12_000)).unwrap(); // seals region 0
        l.insert(&mut io, 5, Value::real(new.clone())).unwrap();
        l.insert(&mut io, 8, Value::synthetic(25_000)).unwrap(); // seals region 1
        drop(l);
        let mut r = recovered(fresh(), &mut io);
        assert_eq!(
            r.read_raw(&mut io, 5).unwrap().unwrap(),
            new,
            "recovery must prefer the higher seal sequence"
        );
    }

    #[test]
    fn evicted_region_footer_is_invalidated() {
        let (mut l, mut io) = loc();
        // Fill all 4 regions plus one to force an eviction.
        for k in 0..10u64 {
            l.insert(&mut io, k, Value::synthetic(16_000)).unwrap();
        }
        assert!(l.stats().region_evictions >= 1);
        let survivors = l.persisted_keys();
        drop(l);
        let mut r = recovered(fresh(), &mut io);
        assert!(r.lookup(&mut io, 0).unwrap().is_none(), "evicted key resurrected by recovery");
        assert_eq!(r.persisted_keys(), survivors);
    }

    #[test]
    fn persisted_keys_ascend_and_leave_out_the_active_buffer() {
        let (mut l, mut io) = loc();
        // Filled in descending key order; region 0 seals on key 1.
        for k in [9u64, 7, 5, 3] {
            l.insert(&mut io, k, Value::synthetic(8_000)).unwrap();
        }
        l.insert(&mut io, 1, Value::synthetic(8_000)).unwrap();
        assert_eq!(l.persisted_keys(), vec![3, 5, 7, 9]);
        assert!(buffered(&l, 1).is_some(), "key 1 stays in the active buffer");
    }

    #[test]
    fn scrub_repairs_a_region_in_fill_order() {
        let (mut l, mut io) = loc();
        // Eight 3,000-byte objects fill region 0 in this order; the
        // ninth seals it and opens region 1.
        let fill = [70u64, 10, 50, 30, 80, 20, 60, 40];
        for &k in &fill {
            l.insert(&mut io, k, Value::synthetic(3_000)).unwrap();
        }
        l.insert(&mut io, 99, Value::synthetic(9_000)).unwrap();
        assert_eq!(l.regions[0].state, RegionState::Sealed);
        // Scribble one byte of every object but 50 and 20 on flash.
        let corrupted: Vec<Key> = fill.iter().copied().filter(|k| ![50, 20].contains(k)).collect();
        let mut page = vec![0u8; BLOCK as usize];
        for k in &corrupted {
            let at = l.sealed(*k).unwrap().offset as u64;
            let block = l.region_start_block(0) + at / BLOCK as u64;
            io.read(block, &mut page).unwrap();
            page[(at % BLOCK as u64) as usize] ^= 0xFF;
            io.write(block, &page, PlacementHandle::with_dspec(1)).unwrap();
        }
        assert_eq!(l.scrub_region(&mut io, 0).unwrap(), (8, 6));
        // The repairs re-entered the active buffer behind key 99, in
        // the region's fill order, at ascending offsets.
        let mut repaired: Vec<(u32, Key)> = corrupted
            .iter()
            .map(|k| (buffered(&l, *k).expect("repaired into the active buffer").1, *k))
            .collect();
        repaired.sort_unstable();
        assert_eq!(repaired.iter().map(|&(_, k)| k).collect::<Vec<_>>(), corrupted);
        assert_eq!(repaired[0].0, 9_000);
    }

    #[test]
    fn corrupt_footer_demotes_region_to_unsealed() {
        let (mut l, mut io) = loc();
        l.insert(&mut io, 1, Value::synthetic(12_000)).unwrap();
        l.insert(&mut io, 2, Value::synthetic(12_000)).unwrap();
        l.insert(&mut io, 3, Value::synthetic(12_000)).unwrap(); // seals region 0
        let meta_block = l.meta_start_block(0);
        drop(l);
        // Corrupt the footer out-of-band (simulated torn write).
        let mut page = vec![0u8; BLOCK as usize];
        io.read(meta_block, &mut page).unwrap();
        page[40] ^= 0xFF;
        io.write(meta_block, &page, PlacementHandle::with_dspec(1)).unwrap();
        let mut r = recovered(fresh(), &mut io);
        assert!(r.is_empty(), "a corrupt footer must not be trusted");
        assert!(r.lookup(&mut io, 1).unwrap().is_none());
    }

    /// 4 regions × 128 blocks (512 KiB): two-block footer slots, 253
    /// entries to a block.
    const WIDE_BLOCKS: u64 = 128;

    fn fresh_wide() -> Loc {
        let h = PlacementHandle::with_dspec(1);
        let l = Loc::new(0, 4, WIDE_BLOCKS, BLOCK, false, h, PlacementHandle::DEFAULT);
        assert_eq!((l.meta_blocks(), l.footer.entries_per_block()), (2, 253));
        l
    }

    fn wide_loc() -> (Loc, IoManager) {
        (fresh_wide(), io(4 * (WIDE_BLOCKS + 2)))
    }

    /// Inserts `n` 1000-byte objects keyed `base..base + n`.
    fn insert_small(l: &mut Loc, io: &mut IoManager, base: u64, n: u64) {
        for k in base..base + n {
            l.insert(io, k, Value::synthetic(1000)).unwrap();
        }
    }

    /// An object no region can hold next to anything else of its kind:
    /// inserting one seals whatever the active region held.
    const BIG: u32 = 300_000;

    /// Seal sequence stamped into block `index` of region 0's footer.
    fn seq_on_flash(l: &Loc, io: &mut IoManager, index: usize) -> u64 {
        let mut page = vec![0u8; BLOCK as usize];
        io.read(l.meta_start_block(0) + index as u64, &mut page).unwrap();
        crate::layout::footer_header(0, index, &page).expect("a footer block").seq
    }

    #[test]
    fn long_entry_table_seals_a_two_block_footer_that_recovers_whole() {
        let (mut l, mut io) = wide_loc();
        insert_small(&mut l, &mut io, 0, 300);
        let written = io.stats().bytes_written;
        l.insert(&mut io, 1_000, Value::synthetic(BIG)).unwrap(); // seals region 0
        assert_eq!(l.stats().seals, 1);
        assert_eq!(l.stats().footer_blocks_written, 2, "300 entries need two footer blocks");
        assert_eq!(io.stats().bytes_written - written, (WIDE_BLOCKS + 2) * BLOCK as u64);
        drop(l);
        let mut r = recovered(fresh_wide(), &mut io);
        assert_eq!(r.persisted_keys(), (0..300).collect::<Vec<_>>());
        // Entries of both blocks point at the right payload bytes.
        for k in [0, 252, 253, 299] {
            let raw = r.read_raw(&mut io, k).unwrap().unwrap();
            assert_eq!(raw, Value::synthetic(1000).to_bytes(k), "key {k}");
        }
    }

    #[test]
    fn short_reseal_leaves_a_stale_second_block_that_recovery_ignores() {
        let (mut l, mut io) = wide_loc();
        insert_small(&mut l, &mut io, 0, 300);
        // Each big object seals the region before it; the fourth also
        // evicts region 0 and the fifth re-seals it with one entry.
        for k in 1_000..1_005u64 {
            l.insert(&mut io, k, Value::synthetic(BIG)).unwrap();
        }
        assert_eq!(l.stats().seals, 5);
        assert_eq!(l.sealed(1_003).map(|e| e.region), Some(0), "region 0 must be re-sealed");
        assert!(seq_on_flash(&l, &mut io, 0) > 1, "block 0 carries the new seal");
        assert_eq!(seq_on_flash(&l, &mut io, 1), 1, "block 1 is the first seal's leftover");
        let survivors = l.persisted_keys();
        drop(l);
        let mut r = recovered(fresh_wide(), &mut io);
        assert_eq!(r.persisted_keys(), survivors);
        assert!(r.lookup(&mut io, 1_003).unwrap().is_some());
        assert!(r.lookup(&mut io, 299).unwrap().is_none(), "stale block 1 resurrected a key");
    }

    #[test]
    fn corrupt_total_recovers_as_unsealed_without_reading_past_the_slot() {
        use crate::layout::{encode_footer_block, FooterHeader};
        let (l, mut io) = wide_loc();
        // A total no slot can hold, under a checksum that vouches for it.
        let lie = FooterHeader { seq: 7, region: 0, block: 0, count: 1, total: 10_000 };
        let mut block0 = vec![0u8; BLOCK as usize];
        encode_footer_block(&lie, [(1, 0, 1000)].into_iter(), &mut block0);
        io.write(l.meta_start_block(0), &block0, PlacementHandle::DEFAULT).unwrap();
        let read = io.stats().bytes_read;
        assert!(
            recovered(fresh_wide(), &mut io).is_empty(),
            "footer with an impossible total trusted"
        );
        assert_eq!(
            io.stats().bytes_read - read,
            BLOCK as u64,
            "recovery must stop at region 0's first footer block (the other slots are unwritten)"
        );
    }

    #[test]
    fn one_block_regions_seal_and_recover() {
        let fresh =
            || Loc::new(0, 4, 1, BLOCK, false, PlacementHandle::DEFAULT, PlacementHandle::DEFAULT);
        let (mut l, mut io) = (fresh(), io(8));
        for k in 0..6u64 {
            l.insert(&mut io, k, Value::synthetic(3_000)).unwrap();
        }
        assert_eq!((l.meta_blocks(), l.stats().seals, l.stats().region_evictions), (1, 5, 2));
        assert_eq!(recovered(fresh(), &mut io).persisted_keys(), l.persisted_keys());
    }

    #[test]
    fn retire_footer_is_one_block_and_its_sequence_survives_recovery() {
        let (mut l, mut io) = wide_loc();
        insert_small(&mut l, &mut io, 0, 300);
        l.insert(&mut io, 1_000, Value::synthetic(BIG)).unwrap(); // seals region 0, two blocks
        let (blocks, bytes) = (l.stats().footer_blocks_written, io.stats().bytes_written);
        let retire_seq = l.next_seal_seq;
        l.retire_footer(&mut io, 0).unwrap();
        assert_eq!(l.stats().footer_blocks_written - blocks, 1);
        assert_eq!(io.stats().bytes_written - bytes, BLOCK as u64);
        drop(l);
        let r = recovered(fresh_wide(), &mut io);
        assert!(r.is_empty(), "retired region's keys resurrected");
        assert_eq!(r.next_seal_seq, retire_seq + 1, "retirement sequence lost across recovery");
    }

    #[test]
    fn footer_rewrites_shrink_with_the_entry_table() {
        let (mut l, mut io) = wide_loc();
        insert_small(&mut l, &mut io, 0, 300);
        l.insert(&mut io, 1_000, Value::synthetic(BIG)).unwrap(); // seals region 0
        let mut blocks = l.stats().footer_blocks_written;
        let mut rewrite_len = |l: &Loc| {
            let len = l.stats().footer_blocks_written - blocks;
            blocks += len;
            len
        };
        // Delete persistence: 299 … 254 entries still need two blocks,
        // 253 fit one.
        for k in 0..46u64 {
            assert!(l.remove(&mut io, k).unwrap());
            assert_eq!(rewrite_len(&l), 2, "delete {k}");
        }
        assert!(l.remove(&mut io, 46).unwrap());
        assert_eq!(rewrite_len(&l), 1, "a 253-entry table fits one block");
        // Scrub of a superseded copy: key 47's overwrite seals alone
        // into region 2, and region 0's footer still lists the old
        // copy; deleting the key rewrites both, one block each.
        l.insert(&mut io, 47, Value::synthetic(BIG)).unwrap(); // seals region 1
        l.insert(&mut io, 1_001, Value::synthetic(BIG)).unwrap(); // seals region 2
        let _ = rewrite_len(&l);
        let rewrites = l.stats().footer_rewrites;
        assert!(l.remove(&mut io, 47).unwrap());
        assert_eq!(l.stats().footer_rewrites - rewrites, 2, "live and superseded copy");
        assert_eq!(rewrite_len(&l), 2);
        drop(l);
        // The shrunk footer (stale second block behind it) recovers to
        // exactly the surviving keys.
        let r = recovered(fresh_wide(), &mut io);
        assert_eq!(r.persisted_keys(), (48..300).chain([1_000]).collect::<Vec<_>>());
    }

    /// Every region the LOC seals, read straight back off the device:
    /// its live objects' bytes, zeros everywhere else (the gaps
    /// superseded and removed objects left, and the tail padding).
    fn assert_sealed_image(l: &Loc, io: &mut IoManager, region: u32) {
        let mut image = vec![0u8; l.region_bytes()];
        io.read(l.region_start_block(region), &mut image).unwrap();
        let mut expect = vec![0u8; l.region_bytes()];
        for k in &l.regions[region as usize].keys {
            let e = l.sealed(*k).unwrap();
            assert_eq!(e.region, region, "a just-sealed region lists only live keys");
            let off = e.offset as usize;
            e.value.materialize(*k, &mut expect[off..off + e.value.len()]);
        }
        assert!(image == expect, "region {region} does not read back as its objects and zeros");
    }

    #[test]
    fn seals_write_each_object_and_zero_the_rest_across_wraps() {
        let (mut l, mut io) = wide_loc();
        let mut rng = 7u64;
        let mut draw = |n: u64| {
            rng = crate::checksum::mix64(rng);
            rng % n
        };
        for i in 0..400u64 {
            let key = draw(60);
            // Sizes straddle blocks and 64 KiB commands; some real, some
            // synthetic, some removed or overwritten while still buffered.
            let len = 1 + draw(70_000) as usize;
            let value = if i % 3 == 0 {
                Value::real((0..len).map(|b| (b as u64 ^ key) as u8).collect::<Vec<u8>>())
            } else {
                Value::synthetic(len as u32)
            };
            l.insert(&mut io, key, value).unwrap();
            if draw(5) == 0 {
                l.remove(&mut io, draw(60)).unwrap();
            }
            // Inserts seal full regions too, but the next insert may
            // supersede a copy at once; check the image of explicit seals.
            if draw(6) == 0 {
                if let Some(region) = l.active {
                    l.seal_active(&mut io).unwrap();
                    assert_sealed_image(&l, &mut io, region);
                }
            }
        }
        assert!(l.stats().region_evictions >= 8, "the LOC must wrap more than twice");
        let keys: Vec<Key> =
            l.slots.iter().filter(|(_, s)| s.sealed().is_some()).map(|(k, _)| *k).collect();
        assert!(!keys.is_empty());
        for k in keys {
            assert_eq!(l.verify_object(&mut io, k).unwrap(), Some(true), "key {k}");
        }
    }

    mod inverted_listing {
        use super::*;
        use fdpcache_nvme::{FaultConfig, FaultRates, FaultStore};
        use proptest::prelude::*;

        const REGIONS: u32 = 6;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(Key, u32),
            Remove(Key),
            Evict,
            /// Fail the active region's seal persistently (quarantine)
            /// and requeue its objects.
            FailSeal,
            Recover,
        }

        /// Inserts six times as likely as each of evict, failed seal
        /// and recover; removes twice.
        fn op() -> impl Strategy<Value = Op> {
            const SIZES: [u32; 4] = [2_000, 9_000, 15_000, 30_000];
            (0..11u8, 0..16u64, 0..SIZES.len()).prop_map(|(pick, k, size)| match pick {
                0..=5 => Op::Insert(k, SIZES[size]),
                6 | 7 => Op::Remove(k),
                8 => Op::Evict,
                9 => Op::FailSeal,
                _ => Op::Recover,
            })
        }

        fn setup() -> (Arc<Controller>, IoManager) {
            let store = FaultStore::new(Box::new(MemStore::new()), FaultConfig::default());
            let ctrl = Arc::new(Controller::new(FtlConfig::tiny_test(), Box::new(store)).unwrap());
            let nsid = ctrl.create_namespace(REGIONS as u64 * 9, vec![0, 1]).unwrap();
            let io = IoManager::new(ctrl.clone(), nsid, 4).unwrap();
            (ctrl, io)
        }

        fn fresh() -> Loc {
            let (h, m) = (PlacementHandle::with_dspec(1), PlacementHandle::DEFAULT);
            Loc::new(0, REGIONS, 8, BLOCK, false, h, m)
        }

        /// The scan the inverted listing replaced, kept as its oracle.
        fn scan_candidates(l: &Loc, key: Key) -> Vec<u32> {
            let listed = |r: &Region| r.state == RegionState::Sealed && r.keys.contains(&key);
            (0..l.num_regions).filter(|&r| listed(&l.regions[r as usize])).collect()
        }

        /// The key map against the region key lists and the buffer.
        pub(in super::super) fn check(l: &Loc) {
            let mut inverted: KeyMap<Vec<u32>> = KeyMap::default();
            for (r, region) in l.regions.iter().enumerate() {
                for &k in &region.keys {
                    inverted.entry(k).or_default().push(r as u32);
                }
            }
            // Each key list is in fill order: its live entries ascend.
            for (r, region) in l.regions.iter().enumerate() {
                let offsets: Vec<u32> = region
                    .keys
                    .iter()
                    .filter_map(|&k| l.sealed(k).filter(|e| e.region == r as u32))
                    .map(|e| e.offset)
                    .collect();
                assert!(offsets.is_sorted(), "region {r} lists its keys out of fill order");
            }
            let mut listed: KeyMap<Vec<u32>> = KeyMap::default();
            let mut active = 0;
            for (&k, slot) in &l.slots {
                assert!(!slot.is_empty(), "key {k}: empty slot");
                if let Some(Live::Active(pos)) = slot.live {
                    assert_eq!(l.buffer[pos as usize].0, k, "key {k}: its position holds another");
                    active += 1;
                }
                let mut regions: Vec<u32> = slot.listing().collect();
                regions.sort_unstable();
                if !regions.is_empty() {
                    listed.insert(k, regions);
                }
            }
            assert_eq!(listed, inverted, "the map is not the inversion of the key lists");
            let mut dead = l.superseded.clone();
            dead.sort_unstable();
            dead.dedup();
            assert_eq!(dead.len(), l.superseded.len(), "a position superseded twice");
            assert!(dead.iter().all(|&p| (p as usize) < l.buffer.len()), "{dead:?}");
            assert_eq!(l.buffer.len() - l.superseded.len(), active, "live buffered count");
            for k in 0..16 {
                assert_eq!(l.scrub_candidates(k), scan_candidates(l, k), "key {k}");
            }
            // FIFO eviction needs no scrub of other footers: no key the
            // next region to go holds live is listed anywhere else.
            if let Some(&front) = l.sealed_fifo.front() {
                for &k in &l.regions[front as usize].keys {
                    let slot = &l.slots[&k];
                    if slot.sealed().is_some_and(|c| c.region == front) {
                        assert!(slot.older.is_empty(), "key {k}: listed by {:?}", slot.older);
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn slots_invert_the_key_lists_and_match_the_scan(
                ops in proptest::collection::vec(op(), 1..60)
            ) {
                let (ctrl, mut io) = setup();
                let mut l = fresh();
                for op in ops {
                    match op {
                        Op::Insert(k, n) => l.insert(&mut io, k, Value::synthetic(n)).unwrap(),
                        Op::Remove(k) => {
                            l.remove(&mut io, k).unwrap();
                        }
                        Op::Evict => l.evict_region(&mut io).unwrap(),
                        Op::FailSeal => {
                            if l.active.is_some() && l.stats().quarantined_regions < 2 {
                                let storm = FaultRates { write_err_ppm: 1_000_000, ..Default::default() };
                                ctrl.set_fault_rates(storm);
                                l.seal_active(&mut io).unwrap();
                                ctrl.set_fault_rates(FaultRates::default());
                                for (k, v) in l.take_requeued() {
                                    l.reinsert(&mut io, k, v).unwrap();
                                }
                            }
                        }
                        Op::Recover => l = recovered(fresh(), &mut io),
                    }
                    check(&l);
                }
                // Nothing leaks: with every region evicted and every key
                // removed, no slot is left.
                while !l.sealed_fifo.is_empty() {
                    l.evict_region(&mut io).unwrap();
                }
                for k in 0..16 {
                    l.remove(&mut io, k).unwrap();
                }
                check(&l);
                prop_assert!(l.slots.is_empty(), "leaked slots: {:?}", l.slots);
            }
        }
    }

    #[test]
    fn region_reuse_after_eviction_keeps_serving() {
        let (mut l, mut io) = loc();
        for round in 0..5u64 {
            for k in 0..4u64 {
                l.insert(&mut io, round * 100 + k, Value::synthetic(16_000)).unwrap();
            }
        }
        // Latest round's keys must be retrievable.
        assert!(l.lookup(&mut io, 401).unwrap().is_some());
    }
}
