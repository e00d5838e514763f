//! Payload backing stores.
//!
//! The FTL tracks *placement* only; logical payload bytes live here,
//! indexed by device LBA. Because relocation never changes an LBA's
//! logical contents, a logical store composes correctly with physical GC.
//!
//! Stores are shared by every worker on the device, so the trait takes
//! `&self` and implementations handle their own synchronization. The
//! controller's data path deliberately performs payload I/O *outside*
//! its media lock (see [`crate::Controller`]), which is what lets
//! payload memcpy traffic from N workers proceed in parallel.
//!
//! The trait is **vectored**: [`DataStore::write_blocks`],
//! [`DataStore::write_source`], [`DataStore::read_blocks`] and
//! [`DataStore::discard_blocks`] move N contiguous blocks per call.
//! A sealed 4 MiB cache region is 64 chunk commands over one
//! [`FillSource`] at consecutive offsets, which the controller hands
//! over as one `write_source` call and [`MemStore`] records as one run
//! per segment (four for a segment-aligned region), calling the source
//! only when a block is read, rather than a thousand per-block
//! operations. Per-block entry points remain
//! for direct use and as the building blocks of the default vectored
//! implementations.
//!
//! Implementations:
//!
//! * [`MemStore`] — the primary store: a **run slab**. Exported
//!   capacity is divided into fixed segments (the lock shards), each a
//!   run table indexed directly by LBA. Every write is one run record
//!   per overlapped segment: a source write keeps its source, and a
//!   byte write keeps an owned, zero-padded copy of its bytes as one.
//!   No hashing, and a read calls each run's source for its slots and
//!   zero-fills the rest.
//! * [`NullStore`] — discards payloads; DLWA/carbon experiments that
//!   replay billions of accesses only need placement metadata, and
//!   skipping payload copies keeps them fast.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::fault::{FaultOp, FaultRates, FaultTotals, InjectedFault};

/// An owned producer of a payload's bytes: `source(offset, out)` writes
/// every byte of `out`, which holds the payload's bytes from byte
/// `offset` on. A source's bytes change only between writes that hand
/// it to the store, and a store keeps only the source of each block's
/// last write, so a store may keep a source and call it at read time
/// ([`DataStore::write_source`]): one source may stand for many blocks,
/// each written at its own offset, and a block reads as what its
/// source holds for it now.
pub type FillSource = Arc<dyn Fn(usize, &mut [u8]) + Send + Sync>;

/// Logical payload storage keyed by device LBA.
///
/// Implementations must be internally synchronized: the controller
/// calls them concurrently from many worker threads without holding
/// any device-wide lock.
pub trait DataStore: Send + Sync {
    /// Announces the device geometry once, before any I/O. The
    /// controller calls this from [`crate::Controller::new`] so
    /// capacity-aware stores ([`MemStore`]) can size their segment
    /// tables; stores that need no sizing ignore it.
    fn attach(&self, exported_lbas: u64, lba_bytes: u32) {
        let _ = (exported_lbas, lba_bytes);
    }

    /// Stores one logical block. `data` is exactly one LBA in length
    /// (enforced by the controller).
    fn write_block(&self, lba: u64, data: &[u8]);

    /// Loads one logical block into `out`. Returns `false` if the LBA has
    /// no stored payload (never written, deallocated, or a `NullStore`).
    fn read_block(&self, lba: u64, out: &mut [u8]) -> bool;

    /// Drops the payload for an LBA (deallocate).
    fn discard(&self, lba: u64);

    /// Whether payloads are actually retained (false for `NullStore`).
    fn retains_data(&self) -> bool;

    /// Stores `data.len() / block_bytes` contiguous blocks starting at
    /// `lba` — the vectored write behind the controller's data path.
    /// Implementations that can should perform the whole transfer under
    /// one lock pass per internal shard.
    fn write_blocks(&self, lba: u64, data: &[u8], block_bytes: usize) {
        for (i, chunk) in data.chunks(block_bytes).enumerate() {
            self.write_block(lba + i as u64, chunk);
        }
    }

    /// Stores `nlb` contiguous blocks starting at `lba` holding
    /// `source`'s bytes from byte `base` on: one command, or a stretch
    /// of consecutive commands that continue one source, which the
    /// controller hands over as one call. The default makes them at
    /// once, into one temporary buffer, and calls
    /// [`DataStore::write_blocks`]. [`MemStore`] records the write as
    /// one run per segment it overlaps instead and calls the source
    /// only when a slot of the run is read, so a stored write costs
    /// no byte pass until somebody reads it; the last slot of a run to
    /// be written over or discarded drops the run's share of the
    /// source.
    fn write_source(
        &self,
        lba: u64,
        nlb: u64,
        block_bytes: usize,
        source: &FillSource,
        base: usize,
    ) {
        let mut buf = vec![0u8; nlb as usize * block_bytes];
        source(base, &mut buf);
        self.write_blocks(lba, &buf, block_bytes);
    }

    /// Loads `out.len() / block_bytes` contiguous blocks starting at
    /// `lba`, zero-filling every block that has no stored payload (so
    /// callers never post-process misses).
    fn read_blocks(&self, lba: u64, out: &mut [u8], block_bytes: usize) {
        for (i, chunk) in out.chunks_mut(block_bytes).enumerate() {
            if !self.read_block(lba + i as u64, chunk) {
                chunk.fill(0);
            }
        }
    }

    /// Drops the payloads of `count` contiguous blocks starting at
    /// `lba` (vectored deallocate).
    fn discard_blocks(&self, lba: u64, count: u64) {
        for l in lba..lba + count {
            self.discard(l);
        }
    }

    /// Asks the store's fault schedule (if any) whether a command of
    /// class `op` covering `[lba, lba + nlb)` fails. The controller
    /// consults this **before** any side effect of the command; plain
    /// stores never fail. Only the [`crate::FaultStore`] decorator
    /// overrides this.
    fn fault(&self, op: FaultOp, lba: u64, nlb: u64) -> Option<InjectedFault> {
        let _ = (op, lba, nlb);
        None
    }

    /// Snapshot of injected-fault totals (all zero for plain stores).
    fn fault_totals(&self) -> FaultTotals {
        FaultTotals::default()
    }

    /// Retunes the store's live fault-injection probabilities (chaos
    /// phase changes). Returns `false` for stores without a fault
    /// schedule; only the [`crate::FaultStore`] decorator honours it.
    fn set_fault_rates(&self, rates: FaultRates) -> bool {
        let _ = rates;
        false
    }
}

/// Blocks per slab segment (= lock shard) in [`MemStore`]: 256 blocks
/// = 1 MiB at 4 KiB LBAs. Segments are *contiguous* LBA ranges — the
/// opposite of the seed's LBA-interleaved hash shards — so a sealed
/// region's stretch locks each segment it covers once, and a one-block
/// page write one segment, instead of touching every shard, while distinct namespaces (carved
/// sequentially from exported capacity) still land on distinct
/// segments and never contend.
const SEGMENT_BLOCKS: u64 = 256;

/// Default slot size for a store used directly, before/without
/// [`DataStore::attach`] (unit tests, tools). Attached stores use the
/// device's LBA size.
const DEFAULT_BLOCK_BYTES: usize = 4096;

/// No run: the slot holds no payload.
const NO_RUN: u16 = u16::MAX;

/// One write's stretch of a segment: slot `first + k` holds
/// `source`'s bytes from byte `at + k * block_bytes` on, for every slot
/// still naming the run. `live` counts those slots; the last to leave
/// drops `source` and frees the run for reuse.
struct Run {
    source: Option<FillSource>,
    at: usize,
    first: u16,
    live: u16,
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Run(slot {} at {}, {} live)", self.first, self.at, self.live)
    }
}

/// An owned copy of a byte write, zero-padded to whole blocks, as the
/// source a run keeps: a byte write and a source write are then stored
/// alike.
fn owned_source(data: &[u8], bytes: usize) -> FillSource {
    let mut copy = data[..data.len().min(bytes)].to_vec();
    copy.resize(bytes, 0);
    Arc::new(move |at, out: &mut [u8]| out.copy_from_slice(&copy[at..at + out.len()]))
}

/// One slab segment: its run table. A slot holds a payload exactly
/// when it names a run, and its bytes are its run's; every other slot
/// reads as zeros. A segment therefore costs the same few kilobytes
/// whatever its slots hold, and the bytes of a write live in its
/// source, shared by the runs of every segment the write overlaps.
#[derive(Debug)]
struct Segment {
    /// Per slot, the run its bytes come from, else [`NO_RUN`]. A write
    /// or discard of the slot leaves its run.
    run_of: Vec<u16>,
    /// The runs `run_of` names, indexed by run id; a run no slot names
    /// holds no source and its id waits in `free_runs`. Both are sized
    /// with the segment, so recording a run never allocates.
    runs: Vec<Run>,
    free_runs: Vec<u16>,
}

impl Segment {
    /// An empty segment: every slot without a payload.
    fn new() -> Segment {
        Segment {
            run_of: vec![NO_RUN; SEGMENT_BLOCKS as usize],
            // At most one live run per slot: a write's slots leave their
            // old runs before it records its own.
            runs: Vec::with_capacity(SEGMENT_BLOCKS as usize),
            free_runs: Vec::with_capacity(SEGMENT_BLOCKS as usize),
        }
    }

    /// Slots holding a payload.
    fn live(&self) -> usize {
        self.runs.iter().map(|r| r.live as usize).sum()
    }

    /// Takes slots `[slot, slot + span)` out of their runs: they are
    /// about to be discarded or to join a new run. A run the last of its
    /// slots leaves drops its source.
    fn leave_runs(&mut self, slot: u64, span: u64) {
        let end = (slot + span) as usize;
        let mut i = slot as usize;
        while i < end {
            let id = self.run_of[i];
            let mut j = i + 1;
            while j < end && self.run_of[j] == id {
                j += 1;
            }
            if id != NO_RUN {
                self.run_of[i..j].fill(NO_RUN);
                let run = &mut self.runs[id as usize];
                run.live -= (j - i) as u16;
                if run.live == 0 {
                    run.source = None;
                    self.free_runs.push(id);
                }
            }
            i = j;
        }
    }

    /// Records slots `[slot, slot + span)` as one run of `source` from
    /// byte `at` on.
    fn record_run(&mut self, slot: u64, span: u64, source: &FillSource, at: usize) {
        let slots = slot as usize..(slot + span) as usize;
        let id = self.run_of[slots.start];
        if id != NO_RUN
            && u64::from(self.runs[id as usize].live) == span
            && self.run_of[slots.clone()].iter().all(|&r| r == id)
        {
            // The write covers exactly the slots of one run — a bucket
            // page rewritten, a region resealed over the segment — so
            // it takes the run over. Leaving the run and recording a
            // fresh one costs a one-block write about a fifth more.
            let run = &mut self.runs[id as usize];
            run.source = Some(source.clone());
            run.at = at;
            run.first = slot as u16;
            return;
        }
        self.leave_runs(slot, span);
        let run = Run { source: Some(source.clone()), at, first: slot as u16, live: span as u16 };
        let id = match self.free_runs.pop() {
            Some(id) => {
                self.runs[id as usize] = run;
                id
            }
            None => {
                self.runs.push(run);
                (self.runs.len() - 1) as u16
            }
        };
        self.run_of[slots].fill(id);
    }

    /// The source slot `slot`'s bytes come from, and the byte of it
    /// they start at; `None` for a slot without a payload.
    fn source_of(&self, slot: usize, block_bytes: usize) -> Option<(&FillSource, usize)> {
        let id = self.run_of[slot];
        if id == NO_RUN {
            return None;
        }
        let run = &self.runs[id as usize];
        let source = run.source.as_ref().expect("a run some slot names holds its source");
        Some((source, run.at + (slot - run.first as usize) * block_bytes))
    }

    /// Writes the bytes of the slots from `slot` on into `out`, which
    /// may end mid-slot: one zero fill per stretch of slots without a
    /// payload, one source call per stretch of slots that continue one
    /// source's bytes (a run, or runs of one source at consecutive
    /// offsets).
    fn load(&self, slot: u64, out: &mut [u8], block_bytes: usize) {
        let first = slot as usize;
        let mut pos = 0;
        while pos < out.len() {
            let head = first + pos / block_bytes;
            let from = self.source_of(head, block_bytes);
            let mut next = head + 1;
            while (next - first) * block_bytes < out.len() {
                let continues = match (from, self.source_of(next, block_bytes)) {
                    (None, None) => true,
                    (Some((a, at)), Some((b, bt))) => {
                        Arc::ptr_eq(a, b) && bt == at + (next - head) * block_bytes
                    }
                    _ => false,
                };
                if !continues {
                    break;
                }
                next += 1;
            }
            let end = ((next - first) * block_bytes).min(out.len());
            match from {
                Some((source, at)) => source(at, &mut out[pos..end]),
                None => out[pos..end].fill(0),
            }
            pos = end;
        }
    }
}

/// Geometry plus the segment table. Behind a `RwLock` only so
/// [`DataStore::attach`] (and direct out-of-range use) can size the
/// table through `&self`; the data path takes the read side, which is
/// uncontended once the device is attached.
#[derive(Debug)]
struct Slab {
    block_bytes: usize,
    segments: Vec<Mutex<Segment>>,
}

/// Run-slab store: per-segment run tables indexed directly by LBA.
///
/// Every write is recorded as one run per segment it overlaps — one
/// share of its source, the first slot and its byte offset, and a live
/// count — and each of its slots names the run; a read calls the
/// source for them and zero-fills slots that name none. A
/// [`DataStore::write_source`] call hands over its source, so it
/// costs no byte pass until somebody reads it; a sealed region's
/// chunk commands arrive as one such call, so the region is one run
/// per segment, not one per command and segment. A byte write
/// ([`DataStore::write_blocks`], [`DataStore::write_block`]) becomes a
/// source over an owned, zero-padded copy of its bytes, so a caller's
/// buffer is free the moment the call returns. No hashing, no
/// per-block boxing, and a vectored N-block transfer is one lock pass
/// per overlapped segment.
#[derive(Debug)]
pub struct MemStore {
    inner: RwLock<Slab>,
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore {
            inner: RwLock::new(Slab { block_bytes: DEFAULT_BLOCK_BYTES, segments: Vec::new() }),
        }
    }
}

impl MemStore {
    /// Creates an empty, unsized store; [`DataStore::attach`] (called by
    /// the controller) sizes the segment table to the device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store sized for `lbas` blocks of `lba_bytes` each
    /// (direct/bench use without a controller).
    pub fn with_capacity(lbas: u64, lba_bytes: u32) -> Self {
        let s = Self::new();
        DataStore::attach(&s, lbas, lba_bytes);
        s
    }

    /// Grows the segment table (write lock) so `lba` is addressable —
    /// only ever taken by direct, unattached use; the controller
    /// validates LBAs against exported capacity, which `attach` covered.
    fn grow_for(&self, lba: u64) {
        let mut inner = self.inner.write();
        let needed = (lba / SEGMENT_BLOCKS + 1) as usize;
        while inner.segments.len() < needed {
            inner.segments.push(Mutex::new(Segment::new()));
        }
    }

    /// Number of LBAs currently holding payloads (aggregated on read).
    pub fn len(&self) -> usize {
        self.inner.read().segments.iter().map(|s| s.lock().live()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs that some slot names, over every segment.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> usize {
        let inner = self.inner.read();
        inner.segments.iter().map(|s| s.lock().runs.iter().filter(|r| r.live > 0).count()).sum()
    }

    /// Takes the table read guard, growing the table first (write
    /// lock) when `last_lba` is beyond it — growth only ever happens in
    /// direct, unattached use; the controller validates LBAs against
    /// the exported capacity `attach` covered. One acquisition serves a
    /// whole vectored transfer.
    fn table(&self, last_lba: u64) -> parking_lot::RwLockReadGuard<'_, Slab> {
        loop {
            let inner = self.inner.read();
            if ((last_lba / SEGMENT_BLOCKS) as usize) < inner.segments.len() {
                return inner;
            }
            drop(inner);
            self.grow_for(last_lba);
        }
    }
}

/// Runs `f` for each segment-contiguous sub-range of `[lba, lba + nlb)`
/// with `(segment, first_slot, slot_count, byte_offset_into_transfer)`.
/// The caller holds the table guard, so a whole vectored transfer is
/// one table-lock acquisition.
fn for_segments(
    slab: &Slab,
    lba: u64,
    nlb: u64,
    block_bytes: usize,
    mut f: impl FnMut(&Mutex<Segment>, u64, u64, usize),
) {
    let mut done = 0u64;
    while done < nlb {
        let cur = lba + done;
        let seg = (cur / SEGMENT_BLOCKS) as usize;
        let slot = cur % SEGMENT_BLOCKS;
        let span = (SEGMENT_BLOCKS - slot).min(nlb - done);
        f(&slab.segments[seg], slot, span, (done as usize) * block_bytes);
        done += span;
    }
}

impl DataStore for MemStore {
    /// Sizes the segment table to the exported capacity: one run table
    /// per segment, so attaching costs kilobytes per segment, not the
    /// device size.
    fn attach(&self, exported_lbas: u64, lba_bytes: u32) {
        let mut inner = self.inner.write();
        debug_assert!(
            inner.segments.iter().all(|s| s.lock().live() == 0),
            "attach must precede payload traffic"
        );
        inner.block_bytes = lba_bytes as usize;
        let segments = exported_lbas.div_ceil(SEGMENT_BLOCKS) as usize;
        inner.segments = (0..segments).map(|_| Mutex::new(Segment::new())).collect();
    }

    fn write_block(&self, lba: u64, data: &[u8]) {
        let inner = self.table(lba);
        let block_bytes = inner.block_bytes;
        debug_assert!(data.len() <= block_bytes, "block payload exceeds the slab slot");
        let source = owned_source(data, block_bytes);
        let seg = &inner.segments[(lba / SEGMENT_BLOCKS) as usize];
        seg.lock().record_run(lba % SEGMENT_BLOCKS, 1, &source, 0);
    }

    fn read_block(&self, lba: u64, out: &mut [u8]) -> bool {
        let inner = self.inner.read();
        let block_bytes = inner.block_bytes;
        let seg = (lba / SEGMENT_BLOCKS) as usize;
        let slot = lba % SEGMENT_BLOCKS;
        let Some(seg) = inner.segments.get(seg) else {
            return false;
        };
        let s = seg.lock();
        if s.run_of[slot as usize] == NO_RUN {
            return false;
        }
        let n = out.len().min(block_bytes);
        s.load(slot, &mut out[..n], block_bytes);
        true
    }

    fn discard(&self, lba: u64) {
        self.discard_blocks(lba, 1);
    }

    fn retains_data(&self) -> bool {
        true
    }

    /// Records an owned copy of `data` like a source write of it.
    fn write_blocks(&self, lba: u64, data: &[u8], block_bytes: usize) {
        debug_assert_eq!(data.len() % block_bytes, 0, "vectored write must be whole blocks");
        let nlb = (data.len() / block_bytes) as u64;
        if nlb > 0 {
            self.write_source(lba, nlb, block_bytes, &owned_source(data, data.len()), 0);
        }
    }

    /// Records one run per overlapped segment under its lock — one
    /// share of `source`, the first slot and its byte offset — and
    /// makes no byte: `Segment::load` calls the source when a slot is
    /// read.
    fn write_source(
        &self,
        lba: u64,
        nlb: u64,
        block_bytes: usize,
        source: &FillSource,
        base: usize,
    ) {
        if nlb == 0 {
            return;
        }
        let inner = self.table(lba + nlb - 1);
        // Slot offsets derive from the attached geometry; a caller
        // chunking at a different size would corrupt slot arithmetic.
        debug_assert_eq!(
            block_bytes, inner.block_bytes,
            "vectored transfer must use the attached LBA size"
        );
        for_segments(&inner, lba, nlb, block_bytes, |seg, slot, span, data_off| {
            seg.lock().record_run(slot, span, source, base + data_off);
        });
    }

    fn read_blocks(&self, lba: u64, out: &mut [u8], block_bytes: usize) {
        debug_assert_eq!(out.len() % block_bytes, 0, "vectored read must be whole blocks");
        let mut nlb = (out.len() / block_bytes) as u64;
        if nlb == 0 {
            return;
        }
        let inner = self.inner.read();
        debug_assert_eq!(
            block_bytes, inner.block_bytes,
            "vectored transfer must use the attached LBA size"
        );
        // Like discards, reads of beyond-table LBAs must not grow the
        // table (they are misses by definition): clamp and zero-fill
        // the out-of-table tail instead.
        let table_blocks = inner.segments.len() as u64 * SEGMENT_BLOCKS;
        if lba >= table_blocks {
            out.fill(0);
            return;
        }
        if nlb > table_blocks - lba {
            nlb = table_blocks - lba;
            out[(nlb as usize) * block_bytes..].fill(0);
        }
        // One pass per segment serves hits and misses alike: a source
        // call per stretch of one source's bytes, a zero fill per
        // stretch of slots without a payload.
        for_segments(&inner, lba, nlb, block_bytes, |seg, slot, span, out_off| {
            let bytes = span as usize * block_bytes;
            seg.lock().load(slot, &mut out[out_off..out_off + bytes], block_bytes);
        });
    }

    fn discard_blocks(&self, lba: u64, count: u64) {
        let inner = self.inner.read();
        let block_bytes = inner.block_bytes;
        // A discard of never-written (beyond-table) space is a no-op,
        // never table growth. Clamp to the table.
        let table_blocks = inner.segments.len() as u64 * SEGMENT_BLOCKS;
        if lba >= table_blocks || count == 0 {
            return;
        }
        let count = count.min(table_blocks - lba);
        for_segments(&inner, lba, count, block_bytes, |seg, slot, span, _| {
            seg.lock().leave_runs(slot, span);
        });
    }
}

/// Payload-discarding store for metadata-only experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullStore;

impl DataStore for NullStore {
    fn write_block(&self, _lba: u64, _data: &[u8]) {}

    fn read_block(&self, _lba: u64, _out: &mut [u8]) -> bool {
        false
    }

    fn discard(&self, _lba: u64) {}

    fn retains_data(&self) -> bool {
        false
    }

    fn write_blocks(&self, _lba: u64, _data: &[u8], _block_bytes: usize) {}

    fn write_source(
        &self,
        _lba: u64,
        _nlb: u64,
        _block_bytes: usize,
        _source: &FillSource,
        _base: usize,
    ) {
    }

    fn read_blocks(&self, _lba: u64, out: &mut [u8], _block_bytes: usize) {
        // Vectored reads promise zero-filled misses (the controller no
        // longer post-processes), so the whole buffer zeroes in one pass.
        out.fill(0);
    }

    fn discard_blocks(&self, _lba: u64, _count: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_round_trips() {
        let s = MemStore::new();
        s.write_block(7, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        assert!(s.read_block(7, &mut out));
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn memstore_overwrite_replaces() {
        let s = MemStore::new();
        s.write_block(1, &[9; 4]);
        s.write_block(1, &[5; 4]);
        let mut out = [0u8; 4];
        s.read_block(1, &mut out);
        assert_eq!(out, [5; 4]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn memstore_discard_forgets() {
        let s = MemStore::new();
        s.write_block(1, &[1; 4]);
        s.discard(1);
        let mut out = [0u8; 4];
        assert!(!s.read_block(1, &mut out));
        assert!(s.is_empty());
    }

    #[test]
    fn every_write_is_a_run_and_a_byte_write_keeps_an_owned_zero_padded_copy() {
        let s = MemStore::new();
        DataStore::attach(&s, 5 * SEGMENT_BLOCKS + 3, 8);
        assert_eq!(s.inner.read().segments.len(), 6);
        assert_eq!(s.inner.read().block_bytes, 8);
        let runs = |s: &MemStore| -> Vec<usize> {
            let inner = s.inner.read();
            inner
                .segments
                .iter()
                .map(|g| g.lock().runs.iter().filter(|r| r.live > 0).count())
                .collect()
        };
        assert_eq!(runs(&s), [0; 6]);

        // A source write across the first segment boundary is one run
        // per segment, each holding a share of the source.
        let source: FillSource = Arc::new(|at, out: &mut [u8]| {
            for (i, b) in out.iter_mut().enumerate() {
                *b = (at + i) as u8 | 0x80;
            }
        });
        let first = SEGMENT_BLOCKS - 2;
        s.write_source(first, 4, 8, &source, 16);
        assert_eq!(runs(&s), [1, 1, 0, 0, 0, 0]);
        assert_eq!(Arc::strong_count(&source), 3);
        assert_eq!(s.len(), 4);

        // A byte write across the next boundary is one run per segment
        // too, over a copy of the bytes: changing the caller's buffer
        // afterwards changes no read.
        let at = 3 * SEGMENT_BLOCKS - 1;
        let mut bytes = [7u8; 16];
        s.write_blocks(at, &bytes, 8);
        bytes.fill(9);
        assert_eq!(runs(&s), [1, 1, 1, 1, 0, 0]);
        let mut two = [0u8; 16];
        s.read_blocks(at, &mut two, 8);
        assert_eq!(two, [7; 16]);

        // A short write reads back zero-padded, over a slot that held
        // more; it takes over the one-slot run it covers.
        let mut short = [0x55u8; 3];
        s.write_block(at, &short);
        short.fill(9);
        s.read_blocks(at, &mut two, 8);
        assert_eq!(two, [0x55, 0x55, 0x55, 0, 0, 0, 0, 0, 7, 7, 7, 7, 7, 7, 7, 7]);
        assert_eq!(runs(&s), [1, 1, 1, 1, 0, 0]);

        // Run slots read as the source's bytes, every other slot as
        // zeros, whether read whole or a block at a time.
        let mut out = [0xEEu8; 6 * 8];
        s.read_blocks(first - 1, &mut out, 8);
        let mut expect = [0u8; 6 * 8];
        source(16, &mut expect[8..40]);
        assert_eq!(out, expect);
        let mut one = [0xEEu8; 8];
        assert!(s.read_block(SEGMENT_BLOCKS, &mut one));
        assert_eq!(one, expect[24..32]);
        assert!(!s.read_block(SEGMENT_BLOCKS + 2, &mut one));

        // Discarding slots takes them out of their runs.
        s.discard_blocks(first + 1, 2);
        assert_eq!(s.len(), 2 + 2);
        assert!(!s.read_block(first + 1, &mut one));
        assert!(!s.read_block(SEGMENT_BLOCKS, &mut one));
        let mut out = [0xEEu8; 4 * 8];
        s.read_blocks(first, &mut out, 8);
        expect[16..32].fill(0);
        assert_eq!(out, expect[8..40]);

        // A run's last slot to leave drops its share of the source.
        s.discard_blocks(0, 6 * SEGMENT_BLOCKS);
        assert!(s.is_empty());
        assert_eq!(runs(&s), [0; 6]);
        assert_eq!(Arc::strong_count(&source), 1);
        s.read_blocks(first, &mut out, 8);
        assert_eq!(out, [0; 4 * 8]);
    }

    #[test]
    fn vectored_write_round_trips_across_segment_boundary() {
        let s = MemStore::with_capacity(3 * SEGMENT_BLOCKS, 8);
        // 8-byte blocks; span the first segment boundary.
        let start = SEGMENT_BLOCKS - 2;
        let data: Vec<u8> = (0..4 * 8).map(|i| i as u8).collect();
        s.write_blocks(start, &data, 8);
        assert_eq!(s.len(), 4);
        let mut out = vec![0u8; data.len()];
        s.read_blocks(start, &mut out, 8);
        assert_eq!(out, data);
        // Per-block reads agree.
        let mut one = [0u8; 8];
        assert!(s.read_block(start + 2, &mut one));
        assert_eq!(one, data[16..24]);
    }

    #[test]
    fn vectored_read_zero_fills_misses_in_place() {
        let s = MemStore::with_capacity(SEGMENT_BLOCKS, 4);
        s.write_block(1, &[7; 4]);
        let mut out = [9u8; 12];
        s.read_blocks(0, &mut out, 4);
        assert_eq!(out, [0, 0, 0, 0, 7, 7, 7, 7, 0, 0, 0, 0]);
    }

    #[test]
    fn vectored_discard_reads_back_zeros() {
        let s = MemStore::with_capacity(SEGMENT_BLOCKS, 4);
        for lba in 0..8u64 {
            s.write_block(lba, &[0xFF; 4]);
        }
        s.discard_blocks(2, 4);
        assert_eq!(s.len(), 4);
        let mut out = [1u8; 32];
        s.read_blocks(0, &mut out, 4);
        let mut expect = [0xFFu8; 32];
        expect[8..24].fill(0);
        assert_eq!(out, expect);
    }

    #[test]
    fn discard_beyond_capacity_is_a_noop() {
        let s = MemStore::with_capacity(16, 4);
        s.discard_blocks(1 << 40, 8);
        assert!(s.is_empty());
        assert_eq!(s.inner.read().segments.len(), 1);
    }

    #[test]
    fn read_beyond_capacity_zero_fills_without_growing() {
        let s = MemStore::with_capacity(16, 4);
        s.write_block(SEGMENT_BLOCKS - 1, &[9; 4]);
        // Fully out of table: zeros, and no segment growth.
        let mut out = [7u8; 8];
        s.read_blocks(1 << 40, &mut out, 4);
        assert_eq!(out, [0; 8]);
        assert_eq!(s.inner.read().segments.len(), 1);
        // Straddling the table edge: in-table block served, tail zeroed.
        let mut out = [7u8; 8];
        s.read_blocks(SEGMENT_BLOCKS - 1, &mut out, 4);
        assert_eq!(out, [9, 9, 9, 9, 0, 0, 0, 0]);
        assert_eq!(s.inner.read().segments.len(), 1);
    }

    #[test]
    fn short_write_zeroes_slot_remainder() {
        let s = MemStore::with_capacity(16, 8);
        s.write_block(3, &[0xAA; 8]);
        s.write_block(3, &[0x55; 4]); // shorter overwrite
        let mut out = [0u8; 8];
        assert!(s.read_block(3, &mut out));
        assert_eq!(out, [0x55, 0x55, 0x55, 0x55, 0, 0, 0, 0]);
    }

    #[test]
    fn memstore_concurrent_writers_do_not_lose_blocks() {
        let s = std::sync::Arc::new(MemStore::with_capacity(4_096, 4));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let lba = t * 500 + i;
                        s.write_block(lba, &(lba as u32).to_le_bytes());
                    }
                });
            }
        });
        assert_eq!(s.len(), 4_000);
        let mut out = [0u8; 4];
        assert!(s.read_block(3_999, &mut out));
        assert_eq!(u32::from_le_bytes(out), 3_999);
    }

    #[test]
    fn unattached_store_grows_on_demand() {
        let s = MemStore::new();
        s.write_block(10 * SEGMENT_BLOCKS + 5, &[3; 16]);
        assert_eq!(s.len(), 1);
        let mut out = [0u8; 16];
        assert!(s.read_block(10 * SEGMENT_BLOCKS + 5, &mut out));
        assert_eq!(out, [3; 16]);
    }

    #[test]
    fn nullstore_never_returns_data() {
        let s = NullStore;
        s.write_block(1, &[1; 4]);
        let mut out = [7u8; 4];
        assert!(!s.read_block(1, &mut out));
        assert_eq!(out, [7; 4], "NullStore must not touch the buffer");
        assert!(!s.retains_data());
        // The vectored read, by contract, zero-fills.
        let mut vec_out = [7u8; 8];
        s.read_blocks(0, &mut vec_out, 4);
        assert_eq!(vec_out, [0; 8]);
    }
}
