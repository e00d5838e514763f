//! The FTL proper: L2P mapping, RUH-directed placement, garbage
//! collection and DLWA accounting. Host writes map as runs of pages,
//! one per stretch of a command that fits the active reclaim unit
//! ([`Ftl::write_placed_batch`]).

use std::collections::VecDeque;

use fdpcache_nand::{NandDevice, NandError, Ppa};

use crate::config::{FtlConfig, RuhType};
use crate::error::FtlError;
use crate::events::{EventLog, FdpEvent};
use crate::gc::select_victim;
use crate::ru::{RuInfo, RuOwner, RuPhase};
use crate::stats::FtlStats;
use crate::{Lba, RuhId};

/// Sentinel for "unmapped" entries in the L2P and P2L tables.
const NONE32: u32 = u32::MAX;
const NONE64: u64 = u64::MAX;

/// Outcome of a host write, including any GC work it triggered.
///
/// The NVMe layer turns `program_ns + gc_ns` into command latency, which
/// is how GC interference surfaces as p99 write-latency inflation in the
/// non-FDP baseline (Figures 6 and 13).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteReceipt {
    /// Media latency of the host program itself.
    pub program_ns: u64,
    /// Media latency of GC work performed synchronously with this write.
    pub gc_ns: u64,
    /// Pages relocated by that GC work.
    pub relocated_pages: u64,
}

/// Page-mapped FTL with FDP placement semantics.
///
/// See the crate docs for the feature list. All methods are synchronous;
/// latencies are returned as simulated nanoseconds rather than slept.
#[derive(Debug)]
pub struct Ftl {
    config: FtlConfig,
    nand: NandDevice,
    /// LBA → packed PPA (NONE64 = unmapped).
    l2p: Vec<u64>,
    /// Per-RU reverse map: page-in-RU → LBA (NONE32 = none/stale).
    p2l: Vec<Vec<u32>>,
    rus: Vec<RuInfo>,
    /// Per-reclaim-group free pools (RUs are partitioned contiguously
    /// into groups).
    free_rus: Vec<VecDeque<u32>>,
    /// Active host RU per `<RG, RUH>` pair — the FDP rule that a handle
    /// references one reclaim unit *per reclaim group* (§3.2.1).
    /// Indexed `rg * num_ruhs + ruh`.
    ruh_active: Vec<Option<u32>>,
    /// Shared GC destination per RG (initially isolated mode).
    gc_shared_active: Vec<Option<u32>>,
    /// Per-`<RG, RUH>` GC destination (persistently isolated mode).
    gc_iso_active: Vec<Option<u32>>,
    /// Monotonic open-sequence counter for FIFO victim selection.
    seq: u64,
    stats: FtlStats,
    /// Host pages written per RUH (placement attribution).
    ruh_host_pages: Vec<u64>,
    /// RU switches per RUH (how often each handle moved to a fresh RU).
    ruh_switches: Vec<u64>,
    events: EventLog,
}

impl Ftl {
    /// Builds an FTL over fresh NAND.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the configuration is
    /// internally inconsistent (see [`FtlConfig::validate`]).
    pub fn new(config: FtlConfig) -> Result<Self, String> {
        config.validate()?;
        let exported = config.exported_lbas();
        if exported >= NONE32 as u64 {
            return Err(format!("exported LBA count {exported} exceeds u32 reverse-map range"));
        }
        let nand = NandDevice::new(config.geometry, config.pe_limit, config.latency, config.seed);
        let ru_count = config.geometry.superblocks() as usize;
        let pages_per_ru = config.geometry.pages_per_superblock() as usize;
        let num_ruhs = config.num_ruhs as usize;
        let num_rgs = config.num_rgs as usize;
        let per_rg = config.rus_per_rg() as usize;
        let free_rus = (0..num_rgs)
            .map(|rg| ((rg * per_rg) as u32..((rg + 1) * per_rg) as u32).collect())
            .collect();
        Ok(Ftl {
            l2p: vec![NONE64; exported as usize],
            p2l: vec![vec![NONE32; pages_per_ru]; ru_count],
            rus: vec![RuInfo::free(); ru_count],
            free_rus,
            ruh_active: vec![None; num_rgs * num_ruhs],
            gc_shared_active: vec![None; num_rgs],
            gc_iso_active: vec![None; num_rgs * num_ruhs],
            seq: 0,
            stats: FtlStats::default(),
            ruh_host_pages: vec![0; num_ruhs],
            ruh_switches: vec![0; num_ruhs],
            events: EventLog::new(config.event_log_capacity),
            nand,
            config,
        })
    }

    /// The configuration this FTL was built with.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Number of LBAs exported to the host.
    pub fn exported_lbas(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Logical block (page) size in bytes.
    pub fn lba_bytes(&self) -> u32 {
        self.config.geometry.page_size
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// NAND-level statistics (programs, reads, erases).
    pub fn nand_stats(&self) -> fdpcache_nand::NandStats {
        self.nand.stats()
    }

    /// Wear summary from the media.
    pub fn wear(&self) -> fdpcache_nand::device::WearSummary {
        self.nand.wear_summary()
    }

    /// Host pages written through each RUH.
    pub fn ruh_host_pages(&self) -> &[u64] {
        &self.ruh_host_pages
    }

    /// RU switches per RUH (fresh-RU transitions; one per filled RU).
    pub fn ruh_switches(&self) -> &[u64] {
        &self.ruh_switches
    }

    /// The FDP event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Mutable access to the event log (for host-side draining).
    pub fn events_mut(&mut self) -> &mut EventLog {
        &mut self.events
    }

    /// Number of reclaim groups.
    pub fn num_rgs(&self) -> u16 {
        self.config.num_rgs
    }

    /// The reclaim group an RU belongs to.
    pub fn rg_of(&self, ru: u32) -> u16 {
        (ru / self.config.rus_per_rg()) as u16
    }

    /// Slot index for per-`<RG, RUH>` tables.
    fn slot(&self, rg: u16, ruh: RuhId) -> usize {
        rg as usize * self.config.num_ruhs as usize + ruh as usize
    }

    /// Number of currently mapped LBAs.
    pub fn mapped_lbas(&self) -> u64 {
        self.nand.total_valid_pages()
    }

    /// Remaining free pages in the RU referenced by `ruh` in reclaim
    /// group 0 (the FDP "available space in an RU" query, §3.2.2).
    pub fn ruh_available_pages(&self, ruh: RuhId) -> u64 {
        self.ruh_available_pages_in(0, ruh)
    }

    /// Remaining free pages in the RU referenced by `<rg, ruh>`.
    pub fn ruh_available_pages_in(&self, rg: u16, ruh: RuhId) -> u64 {
        if rg >= self.config.num_rgs || ruh >= self.config.num_ruhs {
            return 0;
        }
        match self.ruh_active[self.slot(rg, ruh)] {
            Some(ru) => self.config.geometry.pages_per_superblock() - self.nand.write_ptr(ru),
            None => 0,
        }
    }

    /// Whether the LBA is currently mapped.
    pub fn is_mapped(&self, lba: Lba) -> bool {
        self.l2p.get(lba as usize).is_some_and(|&e| e != NONE64)
    }

    /// Reads `lba`, returning the media latency in nanoseconds.
    ///
    /// # Errors
    ///
    /// [`FtlError::LbaOutOfRange`] or [`FtlError::Unmapped`].
    pub fn read(&mut self, lba: Lba) -> Result<u64, FtlError> {
        let entry = *self.l2p.get(lba as usize).ok_or(FtlError::LbaOutOfRange(lba))?;
        if entry == NONE64 {
            return Err(FtlError::Unmapped(lba));
        }
        let ns = self.nand.read(Ppa::unpack(entry))?;
        self.stats.host_reads += 1;
        Ok(ns)
    }

    /// Reads `nlb` contiguous LBAs starting at `start` under one call,
    /// returning the summed media latency — the batch receipt behind
    /// the controller's vectored read path. Per-LBA semantics (stats,
    /// error on the first unmapped block) are identical to
    /// `nlb` sequential [`Ftl::read`] calls; only the call count
    /// changes.
    ///
    /// # Errors
    ///
    /// [`FtlError::LbaOutOfRange`] before any block is read if the range
    /// leaves exported capacity; otherwise as [`Ftl::read`], with the
    /// blocks before the failing one keeping their read accounting.
    pub fn read_contig(&mut self, start: Lba, nlb: u64) -> Result<u64, FtlError> {
        let mut total_ns = 0u64;
        for lba in self.lba_range(start, nlb)? {
            total_ns += self.read(lba)?;
        }
        Ok(total_ns)
    }

    /// Writes `lba` through reclaim unit handle `ruh`.
    ///
    /// Overwrites invalidate the previous mapping first (that is the only
    /// "delete" a conventional write path has, per §3.2.2). May trigger
    /// synchronous GC; the receipt carries the breakdown.
    ///
    /// # Errors
    ///
    /// [`FtlError::LbaOutOfRange`], [`FtlError::InvalidRuh`], or
    /// [`FtlError::OutOfSpace`] if GC cannot produce a free RU.
    pub fn write(&mut self, lba: Lba, ruh: RuhId) -> Result<WriteReceipt, FtlError> {
        self.write_placed(lba, 0, ruh)
    }

    /// Writes `lba` through reclaim unit handle `ruh` of reclaim group
    /// `rg` — the full `<RG, RUH>` placement identifier of the FDP
    /// proposal. The handle's active RU and any GC this write triggers
    /// are confined to that group. A one-LBA [`Ftl::write_placed_batch`].
    ///
    /// # Errors
    ///
    /// As [`Ftl::write`], plus [`FtlError::InvalidRg`] for an unknown
    /// reclaim group.
    pub fn write_placed(
        &mut self,
        lba: Lba,
        rg: u16,
        ruh: RuhId,
    ) -> Result<WriteReceipt, FtlError> {
        self.write_placed_batch(lba, 1, rg, ruh)
    }

    /// Maps `count` contiguous LBAs starting at `slba` through
    /// `<rg, ruh>` in one call — the batch-mapping entry point behind
    /// the NVMe layer's vectored write path.
    ///
    /// The whole batch is validated **before** any page is programmed
    /// (unlike N sequential [`Ftl::write_placed`] calls, which could
    /// partially apply before hitting an invalid LBA), and GC runs at
    /// batch granularity: reclamation triggered by any RU switch inside
    /// the batch is accumulated into the single aggregate receipt the
    /// caller turns into one command latency.
    ///
    /// The batch maps as runs: each stretch of it that fits the
    /// handle's active RU is programmed as one NAND run
    /// ([`NandDevice::program_run`]) and then mapped page by page, and
    /// an RU switch (with any GC it triggers) falls between two runs,
    /// exactly where the LBA that finds the RU full would have met it.
    /// The program samples, GC work, events and map updates are those
    /// of `count` sequential `write_placed` calls in the same order, so
    /// FTL state (and therefore DLWA accounting and virtual time) is
    /// bit-identical between the batched and per-command paths.
    ///
    /// # Errors
    ///
    /// As [`Ftl::write_placed`]. A mid-batch media failure
    /// ([`FtlError::OutOfSpace`] at end of life) **rolls back the
    /// mapped prefix** before returning: a failed batch maps nothing
    /// (its LBAs read as unwritten afterwards — within NVMe's
    /// indeterminate-on-error write contract), so callers never see a
    /// partially applied receipt.
    pub fn write_placed_batch(
        &mut self,
        slba: Lba,
        count: u64,
        rg: u16,
        ruh: RuhId,
    ) -> Result<WriteReceipt, FtlError> {
        let lbas = self.lba_range(slba, count)?;
        if ruh >= self.config.num_ruhs {
            return Err(FtlError::InvalidRuh(ruh));
        }
        if rg >= self.config.num_rgs {
            return Err(FtlError::InvalidRg(rg));
        }
        let mut receipt = WriteReceipt::default();
        let mut next = slba;
        if let Err(e) = self.map_runs(lbas, rg, ruh, &mut receipt, &mut next) {
            self.rollback_range(slba, next - slba)?;
            return Err(e);
        }
        Ok(receipt)
    }

    /// The LBAs `lba..lba + count`, or [`FtlError::LbaOutOfRange`]
    /// naming the first of them past exported capacity: the one range
    /// check of every multi-LBA entry point.
    fn lba_range(&self, lba: Lba, count: u64) -> Result<std::ops::Range<Lba>, FtlError> {
        let exported = self.l2p.len() as u64;
        match lba.checked_add(count) {
            Some(end) if end <= exported => Ok(lba..end),
            _ => Err(FtlError::LbaOutOfRange(lba.max(exported))),
        }
    }

    /// Unmaps `count` LBAs starting at `lba` as rollback of a
    /// partially-applied batch: the mechanics of [`Ftl::trim`], but
    /// accounted as `rolled_back_lbas` (these were never host
    /// deallocations) and infallible on unmapped LBAs. The programmed
    /// pages stay counted in `nand_pages_written` — the failed batch
    /// really consumed media — so the write-amplification identity
    /// (`nand = host + relocated`) is preserved.
    ///
    /// # Errors
    ///
    /// [`FtlError::LbaOutOfRange`] for ranges beyond exported capacity
    /// (callers pass pre-validated batch ranges, so this indicates a
    /// caller bug, never a device state).
    pub fn rollback_range(&mut self, lba: Lba, count: u64) -> Result<(), FtlError> {
        self.unmap(lba, count, |s| &mut s.rolled_back_lbas)
    }

    /// Drops the mapping of every mapped LBA in `lba..lba + count`,
    /// skipping unmapped ones, and bumps the `counter` stat once per
    /// LBA dropped: the shared body of [`Ftl::trim`] and
    /// [`Ftl::rollback_range`].
    fn unmap(
        &mut self,
        lba: Lba,
        count: u64,
        counter: fn(&mut FtlStats) -> &mut u64,
    ) -> Result<(), FtlError> {
        for l in self.lba_range(lba, count)? {
            let entry = self.l2p[l as usize];
            if entry == NONE64 {
                continue;
            }
            self.invalidate_page(Ppa::unpack(entry), l as u32)?;
            self.l2p[l as usize] = NONE64;
            *counter(&mut self.stats) += 1;
        }
        Ok(())
    }

    /// Maps the already-validated `lbas` through `<rg, ruh>`, one run
    /// per stretch that fits the active RU, adding the work to
    /// `receipt`. `next` is the first LBA not yet mapped, so on an
    /// error the caller rolls back exactly `lbas.start..next`.
    fn map_runs(
        &mut self,
        lbas: std::ops::Range<Lba>,
        rg: u16,
        ruh: RuhId,
        receipt: &mut WriteReceipt,
        next: &mut Lba,
    ) -> Result<(), FtlError> {
        let slot = self.slot(rg, ruh);
        let pages = self.config.geometry.pages_per_superblock();
        while *next < lbas.end {
            // Ensure the handle references an RU with space in this group.
            let ru = match self.ruh_active[slot] {
                Some(ru) if !self.nand.is_full(ru) => ru,
                current => {
                    // Close the filled RU (if any) and open a fresh one.
                    if let Some(full) = current {
                        self.close_ru(full);
                    }
                    let (new_ru, gc) = self.open_ru(rg, RuOwner::Host(ruh))?;
                    receipt.gc_ns += gc.0;
                    receipt.relocated_pages += gc.1;
                    self.events.push(FdpEvent::RuSwitched { ruh, old_ru: current, new_ru });
                    self.ruh_switches[ruh as usize] += 1;
                    self.ruh_active[slot] = Some(new_ru);
                    new_ru
                }
            };

            // Program the stretch that fits the RU as one run.
            let first = self.nand.write_ptr(ru);
            let n = (pages - first).min(lbas.end - *next);
            receipt.program_ns += self.nand.program_run(ru, n)?;
            self.stats.host_pages_written += n;
            self.stats.nand_pages_written += n;
            self.ruh_host_pages[ruh as usize] += n;

            // Only now invalidate each previous mapping: a failed
            // allocation above (OutOfSpace at end of life) must leave the
            // old data readable, and the GC triggered above may itself
            // have relocated an old page, so the mapping is read after it
            // ran.
            for page in first..first + n {
                let lba = *next;
                let old = self.l2p[lba as usize];
                if old != NONE64 {
                    self.invalidate_page(Ppa::unpack(old), lba as u32)?;
                    self.stats.overwrites += 1;
                }
                self.l2p[lba as usize] = Ppa::new(ru, page as u32).pack();
                self.p2l[ru as usize][page as usize] = lba as u32;
                *next += 1;
            }
        }
        Ok(())
    }

    /// Clears the reverse-map slot of `ppa`, which must hold `lba`, and
    /// invalidates the page on the media. The reverse map is the only
    /// per-page state, so this is where an invalidate of a page that is
    /// no longer (or never was) `lba`'s copy is caught.
    ///
    /// # Errors
    ///
    /// [`NandError::InvalidateNonValidPage`] if the slot is empty or holds
    /// another LBA, or whatever the media refuses.
    fn invalidate_page(&mut self, ppa: Ppa, lba: u32) -> Result<(), FtlError> {
        let slot = &mut self.p2l[ppa.superblock as usize][ppa.page as usize];
        if *slot != lba {
            return Err(NandError::InvalidateNonValidPage(ppa).into());
        }
        self.nand.invalidate(ppa)?;
        *slot = NONE32;
        Ok(())
    }

    /// Deallocates (trims) `count` LBAs starting at `lba`. Unmapped LBAs
    /// in the range are skipped, matching DSM deallocate semantics.
    ///
    /// # Errors
    ///
    /// [`FtlError::LbaOutOfRange`] if the range exceeds exported capacity.
    pub fn trim(&mut self, lba: Lba, count: u64) -> Result<(), FtlError> {
        self.unmap(lba, count, |s| &mut s.trimmed_lbas)
    }

    /// Deallocates a batch of `(lba, count)` ranges in one call — the
    /// mapping half of a vectored DSM deallocate. Every range is
    /// validated against exported capacity **before** any mapping is
    /// dropped, so an invalid range leaves the batch untouched (stricter
    /// than N sequential [`Ftl::trim`] calls, which complete ranges
    /// independently).
    ///
    /// # Errors
    ///
    /// [`FtlError::LbaOutOfRange`] naming the first LBA past exported
    /// capacity in the first offending range.
    pub fn trim_batch(&mut self, ranges: &[(Lba, u64)]) -> Result<(), FtlError> {
        for &(lba, count) in ranges {
            self.lba_range(lba, count)?;
        }
        for &(lba, count) in ranges {
            self.trim(lba, count)?;
        }
        Ok(())
    }

    /// Closes an active RU (fully programmed) making it a GC candidate.
    fn close_ru(&mut self, ru: u32) {
        debug_assert!(self.nand.is_full(ru));
        self.rus[ru as usize].phase = RuPhase::Closed;
    }

    /// Opens a fresh RU in reclaim group `rg` for `owner`, running GC
    /// first if the group's pool is low (host allocations only; GC
    /// destinations draw directly from the pool to avoid recursion).
    /// Returns the RU plus `(gc_ns, relocated)`.
    fn open_ru(&mut self, rg: u16, owner: RuOwner) -> Result<(u32, (u64, u64)), FtlError> {
        let mut gc_cost = (0u64, 0u64);
        let host_alloc = matches!(owner, RuOwner::Host(_));
        if host_alloc {
            gc_cost = self.ensure_free_space(rg)?;
        }
        // Pop until a healthy RU surfaces; worn-out RUs (a block past its
        // rated P/E cycles) are retired permanently, shrinking capacity —
        // device end of life is reached when the pool empties for good.
        let ru = loop {
            let ru = self.free_rus[rg as usize].pop_front().ok_or(FtlError::OutOfSpace)?;
            debug_assert!(self.rus[ru as usize].phase == RuPhase::Free);
            if !self.nand.is_bad(ru) {
                break ru;
            }
            let pe = self.nand.pe_cycles(ru);
            self.rus[ru as usize] =
                RuInfo { phase: RuPhase::Retired, owner: None, opened_seq: self.seq };
            self.stats.retired_rus += 1;
            self.events.push(FdpEvent::RuRetired { ru, pe_cycles: pe });
            // Retirement consumed a free RU: if the pool is now below
            // threshold, reclaim again before continuing (host path only;
            // GC destinations must not recurse into GC).
            if host_alloc {
                let extra = self.ensure_free_space(rg)?;
                gc_cost.0 += extra.0;
                gc_cost.1 += extra.1;
            }
        };
        self.seq += 1;
        self.rus[ru as usize] =
            RuInfo { phase: RuPhase::Active, owner: Some(owner), opened_seq: self.seq };
        Ok((ru, gc_cost))
    }

    /// Runs GC in reclaim group `rg` until its free pool is back above
    /// the threshold or no progress can be made. Returns accumulated
    /// `(gc_ns, relocated)`.
    fn ensure_free_space(&mut self, rg: u16) -> Result<(u64, u64), FtlError> {
        let threshold = self.config.gc_threshold_rus as usize;
        let mut total = (0u64, 0u64);
        let mut stalls = 0u32;
        while self.free_rus[rg as usize].len() < threshold {
            let before = self.free_rus[rg as usize].len();
            match self.gc_once(rg)? {
                None => break,
                Some((ns, relocated)) => {
                    total.0 += ns;
                    total.1 += relocated;
                }
            }
            if self.free_rus[rg as usize].len() <= before {
                stalls += 1;
                if stalls > self.rus.len() as u32 {
                    break;
                }
            } else {
                stalls = 0;
            }
        }
        Ok(total)
    }

    /// Reclaims one victim RU within reclaim group `rg` (isolation and
    /// data movement are per-group, §3.2.1). Returns `None` if the group
    /// has no candidate.
    fn gc_once(&mut self, rg: u16) -> Result<Option<(u64, u64)>, FtlError> {
        let per_rg = self.config.rus_per_rg();
        let lo = rg as u32 * per_rg;
        let hi = lo + per_rg;
        let Some(victim) = select_victim(
            self.config.gc_policy,
            &self.rus[lo as usize..hi as usize],
            &self.nand,
            lo,
        ) else {
            return Ok(None);
        };
        let victim_owner = self.rus[victim as usize].owner;
        let pages = self.config.geometry.pages_per_superblock();
        let mut gc_ns = 0u64;
        let mut relocated = 0u64;

        // Relocate valid pages.
        if self.nand.valid_pages(victim) > 0 {
            for page in 0..pages {
                let lba = self.p2l[victim as usize][page as usize];
                if lba == NONE32 {
                    continue;
                }
                let src = Ppa::new(victim, page as u32);
                // Read the victim page (costs media time).
                let read_ns = self.nand.read(src)?;
                gc_ns += read_ns;
                // Pick/extend the GC destination (same reclaim group).
                let dest_ru = self.gc_destination(rg, victim_owner)?;
                let dest_page = self.nand.write_ptr(dest_ru);
                let dst = Ppa::new(dest_ru, dest_page as u32);
                let prog_ns = self.nand.program(dst)?;
                gc_ns += prog_ns;
                // Move the mapping.
                self.invalidate_page(src, lba)?;
                self.l2p[lba as usize] = dst.pack();
                self.p2l[dest_ru as usize][dest_page as usize] = lba;
                self.stats.nand_pages_written += 1;
                self.stats.relocated_pages += 1;
                relocated += 1;
                if self.nand.is_full(dest_ru) {
                    self.close_gc_destination(dest_ru);
                }
            }
        }

        // The victim is now fully invalid: erase and return to the pool.
        let erase_ns = self.nand.erase_superblock(victim, false)?;
        gc_ns += erase_ns;
        self.rus[victim as usize] = RuInfo::free();
        self.free_rus[rg as usize].push_back(victim);
        self.stats.gc_runs += 1;
        self.stats.rus_erased += 1;
        self.events.push(FdpEvent::MediaRelocated {
            ru: victim,
            owner: victim_owner.and_then(|o| o.handle()),
            relocated_pages: relocated,
        });
        self.events.push(FdpEvent::RuErased { ru: victim });
        Ok(Some((gc_ns, relocated)))
    }

    /// Returns the active GC destination RU for a victim with the given
    /// owner, opening a new one if needed.
    ///
    /// Isolation semantics (paper §3.2.1):
    /// * Initially isolated: one shared destination — valid data from
    ///   different handles may intermix here.
    /// * Persistently isolated: destination dedicated to the victim's
    ///   handle, so isolation survives GC.
    fn gc_destination(&mut self, rg: u16, victim_owner: Option<RuOwner>) -> Result<u32, FtlError> {
        match self.config.ruh_type {
            RuhType::InitiallyIsolated => {
                if let Some(ru) = self.gc_shared_active[rg as usize] {
                    if !self.nand.is_full(ru) {
                        return Ok(ru);
                    }
                }
                let (ru, _) = self.open_ru(rg, RuOwner::GcShared)?;
                self.gc_shared_active[rg as usize] = Some(ru);
                Ok(ru)
            }
            RuhType::PersistentlyIsolated => {
                // A victim under persistent isolation always has a single
                // originating handle; GC-shared victims cannot exist.
                let handle = victim_owner.and_then(|o| o.handle()).unwrap_or(crate::DEFAULT_RUH);
                let idx = self.slot(rg, handle);
                if let Some(ru) = self.gc_iso_active[idx] {
                    if !self.nand.is_full(ru) {
                        return Ok(ru);
                    }
                }
                let (ru, _) = self.open_ru(rg, RuOwner::GcIsolated(handle))?;
                self.gc_iso_active[idx] = Some(ru);
                Ok(ru)
            }
        }
    }

    /// Closes a filled GC destination RU.
    fn close_gc_destination(&mut self, ru: u32) {
        self.close_ru(ru);
        for slot in &mut self.gc_shared_active {
            if *slot == Some(ru) {
                *slot = None;
            }
        }
        for slot in &mut self.gc_iso_active {
            if *slot == Some(ru) {
                *slot = None;
            }
        }
    }

    /// Drops the forward map and re-derives it from the per-RU reverse
    /// maps — the simulator's stand-in for the out-of-band LBA stamps a
    /// real FTL scans after power loss (a set slot is a valid page).
    /// Returns the number of pages visited.
    fn rebuild_l2p_from_media(&mut self) -> u64 {
        for e in self.l2p.iter_mut() {
            *e = NONE64;
        }
        let pages = self.config.geometry.pages_per_superblock();
        let mut scanned = 0u64;
        for ru in 0..self.rus.len() as u32 {
            for page in 0..pages {
                scanned += 1;
                let lba = self.p2l[ru as usize][page as usize];
                if lba != NONE32 {
                    self.l2p[lba as usize] = Ppa::new(ru, page as u32).pack();
                }
            }
        }
        scanned
    }

    /// Reconstructs the L2P mapping after a crash and returns the
    /// simulated time it cost (ns).
    ///
    /// The map is rebuilt from media ground truth: every page's
    /// out-of-band metadata is scanned (the reverse maps stand in for
    /// the per-page LBA stamps), so the charge is one out-of-band read
    /// per physical page, whatever happened since the last recovery.
    pub fn recover_mapping(&mut self) -> u64 {
        let before = cfg!(debug_assertions).then(|| self.l2p.clone());
        let scanned = self.rebuild_l2p_from_media();
        debug_assert!(
            before.is_none_or(|b| b == self.l2p),
            "media rebuild must reproduce the pre-crash mapping"
        );
        // Out-of-band metadata reads touch a fraction of a page.
        scanned * (self.config.latency.read_ns / 4)
    }

    /// Exhaustive consistency check, used by tests and property tests.
    ///
    /// Verifies the invariants listed in DESIGN.md §8: L2P ↔ P2L
    /// bijectivity, per-RU valid-page accounting against the reverse
    /// map, free-pool sanity and the write-amplification identity.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on any violated invariant. Never call
    /// on hot paths.
    pub fn check_invariants(&self) {
        // 1. Every mapped LBA points below its RU's write pointer at a
        //    reverse-map slot that points back.
        let mut mapped = 0u64;
        for (lba, &entry) in self.l2p.iter().enumerate() {
            if entry == NONE64 {
                continue;
            }
            mapped += 1;
            let ppa = Ppa::unpack(entry);
            assert!(
                (ppa.page as u64) < self.nand.write_ptr(ppa.superblock),
                "lba {lba} maps to unprogrammed page {ppa:?}"
            );
            assert_eq!(
                self.p2l[ppa.superblock as usize][ppa.page as usize], lba as u32,
                "reverse map mismatch at {ppa:?}"
            );
        }
        // 2. Each RU's set reverse-map slots number exactly its valid
        //    pages, and all of them together number the mapped LBAs, so
        //    the slots check 1 reached are the only set ones.
        for (ru, slots) in self.p2l.iter().enumerate() {
            let set = slots.iter().filter(|&&lba| lba != NONE32).count() as u64;
            assert_eq!(
                set,
                self.nand.valid_pages(ru as u32),
                "RU {ru}: reverse-map entries != valid pages"
            );
        }
        assert_eq!(self.nand.total_valid_pages(), mapped, "valid pages != mapped LBAs");
        // 3. Free pools hold erased, Free-phase RUs of their own group,
        //    no duplicates. An erased RU counts no valid pages, so check
        //    2 has already found its reverse map empty.
        let mut seen = vec![false; self.rus.len()];
        for (rg, pool) in self.free_rus.iter().enumerate() {
            for &ru in pool {
                assert!(!seen[ru as usize], "duplicate RU {ru} in free pools");
                seen[ru as usize] = true;
                assert_eq!(self.rg_of(ru) as usize, rg, "RU {ru} pooled in wrong RG {rg}");
                assert_eq!(self.rus[ru as usize].phase, RuPhase::Free, "pool RU {ru} not Free");
                assert_eq!(self.nand.write_ptr(ru), 0, "pool RU {ru} not erased");
            }
        }
        // 4. Write-amplification identity.
        assert_eq!(
            self.stats.nand_pages_written,
            self.stats.host_pages_written + self.stats.relocated_pages,
            "nand writes != host + relocated"
        );
        // 5. DLWA is always >= 1.
        assert!(self.stats.dlwa() >= 1.0, "DLWA below 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcPolicy;

    fn ftl() -> Ftl {
        Ftl::new(FtlConfig::tiny_test()).unwrap()
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut f = ftl();
        f.write(5, 0).unwrap();
        assert!(f.is_mapped(5));
        f.read(5).unwrap();
        assert_eq!(f.stats().host_reads, 1);
        f.check_invariants();
    }

    #[test]
    fn read_unmapped_fails() {
        let mut f = ftl();
        assert!(matches!(f.read(3), Err(FtlError::Unmapped(3))));
        assert!(matches!(f.read(1 << 40), Err(FtlError::LbaOutOfRange(_))));
    }

    #[test]
    fn invalid_ruh_rejected() {
        let mut f = ftl();
        let bad = f.config().num_ruhs;
        assert!(matches!(f.write(0, bad), Err(FtlError::InvalidRuh(_))));
    }

    #[test]
    fn overwrite_invalidates_previous_page() {
        let mut f = ftl();
        f.write(1, 0).unwrap();
        f.write(1, 0).unwrap();
        assert_eq!(f.stats().overwrites, 1);
        assert_eq!(f.mapped_lbas(), 1);
        f.check_invariants();
    }

    #[test]
    fn trim_unmaps() {
        let mut f = ftl();
        f.write(0, 0).unwrap();
        f.write(1, 0).unwrap();
        f.trim(0, 2).unwrap();
        assert!(!f.is_mapped(0));
        assert!(!f.is_mapped(1));
        assert_eq!(f.stats().trimmed_lbas, 2);
        // Trimming unmapped LBAs is a no-op.
        f.trim(0, 2).unwrap();
        assert_eq!(f.stats().trimmed_lbas, 2);
        f.check_invariants();
    }

    #[test]
    fn trim_out_of_range_fails() {
        let mut f = ftl();
        let n = f.exported_lbas();
        assert!(f.trim(n - 1, 2).is_err());
        assert!(f.trim(0, n).is_ok());
    }

    #[test]
    fn sequential_overwrite_reaches_dlwa_one() {
        // LOC-like pattern: sequentially overwrite the whole exported
        // space several times. Every RU becomes fully invalid before GC
        // needs it, so DLWA must stay exactly 1.
        let mut f = ftl();
        let n = f.exported_lbas();
        for _round in 0..6 {
            for lba in 0..n {
                f.write(lba, 0).unwrap();
            }
        }
        let s = f.stats();
        assert_eq!(s.relocated_pages, 0, "sequential overwrite must not relocate");
        assert!((s.dlwa() - 1.0).abs() < 1e-9);
        f.check_invariants();
    }

    #[test]
    fn random_overwrite_amplifies() {
        // SOC-like pattern over the full exported space: GC must relocate
        // and DLWA must exceed 1.
        let mut f = ftl();
        let n = f.exported_lbas();
        let mut x = 0x12345678u64;
        for _ in 0..(n * 8) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f.write(x % n, 0).unwrap();
        }
        assert!(f.stats().dlwa() > 1.05, "dlwa = {}", f.stats().dlwa());
        assert!(f.stats().relocated_pages > 0);
        f.check_invariants();
    }

    #[test]
    fn isolation_reduces_dlwa_for_mixed_pattern() {
        // The paper's core claim in miniature: a hot random stream mixed
        // with a cold sequential stream amplifies less when segregated
        // into two RUHs.
        fn run(segregated: bool) -> f64 {
            let mut f = Ftl::new(FtlConfig::tiny_test()).unwrap();
            let n = f.exported_lbas();
            let hot = n / 8; // small hot region (SOC-like)
            let hot_ruh = 0u8;
            let cold_ruh = if segregated { 1u8 } else { 0u8 };
            let mut x = 0xDEADBEEFu64;
            let mut cold_next = hot;
            for i in 0..(n * 10) {
                if i % 4 == 0 {
                    // Cold sequential stream over the rest of the space.
                    f.write(cold_next, cold_ruh).unwrap();
                    cold_next += 1;
                    if cold_next >= n {
                        cold_next = hot;
                    }
                } else {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    f.write(x % hot, hot_ruh).unwrap();
                }
            }
            f.check_invariants();
            f.stats().dlwa()
        }
        let mixed = run(false);
        let isolated = run(true);
        assert!(
            isolated < mixed,
            "segregation should lower DLWA: isolated={isolated:.3} mixed={mixed:.3}"
        );
    }

    #[test]
    fn ru_switch_events_are_logged() {
        let mut f = ftl();
        let per_ru = f.config().geometry.pages_per_superblock();
        for lba in 0..per_ru + 1 {
            f.write(lba, 0).unwrap();
        }
        let events = f.events_mut().drain();
        let switches = events.iter().filter(|e| matches!(e, FdpEvent::RuSwitched { .. })).count();
        assert!(switches >= 2, "expected at least two RU switches, got {switches}");
    }

    #[test]
    fn gc_emits_media_relocated_events() {
        let mut f = ftl();
        let n = f.exported_lbas();
        let mut x = 99u64;
        for _ in 0..(n * 6) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f.write(x % n, 0).unwrap();
        }
        let relocations =
            f.events().iter().filter(|e| matches!(e, FdpEvent::MediaRelocated { .. })).count()
                as u64
                + f.events().dropped();
        assert!(relocations > 0);
        assert!(f.stats().gc_runs > 0);
    }

    #[test]
    fn fifo_gc_policy_also_converges() {
        let mut cfg = FtlConfig::tiny_test();
        cfg.gc_policy = GcPolicy::Fifo;
        let mut f = Ftl::new(cfg).unwrap();
        let n = f.exported_lbas();
        let mut x = 7u64;
        for _ in 0..(n * 6) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f.write(x % n, 0).unwrap();
        }
        assert!(f.stats().dlwa() >= 1.0);
        f.check_invariants();
    }

    #[test]
    fn persistent_isolation_never_mixes_handles() {
        let mut cfg = FtlConfig::tiny_test();
        cfg.ruh_type = RuhType::PersistentlyIsolated;
        let mut f = Ftl::new(cfg).unwrap();
        let n = f.exported_lbas();
        let half = n / 2;
        let mut x = 3u64;
        for _ in 0..(n * 8) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(2) {
                f.write(x % half, 0).unwrap();
            } else {
                f.write(half + (x % half), 1).unwrap();
            }
        }
        f.check_invariants();
        // Every RU's pages must belong to LBAs of a single handle's range.
        for ru in 0..f.config().geometry.superblocks() {
            let mut sides = [false, false];
            for &lba in &f.p2l[ru as usize] {
                if lba == NONE32 {
                    continue;
                }
                sides[if (lba as u64) < half { 0 } else { 1 }] = true;
            }
            assert!(
                !(sides[0] && sides[1]),
                "RU {ru} mixes data from two persistently isolated handles"
            );
        }
    }

    #[test]
    fn ruh_available_pages_decreases_with_writes() {
        let mut f = ftl();
        assert_eq!(f.ruh_available_pages(0), 0, "no active RU yet");
        f.write(0, 0).unwrap();
        let avail = f.ruh_available_pages(0);
        assert_eq!(avail, f.config().geometry.pages_per_superblock() - 1);
        f.write(1, 0).unwrap();
        assert_eq!(f.ruh_available_pages(0), avail - 1);
    }

    #[test]
    fn write_receipt_reports_gc_work() {
        let mut f = ftl();
        let n = f.exported_lbas();
        let mut saw_gc = false;
        let mut x = 11u64;
        for _ in 0..(n * 6) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let r = f.write(x % n, 0).unwrap();
            if r.relocated_pages > 0 {
                saw_gc = true;
                assert!(r.gc_ns > 0 || f.config().latency.program_ns == 0);
            }
        }
        assert!(saw_gc, "random fill should have triggered GC with relocation");
    }

    #[test]
    fn full_trim_resets_to_dlwa_one_behaviour() {
        let mut f = ftl();
        let n = f.exported_lbas();
        let mut x = 5u64;
        for _ in 0..(n * 4) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f.write(x % n, 0).unwrap();
        }
        f.trim(0, n).unwrap();
        assert_eq!(f.mapped_lbas(), 0);
        f.check_invariants();
        // Sequential refill after a full trim must not relocate anything
        // beyond what pre-trim GC debt requires.
        let before = f.stats().relocated_pages;
        for lba in 0..n {
            f.write(lba, 0).unwrap();
        }
        for lba in 0..n {
            f.write(lba, 0).unwrap();
        }
        let relocated_after = f.stats().relocated_pages - before;
        assert_eq!(relocated_after, 0, "sequential writes after full trim relocated pages");
    }

    #[test]
    fn worn_out_device_reaches_end_of_life() {
        // A tiny endurance budget: the device must retire RUs as their
        // blocks hit the P/E limit and eventually report OutOfSpace —
        // the wear-out lifetime that Theorem 2's carbon model amortizes.
        let mut cfg = FtlConfig::tiny_test();
        cfg.pe_limit = 8;
        let mut f = Ftl::new(cfg).unwrap();
        let n = f.exported_lbas();
        let mut x = 123u64;
        let mut died = false;
        for _ in 0..(n * 200) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match f.write(x % n, 0) {
                Ok(_) => {}
                Err(FtlError::OutOfSpace) => {
                    died = true;
                    break;
                }
                Err(e) => panic!("unexpected error before wear-out: {e:?}"),
            }
        }
        assert!(died, "device should wear out within 200 full overwrites at pe_limit 8");
        assert!(f.stats().retired_rus > 0, "death requires retired RUs");
        let retired_events =
            f.events().iter().filter(|e| matches!(e, FdpEvent::RuRetired { .. })).count() as u64
                + f.events().dropped();
        assert!(retired_events > 0);
    }

    #[test]
    fn lifetime_scales_with_write_amplification() {
        // Sequential overwrites (DLWA 1) must survive strictly more host
        // writes than random overwrites (DLWA > 1) on the same endurance
        // budget — the mechanism behind the paper's lifetime claims.
        fn host_pages_until_death(random: bool) -> u64 {
            let mut cfg = FtlConfig::tiny_test();
            cfg.pe_limit = 10;
            let mut f = Ftl::new(cfg).unwrap();
            let n = f.exported_lbas();
            let mut x = 9u64;
            let mut next = 0u64;
            loop {
                let lba = if random {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % n
                } else {
                    let l = next;
                    next = (next + 1) % n;
                    l
                };
                match f.write(lba, 0) {
                    Ok(_) => {}
                    Err(FtlError::OutOfSpace) => return f.stats().host_pages_written,
                    Err(e) => panic!("unexpected: {e:?}"),
                }
            }
        }
        let sequential = host_pages_until_death(false);
        let random = host_pages_until_death(true);
        assert!(
            sequential > random,
            "sequential TBW {sequential} should exceed random TBW {random}"
        );
    }

    #[test]
    fn reclaim_groups_partition_the_device() {
        let mut cfg = FtlConfig::tiny_test();
        cfg.num_rgs = 2;
        let mut f = Ftl::new(cfg).unwrap();
        let per_rg = f.config().rus_per_rg();
        let n = f.exported_lbas();
        // Interleave writes into both groups through the same handle.
        for lba in 0..n / 2 {
            f.write_placed(lba, 0, 0).unwrap();
            f.write_placed(n / 2 + lba, 1, 0).unwrap();
        }
        f.check_invariants();
        // Every mapped page of group-0 LBAs lives in a group-0 RU.
        for lba in 0..n / 2 {
            let ppa = Ppa::unpack(f.l2p[lba as usize]);
            assert!(ppa.superblock < per_rg, "rg0 data in RU {}", ppa.superblock);
            let ppa2 = Ppa::unpack(f.l2p[(n / 2 + lba) as usize]);
            assert!(ppa2.superblock >= per_rg, "rg1 data in RU {}", ppa2.superblock);
        }
    }

    #[test]
    fn gc_is_confined_to_the_reclaim_group() {
        // Churn group 0 hard while group 1 holds cold data: relocation
        // and erasure must never touch group 1's RUs.
        let mut cfg = FtlConfig::tiny_test();
        cfg.num_rgs = 2;
        let mut f = Ftl::new(cfg).unwrap();
        let per_rg = f.config().rus_per_rg();
        let n = f.exported_lbas();
        let hot = n / 4;
        for lba in 0..hot {
            f.write_placed(n / 2 + lba, 1, 1).unwrap(); // cold, group 1
        }
        let cold_snapshot: Vec<u64> = (0..hot).map(|l| f.l2p[(n / 2 + l) as usize]).collect();
        let mut x = 77u64;
        for _ in 0..n * 6 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f.write_placed(x % hot, 0, 0).unwrap(); // hot churn, group 0
        }
        f.check_invariants();
        assert!(f.stats().gc_runs > 0, "churn must have triggered GC");
        for (i, &packed) in cold_snapshot.iter().enumerate() {
            assert_eq!(
                f.l2p[(n / 2 + i as u64) as usize],
                packed,
                "cold page {i} moved despite living in the idle reclaim group"
            );
        }
        // And the churned data never crossed into group 1.
        for l in 0..hot {
            let ppa = Ppa::unpack(f.l2p[l as usize]);
            assert!(ppa.superblock < per_rg);
        }
    }

    #[test]
    fn invalid_rg_rejected() {
        let mut f = ftl();
        assert!(matches!(f.write_placed(0, 9, 0), Err(FtlError::InvalidRg(9))));
    }

    #[test]
    fn ruh_references_one_ru_per_group() {
        let mut cfg = FtlConfig::tiny_test();
        cfg.num_rgs = 2;
        let mut f = Ftl::new(cfg).unwrap();
        f.write_placed(0, 0, 2).unwrap();
        f.write_placed(1, 1, 2).unwrap();
        // The same handle has independent available-space counters per
        // group (one active RU in each).
        let pages = f.config().geometry.pages_per_superblock();
        assert_eq!(f.ruh_available_pages_in(0, 2), pages - 1);
        assert_eq!(f.ruh_available_pages_in(1, 2), pages - 1);
        assert_eq!(f.ruh_available_pages_in(2, 2), 0, "unknown group");
    }

    #[test]
    fn batch_mapping_is_bit_identical_to_sequential() {
        // Drive both FTLs well past GC onset with interleaved batch
        // sizes, one in five batches up to two RUs long so a run meets
        // an RU switch, and GC, inside one batch. Every observable
        // (receipts, events, stats, both maps, per-handle counters and
        // the latency sampler's position) must match the per-command
        // path exactly. Real latencies, so receipts carry samples.
        let config =
            FtlConfig { latency: fdpcache_nand::LatencyModel::default(), ..FtlConfig::tiny_test() };
        let mut batched = Ftl::new(config.clone()).unwrap();
        let mut sequential = Ftl::new(config).unwrap();
        let n = batched.exported_lbas();
        let pages = batched.config().geometry.pages_per_superblock();
        let mut x = 0xFEED_BEEFu64;
        let mut long_batches_with_gc = 0;
        for round in 0..(n / 2) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let count = if round % 5 == 4 { 1 + x % (2 * pages) } else { 1 + (round % 7) };
            let slba = x % (n - count);
            let gc_runs = batched.stats().gc_runs;
            let b = batched.write_placed_batch(slba, count, 0, 1).unwrap();
            let mut s = WriteReceipt::default();
            for lba in slba..slba + count {
                let r = sequential.write_placed(lba, 0, 1).unwrap();
                s.program_ns += r.program_ns;
                s.gc_ns += r.gc_ns;
                s.relocated_pages += r.relocated_pages;
            }
            assert_eq!(b, s, "receipt diverged at round {round}");
            assert_eq!(
                batched.events_mut().drain(),
                sequential.events_mut().drain(),
                "events diverged at round {round}"
            );
            if count > pages && batched.stats().gc_runs > gc_runs {
                long_batches_with_gc += 1;
            }
        }
        assert!(long_batches_with_gc > 0, "no batch crossed an RU switch that ran GC");
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(batched.nand_stats(), sequential.nand_stats());
        assert_eq!(batched.l2p, sequential.l2p);
        assert_eq!(batched.p2l, sequential.p2l);
        assert_eq!(batched.ruh_switches(), sequential.ruh_switches());
        assert_eq!(batched.ruh_host_pages(), sequential.ruh_host_pages());
        assert_eq!(batched.events().dropped(), sequential.events().dropped());
        let next = |f: &mut Ftl| f.write_placed(0, 0, 1).unwrap().program_ns;
        assert_eq!(next(&mut batched), next(&mut sequential), "the samplers drifted apart");
        batched.check_invariants();
    }

    #[test]
    fn batch_mapping_validates_before_mapping() {
        let mut f = ftl();
        let n = f.exported_lbas();
        assert!(matches!(f.write_placed_batch(n - 1, 2, 0, 0), Err(FtlError::LbaOutOfRange(_))));
        assert_eq!(f.mapped_lbas(), 0, "failed validation must not map a prefix");
        let bad_ruh = f.config().num_ruhs;
        assert!(matches!(f.write_placed_batch(0, 2, 0, bad_ruh), Err(FtlError::InvalidRuh(_))));
        assert!(matches!(f.write_placed_batch(0, 2, 9, 0), Err(FtlError::InvalidRg(9))));
    }

    #[test]
    fn rollback_range_unmaps_and_accounts_separately() {
        let mut f = ftl();
        f.write(0, 0).unwrap();
        f.write(1, 0).unwrap();
        f.rollback_range(0, 4).unwrap(); // unmapped tail LBAs are skipped
        assert!(!f.is_mapped(0) && !f.is_mapped(1));
        assert_eq!(f.stats().rolled_back_lbas, 2);
        assert_eq!(f.stats().trimmed_lbas, 0, "rollback must not count as host trim");
        // WA identity survives: the programs still happened.
        assert_eq!(
            f.stats().nand_pages_written,
            f.stats().host_pages_written + f.stats().relocated_pages
        );
        f.check_invariants();
        assert!(f.rollback_range(f.exported_lbas(), 1).is_err());
    }

    #[test]
    fn mid_batch_failure_rolls_back_the_mapped_prefix() {
        // Wear devices out with short (4-LBA) batches and, one in 32, a
        // batch longer than an RU: once OutOfSpace fires inside a
        // multi-LBA batch, the batch's mapped prefix must be unmapped.
        // Across the seeds, failures land both in a batch's first run
        // (nothing mapped yet) and in a long batch past a mapped run.
        let (mut empty_prefix, mut mid_run) = (false, false);
        for seed in [41u64, 7, 1729, 99] {
            let mut cfg = FtlConfig::tiny_test();
            cfg.pe_limit = 8;
            let mut f = Ftl::new(cfg).unwrap();
            let n = f.exported_lbas();
            let pages = f.config().geometry.pages_per_superblock();
            let mut x = seed;
            let mut failed = None;
            for i in 0..(n * 400) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let count = if i % 32 == 0 { pages + 1 + x % pages } else { 4 };
                let slba = x % (n - count);
                let before: Vec<u64> = (slba..slba + count).map(|l| f.l2p[l as usize]).collect();
                match f.write_placed_batch(slba, count, 0, 0) {
                    Ok(_) => {}
                    Err(FtlError::OutOfSpace) => {
                        failed = Some((slba, count, before));
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e:?}"),
                }
            }
            let (slba, count, before) = failed.expect("device should wear out");
            // No partially-applied mapping: the mapped prefix of the
            // failed batch is rolled back (unmapped), and every LBA past
            // it keeps its pre-batch data — at its old page, or at the
            // copy GC made while the batch ran — never a new mapping
            // from the batch.
            let prefix = f.stats().rolled_back_lbas as usize;
            if count > pages {
                assert!(prefix > 0, "seed {seed}: a long batch failed before any run was mapped");
                mid_run = true;
            }
            empty_prefix |= prefix == 0;
            for (i, lba) in (slba..slba + count).enumerate() {
                let entry = f.l2p[lba as usize];
                if i < prefix {
                    assert_eq!(entry, NONE64, "LBA {lba} of the mapped prefix is still mapped");
                    continue;
                }
                // GC's copy of this LBA: a page of a GC RU that maps
                // back to it, with the pre-batch page no longer its copy.
                let relocated = |e: u64| {
                    let (to, from) = (Ppa::unpack(e), Ppa::unpack(before[i]));
                    matches!(f.rus[to.superblock as usize].owner, Some(RuOwner::GcShared))
                        && f.p2l[to.superblock as usize][to.page as usize] == lba as u32
                        && f.p2l[from.superblock as usize][from.page as usize] != lba as u32
                };
                assert!(
                    entry == before[i] || (before[i] != NONE64 && relocated(entry)),
                    "seed {seed}: failed batch left a new mapping at LBA {lba}"
                );
            }
            f.check_invariants();
        }
        assert!(empty_prefix, "no failure landed in a batch's first run");
        assert!(mid_run, "no failure landed in a long batch past a mapped run");
    }

    #[test]
    fn trim_batch_is_all_or_nothing_on_validation() {
        let mut f = ftl();
        let n = f.exported_lbas();
        f.write(0, 0).unwrap();
        f.write(1, 0).unwrap();
        // One valid + one out-of-range: nothing may be trimmed.
        assert!(f.trim_batch(&[(0, 2), (n - 1, 2)]).is_err());
        assert!(f.is_mapped(0) && f.is_mapped(1));
        f.trim_batch(&[(0, 1), (1, 1)]).unwrap();
        assert!(!f.is_mapped(0) && !f.is_mapped(1));
        f.check_invariants();
    }

    #[test]
    fn recover_mapping_charges_one_full_scan() {
        // tiny_test's NAND costs nothing; price the scan with real timings.
        let config =
            FtlConfig { latency: fdpcache_nand::LatencyModel::default(), ..FtlConfig::tiny_test() };
        let scan_ns = config.geometry.total_pages() * (config.latency.read_ns / 4);
        assert!(scan_ns > 0);
        let mut f = Ftl::new(config).unwrap();
        let n = f.exported_lbas();
        let mut x = 17u64;
        let mut churn = |f: &mut Ftl| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f.write(x % n, 0).unwrap();
        };
        for _ in 0..(n * 4) {
            churn(&mut f);
        }
        let l2p = f.l2p.clone();
        assert_eq!(f.recover_mapping(), scan_ns, "one OOB read per physical page");
        assert_eq!(f.l2p, l2p, "recovery must reproduce the mapping");
        f.check_invariants();
        // An overflowed event ring changes nothing: no journal is read.
        while f.events().dropped() == 0 {
            churn(&mut f);
        }
        let l2p = f.l2p.clone();
        assert_eq!(f.recover_mapping(), scan_ns);
        assert_eq!(f.l2p, l2p);
        f.check_invariants();
    }

    #[test]
    #[should_panic(expected = "reverse-map entries != valid pages")]
    fn check_invariants_counts_reverse_map_per_ru() {
        let mut f = ftl();
        f.write(0, 0).unwrap();
        f.write(0, 0).unwrap(); // page 0 is now stale, its slot cleared
        let ru = Ppa::unpack(f.l2p[0]).superblock;
        f.p2l[ru as usize][0] = 5; // a stale page claims an LBA again
        f.check_invariants();
    }

    #[test]
    fn invalidate_rejects_a_cleared_or_foreign_slot() {
        let mut f = ftl();
        f.write(0, 0).unwrap();
        f.write(1, 0).unwrap();
        let ppa = Ppa::unpack(f.l2p[0]);
        let refused = Err(FtlError::Nand(NandError::InvalidateNonValidPage(ppa)));
        assert_eq!(f.invalidate_page(ppa, 1), refused, "slot holds LBA 0, not 1");
        f.invalidate_page(ppa, 0).unwrap();
        // The media still counts LBA 1's page, so only the cleared slot
        // can tell this second invalidate from a legal one.
        assert_eq!(f.invalidate_page(ppa, 0), refused);
        assert_eq!(f.nand.valid_pages(ppa.superblock), 1);
    }

    #[test]
    fn host_pages_attributed_per_ruh() {
        let mut f = ftl();
        f.write(0, 0).unwrap();
        f.write(1, 1).unwrap();
        f.write(2, 1).unwrap();
        assert_eq!(f.ruh_host_pages()[0], 1);
        assert_eq!(f.ruh_host_pages()[1], 2);
    }
}
