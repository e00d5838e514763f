//! The whole-device NAND model: one record per superblock plus counters,
//! latency and wear tracking.

use crate::error::NandError;
use crate::geometry::Geometry;
use crate::latency::{LatencyModel, LatencySampler};
use crate::page::Ppa;
use crate::stats::NandStats;

/// Summary of wear across the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearSummary {
    /// Minimum P/E cycles across superblocks.
    pub min_pe: u32,
    /// Maximum P/E cycles across superblocks.
    pub max_pe: u32,
    /// Mean P/E cycles across superblocks.
    pub mean_pe: f64,
    /// Superblocks worn past their rated endurance.
    pub bad_superblocks: u32,
}

/// Media state of one superblock. Its erase blocks program in order and
/// erase together, so one write pointer, one valid count and one P/E
/// count describe every lane.
#[derive(Debug, Clone, Copy, Default)]
struct SuperblockState {
    /// Pages programmed since the last erase; pages at or past it are free.
    write_ptr: u64,
    /// Programmed pages not yet invalidated.
    valid: u64,
    pe_cycles: u32,
    bad: bool,
}

/// The full NAND device: geometry plus every superblock's state.
///
/// All mutation goes through `program` / `invalidate` / `erase_superblock`
/// so the [`NandStats`] counters are always consistent with media state.
/// Each operation also returns its sampled latency in nanoseconds, which
/// the NVMe layer accumulates onto its virtual clock.
///
/// The device knows *how many* pages of a superblock are valid, not
/// *which*: the FTL's reverse map is the per-page truth, and it names the
/// page it invalidates.
#[derive(Debug)]
pub struct NandDevice {
    geometry: Geometry,
    pe_limit: u32,
    superblocks: Vec<SuperblockState>,
    stats: NandStats,
    sampler: LatencySampler,
}

impl NandDevice {
    /// Creates a device with the given geometry, endurance limit and
    /// latency model. `seed` drives latency jitter deterministically.
    pub fn new(geometry: Geometry, pe_limit: u32, latency: LatencyModel, seed: u64) -> Self {
        NandDevice {
            geometry,
            pe_limit,
            superblocks: vec![SuperblockState::default(); geometry.superblocks() as usize],
            stats: NandStats::default(),
            sampler: LatencySampler::new(latency, seed),
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> NandStats {
        self.stats
    }

    /// The superblock holding `ppa`, after checking both coordinates.
    fn superblock_at(&mut self, ppa: Ppa) -> Result<&mut SuperblockState, NandError> {
        let pages = self.geometry.pages_per_superblock();
        let sb = self
            .superblocks
            .get_mut(ppa.superblock as usize)
            .ok_or(NandError::SuperblockOutOfRange(ppa.superblock))?;
        if ppa.page as u64 >= pages {
            return Err(NandError::OutOfRange(ppa));
        }
        Ok(sb)
    }

    /// Programs the page at `ppa` (must be the next in-order page of its
    /// superblock). Returns the program latency in nanoseconds.
    pub fn program(&mut self, ppa: Ppa) -> Result<u64, NandError> {
        let sb = self.superblock_at(ppa)?;
        if ppa.page as u64 != sb.write_ptr {
            return Err(NandError::ProgramOutOfOrder {
                requested: ppa,
                expected_page: sb.write_ptr as u32,
            });
        }
        self.program_run(ppa.superblock, 1)
    }

    /// Programs the next `n` pages of superblock `sb`, from its write
    /// pointer on: `n` [`NandDevice::program`] calls in one, drawing the
    /// same `n` program samples in page order. Returns their summed
    /// latency in nanoseconds. Nothing changes on an error.
    ///
    /// # Errors
    ///
    /// [`NandError::SuperblockOutOfRange`], [`NandError::OutOfRange`]
    /// naming the first page past the superblock when the run does not
    /// fit, or [`NandError::BlockWornOut`].
    pub fn program_run(&mut self, sb: u32, n: u64) -> Result<u64, NandError> {
        let pages = self.geometry.pages_per_superblock();
        let s = self.superblocks.get_mut(sb as usize).ok_or(NandError::SuperblockOutOfRange(sb))?;
        if s.write_ptr + n > pages {
            return Err(NandError::OutOfRange(Ppa::new(sb, pages as u32)));
        }
        if s.bad {
            return Err(NandError::BlockWornOut { superblock: sb, pe_cycles: s.pe_cycles });
        }
        s.write_ptr += n;
        s.valid += n;
        self.stats.pages_programmed += n;
        Ok((0..n).map(|_| self.sampler.program()).sum())
    }

    /// Invalidates the page at `ppa`. Invalidation is a metadata update in
    /// real devices; it costs no media latency.
    ///
    /// The page must lie below the write pointer of a superblock that
    /// still counts valid pages; telling a valid page from an already
    /// invalidated one is the caller's reverse map's job.
    pub fn invalidate(&mut self, ppa: Ppa) -> Result<(), NandError> {
        let sb = self.superblock_at(ppa)?;
        if ppa.page as u64 >= sb.write_ptr || sb.valid == 0 {
            return Err(NandError::InvalidateNonValidPage(ppa));
        }
        sb.valid -= 1;
        Ok(())
    }

    /// Reads the page at `ppa`, returning the read latency. Any page below
    /// the write pointer reads, valid or not (GC relocation reads pages
    /// that may be concurrently invalidated in real devices).
    pub fn read(&mut self, ppa: Ppa) -> Result<u64, NandError> {
        let sb = self.superblock_at(ppa)?;
        if ppa.page as u64 >= sb.write_ptr {
            return Err(NandError::ReadFreePage(ppa));
        }
        self.stats.pages_read += 1;
        Ok(self.sampler.read())
    }

    /// Erases superblock `sb`, returning the erase latency in nanoseconds.
    ///
    /// Lanes erase in parallel on real hardware, so latency is one erase
    /// time rather than `lanes ×` it. Fails without `force` if valid pages
    /// remain. On reaching the endurance limit the superblock is marked
    /// bad *after* this erase completes (the final cycle still succeeds,
    /// matching how endurance ratings are specified).
    pub fn erase_superblock(&mut self, sb: u32, force: bool) -> Result<u64, NandError> {
        let pe_limit = self.pe_limit;
        let s = self.superblocks.get_mut(sb as usize).ok_or(NandError::SuperblockOutOfRange(sb))?;
        if s.valid > 0 && !force {
            return Err(NandError::EraseWithValidPages { superblock: sb, valid_pages: s.valid });
        }
        if s.bad {
            return Err(NandError::BlockWornOut { superblock: sb, pe_cycles: s.pe_cycles });
        }
        s.write_ptr = 0;
        s.valid = 0;
        s.pe_cycles += 1;
        s.bad = s.pe_cycles >= pe_limit;
        self.stats.superblock_erases += 1;
        Ok(self.sampler.erase())
    }

    /// Valid-page count of superblock `sb` (0 if out of range).
    pub fn valid_pages(&self, sb: u32) -> u64 {
        self.superblocks.get(sb as usize).map_or(0, |s| s.valid)
    }

    /// Write pointer (pages programmed) of superblock `sb`.
    pub fn write_ptr(&self, sb: u32) -> u64 {
        self.superblocks.get(sb as usize).map_or(0, |s| s.write_ptr)
    }

    /// Whether superblock `sb` is fully programmed.
    pub fn is_full(&self, sb: u32) -> bool {
        self.superblocks
            .get(sb as usize)
            .is_some_and(|s| s.write_ptr == self.geometry.pages_per_superblock())
    }

    /// Whether superblock `sb` is worn past its rated endurance.
    pub fn is_bad(&self, sb: u32) -> bool {
        self.superblocks.get(sb as usize).is_some_and(|s| s.bad)
    }

    /// P/E cycles superblock `sb` has consumed (0 if out of range).
    pub fn pe_cycles(&self, sb: u32) -> u32 {
        self.superblocks.get(sb as usize).map_or(0, |s| s.pe_cycles)
    }

    /// Total valid pages across the device.
    pub fn total_valid_pages(&self) -> u64 {
        self.superblocks.iter().map(|s| s.valid).sum()
    }

    /// Wear summary across all superblocks.
    pub fn wear_summary(&self) -> WearSummary {
        let mut min_pe = u32::MAX;
        let mut max_pe = 0u32;
        let mut sum = 0u64;
        let mut bad = 0u32;
        for s in &self.superblocks {
            min_pe = min_pe.min(s.pe_cycles);
            max_pe = max_pe.max(s.pe_cycles);
            sum += s.pe_cycles as u64;
            if s.bad {
                bad += 1;
            }
        }
        let n = self.superblocks.len().max(1) as f64;
        WearSummary {
            min_pe: if self.superblocks.is_empty() { 0 } else { min_pe },
            max_pe,
            mean_pe: sum as f64 / n,
            bad_superblocks: bad,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NandDevice {
        NandDevice::new(Geometry::tiny_test(), 1000, LatencyModel::zero(), 1)
    }

    #[test]
    fn program_counts_and_orders() {
        let mut d = dev();
        d.program(Ppa::new(0, 0)).unwrap();
        d.program(Ppa::new(0, 1)).unwrap();
        assert_eq!(d.stats().pages_programmed, 2);
        assert!(matches!(
            d.program(Ppa::new(0, 5)),
            Err(NandError::ProgramOutOfOrder { expected_page: 2, .. })
        ));
        // Re-programming a written page is out of order too.
        assert!(matches!(d.program(Ppa::new(0, 0)), Err(NandError::ProgramOutOfOrder { .. })));
        assert_eq!(d.write_ptr(0), 2);
    }

    #[test]
    fn a_run_programs_and_samples_like_page_by_page_programs() {
        let latency = LatencyModel::default();
        let mut run = NandDevice::new(Geometry::tiny_test(), 1000, latency, 9);
        let mut single = NandDevice::new(Geometry::tiny_test(), 1000, latency, 9);
        let pages = run.geometry().pages_per_superblock();
        for (sb, n) in [(0, 5), (0, 0), (0, pages - 5), (2, 1), (2, 17)] {
            let first = single.write_ptr(sb);
            let ns: u64 =
                (first..first + n).map(|p| single.program(Ppa::new(sb, p as u32)).unwrap()).sum();
            assert_eq!(run.program_run(sb, n).unwrap(), ns, "run of {n} at {sb}:{first}");
            assert_eq!(run.write_ptr(sb), single.write_ptr(sb));
            assert_eq!(run.valid_pages(sb), single.valid_pages(sb));
        }
        assert_eq!(run.stats(), single.stats());
        assert!(run.is_full(0));
        assert!(matches!(run.program_run(0, 1), Err(NandError::OutOfRange(_))));
        assert!(matches!(run.program_run(2, pages), Err(NandError::OutOfRange(_))));
        let sbs = run.geometry().superblocks();
        assert!(matches!(run.program_run(sbs, 1), Err(NandError::SuperblockOutOfRange(_))));
        assert_eq!(run.stats(), single.stats(), "a refused run programs nothing");
        // The next sample agrees too: the run drew exactly its pages'.
        assert_eq!(run.program_run(3, 1).unwrap(), single.program(Ppa::new(3, 0)).unwrap());
    }

    #[test]
    fn superblock_out_of_range() {
        let mut d = dev();
        let sb_count = d.geometry().superblocks();
        assert!(matches!(
            d.program(Ppa::new(sb_count, 0)),
            Err(NandError::SuperblockOutOfRange(_))
        ));
        assert!(matches!(
            d.erase_superblock(sb_count, false),
            Err(NandError::SuperblockOutOfRange(_))
        ));
        let pages = d.geometry().pages_per_superblock() as u32;
        assert!(matches!(d.read(Ppa::new(0, pages)), Err(NandError::OutOfRange(_))));
    }

    #[test]
    fn full_cycle_program_invalidate_erase() {
        let mut d = dev();
        let pages = d.geometry().pages_per_superblock();
        for p in 0..pages {
            d.program(Ppa::new(1, p as u32)).unwrap();
        }
        assert!(d.is_full(1));
        assert_eq!(d.valid_pages(1), pages);
        for p in 0..pages {
            d.invalidate(Ppa::new(1, p as u32)).unwrap();
        }
        assert_eq!(d.valid_pages(1), 0);
        d.erase_superblock(1, false).unwrap();
        assert_eq!(d.stats().superblock_erases, 1);
        assert_eq!(d.write_ptr(1), 0, "erase resets the write pointer");
        assert_eq!(d.pe_cycles(1), 1);
        // Reusable after erase, from page 0 again.
        d.program(Ppa::new(1, 0)).unwrap();
        assert_eq!(d.valid_pages(1), 1);
    }

    #[test]
    fn erase_with_valid_pages_requires_force() {
        let mut d = dev();
        d.program(Ppa::new(0, 0)).unwrap();
        assert!(matches!(
            d.erase_superblock(0, false),
            Err(NandError::EraseWithValidPages { valid_pages: 1, .. })
        ));
        assert_eq!(d.write_ptr(0), 1, "a refused erase changes nothing");
        d.erase_superblock(0, true).unwrap();
        assert_eq!((d.write_ptr(0), d.valid_pages(0), d.pe_cycles(0)), (0, 0, 1));
    }

    #[test]
    fn superblock_goes_bad_at_pe_limit() {
        let mut d = NandDevice::new(Geometry::tiny_test(), 3, LatencyModel::zero(), 1);
        for _ in 0..3 {
            assert!(!d.is_bad(0));
            d.erase_superblock(0, false).unwrap();
        }
        assert!(d.is_bad(0));
        assert_eq!(d.pe_cycles(0), 3);
        assert!(matches!(d.erase_superblock(0, false), Err(NandError::BlockWornOut { .. })));
        assert!(matches!(d.program(Ppa::new(0, 0)), Err(NandError::BlockWornOut { .. })));
    }

    #[test]
    fn total_valid_pages_tracks_all_superblocks() {
        let mut d = dev();
        d.program(Ppa::new(0, 0)).unwrap();
        d.program(Ppa::new(3, 0)).unwrap();
        assert_eq!(d.total_valid_pages(), 2);
        d.invalidate(Ppa::new(3, 0)).unwrap();
        assert_eq!(d.total_valid_pages(), 1);
        // Superblock 3 counts no valid page any more.
        assert!(matches!(d.invalidate(Ppa::new(3, 0)), Err(NandError::InvalidateNonValidPage(_))));
    }

    #[test]
    fn wear_summary_counts_erases() {
        let mut d = dev();
        d.erase_superblock(0, false).unwrap();
        d.erase_superblock(0, false).unwrap();
        d.erase_superblock(2, false).unwrap();
        let w = d.wear_summary();
        assert_eq!(w.min_pe, 0);
        assert_eq!(w.max_pe, 2);
        assert!(w.mean_pe > 0.0);
        assert_eq!(w.bad_superblocks, 0);
    }

    #[test]
    fn read_and_invalidate_stop_at_the_write_pointer() {
        let mut d = dev();
        assert!(matches!(d.invalidate(Ppa::new(0, 0)), Err(NandError::InvalidateNonValidPage(_))));
        d.program(Ppa::new(0, 0)).unwrap();
        d.read(Ppa::new(0, 0)).unwrap();
        assert_eq!(d.stats().pages_read, 1);
        assert!(matches!(d.read(Ppa::new(0, 1)), Err(NandError::ReadFreePage(_))));
        assert!(matches!(d.invalidate(Ppa::new(0, 1)), Err(NandError::InvalidateNonValidPage(_))));
        // An invalidated page still reads.
        d.invalidate(Ppa::new(0, 0)).unwrap();
        d.read(Ppa::new(0, 0)).unwrap();
        assert_eq!(d.stats().pages_read, 2);
    }
}
