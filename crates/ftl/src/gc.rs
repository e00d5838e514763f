//! Garbage-collection victim selection.
//!
//! Selection is separated from the relocation machinery in
//! [`crate::ftl`] and reads only each RU's valid-page count from the
//! media. The paper's theoretical model (Appendix A.2) assumes greedy
//! selection — "the erase block with least valid pages will be picked
//! first" — and `Greedy` is what every experiment runs; `Fifo` is the
//! one GC ablation (figure row `9-fifo`).

use fdpcache_nand::NandDevice;

use crate::config::GcPolicy;
use crate::ru::RuInfo;

/// Picks a GC victim among closed RUs, or `None` if there is none.
///
/// * `Greedy` — minimum valid pages over all candidates; ties broken by
///   older `opened_seq` (stable, deterministic).
/// * `Fifo` — smallest `opened_seq`, i.e. the RU closed least recently.
///
/// Fully-invalid RUs are always the best greedy victims (relocation cost
/// zero), which is what lets sequential LOC overwrites reclaim their RUs
/// for free.
/// `rus` is the candidate window (a whole device or one reclaim group's
/// contiguous slice); `base` is the device RU id of `rus[0]`, so the
/// returned victim id is device-global.
pub fn select_victim(
    policy: GcPolicy,
    rus: &[RuInfo],
    nand: &NandDevice,
    base: u32,
) -> Option<u32> {
    match policy {
        GcPolicy::Greedy => select_scan(rus, nand, base, |valid, seq, best: &(u64, u64)| {
            valid < best.0 || (valid == best.0 && seq < best.1)
        }),
        GcPolicy::Fifo => {
            select_scan(rus, nand, base, |_valid, seq, best: &(u64, u64)| seq < best.1)
        }
    }
}

/// Linear scan with a pluggable "is this candidate better" predicate
/// over `(valid, opened_seq)`.
fn select_scan(
    rus: &[RuInfo],
    nand: &NandDevice,
    base: u32,
    better: impl Fn(u64, u64, &(u64, u64)) -> bool,
) -> Option<u32> {
    let mut best: Option<(u32, (u64, u64))> = None;
    for (idx, info) in rus.iter().enumerate() {
        if !info.is_gc_candidate() {
            continue;
        }
        let ru = base + idx as u32;
        let valid = nand.valid_pages(ru);
        let seq = info.opened_seq;
        let take = match &best {
            None => true,
            Some((_, b)) => better(valid, seq, b),
        };
        if take {
            best = Some((ru, (valid, seq)));
        }
    }
    best.map(|(ru, _)| ru)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ru::RuPhase;
    use fdpcache_nand::{Geometry, LatencyModel, Ppa};

    fn setup() -> (NandDevice, Vec<RuInfo>) {
        let g = Geometry::tiny_test();
        let nand = NandDevice::new(g, 1000, LatencyModel::zero(), 1);
        let rus = vec![RuInfo::free(); g.superblocks() as usize];
        (nand, rus)
    }

    fn close(rus: &mut [RuInfo], ru: u32, seq: u64) {
        rus[ru as usize].phase = RuPhase::Closed;
        rus[ru as usize].opened_seq = seq;
    }

    fn fill(nand: &mut NandDevice, ru: u32, valid: u64) {
        let pages = nand.geometry().pages_per_superblock();
        for p in 0..pages {
            nand.program(Ppa::new(ru, p as u32)).unwrap();
        }
        for p in valid..pages {
            nand.invalidate(Ppa::new(ru, p as u32)).unwrap();
        }
    }

    #[test]
    fn no_candidates_returns_none() {
        let (nand, rus) = setup();
        for policy in [GcPolicy::Greedy, GcPolicy::Fifo] {
            assert_eq!(select_victim(policy, &rus, &nand, 0), None);
        }
    }

    #[test]
    fn greedy_picks_min_valid() {
        let (mut nand, mut rus) = setup();
        fill(&mut nand, 0, 10);
        fill(&mut nand, 1, 2);
        fill(&mut nand, 2, 5);
        close(&mut rus, 0, 1);
        close(&mut rus, 1, 2);
        close(&mut rus, 2, 3);
        assert_eq!(select_victim(GcPolicy::Greedy, &rus, &nand, 0), Some(1));
    }

    #[test]
    fn greedy_prefers_fully_invalid() {
        let (mut nand, mut rus) = setup();
        fill(&mut nand, 0, 1);
        fill(&mut nand, 1, 0);
        close(&mut rus, 0, 1);
        close(&mut rus, 1, 2);
        assert_eq!(select_victim(GcPolicy::Greedy, &rus, &nand, 0), Some(1));
    }

    #[test]
    fn greedy_ties_break_by_age() {
        let (mut nand, mut rus) = setup();
        fill(&mut nand, 0, 3);
        fill(&mut nand, 1, 3);
        close(&mut rus, 0, 10);
        close(&mut rus, 1, 4);
        assert_eq!(select_victim(GcPolicy::Greedy, &rus, &nand, 0), Some(1));
    }

    #[test]
    fn fifo_ignores_valid_count() {
        let (mut nand, mut rus) = setup();
        fill(&mut nand, 0, 0);
        fill(&mut nand, 1, 10);
        close(&mut rus, 0, 9);
        close(&mut rus, 1, 1);
        assert_eq!(select_victim(GcPolicy::Fifo, &rus, &nand, 0), Some(1));
    }

    #[test]
    fn active_and_free_rus_are_excluded() {
        let (mut nand, mut rus) = setup();
        fill(&mut nand, 0, 0);
        rus[0].phase = RuPhase::Active;
        for policy in [GcPolicy::Greedy, GcPolicy::Fifo] {
            assert_eq!(select_victim(policy, &rus, &nand, 0), None);
        }
    }
}
