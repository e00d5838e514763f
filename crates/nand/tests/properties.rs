//! Property tests for the NAND media state machine.

use fdpcache_nand::{Geometry, LatencyModel, NandDevice, NandError, Ppa};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum MediaOp {
    ProgramNext { sb: u8 },
    Program { sb: u8, page: u8 },
    Invalidate { sb: u8, page: u8 },
    Erase { sb: u8, force: bool },
    Read { sb: u8, page: u8 },
}

fn media_op() -> impl Strategy<Value = MediaOp> {
    prop_oneof![
        (0..8u8).prop_map(|sb| MediaOp::ProgramNext { sb }),
        (0..8u8, 0..128u8).prop_map(|(sb, page)| MediaOp::Program { sb, page }),
        (0..8u8, 0..128u8).prop_map(|(sb, page)| MediaOp::Invalidate { sb, page }),
        (0..8u8, any::<bool>()).prop_map(|(sb, force)| MediaOp::Erase { sb, force }),
        (0..8u8, 0..128u8).prop_map(|(sb, page)| MediaOp::Read { sb, page }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No operation sequence can corrupt the media's accounting. The test
    /// keeps its own per-page reference (programmed pages and which of
    /// them are still valid); the device must agree with it on every
    /// write pointer and valid count, reject program, read and
    /// invalidate at or past the write pointer, and return only the
    /// defined legal rejections.
    #[test]
    fn media_state_machine_is_total(ops in prop::collection::vec(media_op(), 1..300)) {
        let g = Geometry::tiny_test();
        let mut dev = NandDevice::new(g, 1_000, LatencyModel::zero(), 1);
        let pages = g.pages_per_superblock();
        let sbs = g.superblocks();
        // Per superblock: one `valid` flag per programmed page, so the
        // vector's length is the reference write pointer.
        let mut reference: Vec<Vec<bool>> = vec![Vec::new(); sbs as usize];
        for op in ops {
            match op {
                MediaOp::ProgramNext { sb } => {
                    let sb = sb as u32 % sbs;
                    let written = &mut reference[sb as usize];
                    let next = written.len() as u32;
                    if (next as u64) < pages {
                        dev.program(Ppa::new(sb, next)).unwrap();
                        written.push(true);
                    } else {
                        prop_assert!(dev.is_full(sb));
                        let past_end = dev.program(Ppa::new(sb, next));
                        prop_assert!(matches!(past_end, Err(NandError::OutOfRange(_))));
                    }
                }
                MediaOp::Program { sb, page } => {
                    let sb = sb as u32 % sbs;
                    let page = page as u32 % pages as u32;
                    let written = &mut reference[sb as usize];
                    if page as usize == written.len() {
                        dev.program(Ppa::new(sb, page)).unwrap();
                        written.push(true);
                    } else {
                        let res = dev.program(Ppa::new(sb, page));
                        prop_assert!(matches!(res, Err(NandError::ProgramOutOfOrder { .. })));
                    }
                }
                MediaOp::Invalidate { sb, page } => {
                    let sb = sb as u32 % sbs;
                    let ppa = Ppa::new(sb, page as u32 % pages as u32);
                    match reference[sb as usize].get_mut(ppa.page as usize) {
                        Some(valid) if *valid => {
                            dev.invalidate(ppa).unwrap();
                            *valid = false;
                        }
                        // Already invalid: telling it apart is the FTL's job.
                        Some(_) => {}
                        None => {
                            let res = dev.invalidate(ppa);
                            prop_assert!(matches!(res, Err(NandError::InvalidateNonValidPage(_))));
                        }
                    }
                }
                MediaOp::Erase { sb, force } => {
                    let sb = sb as u32 % sbs;
                    let valid = reference[sb as usize].iter().filter(|&&v| v).count();
                    match dev.erase_superblock(sb, force) {
                        Ok(_) => {
                            prop_assert!(force || valid == 0);
                            reference[sb as usize].clear();
                        }
                        Err(NandError::EraseWithValidPages { .. }) => {
                            prop_assert!(valid > 0 && !force)
                        }
                        Err(e) => prop_assert!(false, "unexpected erase error {e}"),
                    }
                }
                MediaOp::Read { sb, page } => {
                    let sb = sb as u32 % sbs;
                    let ppa = Ppa::new(sb, page as u32 % pages as u32);
                    if (ppa.page as usize) < reference[sb as usize].len() {
                        dev.read(ppa).unwrap();
                    } else {
                        prop_assert!(matches!(dev.read(ppa), Err(NandError::ReadFreePage(_))));
                    }
                }
            }
        }
        let mut total = 0u64;
        for sb in 0..sbs {
            let written = &reference[sb as usize];
            let valid = written.iter().filter(|&&v| v).count() as u64;
            prop_assert_eq!(dev.write_ptr(sb), written.len() as u64);
            prop_assert_eq!(dev.valid_pages(sb), valid);
            total += valid;
        }
        prop_assert_eq!(dev.total_valid_pages(), total);
    }

    /// Programming a full superblock in order always succeeds from the
    /// erased state, regardless of geometry.
    #[test]
    fn full_sequential_program_always_succeeds(
        blocks_per_plane in 1u32..8,
        pages_per_block in 1u32..32,
    ) {
        let g = Geometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane,
            pages_per_block,
            page_size: 4096,
        };
        let mut dev = NandDevice::new(g, 100, LatencyModel::zero(), 1);
        for p in 0..g.pages_per_superblock() {
            dev.program(Ppa::new(0, p as u32)).unwrap();
        }
        prop_assert!(dev.is_full(0));
        prop_assert_eq!(dev.valid_pages(0), g.pages_per_superblock());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Endurance accounting: a block erased exactly `pe_limit` times goes
    /// bad, further program/erase attempts fail, and the wear summary
    /// reflects the consumed cycles.
    #[test]
    fn wear_out_state_machine(pe_limit in 1u32..12) {
        let g = Geometry::tiny_test();
        let mut dev = NandDevice::new(g, pe_limit, LatencyModel::zero(), 1);
        // Cycle superblock 0: program one page, erase, repeat.
        for cycle in 0..pe_limit {
            dev.program(Ppa::new(0, 0)).unwrap();
            dev.invalidate(Ppa::new(0, 0)).unwrap();
            dev.erase_superblock(0, false).unwrap();
            let worn_now = cycle + 1 >= pe_limit;
            prop_assert_eq!(
                dev.is_bad(0),
                worn_now,
                "bad-block flag wrong after {} cycles", cycle + 1
            );
        }
        // Past the limit: all mutation fails.
        let program_worn =
            matches!(dev.program(Ppa::new(0, 0)), Err(NandError::BlockWornOut { .. }));
        prop_assert!(program_worn, "program on a worn block must fail");
        let erase_worn =
            matches!(dev.erase_superblock(0, true), Err(NandError::BlockWornOut { .. }));
        prop_assert!(erase_worn, "erase on a worn block must fail");
        let wear = dev.wear_summary();
        prop_assert_eq!(wear.max_pe, pe_limit);
        prop_assert_eq!(wear.bad_superblocks, 1);
        // Untouched superblocks are pristine.
        prop_assert_eq!(wear.min_pe, 0);
    }

    /// Latency sampling is deterministic per seed and strictly positive
    /// for non-zero models.
    #[test]
    fn latency_is_deterministic_per_seed(seed in any::<u64>()) {
        let g = Geometry::tiny_test();
        let mut a = NandDevice::new(g, 100, LatencyModel::default(), seed);
        let mut b = NandDevice::new(g, 100, LatencyModel::default(), seed);
        for p in 0..8u32 {
            let la = a.program(Ppa::new(0, p)).unwrap();
            let lb = b.program(Ppa::new(0, p)).unwrap();
            prop_assert_eq!(la, lb);
            prop_assert!(la > 0);
        }
    }
}
