//! Property-based tests over the full stack: arbitrary operation
//! sequences must preserve every layer's invariants (DESIGN.md §7).

use proptest::prelude::*;

use fdpcache::cache::builder::{build_stack, StoreKind};
use fdpcache::cache::{CacheConfig, NvmConfig};
use fdpcache::ftl::{Ftl, FtlConfig};
use fdpcache::workloads::{Op, Oracle, Request};

#[derive(Debug, Clone)]
enum FtlOp {
    Write { lba_pct: u8, ruh: u8 },
    Trim { lba_pct: u8, count: u8 },
    Read { lba_pct: u8 },
}

fn ftl_op() -> impl Strategy<Value = FtlOp> {
    prop_oneof![
        (0..=100u8, 0..4u8).prop_map(|(lba_pct, ruh)| FtlOp::Write { lba_pct, ruh }),
        (0..=100u8, 0..32u8).prop_map(|(lba_pct, count)| FtlOp::Trim { lba_pct, count }),
        (0..=100u8).prop_map(|lba_pct| FtlOp::Read { lba_pct }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary FTL op sequences preserve mapping bijectivity, valid-page
    /// accounting, free-pool sanity and the write-amplification identity.
    #[test]
    fn ftl_invariants_hold_under_arbitrary_ops(ops in prop::collection::vec(ftl_op(), 1..400)) {
        let mut ftl = Ftl::new(FtlConfig::tiny_test()).unwrap();
        let n = ftl.exported_lbas();
        for op in ops {
            match op {
                FtlOp::Write { lba_pct, ruh } => {
                    let lba = (lba_pct as u64 * (n - 1)) / 100;
                    ftl.write(lba, ruh).unwrap();
                }
                FtlOp::Trim { lba_pct, count } => {
                    let lba = (lba_pct as u64 * (n - 1)) / 100;
                    let count = (count as u64).min(n - lba);
                    ftl.trim(lba, count).unwrap();
                }
                FtlOp::Read { lba_pct } => {
                    let lba = (lba_pct as u64 * (n - 1)) / 100;
                    // Unmapped reads are legal errors; anything else must
                    // succeed.
                    match ftl.read(lba) {
                        Ok(_) | Err(fdpcache::ftl::FtlError::Unmapped(_)) => {}
                        Err(e) => prop_assert!(false, "unexpected read error: {e}"),
                    }
                }
            }
        }
        ftl.check_invariants();
        prop_assert!(ftl.stats().dlwa() >= 1.0);
    }

    /// DLWA is monotone non-increasing in overprovisioning for a uniform
    /// random workload (the physical law behind Figure 6).
    #[test]
    fn more_op_never_hurts(seed in 1u64..10_000) {
        let mut dlwas = Vec::new();
        for op_fraction in [0.2f64, 0.45] {
            let mut cfg = FtlConfig::tiny_test();
            cfg.op_fraction = op_fraction;
            let mut ftl = Ftl::new(cfg).unwrap();
            let n = ftl.exported_lbas();
            let mut x = seed;
            for _ in 0..n * 6 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ftl.write(x % n, 0).unwrap();
            }
            dlwas.push(ftl.stats().dlwa());
        }
        prop_assert!(dlwas[1] <= dlwas[0] + 0.05,
            "more OP should not increase DLWA: {dlwas:?}");
    }
}

fn cache_op() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0..400u64, 1..8000u32).prop_map(|(key, size)| Request { op: Op::Set, key, size }),
        (0..400u64).prop_map(|key| Request { op: Op::Get, key, size: 0 }),
        (0..400u64).prop_map(|key| Request { op: Op::Delete, key, size: 0 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The hybrid cache never serves a stale or deleted value, under any
    /// interleaving of puts/gets/deletes (linearized single-thread): the
    /// oracle's served-value check compares every hit's bytes.
    #[test]
    fn cache_never_serves_stale_data(ops in prop::collection::vec(cache_op(), 1..300)) {
        let cfg = CacheConfig {
            ram_bytes: 3_000,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let (_ctrl, mut cache) =
            build_stack(FtlConfig::tiny_test(), StoreKind::Mem, true, 0.9, &cfg).unwrap();
        let mut oracle = Oracle::new();
        for req in ops {
            if req.op == Op::Get {
                let report = oracle.check_served(&mut cache, [req.key]).unwrap();
                prop_assert_eq!(report.violations, []);
            } else {
                oracle.step(&mut cache, req).unwrap();
            }
        }
    }
}
