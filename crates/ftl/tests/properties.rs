//! Property tests for the FTL: invariants under arbitrary operation
//! sequences and the isolation guarantees of the two RUH types.

use fdpcache_ftl::{Ftl, FtlConfig, FtlError, GcPolicy, RuhType};
use proptest::prelude::*;

fn gc_policy() -> impl Strategy<Value = GcPolicy> {
    prop_oneof![Just(GcPolicy::Greedy), Just(GcPolicy::Fifo)]
}

#[derive(Debug, Clone)]
enum Op {
    Write { lba_pct: u8, ruh: u8 },
    Overwrite { lba_pct: u8, ruh: u8 },
    Trim { lba_pct: u8, span_pct: u8 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..100u8, 0..4u8).prop_map(|(lba_pct, ruh)| Op::Write { lba_pct, ruh }),
        (0..100u8, 0..4u8).prop_map(|(lba_pct, ruh)| Op::Overwrite { lba_pct, ruh }),
        (0..100u8, 0..20u8).prop_map(|(lba_pct, span_pct)| Op::Trim { lba_pct, span_pct }),
    ]
}

fn apply(ftl: &mut Ftl, ops: &[Op]) {
    let n = ftl.exported_lbas();
    for op in ops {
        match *op {
            Op::Write { lba_pct, ruh } | Op::Overwrite { lba_pct, ruh } => {
                let lba = lba_pct as u64 * (n - 1) / 100;
                ftl.write(lba, ruh).unwrap();
            }
            Op::Trim { lba_pct, span_pct } => {
                let lba = lba_pct as u64 * (n - 1) / 100;
                let span = (span_pct as u64 * n / 100).min(n - lba);
                ftl.trim(lba, span).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The full invariant suite (mapping bijectivity, accounting, pool
    /// sanity, WAF identity, DLWA ≥ 1) survives arbitrary op sequences
    /// under both GC policies and both isolation types.
    #[test]
    fn invariants_hold(
        ops in prop::collection::vec(op(), 1..250),
        policy in gc_policy(),
        persistent in any::<bool>(),
    ) {
        let mut cfg = FtlConfig::tiny_test();
        cfg.gc_policy = policy;
        cfg.ruh_type =
            if persistent { RuhType::PersistentlyIsolated } else { RuhType::InitiallyIsolated };
        let mut ftl = Ftl::new(cfg).unwrap();
        apply(&mut ftl, &ops);
        ftl.check_invariants();
    }

    /// With a finite endurance budget, arbitrary workloads either keep
    /// succeeding or die cleanly with `OutOfSpace`; the invariant suite
    /// holds at every point, including after device death, and retired
    /// RUs only ever grow.
    #[test]
    fn wear_out_is_clean(
        seed in 1u64..100_000,
        pe_limit in 4u32..16,
        policy in gc_policy(),
    ) {
        let mut cfg = FtlConfig::tiny_test();
        cfg.pe_limit = pe_limit;
        cfg.gc_policy = policy;
        let mut ftl = Ftl::new(cfg).unwrap();
        let n = ftl.exported_lbas();
        let mut x = seed;
        let mut dead = false;
        for _ in 0..n * 40 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match ftl.write(x % n, (x % 3) as u8) {
                Ok(_) => prop_assert!(!dead, "write succeeded after OutOfSpace"),
                Err(FtlError::OutOfSpace) => {
                    dead = true;
                    break;
                }
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
        ftl.check_invariants();
        if dead {
            prop_assert!(ftl.stats().retired_rus > 0, "death without retirement");
        }
    }

    /// Reads after writes always succeed; reads after trim always fail.
    #[test]
    fn read_visibility_follows_mapping(lba_pct in 0..100u8) {
        let mut ftl = Ftl::new(FtlConfig::tiny_test()).unwrap();
        let n = ftl.exported_lbas();
        let lba = lba_pct as u64 * (n - 1) / 100;
        prop_assert!(matches!(ftl.read(lba), Err(FtlError::Unmapped(_))));
        ftl.write(lba, 0).unwrap();
        prop_assert!(ftl.read(lba).is_ok());
        ftl.trim(lba, 1).unwrap();
        prop_assert!(matches!(ftl.read(lba), Err(FtlError::Unmapped(_))));
    }

    /// Write amplification identity holds after heavy random churn:
    /// nand = host + relocated, and GC never loses mapped data.
    #[test]
    fn churn_preserves_mapped_set(seed in 1u64..100_000) {
        let mut ftl = Ftl::new(FtlConfig::tiny_test()).unwrap();
        let n = ftl.exported_lbas();
        let mut x = seed;
        let mut mapped = std::collections::HashSet::new();
        for _ in 0..n * 3 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lba = x % n;
            ftl.write(lba, (x % 3) as u8).unwrap();
            mapped.insert(lba);
        }
        for &lba in &mapped {
            prop_assert!(ftl.read(lba).is_ok(), "lba {lba} lost after GC churn");
        }
        prop_assert_eq!(ftl.mapped_lbas(), mapped.len() as u64);
        ftl.check_invariants();
    }

    /// Trim of the full range always empties the device.
    #[test]
    fn full_trim_always_empties(ops in prop::collection::vec(op(), 1..120)) {
        let mut ftl = Ftl::new(FtlConfig::tiny_test()).unwrap();
        apply(&mut ftl, &ops);
        let n = ftl.exported_lbas();
        ftl.trim(0, n).unwrap();
        prop_assert_eq!(ftl.mapped_lbas(), 0);
        ftl.check_invariants();
    }
}
