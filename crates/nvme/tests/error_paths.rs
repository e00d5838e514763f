//! Error-path coverage: every [`NvmeError`] and [`FtlError`] variant
//! constructed through the public API and asserted — not just the
//! `Invalid*` rejections the seed tests covered. Includes the
//! `read`/`write_batch_ns`/`deallocate_ns` rejection cases that
//! previously had no direct test.

use fdpcache_ftl::{Ftl, FtlConfig, FtlError};
use fdpcache_nvme::{
    BatchWrite, Controller, DeallocRange, FaultConfig, FaultKind, FaultStore, MemStore, NvmeError,
    ScriptedFault, WriteCompletion, WritePayload,
};

fn ctrl() -> Controller {
    Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap()
}

fn page(fill: u8) -> Vec<u8> {
    vec![fill; 4096]
}

#[test]
fn invalid_namespace_on_every_entry_point() {
    let c = ctrl();
    let mut out = page(0);
    assert!(matches!(c.write(9, 0, &page(1), None), Err(NvmeError::InvalidNamespace(9))));
    assert!(matches!(c.read(9, 0, &mut out), Err(NvmeError::InvalidNamespace(9))));
    assert!(matches!(
        c.deallocate(9, &[DeallocRange { slba: 0, nlb: 1 }]),
        Err(NvmeError::InvalidNamespace(9))
    ));
    assert!(matches!(c.format_namespace(9), Err(NvmeError::InvalidNamespace(9))));
}

#[test]
fn lba_out_of_range_on_every_data_path() {
    let c = ctrl();
    let ns = c.create_namespace(8, vec![0]).unwrap();
    let s = c.open_namespace(ns).unwrap();
    let mut out = page(0);
    assert!(matches!(
        c.write(ns, 8, &page(1), None),
        Err(NvmeError::LbaOutOfRange { nsid, lba: 8 }) if nsid == ns
    ));
    assert!(matches!(c.read(ns, 8, &mut out), Err(NvmeError::LbaOutOfRange { .. })));
    // A range straddling the namespace end is rejected too.
    let buf = vec![1u8; 2 * 4096];
    assert!(matches!(c.write(ns, 7, &buf, None), Err(NvmeError::LbaOutOfRange { .. })));
    // write_batch_ns: a bad range anywhere fails the whole batch with
    // no side effect.
    let good = page(2);
    let writes = [
        BatchWrite { slba: 0, data: WritePayload::Bytes(&good), dspec: None },
        BatchWrite { slba: 9, data: WritePayload::Bytes(&good), dspec: None },
    ];
    assert!(matches!(
        c.write_batch_ns(&s, &writes, &mut [WriteCompletion::default(); 2]),
        Err(NvmeError::LbaOutOfRange { .. })
    ));
    assert!(matches!(c.read_ns(&s, 0, &mut out), Err(NvmeError::Unwritten(_))));
    // deallocate_ns: same all-or-nothing rejection.
    assert!(matches!(
        c.deallocate_ns(&s, &[DeallocRange { slba: 4, nlb: 8 }]),
        Err(NvmeError::LbaOutOfRange { .. })
    ));
}

#[test]
fn invalid_placement_id_everywhere() {
    let c = ctrl();
    let bad_ruh = c.config().num_ruhs;
    // Namespace creation reports the offending list index.
    assert!(matches!(
        c.create_namespace(8, vec![0, bad_ruh]),
        Err(NvmeError::InvalidPlacementId(1))
    ));
    let ns = c.create_namespace(16, vec![0, 1]).unwrap();
    let s = c.open_namespace(ns).unwrap();
    // Unknown placement-handle index.
    assert!(matches!(c.write(ns, 0, &page(1), Some(5)), Err(NvmeError::InvalidPlacementId(5))));
    // Unknown reclaim group encoded in the PID's upper byte.
    let pid = (7 << 8) | 1;
    assert!(
        matches!(c.write(ns, 0, &page(1), Some(pid)), Err(NvmeError::InvalidPlacementId(p)) if p == pid)
    );
    // Batch path rejects before any side effect.
    let good = page(1);
    let writes = [BatchWrite { slba: 0, data: WritePayload::Bytes(&good), dspec: Some(5) }];
    assert!(matches!(
        c.write_batch_ns(&s, &writes, &mut [WriteCompletion::default()]),
        Err(NvmeError::InvalidPlacementId(5))
    ));
    assert_eq!(s.stats().writes, 0);
}

#[test]
fn buffer_size_mismatch_on_reads_writes_and_batches() {
    let c = ctrl();
    let ns = c.create_namespace(16, vec![0]).unwrap();
    let s = c.open_namespace(ns).unwrap();
    // Empty and misaligned writes.
    assert!(matches!(c.write(ns, 0, &[], None), Err(NvmeError::BufferSizeMismatch { .. })));
    assert!(matches!(
        c.write(ns, 0, &page(1)[..100], None),
        Err(NvmeError::BufferSizeMismatch { expected: 4096, got: 100 })
    ));
    // Misaligned read.
    let mut small = [0u8; 512];
    assert!(matches!(c.read(ns, 0, &mut small), Err(NvmeError::BufferSizeMismatch { .. })));
    let mut empty: [u8; 0] = [];
    assert!(matches!(c.read(ns, 0, &mut empty), Err(NvmeError::BufferSizeMismatch { .. })));
    // Batch: one misaligned command fails all of it.
    let good = page(1);
    let writes = [
        BatchWrite { slba: 0, data: WritePayload::Bytes(&good), dspec: None },
        BatchWrite { slba: 1, data: WritePayload::Bytes(&good[..10]), dspec: None },
    ];
    assert!(matches!(
        c.write_batch_ns(&s, &writes, &mut [WriteCompletion::default(); 2]),
        Err(NvmeError::BufferSizeMismatch { .. })
    ));
    let mut out = page(0);
    assert!(matches!(c.read_ns(&s, 0, &mut out), Err(NvmeError::Unwritten(_))));
}

#[test]
fn capacity_exceeded_on_oversized_and_zero_namespaces() {
    let c = ctrl();
    let total = c.unallocated_lbas();
    assert!(matches!(c.create_namespace(total + 1, vec![]), Err(NvmeError::CapacityExceeded)));
    assert!(matches!(c.create_namespace(0, vec![]), Err(NvmeError::CapacityExceeded)));
    c.create_namespace(total, vec![]).unwrap();
    assert!(matches!(c.create_namespace(1, vec![]), Err(NvmeError::CapacityExceeded)));
}

#[test]
fn unwritten_after_never_written_trim_and_rolled_back_batch() {
    let c = ctrl();
    let ns = c.create_namespace(16, vec![]).unwrap();
    let mut out = page(0);
    assert!(matches!(c.read(ns, 3, &mut out), Err(NvmeError::Unwritten(_))));
    c.write(ns, 3, &page(7), None).unwrap();
    c.read(ns, 3, &mut out).unwrap();
    c.deallocate(ns, &[DeallocRange { slba: 3, nlb: 1 }]).unwrap();
    assert!(matches!(c.read(ns, 3, &mut out), Err(NvmeError::Unwritten(_))));
}

#[test]
fn media_error_and_busy_through_the_public_api() {
    let scripted = vec![
        ScriptedFault { kind: FaultKind::WriteError, lba: 0, at_access: 0, repeats: 1 },
        ScriptedFault { kind: FaultKind::ReadError, lba: 1, at_access: 1, repeats: 1 },
        ScriptedFault { kind: FaultKind::DiscardError, lba: 2, at_access: 0, repeats: 1 },
        ScriptedFault { kind: FaultKind::Busy, lba: 4, at_access: 0, repeats: 1 },
    ];
    let store = FaultStore::new(
        Box::new(MemStore::new()),
        FaultConfig { busy_penalty_ns: 123, scripted, ..Default::default() },
    );
    let c = Controller::new(FtlConfig::tiny_test(), Box::new(store)).unwrap();
    let ns = c.create_namespace(16, vec![0]).unwrap();
    let mut out = page(0);

    // WriteError on first write of LBA 0; the retry succeeds and the
    // failed attempt had no side effect.
    assert!(matches!(
        c.write(ns, 0, &page(1), None),
        Err(NvmeError::MediaError { lba: 0, kind: FaultKind::WriteError })
    ));
    c.write(ns, 0, &page(1), None).unwrap();

    // ReadError on the second read-access of LBA 1.
    c.write(ns, 1, &page(2), None).unwrap();
    c.read(ns, 1, &mut out).unwrap();
    assert!(matches!(
        c.read(ns, 1, &mut out),
        Err(NvmeError::MediaError { lba: 1, kind: FaultKind::ReadError })
    ));
    c.read(ns, 1, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 2), "acknowledged data must survive the fault");

    // DiscardError on the first deallocate of LBA 2: nothing dropped.
    c.write(ns, 2, &page(3), None).unwrap();
    assert!(matches!(
        c.deallocate(ns, &[DeallocRange { slba: 2, nlb: 1 }]),
        Err(NvmeError::MediaError { lba: 2, kind: FaultKind::DiscardError })
    ));
    c.read(ns, 2, &mut out).unwrap();
    assert_eq!(out[0], 3, "failed DSM must drop nothing");
    c.deallocate(ns, &[DeallocRange { slba: 2, nlb: 1 }]).unwrap();
    assert!(matches!(c.read(ns, 2, &mut out), Err(NvmeError::Unwritten(_))));

    // Busy carries its configured penalty.
    assert!(matches!(c.write(ns, 4, &page(5), None), Err(NvmeError::Busy { penalty_ns: 123 })));
    c.write(ns, 4, &page(5), None).unwrap();

    let totals = c.fault_totals();
    assert_eq!(totals.write_errors, 1);
    assert_eq!(totals.read_errors, 1);
    assert_eq!(totals.discard_errors, 1);
    assert_eq!(totals.busy_events, 1);
    c.with_ftl(|f| f.check_invariants());
}

#[test]
fn corruption_is_segment_granular_through_the_controller() {
    // Corruption counters key on the slab segment, so it gets its own
    // device where the very first read of segment 0 trips it.
    let store = FaultStore::new(
        Box::new(MemStore::new()),
        FaultConfig {
            scripted: vec![ScriptedFault {
                kind: FaultKind::Corruption,
                lba: 3,
                at_access: 0,
                repeats: 1,
            }],
            ..Default::default()
        },
    );
    let c = Controller::new(FtlConfig::tiny_test(), Box::new(store)).unwrap();
    let ns = c.create_namespace(16, vec![0]).unwrap();
    let mut out = page(0);
    c.write(ns, 3, &page(4), None).unwrap();
    assert!(matches!(
        c.read(ns, 3, &mut out),
        Err(NvmeError::MediaError { lba: 0, kind: FaultKind::Corruption })
    ));
    c.read(ns, 3, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 4), "data survives a detected-corruption fault");
    assert_eq!(c.fault_totals().corruption_errors, 1);
}

#[test]
fn ftl_lba_out_of_range_variants() {
    let mut f = Ftl::new(FtlConfig::tiny_test()).unwrap();
    let n = f.exported_lbas();
    assert!(matches!(f.write(n, 0), Err(FtlError::LbaOutOfRange(l)) if l == n));
    assert!(matches!(f.read(n), Err(FtlError::LbaOutOfRange(_))));
    // Every range check names the first LBA outside the device.
    assert!(matches!(f.trim(n - 1, 2), Err(FtlError::LbaOutOfRange(l)) if l == n));
    assert!(
        matches!(f.write_placed_batch(n - 1, 2, 0, 0), Err(FtlError::LbaOutOfRange(l)) if l == n)
    );
    assert!(matches!(f.rollback_range(n, 1), Err(FtlError::LbaOutOfRange(l)) if l == n));
    // Overflowing ranges are rejected, not wrapped.
    assert!(matches!(f.trim(u64::MAX, 2), Err(FtlError::LbaOutOfRange(_))));
    assert!(matches!(f.write_placed_batch(u64::MAX, 2, 0, 0), Err(FtlError::LbaOutOfRange(_))));
}

#[test]
fn ftl_invalid_ruh_and_rg_variants() {
    let mut f = Ftl::new(FtlConfig::tiny_test()).unwrap();
    let bad_ruh = f.config().num_ruhs;
    let bad_rg = f.config().num_rgs;
    assert!(matches!(f.write(0, bad_ruh), Err(FtlError::InvalidRuh(r)) if r == bad_ruh));
    assert!(matches!(f.write_placed(0, bad_rg, 0), Err(FtlError::InvalidRg(g)) if g == bad_rg));
    assert!(matches!(f.write_placed_batch(0, 1, 0, bad_ruh), Err(FtlError::InvalidRuh(_))));
    assert!(matches!(f.write_placed_batch(0, 1, bad_rg, 0), Err(FtlError::InvalidRg(_))));
}

#[test]
fn ftl_unmapped_variant() {
    let mut f = Ftl::new(FtlConfig::tiny_test()).unwrap();
    assert!(matches!(f.read(5), Err(FtlError::Unmapped(5))));
    f.write(5, 0).unwrap();
    f.read(5).unwrap();
    f.trim(5, 1).unwrap();
    assert!(matches!(f.read(5), Err(FtlError::Unmapped(5))));
    assert!(matches!(f.read_contig(4, 3), Err(FtlError::Unmapped(_))));
    // An overflowing range is rejected, not wrapped into an empty read.
    assert!(matches!(f.read_contig(u64::MAX, 2), Err(FtlError::LbaOutOfRange(_))));
}

#[test]
fn ftl_out_of_space_at_end_of_life() {
    let mut cfg = FtlConfig::tiny_test();
    cfg.pe_limit = 6;
    let mut f = Ftl::new(cfg).unwrap();
    let n = f.exported_lbas();
    let mut x = 99u64;
    let mut died = false;
    for _ in 0..n * 400 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match f.write(x % n, 0) {
            Ok(_) => {}
            Err(FtlError::OutOfSpace) => {
                died = true;
                break;
            }
            Err(e) => panic!("unexpected pre-death error: {e:?}"),
        }
    }
    assert!(died, "tiny endurance budget must reach OutOfSpace");
    f.check_invariants();
}

#[test]
fn ftl_nand_variant_converts_and_displays() {
    // The Nand variant only escapes on simulator-internal invariant
    // violations; its public construction surface is the From impl.
    let e: FtlError = fdpcache_nand::NandError::SuperblockOutOfRange(3).into();
    assert!(matches!(e, FtlError::Nand(_)));
    let wrapped: NvmeError = e.into();
    assert!(matches!(wrapped, NvmeError::Ftl(FtlError::Nand(_))));
    assert!(wrapped.to_string().contains("NAND"));
}
