//! Concurrent-device integration: N real OS threads against one
//! controller must lose no operations, keep namespaces isolated, and
//! leave every layer's invariants intact.
//!
//! This is the end-to-end guard for the fine-grained locking topology
//! (DESIGN.md §"Locking model"): per-namespace submission state and
//! stats, sharded payload store, media-lock-only FTL section.

use std::sync::Arc;

use fdpcache::cache::builder::{build_device, StoreKind};
use fdpcache::cache::{CacheConfig, ConcurrentPool, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::nvme::Controller;
use fdpcache::placement::{IoManager, PlacementHandle, RoundRobinPolicy};
use fdpcache::workloads::{run_pool_round, WorkloadProfile};

/// Raw device path: 6 threads × disjoint namespaces, every write/read
/// accounted, payload integrity per namespace.
#[test]
fn device_path_loses_no_ops_across_six_threads() {
    let ctrl = Arc::new(
        Controller::new(FtlConfig::tiny_test(), Box::new(fdpcache::nvme::MemStore::new())).unwrap(),
    );
    const WORKERS: u64 = 6;
    const OPS: u64 = 400;
    let per = ctrl.unallocated_lbas() / WORKERS;
    let states: Vec<_> = (0..WORKERS)
        .map(|_| {
            let nsid = ctrl.create_namespace(per, vec![0, 1, 2]).unwrap();
            ctrl.open_namespace(nsid).unwrap()
        })
        .collect();
    std::thread::scope(|scope| {
        for state in &states {
            let ctrl = ctrl.clone();
            scope.spawn(move || {
                let tag = state.nsid() as u8;
                let data = vec![tag; 4096];
                let mut out = vec![0u8; 4096];
                for i in 0..OPS {
                    let block = i % per;
                    ctrl.write_ns(state, block, &data, Some((i % 3) as u16)).unwrap();
                    ctrl.read_ns(state, block, &mut out).unwrap();
                    assert_eq!(out[0], tag, "namespace {tag} read another tenant's bytes");
                }
            });
        }
    });
    // No lost ops: device aggregate equals the sum of per-namespace
    // counters equals what the workers actually submitted.
    let device = ctrl.device_io_stats();
    assert_eq!(device.writes, WORKERS * OPS);
    assert_eq!(device.reads, WORKERS * OPS);
    assert_eq!(device.bytes_written, WORKERS * OPS * 4096);
    let summed = states.iter().fold(0u64, |acc, s| acc + s.stats().writes);
    assert_eq!(summed, device.writes);
    for state in &states {
        assert_eq!(state.stats().writes, OPS, "namespace {} lost writes", state.nsid());
        assert_eq!(state.stats().reads, OPS);
    }
    ctrl.with_ftl(|f| f.check_invariants());
}

/// Full cache stack: 4 worker threads each drive one shard of a pool
/// (its own namespace and queue pair); aggregated stats stay consistent
/// and the shared device's accounting matches the per-shard I/O totals.
#[test]
fn four_cache_workers_aggregate_consistently() {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
    const WORKERS: usize = 4;
    let config = CacheConfig {
        ram_bytes: WORKERS as u64 * (8 << 10),
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    };
    const OPS: u64 = 20_000;
    let pool =
        ConcurrentPool::new(&ctrl, &config, WORKERS, 0.9, || Box::new(RoundRobinPolicy::new()))
            .unwrap();
    let profile = WorkloadProfile::meta_kv_cache();
    let mut sources: Vec<_> = (0..WORKERS).map(|_| profile.generator(12_000, 11)).collect();
    let reports = run_pool_round(&pool, &mut sources, OPS);
    assert_eq!(reports.len(), WORKERS);
    for r in &reports {
        assert_eq!(r.error, None, "worker {} failed", r.worker);
        assert_eq!(r.generated, OPS, "worker {} lost operations", r.worker);
    }
    assert_eq!(
        reports.iter().map(|r| r.executed).sum::<u64>(),
        OPS,
        "a request ran twice or never"
    );
    // Per-namespace isolation: each shard's device writes are exactly
    // its namespace's counter, and the device total is their sum.
    let device = ctrl.device_io_stats();
    let mut summed_writes = 0u64;
    for shard in 0..WORKERS {
        let (ns_writes, io_writes) = pool
            .with_shard(shard, |c| {
                let io = c.navy().io();
                (io.namespace().stats().writes, io.stats().writes)
            })
            .unwrap();
        assert_eq!(ns_writes, io_writes, "namespace counters diverge from the shard's I/O stats");
        assert!(io_writes > 0, "shard {shard} never reached the device");
        summed_writes += ns_writes;
    }
    assert_eq!(device.writes, summed_writes, "device aggregate lost namespace writes");
    // Device stays physically consistent under the concurrency.
    let log = ctrl.fdp_stats_log();
    assert!(log.dlwa() >= 1.0);
    ctrl.with_ftl(|f| f.check_invariants());
}

/// Readers and writers on the same namespace from different managers:
/// payloads written by one thread are visible to another (the sharded
/// store publishes under its shard locks).
#[test]
fn cross_thread_visibility_on_shared_namespace() {
    let ctrl = Arc::new(
        Controller::new(FtlConfig::tiny_test(), Box::new(fdpcache::nvme::MemStore::new())).unwrap(),
    );
    let nsid = ctrl.create_namespace(64, vec![0, 1]).unwrap();
    let mut writer = IoManager::new(ctrl.clone(), nsid, 2).unwrap();
    for block in 0..32u64 {
        writer.write(block, &vec![block as u8; 4096], PlacementHandle::with_dspec(1)).unwrap();
    }
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let ctrl = ctrl.clone();
            scope.spawn(move || {
                let mut reader = IoManager::new(ctrl, nsid, 2).unwrap();
                let mut out = vec![0u8; 4096];
                for block in 0..32u64 {
                    reader.read(block, &mut out).unwrap();
                    assert_eq!(out[0], block as u8);
                }
            });
        }
    });
    assert_eq!(ctrl.namespace_stats(nsid).unwrap().reads, 4 * 32);
}
