//! End-to-end fault-recovery integration: injected device faults must
//! be recovered by the cache tier. Seal failures retry, then quarantine
//! the region and requeue its objects (never dropping acknowledged
//! data); read faults demote to a miss and repair-write; counters
//! surface through the pool merge; and a mid-seal fault never poisons
//! a shard or panics the stack.

use fdpcache::cache::builder::{
    build_cache, build_device, build_device_faulted, create_namespace, recover_cache, StoreKind,
};
use fdpcache::cache::value::Value;
use fdpcache::cache::{
    CacheConfig, ConcurrentPool, FlashVerify, GetOutcome, HybridCache, NvmConfig,
};
use fdpcache::ftl::FtlConfig;
use fdpcache::nvme::{FaultConfig, FaultKind, ScriptedFault};
use fdpcache::placement::{RoundRobinPolicy, SharedController};
use fdpcache::workloads::{Op, Oracle, Request};

const BLOCK: u64 = 4096;

fn cache_config(ram_bytes: u64) -> CacheConfig {
    CacheConfig {
        ram_bytes,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * BLOCK, ..NvmConfig::default() },
        use_fdp: true,
    }
}

/// Builds a single-tenant stack over a faulted device, returning the
/// controller, cache, and the namespace-relative first LOC block.
fn faulted_stack(fault: FaultConfig, ram_bytes: u64) -> (SharedController, HybridCache, u64) {
    faulted_stack_with(fault, &cache_config(ram_bytes))
}

/// [`faulted_stack`] under any cache configuration with
/// [`cache_config`]'s SOC fraction.
fn faulted_stack_with(
    fault: FaultConfig,
    config: &CacheConfig,
) -> (SharedController, HybridCache, u64) {
    let ctrl = build_device_faulted(FtlConfig::tiny_test(), StoreKind::Mem, true, fault).unwrap();
    let nsid = create_namespace(&ctrl, 0.9, vec![0, 1]).unwrap();
    let blocks = ctrl.namespace(nsid).unwrap().lba_count;
    let cache = build_cache(&ctrl, nsid, config, Box::new(RoundRobinPolicy::new())).unwrap();
    // Same arithmetic as NavyEngine::new: SOC gets the first
    // soc_fraction of blocks, LOC regions start right after.
    let soc_blocks = (blocks as f64 * 0.1).floor() as u64;
    (ctrl, cache, soc_blocks)
}

/// The first LOC block of a fresh tiny-test stack (pure function of the
/// geometry; used to aim scripted faults before the device exists).
fn loc_base_block() -> u64 {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Null, true).unwrap();
    let nsid = create_namespace(&ctrl, 0.9, vec![0, 1]).unwrap();
    let blocks = ctrl.namespace(nsid).unwrap().lba_count;
    (blocks as f64 * 0.1).floor() as u64
}

#[test]
fn persistent_seal_fault_quarantines_and_requeues_without_losing_objects() {
    // A born-bad block inside LOC region 0: the first seal of that
    // region fails every retry, the region is quarantined, and every
    // buffered object is requeued — and still retrievable.
    let bad = loc_base_block() + 5;
    let fault = FaultConfig {
        scripted: vec![ScriptedFault {
            kind: FaultKind::WriteError,
            lba: bad,
            at_access: 0,
            repeats: u64::MAX,
        }],
        ..Default::default()
    };
    let (ctrl, mut cache, _) = faulted_stack(fault, 1_000);
    // 16-block regions = 64 KiB; 20 KiB objects force seals quickly.
    let mut oracle = Oracle::new();
    for key in 0..12u64 {
        oracle.step(&mut cache, Request { op: Op::Set, key, size: 20_000 }).unwrap();
    }
    let loc = cache.navy().loc().stats();
    assert!(loc.seal_faults >= 1, "region 0's seal must fail persistently");
    assert_eq!(loc.quarantined_regions, loc.seal_faults);
    assert!(loc.requeued_objects > 0, "rescued objects must be requeued");
    assert!(cache.stats().requeues > 0, "requeues must surface in CacheStats");
    // Every acknowledged object is either served correctly or was
    // legitimately evicted — and nothing on flash is torn.
    let tally = oracle.tally_flash(|k| cache.verify_flash_key(k).unwrap());
    assert_eq!(tally.lost, [], "torn objects after seal recovery");
    assert!(tally.verified() > 0, "requeued objects must land somewhere readable");
    ctrl.with_ftl(|f| f.check_invariants());
}

/// A write-retry site of the flash engines, as
/// [`write_retry_budgets_hold_exactly`] drives it.
#[derive(Debug, Clone, Copy)]
enum RetrySite {
    SocBucketWrite,
    LocSeal,
    LocFooterRewrite,
}

#[test]
fn write_retry_budgets_hold_exactly() {
    // Each site's attempt budget, written out so that changing one
    // fails here: a write fault repeated `budget - 1` times is absorbed
    // by the last attempt, one repeated `budget` times exhausts the
    // site and takes its fallback.
    const KEY: u64 = 5;
    let table =
        [(RetrySite::SocBucketWrite, 4), (RetrySite::LocSeal, 4), (RetrySite::LocFooterRewrite, 4)];
    for (site, budget) in table {
        // Aim the fault from an identical fault-free build.
        let (lba, at_access) = {
            let (_, probe, _) = faulted_stack(FaultConfig::default(), 1_000);
            let (soc, loc) = (probe.navy().soc(), probe.navy().loc());
            match site {
                RetrySite::SocBucketWrite => (soc.bucket_block(soc.bucket_index(KEY)), 0),
                RetrySite::LocSeal => (loc.region_start_block(0), 0),
                // Access 0 is the seal writing the footer in the first place.
                RetrySite::LocFooterRewrite => (loc.meta_start_block(0), 1),
            }
        };
        for repeats in [budget - 1, budget] {
            let exhausted = repeats == budget;
            let fault = FaultConfig {
                scripted: vec![ScriptedFault {
                    kind: FaultKind::WriteError,
                    lba,
                    at_access,
                    repeats,
                }],
                ..Default::default()
            };
            let (ctrl, mut cache, _) = faulted_stack(fault, 1_000);
            let case = format!("{site:?} with {repeats} failing attempts");
            match site {
                RetrySite::SocBucketWrite => {
                    // The filler evicts KEY, alone, into its SOC bucket.
                    cache.put(KEY, Value::synthetic(90)).unwrap();
                    cache.put(KEY + 1, Value::synthetic(950)).unwrap();
                    let soc = cache.navy().soc().stats();
                    assert_eq!(soc.write_retries, budget - 1, "{case}");
                    assert_eq!(soc.write_faults, exhausted as u64, "{case}");
                    let expect =
                        if exhausted { FlashVerify::Absent } else { FlashVerify::Verified };
                    assert_eq!(cache.verify_flash_key(KEY).unwrap(), expect, "{case}: rollback");
                }
                RetrySite::LocSeal | RetrySite::LocFooterRewrite => {
                    // Three 20 KB objects fill LOC region 0; the fourth
                    // seals it.
                    for k in 0..4u64 {
                        cache.put(k, Value::synthetic(20_000)).unwrap();
                    }
                    let loc = cache.navy().loc().stats();
                    if let RetrySite::LocSeal = site {
                        assert_eq!(loc.seal_retries, budget - 1, "{case}");
                        assert_eq!(loc.seal_faults, exhausted as u64, "{case}");
                        assert_eq!(loc.quarantined_regions, exhausted as u64, "{case}");
                        assert_eq!(loc.requeued_objects, if exhausted { 3 } else { 0 }, "{case}");
                    } else {
                        assert_eq!(loc.seals, 1, "{case}");
                        // Deleting a sealed key rewrites region 0's footer.
                        assert!(cache.delete(0).unwrap());
                        let loc = cache.navy().loc().stats();
                        assert_eq!(loc.footer_retries, budget - 1, "{case}");
                        assert_eq!(loc.footer_rewrites, !exhausted as u64, "{case}");
                        assert_eq!(loc.footer_faults, exhausted as u64, "{case}");
                        let discards = cache.navy().io().stats().discards;
                        assert_eq!(discards, exhausted as u64, "{case}: slot discarded");
                    }
                }
            }
            assert_eq!(cache.stats().retries, budget - 1, "{case}: retries");
            ctrl.with_ftl(|f| f.check_invariants());
        }
    }
}

/// A read or TRIM retry site of the flash engines, as
/// [`read_retry_budgets_hold_exactly`] drives it.
#[derive(Debug, Clone, Copy)]
enum ReadSite {
    SocRmwRead,
    SocLookupBusy,
    SocLookupMedia,
    LocLookupBusy,
    LocLookupMedia,
    SocRecoveryRead,
    LocFooterRecoveryRead,
    RegionEvictTrim,
}

#[test]
fn read_retry_budgets_hold_exactly() {
    // Each site's attempt budget, written out so that changing one
    // fails here: a fault repeated `budget - 1` times is outlasted, one
    // repeated `budget` times exhausts the site and takes its fallback.
    // A lookup retries a busy rejection only, so a media error gets a
    // single attempt.
    const KEY: u64 = 5;
    let table = [
        (ReadSite::SocRmwRead, 2),
        (ReadSite::SocLookupBusy, 2),
        (ReadSite::SocLookupMedia, 1),
        (ReadSite::LocLookupBusy, 2),
        (ReadSite::LocLookupMedia, 1),
        (ReadSite::SocRecoveryRead, 2),
        (ReadSite::LocFooterRecoveryRead, 2),
        (ReadSite::RegionEvictTrim, 2),
    ];
    let trim = CacheConfig {
        nvm: NvmConfig { trim_on_region_evict: true, ..cache_config(1_000).nvm },
        ..cache_config(1_000)
    };
    // Puts KEY, alone, into its SOC bucket: one page write, no read.
    let soc_key = |cache: &mut HybridCache| {
        cache.put(KEY, Value::synthetic(90)).unwrap();
        cache.put(KEY + 1, Value::synthetic(950)).unwrap();
    };
    // Three 20 KB objects fill LOC region 0; the fourth seals it.
    let seal_region_0 = |cache: &mut HybridCache| {
        for k in 0..4u64 {
            cache.put(k, Value::synthetic(20_000)).unwrap();
        }
    };
    // Puts 20 KB objects until the LOC evicts its first region,
    // region 0.
    let evict_region_0 = |cache: &mut HybridCache| {
        for k in 0..10_000u64 {
            cache.put(k, Value::synthetic(20_000)).unwrap();
            if cache.navy().loc().stats().region_evictions > 0 {
                return;
            }
        }
        panic!("the LOC never wrapped");
    };
    for (site, budget) in table {
        let config =
            if let ReadSite::RegionEvictTrim = site { &trim } else { &cache_config(1_000) };
        // Aim the fault from an identical fault-free build.
        let (kind, lba, at_access) = {
            let (_, probe, _) = faulted_stack_with(FaultConfig::default(), config);
            let (soc, loc) = (probe.navy().soc(), probe.navy().loc());
            let bucket = soc.bucket_block(soc.bucket_index(KEY));
            let region = loc.region_start_block(0);
            // A busy rejection counts every command at its start block;
            // access 0 there is the write that put the data down.
            match site {
                ReadSite::SocRmwRead | ReadSite::SocLookupMedia | ReadSite::SocRecoveryRead => {
                    (FaultKind::ReadError, bucket, 0)
                }
                ReadSite::SocLookupBusy => (FaultKind::Busy, bucket, 1),
                ReadSite::LocLookupMedia => (FaultKind::ReadError, region, 0),
                ReadSite::LocLookupBusy => (FaultKind::Busy, region, 1),
                ReadSite::LocFooterRecoveryRead => {
                    (FaultKind::ReadError, loc.meta_start_block(0), 0)
                }
                ReadSite::RegionEvictTrim => (FaultKind::DiscardError, region, 0),
            }
        };
        for repeats in [budget - 1, budget] {
            let exhausted = repeats == budget;
            let fault = FaultConfig {
                scripted: vec![ScriptedFault { kind, lba, at_access, repeats }],
                ..Default::default()
            };
            let (ctrl, mut cache, _) = faulted_stack_with(fault, config);
            cache.set_promote_on_nvm_hit(false);
            let case = format!("{site:?} with {repeats} failing attempts");
            match site {
                ReadSite::SocRmwRead => {
                    // KEY's second trip to flash rewrites its written
                    // bucket, whose read-modify-write read faults; a
                    // fault-free run gives the counts to compare.
                    let (_, mut clean, _) = faulted_stack_with(FaultConfig::default(), config);
                    for cache in [&mut clean, &mut cache] {
                        soc_key(cache);
                        cache.put(KEY, Value::synthetic(91)).unwrap();
                        cache.put(KEY + 2, Value::synthetic(950)).unwrap();
                    }
                    let (soc, base) = (cache.navy().soc().stats(), clean.navy().soc().stats());
                    assert_eq!(soc.read_faults, 1, "{case}");
                    assert_eq!(soc.rmw_reads, base.rmw_reads - exhausted as u64, "{case}");
                    assert_eq!(soc.page_writes, base.page_writes, "{case}: the write goes on");
                    let verified = cache.verify_flash_key(KEY).unwrap();
                    assert_eq!(verified, FlashVerify::Verified, "{case}");
                }
                ReadSite::SocLookupBusy | ReadSite::SocLookupMedia => {
                    soc_key(&mut cache);
                    let (outcome, _) = cache.get(KEY).unwrap();
                    let soc = cache.navy().soc().stats();
                    let expect = if exhausted { GetOutcome::Miss } else { GetOutcome::SocHit };
                    assert_eq!(outcome, expect, "{case}");
                    assert_eq!(soc.read_faults, exhausted as u64, "{case}");
                    assert_eq!(soc.repair_writes, exhausted as u64, "{case}");
                    assert_eq!(cache.get(KEY).unwrap().0, GetOutcome::SocHit, "{case}: repaired");
                }
                ReadSite::LocLookupBusy | ReadSite::LocLookupMedia => {
                    seal_region_0(&mut cache);
                    let (outcome, _) = cache.get(0).unwrap();
                    let loc = cache.navy().loc().stats();
                    let expect = if exhausted { GetOutcome::Miss } else { GetOutcome::LocHit };
                    assert_eq!(outcome, expect, "{case}");
                    assert_eq!(loc.read_faults, exhausted as u64, "{case}");
                    assert_eq!(loc.repair_writes, exhausted as u64, "{case}");
                    assert_eq!(cache.get(0).unwrap().0, GetOutcome::LocHit, "{case}: repaired");
                }
                ReadSite::SocRecoveryRead | ReadSite::LocFooterRecoveryRead => {
                    // Crash with KEY in its bucket and region 0 sealed,
                    // then recover: the recovery read of the bucket
                    // page or of the footer's block 0 faults.
                    soc_key(&mut cache);
                    seal_region_0(&mut cache);
                    drop(cache);
                    let policy = Box::new(RoundRobinPolicy::new());
                    cache = recover_cache(&ctrl, 1, config, policy).unwrap();
                    let (soc, loc) = (cache.navy().soc().stats(), cache.navy().loc().stats());
                    let (read_faults, key) = match site {
                        ReadSite::SocRecoveryRead => (soc.read_faults, KEY),
                        _ => (loc.read_faults, 0),
                    };
                    assert_eq!(read_faults, 1, "{case}: the first fault is counted");
                    let recovered = cache.persisted_keys().contains(&key);
                    assert_eq!(recovered, !exhausted, "{case}: absent once exhausted");
                }
                ReadSite::RegionEvictTrim => {
                    evict_region_0(&mut cache);
                    let loc = cache.navy().loc().stats();
                    assert_eq!(loc.discard_faults, exhausted as u64, "{case}");
                }
            }
            assert_eq!(cache.navy().io().stats().faults, repeats, "{case}: attempts that faulted");
            // Every re-issue the site's budget grants is a counted retry,
            // lookups' busy re-reads and TRIM re-issues included.
            assert_eq!(cache.stats().retries, budget - 1, "{case}: retries");
            ctrl.with_ftl(|f| f.check_invariants());
        }
    }
}

#[test]
fn loc_read_fault_demotes_to_miss_and_repairs() {
    // Permanently unreadable block under the first sealed object: the
    // lookup demotes to a miss, repair-writes the object into the
    // active region, and the next lookup hits again.
    let bad = loc_base_block();
    let fault = FaultConfig {
        scripted: vec![ScriptedFault {
            kind: FaultKind::ReadError,
            lba: bad,
            at_access: 0,
            repeats: u64::MAX,
        }],
        ..Default::default()
    };
    let (ctrl, mut cache, _) = faulted_stack(fault, 1_000);
    cache.set_promote_on_nvm_hit(false);
    // First LOC object lands at region 0 offset 0 (covering block =
    // the bad one); filler forces the seal.
    cache.put(77, Value::synthetic(20_000)).unwrap();
    cache.put(78, Value::synthetic(50_000)).unwrap();
    assert!(cache.navy().loc().stats().seals >= 1);
    let (first, v) = cache.get(77).unwrap();
    assert_eq!(first, GetOutcome::Miss, "read fault must demote to a miss");
    assert!(v.is_none());
    let loc = cache.navy().loc().stats();
    assert!(loc.read_faults >= 1);
    assert!(loc.repair_writes >= 1, "demotion must repair-write the object");
    let (second, v) = cache.get(77).unwrap();
    assert_eq!(second, GetOutcome::LocHit, "repaired object must hit again");
    assert_eq!(v.unwrap().len(), 20_000);
    assert!(cache.stats().repairs >= 1, "repairs must surface in CacheStats");
    ctrl.with_ftl(|f| f.check_invariants());
}

#[test]
fn soc_read_fault_demotes_to_miss_and_repairs() {
    // Find where a small key's SOC bucket lives (deterministic), then
    // rebuild with a one-shot read fault on that bucket's page.
    let key = 5u64;
    let bucket = {
        let (_, cache, _) = faulted_stack(FaultConfig::default(), 1_000);
        cache.navy().soc().bucket_index(key)
    };
    let fault = FaultConfig {
        scripted: vec![ScriptedFault {
            kind: FaultKind::ReadError,
            lba: bucket, // SOC buckets start at namespace block 0
            at_access: 0,
            repeats: 1,
        }],
        ..Default::default()
    };
    let (ctrl, mut cache, _) = faulted_stack(fault, 1_000);
    cache.set_promote_on_nvm_hit(false);
    // Tiny RAM: enough 90-byte puts push `key` into the SOC.
    for k in 0..100u64 {
        cache.put(k, Value::synthetic(90)).unwrap();
    }
    let (first, _) = cache.get(key).unwrap();
    assert_eq!(first, GetOutcome::Miss, "faulted bucket read must demote to a miss");
    let soc = cache.navy().soc().stats();
    assert!(soc.read_faults >= 1);
    assert!(soc.repair_writes >= 1, "bucket must be repair-written");
    let (second, v) = cache.get(key).unwrap();
    assert_eq!(second, GetOutcome::SocHit, "repaired bucket must hit again");
    assert_eq!(v.unwrap().len(), 90);
    assert_eq!(cache.verify_flash_key(key).unwrap(), FlashVerify::Verified);
    ctrl.with_ftl(|f| f.check_invariants());
}

#[test]
fn size_class_change_never_resurrects_a_stale_soc_copy() {
    // A key re-acknowledged at a larger size must supersede its SOC
    // copy even when that bucket's page can no longer be rewritten:
    // the SOC drops the entry from its authoritative list and
    // invalidates the stale page instead of rolling the removal back
    // (which would serve the superseded value forever).
    let key = 5u64;
    let bucket = {
        let (_, cache, _) = faulted_stack(FaultConfig::default(), 1_000);
        cache.navy().soc().bucket_index(key)
    };
    let fault = FaultConfig {
        scripted: vec![ScriptedFault {
            kind: FaultKind::WriteError,
            lba: bucket,
            at_access: 1, // first bucket write succeeds, every later one fails
            repeats: u64::MAX,
        }],
        ..Default::default()
    };
    let (ctrl, mut cache, _) = faulted_stack(fault, 1_000);
    cache.set_promote_on_nvm_hit(false);
    // Land v1 (small) in the SOC: the bucket's first page write is the
    // clean access 0.
    cache.put(key, Value::synthetic(90)).unwrap();
    for k in 1_000..1_040u64 {
        cache.put(k, Value::synthetic(90)).unwrap();
    }
    // Re-acknowledge the key at LOC size: the engine's soc.remove hits
    // the permanently faulting bucket rewrite and must still remove.
    cache.put(key, Value::synthetic(10_000)).unwrap();
    let (outcome, v) = cache.get(key).unwrap();
    assert_eq!(outcome, GetOutcome::LocHit, "stale SOC copy must never serve");
    assert_eq!(v.unwrap().len(), 10_000, "the newer acknowledged value wins");
    assert!(cache.navy().soc().stats().write_faults >= 1, "the bad bucket must have faulted");
    ctrl.with_ftl(|f| f.check_invariants());
}

#[test]
fn mid_seal_fault_does_not_poison_a_shard() {
    // Regression: a persistent seal failure inside one pool shard must
    // leave the shard's lock healthy and the shard serving — from the
    // faulting thread and from others.
    let config = CacheConfig {
        ram_bytes: 8 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * BLOCK, ..NvmConfig::default() },
        use_fdp: true,
    };
    // Learn shard 0's LOC layout from an identical fault-free build.
    let loc_base = {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let pool =
            ConcurrentPool::new(&ctrl, &config, 2, 0.9, || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        assert_eq!(pool.shards(), 2);
        let blocks = ctrl.namespace(1).unwrap().lba_count;
        (blocks as f64 * 0.2).floor() as u64 // shard 0 starts at device LBA 0
    };
    let fault = FaultConfig {
        scripted: (0..3u64)
            .map(|i| ScriptedFault {
                kind: FaultKind::WriteError,
                lba: loc_base + i * 8, // first block of shard 0's regions 0..3
                at_access: 0,
                repeats: u64::MAX,
            })
            .collect(),
        ..Default::default()
    };
    let ctrl = build_device_faulted(FtlConfig::tiny_test(), StoreKind::Mem, true, fault).unwrap();
    let pool = std::sync::Arc::new(
        ConcurrentPool::new(&ctrl, &config, 2, 0.9, || Box::new(RoundRobinPolicy::new())).unwrap(),
    );
    // Two threads hammer large objects; shard 0's early seals fail
    // persistently and recover by quarantine + requeue.
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let pool = pool.clone();
            scope.spawn(move || {
                for i in 0..60u64 {
                    pool.put(t * 1_000 + i, Value::synthetic(3_000)).unwrap();
                }
            });
        }
    });
    let stats = pool.stats();
    assert!(stats.faults > 0, "scripted faults must have fired");
    assert!(
        stats.retries + stats.requeues > 0,
        "recovery must surface through the pool merge: {stats:?}"
    );
    // The shard mutexes are healthy: every shard still serves from a
    // fresh thread, including the one that held the failing seal.
    std::thread::scope(|scope| {
        let pool = pool.clone();
        scope.spawn(move || {
            for k in 5_000..5_100u64 {
                pool.put(k, Value::synthetic(3_000)).unwrap();
                let (_, v) = pool.get(k).unwrap();
                assert_eq!(v.expect("own put visible").len(), 3_000);
            }
        });
    });
    ctrl.with_ftl(|f| f.check_invariants());
}
