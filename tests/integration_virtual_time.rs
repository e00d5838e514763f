//! Virtual time pinned to exact integers: a seeded, seal-heavy LOC
//! replay through the LOC's wrap and device GC on the tiny device,
//! checked against the counters and latency sums recorded before the
//! FTL mapped runs and the payload store recorded runs; a LOC churn
//! replay of deletes, overwrites and size-class flips, checked against
//! the counters recorded before the LOC kept one key map; and a
//! read-mostly pool replay whose lock-free reads steer DRAM eviction,
//! checked against the counters recorded before a SET of the value
//! already in DRAM stopped republishing it. A change that
//! only makes the host faster must leave every one of these numbers
//! as it is; a change that moves one must say why and re-pin it.

use fdpcache::cache::builder::{build_device, build_stack, StoreKind};
use fdpcache::cache::loc::LocStats;
use fdpcache::cache::{CacheConfig, CacheStats, ConcurrentPool, NvmConfig, Value};
use fdpcache::ftl::{FtlConfig, FtlStats};
use fdpcache::nand::{LatencyModel, NandStats};
use fdpcache::nvme::FdpStatsLog;
use fdpcache::placement::{HealthIoStats, HealthState, IoStats, RoundRobinPolicy};
use fdpcache::workloads::{run_pool_round, Op, WorkloadProfile};

/// Everything the replay is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    ftl: FtlStats,
    nand: NandStats,
    io: IoStats,
    fdp: FdpStatsLog,
    /// Sum of every write, read and discard completion latency (ns).
    latency_sum_ns: u128,
    /// The cache's virtual clock at the end (ns).
    now_ns: u64,
    /// LOC regions evicted: > 0 means the LOC wrapped.
    region_evictions: u64,
}

/// Replays 6 000 requests of the seal-heavy profile (8–64 KiB objects,
/// 90 % SETs) at queue depth 4 on a full tiny device, with a small
/// SOC-bound SET after every third request so GC has live pages to
/// relocate. Regions are 40 blocks: three commands per seal
/// (16 + 16 + 8 blocks), so seals straddle the device's 128-page
/// reclaim units.
fn replay(fdp: bool) -> Pinned {
    let ftl = FtlConfig { latency: LatencyModel::default(), ..FtlConfig::tiny_test() };
    let config = CacheConfig {
        ram_bytes: 64 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 40 * 4096, ..NvmConfig::default() },
        use_fdp: fdp,
    };
    let (ctrl, mut cache) = build_stack(ftl, StoreKind::Mem, fdp, 1.0, &config).unwrap();
    cache.set_queue_depth(4);
    let mut gen = WorkloadProfile::loc_seal_heavy().generator(400, 11);
    for i in 0..6_000u64 {
        if i % 3 == 0 {
            let small = Value::synthetic(100 + (i * 37 % 1_400) as u32);
            cache.put(1_000_000 + i * 7 % 3_000, small).unwrap();
        }
        let req = gen.next_request();
        match req.op {
            Op::Get => {
                cache.get(req.key).unwrap();
            }
            Op::Set => cache.put(req.key, Value::synthetic(req.size)).unwrap(),
            Op::Delete => {
                cache.delete(req.key).unwrap();
            }
        }
    }
    cache.drain_io();
    let io = cache.navy().io();
    Pinned {
        ftl: ctrl.with_ftl(|f| f.stats()),
        nand: ctrl.with_ftl(|f| f.nand_stats()),
        io: io.stats(),
        fdp: ctrl.fdp_stats_log(),
        latency_sum_ns: io.write_latency().sum()
            + io.read_latency().sum()
            + io.discard_latency().sum(),
        now_ns: cache.now_ns(),
        region_evictions: cache.navy().loc().stats().region_evictions,
    }
}

/// The replay's numbers, recorded before the FTL mapped a command's
/// pages as runs and before the payload store recorded runs.
fn expected(fdp: bool) -> Pinned {
    let health =
        |windows| HealthIoStats { state: HealthState::Healthy, windows, ..Default::default() };
    let io = |windows| IoStats {
        writes: 8_953,
        reads: 2_134,
        discards: 0,
        bytes_written: 248_389_632,
        bytes_read: 18_513_920,
        bytes_discarded: 0,
        faults: 0,
        health: health(windows),
    };
    let host = FtlStats {
        host_pages_written: 60_642,
        overwrites: 59_136,
        host_reads: 4_520,
        ..Default::default()
    };
    if fdp {
        Pinned {
            ftl: FtlStats {
                nand_pages_written: 88_781,
                relocated_pages: 28_139,
                gc_runs: 680,
                rus_erased: 680,
                ..host
            },
            nand: NandStats {
                pages_programmed: 88_781,
                pages_read: 32_659,
                superblock_erases: 680,
            },
            io: io(190),
            fdp: FdpStatsLog {
                host_bytes_written: 248_389_632,
                media_bytes_written: 363_646_976,
                media_bytes_erased: 356_515_840,
                media_relocated_events: 680,
                log_events_dropped: 1_579,
            },
            latency_sum_ns: 16_574_192_847,
            now_ns: 4_143_834_009,
            region_evictions: 1_365,
        }
    } else {
        Pinned {
            ftl: FtlStats {
                nand_pages_written: 69_313,
                relocated_pages: 8_671,
                gc_runs: 527,
                rus_erased: 527,
                ..host
            },
            nand: NandStats {
                pages_programmed: 69_313,
                pages_read: 13_191,
                superblock_erases: 527,
            },
            io: io(122),
            fdp: FdpStatsLog {
                host_bytes_written: 248_389_632,
                media_bytes_written: 283_906_048,
                media_bytes_erased: 276_299_776,
                media_relocated_events: 527,
                log_events_dropped: 1_272,
            },
            latency_sum_ns: 10_094_582_875,
            now_ns: 2_524_140_885,
            region_evictions: 1_365,
        }
    }
}

#[test]
fn seal_heavy_replay_keeps_its_pinned_virtual_time() {
    for fdp in [true, false] {
        let got = replay(fdp);
        assert!(got.region_evictions > 0, "fdp {fdp}: the LOC never wrapped");
        assert!(got.ftl.relocated_pages > 0, "fdp {fdp}: GC relocated nothing");
        assert_eq!(got, expected(fdp), "fdp {fdp}: virtual time moved");
    }
}

/// Everything the pool replay is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct PinnedPool {
    cache: CacheStats,
    io: IoStats,
    ftl: FtlStats,
    /// The pool's virtual-time frontier at the end (ns).
    now_ns: u64,
}

/// Replays 40 000 requests of the read-mostly-hot profile (the workload
/// behind the benchmark's `dram_hot_reads`) through a two-shard pool
/// driven by one worker. Its 4 000 keys overflow the 64 KiB of DRAM, so
/// eviction runs all along, and the pool serves GETs lock-free: which
/// entry leaves DRAM depends on the second-chance flags those reads set
/// and on what every SET, including one of the value already resident,
/// does to them.
fn pool_replay() -> PinnedPool {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
    let config = CacheConfig {
        ram_bytes: 64 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.5, region_bytes: 8 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    };
    let pool =
        ConcurrentPool::new(&ctrl, &config, 2, 0.9, || Box::new(RoundRobinPolicy::new())).unwrap();
    let mut sources = [WorkloadProfile::read_mostly_hot().generator(4_000, 46)];
    for report in run_pool_round(&pool, &mut sources, 40_000) {
        assert_eq!(report.error, None, "the pool replay failed");
    }
    pool.drain_io();
    PinnedPool {
        cache: pool.stats(),
        io: pool.io_stats(),
        ftl: ctrl.with_ftl(|f| f.stats()),
        now_ns: pool.now_ns(),
    }
}

/// The pool replay's numbers, recorded before a SET of the value a key
/// already holds in DRAM stopped republishing it. That SET must still
/// clear the entry's second-chance flag, as a fresh entry's starts
/// clear: one that kept it moves five evictions and six flash reads.
fn expected_pool() -> PinnedPool {
    PinnedPool {
        cache: CacheStats {
            gets: 38_063,
            ram_hits: 24_871,
            nvm_lookups: 13_192,
            soc_hits: 852,
            puts: 1_937,
            nvm_insert_attempts: 1_291,
            nvm_inserts: 1_291,
            nvm_app_bytes: 328_094,
            ..Default::default()
        },
        io: IoStats {
            writes: 1_291,
            reads: 1_754,
            bytes_written: 5_287_936,
            bytes_read: 7_184_384,
            ..Default::default()
        },
        ftl: FtlStats {
            host_pages_written: 1_291,
            nand_pages_written: 1_291,
            overwrites: 902,
            host_reads: 1_754,
            ..Default::default()
        },
        now_ns: 44_036_000,
    }
}

#[test]
fn read_mostly_pool_replay_keeps_its_pinned_counters() {
    let got = pool_replay();
    assert!(got.cache.nvm_insert_attempts > 0, "DRAM never evicted");
    assert_eq!(got, expected_pool(), "the pool replay moved");
}

/// Everything the churn replay is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct PinnedChurn {
    loc: LocStats,
    io: IoStats,
    ftl: FtlStats,
    /// The cache's virtual clock at the end (ns).
    now_ns: u64,
}

/// Replays 12 000 requests through 16 KiB of DRAM and 32 KiB LOC
/// regions, so every LOC-sized SET reaches flash at once. Half the
/// requests go to 32 hot keys, whose copies spread over several
/// regions, and half to 2 000 cold keys, which region eviction drops.
/// The requests are SETs of 3–12 KiB
/// (LOC-bound), SETs of 200–1 700 bytes that flip a key to the SOC's
/// size class (the engine then removes its LOC copy), deletes and
/// GETs. Between them they drive `Loc::remove`, footer rewrites, the
/// scrub of an older copy's footer when its key is deleted or evicted,
/// and footer retirement at every region eviction.
fn churn_replay(fdp: bool) -> PinnedChurn {
    let ftl = FtlConfig { latency: LatencyModel::default(), ..FtlConfig::tiny_test() };
    let config = CacheConfig {
        ram_bytes: 16 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 8 * 4096, ..NvmConfig::default() },
        use_fdp: fdp,
    };
    let (ctrl, mut cache) = build_stack(ftl, StoreKind::Mem, fdp, 1.0, &config).unwrap();
    let mut state = 0x5EED_u64;
    let mut draw = |n: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    for _ in 0..12_000 {
        let pick = draw(100);
        let key = if draw(2) == 0 { draw(32) } else { 32 + draw(2_000) };
        match pick {
            0..=54 => cache.put(key, Value::synthetic(3_000 + draw(9_000) as u32)).unwrap(),
            55..=64 => cache.put(key, Value::synthetic(200 + draw(1_500) as u32)).unwrap(),
            65..=79 => {
                cache.delete(key).unwrap();
            }
            _ => {
                cache.get(key).unwrap();
            }
        }
    }
    cache.drain_io();
    PinnedChurn {
        loc: cache.navy().loc().stats(),
        io: cache.navy().io().stats(),
        ftl: ctrl.with_ftl(|f| f.stats()),
        now_ns: cache.now_ns(),
    }
}

/// The churn replay's numbers, recorded before the LOC kept one key
/// map in place of its index, active-buffer map and key-to-regions
/// inversion. Only the device's GC differs between FDP and Non-FDP.
fn expected_churn(fdp: bool) -> PinnedChurn {
    let (windows, nand_pages_written, relocated_pages, gc_runs, now_ns) = if fdp {
        (398, 43_205, 18_674, 325, 8_330_951_909)
    } else {
        (439, 58_045, 33_514, 439, 9_580_283_454)
    };
    PinnedChurn {
        loc: LocStats {
            inserts: 7_447,
            seals: 1_973,
            region_evictions: 1_821,
            evicted_objects: 2_560,
            lookups: 2_119,
            hits: 964,
            app_bytes_written: 56_299_309,
            removes: 1_183,
            footer_rewrites: 4_594,
            footer_blocks_written: 6_567,
            ..Default::default()
        },
        io: IoStats {
            writes: 10_720,
            reads: 3_150,
            bytes_written: 100_478_976,
            bytes_read: 19_300_352,
            health: HealthIoStats { state: HealthState::Healthy, windows, ..Default::default() },
            ..Default::default()
        },
        ftl: FtlStats {
            host_pages_written: 24_531,
            nand_pages_written,
            relocated_pages,
            gc_runs,
            rus_erased: gc_runs,
            overwrites: 23_005,
            host_reads: 4_712,
            ..Default::default()
        },
        now_ns,
    }
}

#[test]
fn loc_churn_replay_keeps_its_pinned_counters() {
    for fdp in [true, false] {
        let got = churn_replay(fdp);
        // Every region eviction retires its footer; the rest of the
        // footer rewrites are delete persistence and scrubs.
        assert!(got.loc.removes > 0 && got.loc.evicted_objects > 0, "fdp {fdp}: {:?}", got.loc);
        assert!(got.loc.footer_rewrites > got.loc.region_evictions, "fdp {fdp}: no scrub");
        assert_eq!(got, expected_churn(fdp), "fdp {fdp}: the churn replay moved");
    }
}
