//! Determinism regression: the threaded pool driver must be a pure
//! function of its seed at one worker, and what each shard does must be
//! invariant to the worker count.
//!
//! Why this holds: `run_pool_round` has every worker walk an identical
//! stream and execute exactly the requests whose shard it owns, so each
//! shard sees the same request subsequence in the same order no matter
//! how many threads carry it. Per-shard cache state and I/O counters
//! are therefore bit-identical across worker counts; only device-global
//! side effects that depend on cross-shard interleaving (GC victim
//! choice, hence media bytes and latency) may differ.
//!
//! The replay checks are one table ([`replay_table!`]): each row names
//! a workload and the axes it runs on — payload stores, queue depths, a
//! fault schedule, worker counts — and [`check`] applies the same
//! assertions to every combination. Each replay drives the pool with
//! `run_pool_round` directly and records what virtual time decides
//! ([`Run`]): every shard's cache and I/O counters, clock, ALWA bytes
//! and latency tails, and the device's FDP log.

use fdpcache::cache::builder::{build_device, build_device_faulted, StoreKind};
use fdpcache::cache::{CacheConfig, CacheStats, ConcurrentPool, HybridCache, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::metrics::Histogram;
use fdpcache::nvme::{FaultConfig, FaultKind, FdpStatsLog, ScriptedFault};
use fdpcache::placement::{IoStats, RoundRobinPolicy, SharedController};
use fdpcache::workloads::{run_pool_round, FaultScenario, WorkloadProfile};

fn cache_config() -> CacheConfig {
    CacheConfig {
        ram_bytes: 32 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    }
}

fn stack(shards: usize) -> (SharedController, ConcurrentPool) {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Null, true).unwrap();
    let p = ConcurrentPool::new(&ctrl, &cache_config(), shards, 0.9, || {
        Box::new(RoundRobinPolicy::new())
    })
    .unwrap();
    (ctrl, p)
}

/// One row of the replay table.
struct Case {
    profile: fn() -> WorkloadProfile,
    shards: usize,
    seed: u64,
    /// Every store replays bit-identically to the first one listed.
    stores: &'static [StoreKind],
    depths: &'static [usize],
    fault: Option<FaultScenario>,
    /// Worker counts whose counters must equal the one-worker run's.
    workers: &'static [usize],
    /// Whether each shard's virtual clock is worker-invariant too: only
    /// where the device does almost no work, since GC victims depend on
    /// how shards interleave.
    clock_invariant: bool,
    /// The one-worker hit ratio must exceed this.
    min_hit_ratio: f64,
}

/// The KV profile on 4 shards, one store, queue depth 1, no faults.
const KV: Case = Case {
    profile: WorkloadProfile::meta_kv_cache,
    shards: 4,
    seed: 1234,
    stores: &[StoreKind::Null],
    depths: &[1],
    fault: None,
    workers: &[],
    clock_invariant: false,
    min_hit_ratio: 0.0,
};

/// The read-mostly-hot profile (the workload behind the benchmark's
/// `dram_hot_reads`) on 8 shards: nearly every GET is a lock-free DRAM
/// hit, and the Zipf head must mostly hit.
const READ_MOSTLY: Case = Case {
    profile: WorkloadProfile::read_mostly_hot,
    shards: 8,
    seed: 4242,
    min_hit_ratio: 0.5,
    ..KV
};

/// A fault schedule hotter than the bench scenarios, so a short replay
/// sees a meaningful one.
fn hot_mix(name: &'static str, seed: u64) -> Option<FaultScenario> {
    let config = FaultConfig {
        seed,
        read_err_ppm: 3_000,
        write_err_ppm: 3_000,
        busy_ppm: 5_000,
        busy_penalty_ns: 400_000,
        ..Default::default()
    };
    Some(FaultScenario { name, config })
}

/// What virtual time decides about one shard over the measured round.
#[derive(Debug, Clone, PartialEq)]
struct ShardWindow {
    /// Cache counters over the round: ops, hit ratios, and the fault,
    /// retry, repair and requeue counters.
    stats: CacheStats,
    /// The queue pair's I/O counters at the round's end.
    io: IoStats,
    /// The virtual clock at the round's start and end.
    now_ns: [u64; 2],
    /// [`HybridCache::amp_bytes`] at the round's end (ALWA).
    amp_bytes: (u64, u64),
    /// p99 device read and write latency over the round (ns).
    p99_ns: (u64, u64),
}

/// One replay of the table: a warm-up round, then a measured round.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    /// Requests the measured round executed.
    ops: u64,
    shards: Vec<ShardWindow>,
    /// p99 device read and write latency over the round, merged across
    /// shards (ns).
    p99_ns: (u64, u64),
    /// The device's log over the measured round: host and media bytes,
    /// GC events, hence DLWA.
    log: FdpStatsLog,
}

impl Run {
    /// The merged cache counters over the measured round.
    fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |m, s| m.merge(&s.stats))
    }
}

/// Replays `case` on a fresh stack: every worker walks the same stream
/// through [`run_pool_round`], 3 000 requests of warm-up, then 12 000
/// measured.
fn replay(case: &Case, store: StoreKind, workers: usize, queue_depth: usize) -> Run {
    let ftl = FtlConfig::tiny_test();
    let ctrl = match &case.fault {
        Some(s) => build_device_faulted(ftl, store, true, s.config.clone()).unwrap(),
        None => build_device(ftl, store, true).unwrap(),
    };
    let pool = ConcurrentPool::new(&ctrl, &cache_config(), case.shards, 0.9, || {
        Box::new(RoundRobinPolicy::new())
    })
    .unwrap();
    pool.set_queue_depth(queue_depth);
    let profile = (case.profile)();
    let mut sources: Vec<_> = (0..workers).map(|_| profile.generator(5_000, case.seed)).collect();
    let mut round = |ops| -> u64 {
        let reports = run_pool_round(&pool, &mut sources, ops);
        reports.iter().for_each(|r| assert_eq!(r.error, None, "worker {} failed", r.worker));
        reports.iter().map(|r| r.executed).sum()
    };
    round(3_000);
    // The window opens once every in-flight command is reaped.
    pool.drain_io();
    let log0 = ctrl.fdp_stats_log();
    let open = |c: &mut HybridCache| {
        c.reset_latency();
        (c.stats(), c.now_ns())
    };
    let origin: Vec<_> = (0..case.shards).map(|i| pool.with_shard(i, open).unwrap()).collect();
    let ops = round(12_000);
    pool.drain_io();
    let (mut read, mut write) = (Histogram::new(), Histogram::new());
    let close = |(i, (s0, t0)): (usize, (CacheStats, u64))| {
        pool.with_shard(i, |c| {
            let navy = c.navy();
            read.merge(navy.read_latency());
            write.merge(navy.write_latency());
            ShardWindow {
                stats: c.stats().delta(&s0),
                io: navy.io().stats(),
                now_ns: [t0, c.now_ns()],
                amp_bytes: c.amp_bytes(),
                p99_ns: (navy.read_latency().p99(), navy.write_latency().p99()),
            }
        })
        .unwrap()
    };
    let shards = origin.into_iter().enumerate().map(close).collect();
    ctrl.with_ftl(|f| f.check_invariants());
    let log = ctrl.fdp_stats_log().delta(&log0);
    Run { ops, shards, p99_ns: (read.p99(), write.p99()), log }
}

/// The table's one loop body. At every depth and store: a one-worker
/// rerun is bit-identical, and every listed worker count reproduces
/// what the partition makes invariant — the op count, each shard's
/// cache and I/O counters and ALWA bytes, the device's host bytes, and
/// each shard's clock where the row says so. At every depth, every
/// listed store is bit-identical to the first.
fn check(case: Case) {
    for &qd in case.depths {
        let mut first: Option<Run> = None;
        for &store in case.stores {
            let what = format!("{store:?} QD-{qd}");
            let one = replay(&case, store, 1, qd);
            assert_eq!(one, replay(&case, store, 1, qd), "{what}: rerun");
            let hit_ratio = one.stats().hit_ratio();
            assert!(hit_ratio > case.min_hit_ratio, "{what}: hit ratio {hit_ratio}");
            if case.fault.is_some() {
                assert!(one.stats().faults > 0, "{what}: the schedule must actually inject");
            }
            for &workers in case.workers {
                let w = replay(&case, store, workers, qd);
                let what = format!("{what}, {workers} workers");
                assert_eq!(one.ops, w.ops, "{what}: ops");
                assert_eq!(
                    one.log.host_bytes_written, w.log.host_bytes_written,
                    "{what}: host bytes"
                );
                for (i, (a, b)) in one.shards.iter().zip(&w.shards).enumerate() {
                    assert_eq!(a.stats, b.stats, "{what}: shard {i} cache counters");
                    assert_eq!(a.io, b.io, "{what}: shard {i} I/O counters");
                    assert_eq!(a.amp_bytes, b.amp_bytes, "{what}: shard {i} ALWA bytes");
                    if case.clock_invariant {
                        assert_eq!(a.now_ns, b.now_ns, "{what}: shard {i} virtual clock");
                    }
                }
            }
            match &first {
                Some(f) => assert_eq!(f, &one, "QD-{qd} {store:?} vs first"),
                None => first = Some(one),
            }
        }
    }
}

/// One `#[test]` per row of the replay table, each run by [`check`].
macro_rules! replay_table {
    ($($(#[$doc:meta])* $name:ident: $case:expr;)*) => {
        $( $(#[$doc])* #[test] fn $name() { check($case) } )*
    };
}

replay_table! {
    /// Same seed, two fresh stacks, one worker: every reported metric is
    /// bit-identical — hit rate, DLWA, byte counters, op counts.
    same_seed_is_bit_identical_at_one_worker: KV;
    /// Every shard's counters are stable across thread counts too
    /// (ratios are quotients of invariant counters).
    pool_replay_metrics_are_thread_count_invariant: Case { workers: &[4], ..KV };
    /// The pipeline depth never introduces nondeterminism: QD-1 and QD-4
    /// reruns are bit-identical on either payload store.
    qd_replays_are_bit_identical_per_depth: Case {
        stores: &[StoreKind::Null, StoreKind::Mem],
        depths: &[1, 4],
        ..KV
    };
    /// The payload store is invisible to virtual time: the slab-backed
    /// `MemStore` replays bit-identically to the payload-free
    /// `NullStore` at QD-1 and QD-4, and its counters stay
    /// worker-invariant exactly as on the payload-free store.
    slab_store_never_perturbs_virtual_time_at_any_depth: Case {
        stores: &[StoreKind::Null, StoreKind::Mem],
        depths: &[1, 4],
        workers: &[4],
        ..KV
    };
    /// Fault decisions key on per-LBA access history, never on thread
    /// interleaving, so a faulted pool replay is still a pure function
    /// of its seeds at either depth.
    faulted_qd_pool_replays_are_bit_identical_and_thread_invariant: Case {
        depths: &[1, 4],
        workers: &[4],
        fault: hot_mix("determinism_mix", 0xD373),
        ..KV
    };
    /// The lock-free read path must not cost the pool driver its
    /// determinism: each shard's epoch-protected index is read and
    /// written by exactly one thread, so even the read-side counters and
    /// the virtual host time they feed into each shard's clock are
    /// worker-invariant.
    read_mostly_contended_replays_are_bit_identical_and_thread_invariant: Case {
        workers: &[4, 8],
        clock_invariant: true,
        ..READ_MOSTLY
    };
    /// Lock-free DRAM hits never touch the device, so fault decisions
    /// still key on per-LBA access history alone.
    faulted_read_mostly_replays_stay_deterministic: Case {
        workers: &[8],
        fault: hot_mix("read_mostly_mix", 0x4EAD),
        ..READ_MOSTLY
    };
}

/// 1 worker vs 4 workers, partitioned: aggregate cache counters (ops,
/// bytes, hits) are invariant to the thread count.
#[test]
fn partitioned_counters_are_thread_count_invariant() {
    let run = |workers: usize| -> (CacheStats, u64) {
        let (ctrl, pool) = stack(4);
        let profile = WorkloadProfile::meta_kv_cache();
        let mut sources: Vec<_> = (0..workers).map(|_| profile.generator(5_000, 77)).collect();
        let reports = run_pool_round(&pool, &mut sources, 15_000);
        for r in &reports {
            assert_eq!(r.error, None, "worker {} failed", r.worker);
        }
        ctrl.with_ftl(|f| f.check_invariants());
        (pool.stats(), ctrl.fdp_stats_log().host_bytes_written)
    };
    let (s1, host1) = run(1);
    let (s4, host4) = run(4);
    // CacheStats is a full field-wise comparison: gets, puts, deletes,
    // per-layer hits, flash insert counts and app bytes all match.
    assert_eq!(s1, s4, "aggregate cache counters changed with the thread count");
    assert_eq!(host1, host4, "host bytes written changed with the thread count");
    assert!(s1.gets > 0 && s1.puts > 0, "workload must exercise the stack");
    assert!(host1 > 0, "workload must reach the device");
}

/// Recovery crash-point variant: a scripted `FaultKind::Kill` fires
/// mid-replay, the pool is recovered from flash, and the run
/// continues. The whole crash → recover → continue trajectory must be
/// a pure function of the seeds: same crash point, same recovered
/// state, same post-recovery clocks and I/O stats on a rerun.
#[test]
fn pool_crash_recover_continue_is_deterministic() {
    let run = || {
        let fault = FaultConfig {
            scripted: vec![ScriptedFault {
                kind: FaultKind::Kill,
                lba: 0,
                at_access: 1,
                repeats: 1,
            }],
            ..Default::default()
        };
        let ctrl =
            build_device_faulted(FtlConfig::tiny_test(), StoreKind::Mem, true, fault).unwrap();
        let config = cache_config();
        let pool =
            ConcurrentPool::new(&ctrl, &config, 2, 0.9, || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        let profile = WorkloadProfile::meta_kv_cache();
        let mut sources = vec![profile.generator(5_000, 99)];
        let reports = run_pool_round(&pool, &mut sources, 6_000);
        assert!(
            reports.iter().any(|r| r.error.is_some()),
            "the scripted kill must crash the replay"
        );
        let pre_executed: u64 = reports.iter().map(|r| r.executed).sum();
        drop(pool);

        ctrl.recover_ftl();
        let recovered =
            ConcurrentPool::recover(&ctrl, &config, &[1, 2], || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        let mut sources = vec![profile.generator(5_000, 100)];
        let reports = run_pool_round(&recovered, &mut sources, 6_000);
        for r in &reports {
            assert_eq!(r.error, None, "post-recovery round must run clean");
        }
        recovered.drain_io();
        ctrl.with_ftl(|f| f.check_invariants());
        (pre_executed, recovered.stats(), recovered.now_ns(), recovered.io_stats())
    };
    let (first, rerun) = (run(), run());
    assert_eq!(first.0, rerun.0, "ops executed before the crash point diverged");
    assert_eq!(first.1, rerun.1, "recovered cache stats diverged");
    assert_eq!(first.2, rerun.2, "post-recovery virtual clock diverged");
    assert_eq!(first.3, rerun.3, "post-recovery I/O stats diverged");
}
