//! Determinism regression: the pool replayer must be a pure function
//! of its seed at one worker, and its aggregate counters must be
//! invariant to the worker count in partitioned mode.
//!
//! Why this holds: in `PoolMode::Partitioned` every worker walks an
//! identical stream and executes exactly the requests whose shard it
//! owns, so each shard sees the same request subsequence in the same
//! order no matter how many threads carry it. Per-shard cache state is
//! therefore bit-identical across worker counts; only device-global
//! side effects that depend on cross-shard interleaving (GC victim
//! choice, hence media bytes and latency) may differ.
//!
//! The replay checks are one table ([`replay_table!`]): each row names
//! a workload and the axes it runs on — payload stores, queue depths, a
//! fault schedule, worker counts — and [`check`] applies the same
//! assertions to every combination.

use fdpcache::cache::builder::{build_device, build_device_faulted, StoreKind};
use fdpcache::cache::{CacheConfig, CacheStats, ConcurrentPool, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::nvme::{FaultConfig, FaultKind, ScriptedFault};
use fdpcache::placement::{RoundRobinPolicy, SharedController};
use fdpcache::workloads::{
    replay_pool, run_pool_round, ExperimentResult, FaultScenario, PoolMode, PoolReplayConfig,
    WorkloadProfile,
};

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
    /// Whether the virtual clock (hence KOPS) is worker-invariant too:
    /// only where the device does almost no work, since GC victims
    /// depend on how shards interleave.
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

/// Replays `case` on a fresh stack; the label carries the scenario.
fn replay(case: &Case, store: StoreKind, workers: usize, queue_depth: usize) -> ExperimentResult {
    let ftl = FtlConfig::tiny_test();
    let (ctrl, label) = match &case.fault {
        Some(s) => (
            build_device_faulted(ftl, store, true, s.config.clone()).unwrap(),
            format!("FDP+{}", s.name),
        ),
        None => (build_device(ftl, store, true).unwrap(), "FDP".to_string()),
    };
    let pool = ConcurrentPool::new(&ctrl, &cache_config(), case.shards, 0.9, || {
        Box::new(RoundRobinPolicy::new())
    })
    .unwrap();
    let profile = (case.profile)();
    let cfg = PoolReplayConfig {
        workers,
        warmup_ops: 3_000,
        measure_ops: 12_000,
        seed: case.seed,
        mode: PoolMode::Partitioned,
        queue_depth,
    };
    let r = replay_pool(&label, profile.name, &pool, &ctrl, &cfg, |seed| {
        profile.generator(5_000, seed)
    })
    .unwrap();
    assert_eq!(r.label, label);
    ctrl.with_ftl(|f| f.check_invariants());
    r
}

/// Asserts every virtual-time field of two replay results is
/// bit-identical (floats compared by bits, not tolerance).
fn assert_bit_identical(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(a.ops, b.ops, "{what}: ops");
    assert_eq!(a.host_bytes, b.host_bytes, "{what}: host bytes");
    assert_eq!(a.media_bytes, b.media_bytes, "{what}: media bytes");
    assert_eq!(a.gc_events, b.gc_events, "{what}: GC events");
    assert_eq!(a.hit_ratio.to_bits(), b.hit_ratio.to_bits(), "{what}: hit ratio");
    assert_eq!(a.nvm_hit_ratio.to_bits(), b.nvm_hit_ratio.to_bits(), "{what}: nvm hit ratio");
    assert_eq!(a.dlwa.to_bits(), b.dlwa.to_bits(), "{what}: DLWA");
    assert_eq!(a.alwa.to_bits(), b.alwa.to_bits(), "{what}: ALWA");
    assert_eq!(a.kops.to_bits(), b.kops.to_bits(), "{what}: virtual KOPS");
    assert_eq!(a.p99_read_us.to_bits(), b.p99_read_us.to_bits(), "{what}: p99 read");
    assert_eq!(a.p99_write_us.to_bits(), b.p99_write_us.to_bits(), "{what}: p99 write");
    assert_eq!(
        (a.faults, a.retries, a.repairs, a.requeues),
        (b.faults, b.retries, b.repairs, b.requeues),
        "{what}: fault/recovery counters"
    );
}

/// The table's one loop body. At every depth and store: a one-worker
/// rerun is bit-identical, and every listed worker count reproduces the
/// one-worker counters (ops, host bytes, hit ratios, fault/recovery
/// counters, and KOPS where the clock is invariant). At every depth,
/// every listed store is bit-identical to the first.
fn check(case: Case) {
    for &qd in case.depths {
        let mut first: Option<ExperimentResult> = None;
        for &store in case.stores {
            let what = format!("{store:?} QD-{qd}");
            let one = replay(&case, store, 1, qd);
            assert_bit_identical(&one, &replay(&case, store, 1, qd), &format!("{what} rerun"));
            assert!(one.hit_ratio > case.min_hit_ratio, "{what}: hit ratio {}", one.hit_ratio);
            if case.fault.is_some() {
                assert!(one.faults > 0, "{what}: the schedule must actually inject");
            }
            for &workers in case.workers {
                let w = replay(&case, store, workers, qd);
                let what = format!("{what}, {workers} workers");
                assert_eq!(one.ops, w.ops, "{what}: ops");
                assert_eq!(one.host_bytes, w.host_bytes, "{what}: host bytes");
                assert_eq!(one.hit_ratio.to_bits(), w.hit_ratio.to_bits(), "{what}: hit ratio");
                assert_eq!(
                    one.nvm_hit_ratio.to_bits(),
                    w.nvm_hit_ratio.to_bits(),
                    "{what}: nvm hit ratio"
                );
                assert_eq!(
                    (one.faults, one.retries, one.repairs, one.requeues),
                    (w.faults, w.retries, w.repairs, w.requeues),
                    "{what}: fault counters changed with the thread count"
                );
                if case.clock_invariant {
                    assert_eq!(one.kops.to_bits(), w.kops.to_bits(), "{what}: virtual KOPS");
                }
            }
            match &first {
                Some(f) => assert_bit_identical(f, &one, &format!("QD-{qd} {store:?} vs first")),
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
    /// The rolled-up result is counter-stable across thread counts too
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
    /// The lock-free read path must not cost the replayer its
    /// determinism: each shard's epoch-protected index is read and
    /// written by exactly one thread, so even the read-side counters and
    /// the virtual host time they feed into KOPS are worker-invariant.
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
        let reports = run_pool_round(&pool, &mut sources, PoolMode::Partitioned, 15_000);
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
        let reports = run_pool_round(&pool, &mut sources, PoolMode::Partitioned, 6_000);
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
        let reports = run_pool_round(&recovered, &mut sources, PoolMode::Partitioned, 6_000);
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
