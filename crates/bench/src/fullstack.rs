//! Full-stack cache-tier throughput: the scaling gate for the
//! concurrent sharded pool.
//!
//! `bench_throughput` guards the *device* layer (N workers, N private
//! caches, one controller). This benchmark guards the tier above it: M
//! worker threads all call one shared [`ConcurrentPool`] through
//! `&self`, so every operation crosses the cache's shard locks, the
//! per-shard engines, and the device's fine-grained locking — the whole
//! stack under real contention. Before the pool existed the cache tier
//! required `&mut self` and could not be driven from more than one
//! thread at all.
//!
//! Wall-clock time is real here (as in `bench_throughput`): this
//! measures the simulator's ability to exploit host parallelism
//! through the full stack, which is what the `bench_fullstack --check`
//! CI gate asserts (≥2× aggregate ops/sec at 4 workers on a ≥4-core
//! host, degrading to a no-regression bound on fewer cores).
//!
//! Both benchmark binaries can emit their `workers → ops/sec`
//! trajectory as a `BENCH_throughput.json` record
//! ([`TrajectoryRecord`], `--json <path>`) so future PRs can track
//! scaling over time; the format is documented in the README.

use std::time::Instant;

use fdpcache_cache::builder::{build_device, StoreKind};
use fdpcache_cache::{CacheConfig, ConcurrentPool, NvmConfig, Value};
use fdpcache_core::RoundRobinPolicy;
use fdpcache_ftl::FtlConfig;
use fdpcache_workloads::concurrent::{run_pool_round, PoolMode};
use fdpcache_workloads::{Op, WorkloadProfile};
use serde::Serialize;

use crate::throughput::ThroughputResult;

/// Configuration for a full-stack pool throughput run.
#[derive(Debug, Clone)]
pub struct FullstackConfig {
    /// Device capacity in MiB.
    pub device_mib: u64,
    /// Reclaim-unit size in MiB.
    pub ru_mib: u64,
    /// Cache shards in the pool (fixed across the sweep so per-op cost
    /// is identical at every worker count).
    pub shards: usize,
    /// Operations per worker.
    pub ops_per_worker: u64,
    /// Payload store kind (MemStore exercises payload copies too).
    pub store: StoreKind,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FullstackConfig {
    fn default() -> Self {
        FullstackConfig {
            device_mib: 512,
            ru_mib: 16,
            shards: 8,
            ops_per_worker: 50_000,
            store: StoreKind::Mem,
            seed: 42,
        }
    }
}

impl FullstackConfig {
    /// The device configuration for this run.
    pub fn ftl_config(&self) -> FtlConfig {
        crate::throughput::bench_ftl_config(self.device_mib, self.ru_mib, self.seed)
    }

    fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            // Total DRAM budget; the pool splits it evenly per shard.
            ram_bytes: 2 << 20,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 1 << 20, ..NvmConfig::default() },
            use_fdp: true,
        }
    }
}

/// Runs `workers` threads against one shared [`ConcurrentPool`] and
/// measures aggregate wall-clock throughput through the full stack.
///
/// # Panics
///
/// Panics if any worker hits a device error (the configuration is
/// sized so the device cannot wear out).
pub fn run_fullstack(cfg: &FullstackConfig, workers: usize) -> ThroughputResult {
    let ctrl = build_device(cfg.ftl_config(), cfg.store, true).expect("device");
    let pool = ConcurrentPool::new(&ctrl, &cfg.cache_config(), cfg.shards, 0.9, || {
        Box::new(RoundRobinPolicy::new())
    })
    .expect("pool");
    let profile = WorkloadProfile::meta_kv_cache();
    let mut sources: Vec<_> =
        (0..workers).map(|i| profile.generator(20_000, cfg.seed + i as u64)).collect();
    let start = Instant::now();
    let reports = run_pool_round(&pool, &mut sources, PoolMode::Contended, cfg.ops_per_worker);
    let wall = start.elapsed();
    let mut total_ops = 0u64;
    for r in &reports {
        assert!(r.error.is_none(), "pool worker {} failed: {:?}", r.worker, r.error);
        assert_eq!(r.executed, cfg.ops_per_worker, "contended worker must run its whole stream");
        total_ops += r.executed;
    }
    // Consistency: merged pool counters account for every executed op,
    // and the shared device stays physically sound under the load.
    let stats = pool.stats();
    assert_eq!(stats.gets + stats.puts + stats.deletes, total_ops, "pool lost operations");
    ctrl.with_ftl(|f| f.check_invariants());
    let wall_secs = wall.as_secs_f64().max(1e-9);
    ThroughputResult { workers, total_ops, wall_secs, kops: total_ops as f64 / wall_secs / 1e3 }
}

/// Runs the standard sweep (1, 2, 4, 8 workers), best of `trials` runs
/// per point (wall-clock noise on shared hosts is one-sided).
pub fn sweep_fullstack(cfg: &FullstackConfig, trials: u64) -> Vec<ThroughputResult> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&w| {
            (0..trials.max(1))
                .map(|_| run_fullstack(cfg, w))
                .max_by(|a, b| a.kops.total_cmp(&b.kops))
                .expect("at least one trial")
        })
        .collect()
}

/// Configuration for the contended-read scaling gate
/// (`bench_fullstack --read`): the read-mostly-hot profile over a
/// DRAM-resident keyspace, so nearly every GET is a DRAM hit and the
/// measurement isolates read-path synchronization cost.
#[derive(Debug, Clone)]
pub struct ReadScalingConfig {
    /// Device capacity in MiB (small: flash traffic is incidental).
    pub device_mib: u64,
    /// Reclaim-unit size in MiB.
    pub ru_mib: u64,
    /// Cache shards in the pool.
    pub shards: usize,
    /// Keyspace size — sized to sit entirely in the pool's DRAM.
    pub keyspace: u64,
    /// Operations per worker in the measured phase.
    pub ops_per_worker: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReadScalingConfig {
    fn default() -> Self {
        ReadScalingConfig {
            device_mib: 128,
            ru_mib: 8,
            shards: 8,
            keyspace: 2_000,
            ops_per_worker: 200_000,
            seed: 42,
        }
    }
}

impl ReadScalingConfig {
    /// The device configuration for this run.
    pub fn ftl_config(&self) -> FtlConfig {
        crate::throughput::bench_ftl_config(self.device_mib, self.ru_mib, self.seed)
    }

    fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            // Generous DRAM: the whole keyspace (~0.5 MiB of ≤1.2 KiB
            // objects) stays resident across all shards.
            ram_bytes: 4 << 20,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 1 << 20, ..NvmConfig::default() },
            use_fdp: true,
        }
    }
}

/// One point of the contended-read sweep.
#[derive(Debug, Clone)]
pub struct ReadScalingResult {
    /// Reader thread count.
    pub workers: usize,
    /// Whether GETs went through the locked baseline path
    /// (`get_locked`) instead of the lock-free index probe.
    pub locked: bool,
    /// Operations completed across all workers.
    pub total_ops: u64,
    /// Wall-clock seconds for the measured phase.
    pub wall_secs: f64,
    /// Aggregate throughput in thousands of ops per wall second.
    pub kops: f64,
    /// DRAM hit ratio over GETs — the gate's premise check (reads must
    /// actually be DRAM hits for the scaling claim to mean anything).
    pub ram_hit_ratio: f64,
}

/// Runs `workers` threads of the read-mostly-hot profile against one
/// shared pool, GETs dispatched through the lock-free path or the
/// locked baseline. The keyspace is pre-warmed into DRAM (coldest key
/// first, so the Zipf head is most-recently-used when measurement
/// starts).
///
/// # Panics
///
/// Panics on any worker I/O error or if the pool's merged counters
/// disagree with the executed op count (lost operations).
pub fn run_read_contended(
    cfg: &ReadScalingConfig,
    workers: usize,
    locked: bool,
) -> ReadScalingResult {
    let ctrl = build_device(cfg.ftl_config(), StoreKind::Mem, true).expect("device");
    let pool = ConcurrentPool::new(&ctrl, &cfg.cache_config(), cfg.shards, 0.9, || {
        Box::new(RoundRobinPolicy::new())
    })
    .expect("pool");
    let profile = WorkloadProfile::read_mostly_hot();
    // Warm: publish every key, hottest (rank 0) last.
    for key in (0..cfg.keyspace).rev() {
        pool.put(key, Value::synthetic(200)).expect("warm put");
    }
    let stats_before = pool.stats();
    let mut sources: Vec<_> = (0..workers)
        .map(|w| profile.generator(cfg.keyspace, cfg.seed + 1_000 + w as u64))
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for source in &mut sources {
            let pool = &pool;
            s.spawn(move || {
                for _ in 0..cfg.ops_per_worker {
                    let req = source.next_request();
                    match req.op {
                        Op::Get if locked => {
                            pool.get_locked(req.key).expect("get_locked");
                        }
                        Op::Get => {
                            pool.get(req.key).expect("get");
                        }
                        Op::Set => {
                            pool.put(req.key, Value::synthetic(req.size)).expect("put");
                        }
                        Op::Delete => {
                            pool.delete(req.key).expect("delete");
                        }
                    }
                }
            });
        }
    });
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    let total_ops = cfg.ops_per_worker * workers as u64;
    // Coherence: the merged counters (locked + atomic read-side) must
    // account for exactly the executed operations.
    let delta = pool.stats().delta(&stats_before);
    assert_eq!(
        delta.gets + delta.puts + delta.deletes,
        total_ops,
        "pool lost operations on the {} read path",
        if locked { "locked" } else { "lock-free" }
    );
    ctrl.with_ftl(|f| f.check_invariants());
    ReadScalingResult {
        workers,
        locked,
        total_ops,
        wall_secs,
        kops: total_ops as f64 / wall_secs / 1e3,
        ram_hit_ratio: delta.ram_hit_ratio(),
    }
}

/// The contended-read sweep behind `bench_fullstack --read`: a locked
/// 1-thread baseline, then the lock-free path at 1, 2, 4 and 8 reader
/// threads; best of `trials` per point.
pub fn sweep_read(cfg: &ReadScalingConfig, trials: u64) -> Vec<ReadScalingResult> {
    let best = |workers: usize, locked: bool| {
        (0..trials.max(1))
            .map(|_| run_read_contended(cfg, workers, locked))
            .max_by(|a, b| a.kops.total_cmp(&b.kops))
            .expect("at least one trial")
    };
    let mut out = vec![best(1, true)];
    out.extend([1usize, 2, 4, 8].iter().map(|&w| best(w, false)));
    out
}

/// One `workers → ops/sec` point of a throughput trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct TrajectoryPoint {
    /// Worker thread count.
    pub workers: usize,
    /// Operations completed across all workers.
    pub total_ops: u64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// Aggregate throughput in thousands of ops per wall second.
    pub kops: f64,
    /// Speedup vs the 1-worker point of the same sweep.
    pub speedup: f64,
}

/// One `queue depth → virtual ops/sec` point of a `--qd` trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct QdTrajectoryPoint {
    /// Queue depth of the run.
    pub qd: usize,
    /// Operations replayed.
    pub total_ops: u64,
    /// Virtual (simulated) seconds the replay took — deterministic.
    pub virtual_secs: f64,
    /// Throughput in thousands of ops per virtual second.
    pub vkops: f64,
    /// Wall-clock seconds for the run (informational).
    pub wall_secs: f64,
    /// Virtual-throughput speedup vs the QD-1 point of the same sweep.
    pub speedup: f64,
}

/// One point of a `--read` contended-read trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct ReadTrajectoryPoint {
    /// `locked` for the mutex baseline row, `lockfree` otherwise.
    pub mode: String,
    /// Reader thread count.
    pub workers: usize,
    /// Operations completed across all workers.
    pub total_ops: u64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// Aggregate throughput in thousands of ops per wall second.
    pub kops: f64,
    /// DRAM hit ratio over GETs during the measured phase.
    pub ram_hit_ratio: f64,
    /// Speedup vs the 1-thread lock-free point of the same sweep.
    pub speedup: f64,
}

/// One fault-scenario row of a `bench_faults` trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct FaultTrajectoryPoint {
    /// Scenario name (`none`, `read_flaky`, ...).
    pub scenario: String,
    /// Operations replayed.
    pub ops: u64,
    /// Final virtual clock (ns) — bit-identical across reruns.
    pub now_ns: u64,
    /// Faults injected by the device's plan.
    pub injected: u64,
    /// Failed command completions the cache's I/O path observed.
    pub faults: u64,
    /// Recovery retries performed.
    pub retries: u64,
    /// Targeted repair-writes performed.
    pub repairs: u64,
    /// Objects requeued out of failed region seals.
    pub requeues: u64,
    /// Acknowledged writes tracked by the verification shadow map.
    pub acked: u64,
    /// Acknowledged keys whose on-flash bytes verified exactly.
    pub verified: u64,
    /// Torn/wrong acknowledged keys (the gate requires 0).
    pub lost: u64,
    /// Whether the scenario's rerun was bit-identical.
    pub deterministic: bool,
}

/// One crash-point row of a `bench_recovery` trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryTrajectoryPoint {
    /// Crash-point label (`soc_bucket_rmw`, `loc_first_seal`, ...).
    pub label: String,
    /// Operations acknowledged before the kill fired.
    pub ops_before_crash: u64,
    /// Virtual clock at the crash (ns) — bit-identical across reruns.
    pub now_at_crash_ns: u64,
    /// FTL mapping-reconstruction strategy (`checkpoint`, `journal`,
    /// `full-scan`).
    pub ftl_path: String,
    /// FDP event-ring entries lost to overflow at recovery; any
    /// non-zero count forces the `full-scan` path.
    pub ftl_events_dropped: u64,
    /// Simulated recovery cost (FTL + cache reattachment, ns).
    pub recovery_ns: u64,
    /// Recovery budget the cost must fit in (ns).
    pub recovery_budget_ns: u64,
    /// Keys persisted at the crash that recovery must serve.
    pub must_survive: u64,
    /// Of those, served with untorn bytes of an acknowledged size.
    pub recovered: u64,
    /// Lost or torn persisted keys (the gate requires 0).
    pub lost: u64,
    /// Acknowledged-deleted keys recovery resurrected (gate requires
    /// 0).
    pub resurrected: u64,
    /// Hit ratio over the post-recovery trace segment.
    pub post_hit_ratio: f64,
    /// Hit ratio of the same segment with no crash.
    pub baseline_post_hit_ratio: f64,
    /// Whether the crash-point rerun was bit-identical.
    pub deterministic: bool,
}

/// One chaos-storm row of a `bench_chaos` trajectory: storm-gate rows
/// (first run of each determinism pair) followed by the
/// topology-invariance rows (same storm across worker counts).
/// Breaker transition traces are compared in-process; the record keeps
/// the flattened evidence.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosTrajectoryPoint {
    /// Storm name (`storm_recover`, `busy_brownout`, ...).
    pub storm: String,
    /// Worker threads driving the partitioned streams.
    pub workers: usize,
    /// Largest per-shard virtual clock frontier (ns) — bit-identical
    /// across reruns and worker counts.
    pub now_ns: u64,
    /// Faults injected by the device's plan.
    pub injected: u64,
    /// Injected-fault errors that surfaced to the driver.
    pub surfaced: u64,
    /// Breaker openings summed across shards.
    pub opens: u64,
    /// Breaker probe-success closes summed across shards.
    pub closes: u64,
    /// Whether every shard that opened also re-closed and ended the
    /// replay serving flash again.
    pub reclosed: bool,
    /// Flash lookups answered as degraded DRAM-only misses.
    pub degraded_misses: u64,
    /// RAM evictions shed while a breaker was open.
    pub shed_evictions: u64,
    /// Device pages patrol-read by the background scrubber.
    pub scrubbed_pages: u64,
    /// Corrupt/unreadable entries the scrubber repaired.
    pub scrub_repairs: u64,
    /// Acknowledged writes tracked by the verification shadow map.
    pub acked: u64,
    /// Acknowledged keys whose on-flash bytes verified exactly.
    pub verified: u64,
    /// Torn/wrong acknowledged keys (the gate requires 0).
    pub lost: u64,
    /// Storm rows: whether the rerun was bit-identical. Topology rows:
    /// whether this run matched the sweep's first topology run.
    pub deterministic: bool,
}

/// One per-tenant row of a `bench_fleet` trajectory: the open-loop
/// SLO rollup plus per-phase p99 evidence from the base worker-count
/// run of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FleetTenantTrajectoryPoint {
    /// Tenant name from the catalog.
    pub tenant: String,
    /// Arrivals admitted into the serving path.
    pub admitted: u64,
    /// Arrivals shed by the tenant's admission budget.
    pub shed: u64,
    /// Sheds whose arrival predates the overload burst (a correctly
    /// sized budget sheds only under the burst, so this must be 0).
    pub shed_pre: u64,
    /// p50 sojourn (µs) across the whole run.
    pub p50_us: Option<f64>,
    /// p99 sojourn (µs) across the whole run.
    pub p99_us: Option<f64>,
    /// Whether the tenant's declared SLO was met.
    pub slo_met: bool,
    /// p99 sojourn (µs) for arrivals before the burst window.
    pub pre_p99_us: Option<f64>,
    /// p99 sojourn (µs) for arrivals inside the burst window.
    pub burst_p99_us: Option<f64>,
    /// p99 sojourn (µs) for arrivals after the burst window.
    pub post_p99_us: Option<f64>,
    /// Whole-run device DLWA (run-level, repeated on every tenant
    /// row).
    pub dlwa: f64,
    /// Whether every worker count and the rerun matched the base run
    /// bit-for-bit.
    pub deterministic: bool,
}

/// The scripted device-failure outcome of a `bench_fleet` trajectory:
/// per-device routing/health evidence plus the acknowledged-write
/// verification tallies.
#[derive(Debug, Clone, Serialize)]
pub struct FleetFailoverTrajectoryPoint {
    /// Per-device reports in fleet order.
    pub devices: Vec<crate::fleet::FleetDeviceReport>,
    /// Injected-fault errors that surfaced to the driver.
    pub surfaced: u64,
    /// Acknowledged writes tracked by the verification shadow map.
    pub acked: u64,
    /// Acknowledged keys verified exactly on their acking device.
    pub verified: u64,
    /// Torn/wrong acknowledged keys (the gate requires 0).
    pub lost: u64,
    /// Acknowledged keys absent from flash (legal for a cache).
    pub absent: u64,
    /// Acknowledged keys whose verification read itself faulted.
    pub unverifiable: u64,
    /// Whether the rerun replayed bit-identically.
    pub deterministic: bool,
}

/// The `BENCH_throughput.json` / `BENCH_faults.json` /
/// `BENCH_recovery.json` / `BENCH_chaos.json` / `BENCH_fleet.json`
/// record the benchmark binaries emit with `--json <path>`: enough
/// context to compare trajectories across PRs.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TrajectoryRecord {
    /// Which benchmark produced the record (`device`, `fullstack`,
    /// `device-qd` for the queue-depth sweep, `fullstack-read`,
    /// `faults`, `recovery`, `chaos` or `fleet`).
    pub bench: String,
    /// Device capacity in MiB.
    pub device_mib: u64,
    /// Operations per worker per run.
    pub ops_per_worker: u64,
    /// Best-of trial count per sweep point.
    pub trials: u64,
    /// Host cores visible to the run (scaling is bounded by these).
    pub host_cores: usize,
    /// Worker sweep points in worker order (empty unless produced by
    /// a worker sweep).
    pub points: Vec<TrajectoryPoint>,
    /// Queue-depth sweep points in depth order (empty unless the run
    /// used `--qd`).
    pub qd_points: Vec<QdTrajectoryPoint>,
    /// Fault-scenario points in gate order (empty unless produced by
    /// `bench_faults`).
    pub fault_points: Vec<FaultTrajectoryPoint>,
    /// Contended-read sweep points — locked baseline row first, then
    /// lock-free rows in worker order (empty unless the run used
    /// `--read`).
    pub read_points: Vec<ReadTrajectoryPoint>,
    /// Warm-restart crash points in gate order (empty unless produced
    /// by `bench_recovery`).
    pub recovery_points: Vec<RecoveryTrajectoryPoint>,
    /// Chaos-storm points — storm gate rows first, then topology
    /// invariance rows (empty unless produced by `bench_chaos`).
    pub chaos_points: Vec<ChaosTrajectoryPoint>,
    /// Scrub-precedence scenario outcome (`None` unless produced by
    /// `bench_chaos`).
    pub chaos_precedence: Option<crate::chaos::ScrubPrecedenceResult>,
    /// Per-tenant open-loop SLO rows (empty unless produced by
    /// `bench_fleet`).
    pub fleet_tenant_points: Vec<FleetTenantTrajectoryPoint>,
    /// Failover-scenario outcome rows, one per determinism pair
    /// (empty unless produced by `bench_fleet`).
    pub fleet_failover_points: Vec<FleetFailoverTrajectoryPoint>,
}

impl TrajectoryRecord {
    /// The scalar context every record carries; the point vectors are
    /// left empty for the constructor to fill in.
    fn header(bench: &str, device_mib: u64, ops_per_worker: u64, trials: u64) -> Self {
        TrajectoryRecord {
            bench: bench.to_string(),
            device_mib,
            ops_per_worker,
            trials,
            host_cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            ..Default::default()
        }
    }

    /// Builds a record from a sweep's results (first point = baseline).
    pub fn new(
        bench: &str,
        device_mib: u64,
        ops_per_worker: u64,
        trials: u64,
        results: &[ThroughputResult],
    ) -> Self {
        let base = results.first().map(|r| r.kops).unwrap_or(1.0).max(1e-9);
        TrajectoryRecord {
            points: results
                .iter()
                .map(|r| TrajectoryPoint {
                    workers: r.workers,
                    total_ops: r.total_ops,
                    wall_secs: r.wall_secs,
                    kops: r.kops,
                    speedup: r.kops / base,
                })
                .collect(),
            ..Self::header(bench, device_mib, ops_per_worker, trials)
        }
    }

    /// Builds a `--qd` record from a queue-depth sweep (first point =
    /// QD-1 baseline).
    pub fn new_qd(
        device_mib: u64,
        ops_per_worker: u64,
        results: &[crate::throughput::QdResult],
    ) -> Self {
        let base = results.first().map(|r| r.vkops).unwrap_or(1.0).max(1e-9);
        TrajectoryRecord {
            qd_points: results
                .iter()
                .map(|r| QdTrajectoryPoint {
                    qd: r.qd,
                    total_ops: r.total_ops,
                    virtual_secs: r.virtual_secs,
                    vkops: r.vkops,
                    wall_secs: r.wall_secs,
                    speedup: r.vkops / base,
                })
                .collect(),
            ..Self::header("device-qd", device_mib, ops_per_worker, 1)
        }
    }

    /// Builds a `faults` record from the fault-gate sweep (one row per
    /// scenario; determinism evidence from each scenario's rerun).
    pub fn new_faults(
        device_mib: u64,
        ops: u64,
        entries: &[crate::faults::FaultSweepEntry],
    ) -> Self {
        TrajectoryRecord {
            fault_points: entries
                .iter()
                .map(|e| FaultTrajectoryPoint {
                    scenario: e.first.scenario.clone(),
                    ops,
                    now_ns: e.first.now_ns,
                    injected: e.first.injected.total(),
                    faults: e.first.stats.faults,
                    retries: e.first.stats.retries,
                    repairs: e.first.stats.repairs,
                    requeues: e.first.stats.requeues,
                    acked: e.first.acked,
                    verified: e.first.verified,
                    lost: e.first.lost,
                    deterministic: e.deterministic(),
                })
                .collect(),
            ..Self::header("faults", device_mib, ops, 2)
        }
    }

    /// Builds a `--read` record from a contended-read sweep (the first
    /// lock-free point is the speedup baseline; the locked row reports
    /// its speedup against that same baseline, so values below 1.0 mean
    /// the lock-free path is faster).
    pub fn new_read(
        device_mib: u64,
        ops_per_worker: u64,
        trials: u64,
        results: &[ReadScalingResult],
    ) -> Self {
        let base = results
            .iter()
            .find(|r| !r.locked && r.workers == 1)
            .map(|r| r.kops)
            .unwrap_or(1.0)
            .max(1e-9);
        TrajectoryRecord {
            read_points: results
                .iter()
                .map(|r| ReadTrajectoryPoint {
                    mode: if r.locked { "locked" } else { "lockfree" }.to_string(),
                    workers: r.workers,
                    total_ops: r.total_ops,
                    wall_secs: r.wall_secs,
                    kops: r.kops,
                    ram_hit_ratio: r.ram_hit_ratio,
                    speedup: r.kops / base,
                })
                .collect(),
            ..Self::header("fullstack-read", device_mib, ops_per_worker, trials)
        }
    }

    /// Builds a `recovery` record from the warm-restart sweep (one row
    /// per crash point; determinism evidence from each point's rerun).
    pub fn new_recovery(
        device_mib: u64,
        ops: u64,
        entries: &[crate::recovery::RecoverySweepEntry],
    ) -> Self {
        TrajectoryRecord {
            recovery_points: entries
                .iter()
                .map(|e| RecoveryTrajectoryPoint {
                    label: e.first.label.clone(),
                    ops_before_crash: e.first.ops_before_crash,
                    now_at_crash_ns: e.first.now_at_crash_ns,
                    ftl_path: e.first.ftl_path.clone(),
                    ftl_events_dropped: e.first.ftl_events_dropped,
                    recovery_ns: e.first.recovery_ns,
                    recovery_budget_ns: e.first.recovery_budget_ns,
                    must_survive: e.first.must_survive,
                    recovered: e.first.recovered,
                    lost: e.first.lost,
                    resurrected: e.first.resurrected,
                    post_hit_ratio: e.first.post_hit_ratio,
                    baseline_post_hit_ratio: e.baseline_post_hit_ratio,
                    deterministic: e.deterministic(),
                })
                .collect(),
            ..Self::header("recovery", device_mib, ops, 2)
        }
    }

    /// Builds a `chaos` record from the chaos-soak sweep: one row per
    /// storm (first run of each determinism pair), then the topology
    /// invariance rows, plus the scrub-precedence outcome.
    pub fn new_chaos(device_mib: u64, ops: u64, sweep: &crate::chaos::ChaosSweep) -> Self {
        let point = |r: &crate::chaos::ChaosRunResult, deterministic: bool| ChaosTrajectoryPoint {
            storm: r.storm.clone(),
            workers: r.workers,
            now_ns: r.shard_now_ns.iter().copied().max().unwrap_or(0),
            injected: r.injected.total(),
            surfaced: r.surfaced,
            opens: r.total_opens(),
            closes: r.total_closes(),
            reclosed: r.all_reclosed(),
            degraded_misses: r.stats.degraded_misses,
            shed_evictions: r.stats.shed_evictions,
            scrubbed_pages: r.stats.scrubbed_pages,
            scrub_repairs: r.stats.scrub_repairs,
            acked: r.acked,
            verified: r.verified,
            lost: r.lost,
            deterministic,
        };
        let mut chaos_points: Vec<ChaosTrajectoryPoint> =
            sweep.storms.iter().map(|e| point(&e.first, e.deterministic())).collect();
        let baseline = sweep.topology.first();
        chaos_points.extend(
            sweep
                .topology
                .iter()
                .map(|r| point(r, baseline.map(|b| b.matches(r)).unwrap_or(false))),
        );
        TrajectoryRecord {
            chaos_points,
            chaos_precedence: Some(sweep.precedence.clone()),
            ..Self::header("chaos", device_mib, ops, 2)
        }
    }

    /// Builds a `fleet` record from the fleet sweep: one row per
    /// tenant (SLO rollup + per-phase p99s from the base worker-count
    /// run, each carrying the sweep-wide determinism verdict) and one
    /// failover row for the scripted device-failure pair.
    pub fn new_fleet(device_mib: u64, sweep: &crate::fleet::FleetSweep) -> Self {
        let base = &sweep.tenant_runs[0];
        let tenants_deterministic = sweep.tenant_runs[1..].iter().all(|r| base.matches(r))
            && base.matches(&sweep.tenant_rerun);
        let fleet_tenant_points = base
            .summaries
            .iter()
            .zip(&base.phases)
            .map(|(s, p)| FleetTenantTrajectoryPoint {
                tenant: s.tenant.clone(),
                admitted: s.admitted,
                shed: s.shed,
                shed_pre: p.shed_pre,
                p50_us: s.p50_us,
                p99_us: s.p99_us,
                slo_met: s.met,
                pre_p99_us: p.pre_p99_us,
                burst_p99_us: p.burst_p99_us,
                post_p99_us: p.post_p99_us,
                dlwa: base.dlwa,
                deterministic: tenants_deterministic,
            })
            .collect();
        let f = &sweep.failover;
        let fleet_failover_points = vec![FleetFailoverTrajectoryPoint {
            devices: f.devices.clone(),
            surfaced: f.surfaced,
            acked: f.acked,
            verified: f.verified,
            lost: f.lost,
            absent: f.absent,
            unverifiable: f.unverifiable,
            deterministic: f.matches(&sweep.failover_rerun),
        }];
        TrajectoryRecord {
            fleet_tenant_points,
            fleet_failover_points,
            ..Self::header(
                "fleet",
                device_mib,
                base.summaries.iter().map(|s| s.admitted + s.shed).sum(),
                2,
            )
        }
    }

    /// Serializes the record and writes it to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; serialization itself cannot fail.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let json = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json)
    }

    /// Writes the record to `path` and says so; a filesystem error ends
    /// the run with status 1. Every gate binary's `--json` goes through
    /// here, so their behavior cannot drift apart.
    pub fn emit(&self, path: &str) {
        match self.write(path) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fullstack_run_completes_and_accounts_every_op() {
        let cfg = FullstackConfig {
            device_mib: 64,
            ru_mib: 2,
            shards: 4,
            ops_per_worker: 2_000,
            ..FullstackConfig::default()
        };
        let r = run_fullstack(&cfg, 4);
        assert_eq!(r.workers, 4);
        assert_eq!(r.total_ops, 4 * 2_000);
        assert!(r.kops > 0.0);
    }

    #[test]
    fn read_contended_accounts_every_op_and_hits_dram() {
        let cfg = ReadScalingConfig {
            device_mib: 64,
            ru_mib: 2,
            shards: 4,
            keyspace: 500,
            ops_per_worker: 5_000,
            ..ReadScalingConfig::default()
        };
        for locked in [false, true] {
            let r = run_read_contended(&cfg, 2, locked);
            assert_eq!(r.total_ops, 2 * 5_000);
            assert!(r.kops > 0.0);
            assert!(
                r.ram_hit_ratio > 0.9,
                "warmed keyspace must serve DRAM hits (locked={locked}, ratio={})",
                r.ram_hit_ratio
            );
        }
    }

    #[test]
    fn read_trajectory_record_tags_modes() {
        let point = |workers: usize, locked: bool, kops: f64| ReadScalingResult {
            workers,
            locked,
            total_ops: 1_000,
            wall_secs: 1.0,
            kops,
            ram_hit_ratio: 0.95,
        };
        let rec = TrajectoryRecord::new_read(
            128,
            1_000,
            1,
            &[point(1, true, 8.0), point(1, false, 10.0), point(8, false, 60.0)],
        );
        assert_eq!(rec.bench, "fullstack-read");
        assert_eq!(rec.read_points.len(), 3);
        assert_eq!(rec.read_points[0].mode, "locked");
        assert!((rec.read_points[0].speedup - 0.8).abs() < 1e-12);
        assert!((rec.read_points[2].speedup - 6.0).abs() < 1e-12);
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"read_points\""));
        assert!(json.contains("\"lockfree\""));
    }

    #[test]
    fn trajectory_record_round_trips_to_json() {
        let results = vec![
            ThroughputResult { workers: 1, total_ops: 100, wall_secs: 1.0, kops: 10.0 },
            ThroughputResult { workers: 4, total_ops: 400, wall_secs: 1.0, kops: 25.0 },
        ];
        let rec = TrajectoryRecord::new("fullstack", 512, 100, 3, &results);
        assert_eq!(rec.points.len(), 2);
        assert!((rec.points[1].speedup - 2.5).abs() < 1e-12);
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"bench\""));
        assert!(json.contains("\"points\""));
        let dir = std::env::temp_dir().join("fdpcache_traj_test");
        let path = dir.join("BENCH_throughput.json");
        rec.write(&path.to_string_lossy()).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"kops\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
