//! Multi-worker device throughput: the benchmark guarding the
//! fine-grained-concurrency refactor.
//!
//! Topology matches the paper's §5.4 setup: N worker threads, each with
//! its own hybrid cache on its own namespace (its own queue pair and
//! placement handles), all sharing one device. Before the controller
//! moved to interior fine-grained locking this could not scale — every
//! command serialized through one `Arc<Mutex<Controller>>`; now only
//! the FTL mapping section is device-wide, and aggregate ops/sec must
//! grow with workers (the `bench_throughput --check` gate asserts ≥2×
//! at 4 workers).
//!
//! Wall-clock time is real here, unlike the virtual-time latency model:
//! this measures the *simulator's* ability to exploit host parallelism,
//! which is what lets multi-tenant and utilization-sweep experiments
//! run at realistic thread counts.

use std::time::Instant;

use fdpcache_cache::builder::{
    build_cache, build_device, create_namespace, equal_share_fraction, StoreKind,
};
use fdpcache_cache::value::Value;
use fdpcache_cache::{CacheConfig, CacheError, NvmConfig};
use fdpcache_core::{RoundRobinPolicy, SharedController};
use fdpcache_ftl::FtlConfig;
use fdpcache_nand::Geometry;
use fdpcache_workloads::concurrent::{run_workers, Worker};
use fdpcache_workloads::trace::Op;
use fdpcache_workloads::{TraceGen, WorkloadProfile};

/// The bench-device FTL configuration shared by every gate binary, so
/// the sweeps always measure the same device shape: 4 KiB LBAs, 8 RUHs,
/// scaled defaults otherwise.
pub fn bench_ftl_config(device_mib: u64, ru_mib: u64, seed: u64) -> FtlConfig {
    let geometry = Geometry::with_capacity(device_mib << 20, ru_mib << 20, 4096)
        .expect("bench geometry must be constructible");
    FtlConfig { geometry, num_ruhs: 8, seed, ..FtlConfig::scaled_default() }
}

/// One throughput measurement: `workers` threads × `ops` each on a
/// shared device.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Worker thread count.
    pub workers: usize,
    /// Operations completed across all workers.
    pub total_ops: u64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// Aggregate throughput in thousands of ops per wall second.
    pub kops: f64,
}

/// Configuration for a throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Device capacity in MiB.
    pub device_mib: u64,
    /// Reclaim-unit size in MiB.
    pub ru_mib: u64,
    /// Operations per worker.
    pub ops_per_worker: u64,
    /// Payload store kind (MemStore exercises payload copies too).
    pub store: StoreKind,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            device_mib: 512,
            ru_mib: 16,
            ops_per_worker: 50_000,
            store: StoreKind::Mem,
            seed: 42,
        }
    }
}

impl ThroughputConfig {
    /// The device configuration for this run.
    pub fn ftl_config(&self) -> FtlConfig {
        bench_ftl_config(self.device_mib, self.ru_mib, self.seed)
    }
}

fn build_workers(
    cfg: &ThroughputConfig,
    workers: usize,
) -> (SharedController, Vec<Worker<TraceGen>>) {
    let ctrl = build_device(cfg.ftl_config(), cfg.store, true).expect("device");
    let cache_config = CacheConfig {
        ram_bytes: 256 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 1 << 20, ..NvmConfig::default() },
        use_fdp: true,
    };
    let mut out = Vec::with_capacity(workers);
    for i in 0..workers {
        // Every worker gets the SAME slice size regardless of worker
        // count (1/8 of usable capacity, the max sweep width), so
        // per-op cost is identical across sweep points and speedup
        // measures concurrency alone.
        let nsid =
            create_namespace(&ctrl, equal_share_fraction(i, 8, 0.9), (0..8).collect()).expect("ns");
        let cache = build_cache(&ctrl, nsid, &cache_config, Box::new(RoundRobinPolicy::new()))
            .expect("cache");
        let profile = WorkloadProfile::meta_kv_cache();
        out.push(Worker {
            cache,
            source: profile.generator(20_000, cfg.seed + i as u64),
            ops: cfg.ops_per_worker,
        });
    }
    (ctrl, out)
}

/// Runs `workers` threads against one shared device and measures
/// aggregate wall-clock throughput.
///
/// # Panics
///
/// Panics if any worker hits a device error (the throughput
/// configuration is sized so the device cannot wear out).
pub fn run_throughput(cfg: &ThroughputConfig, workers: usize) -> ThroughputResult {
    let (ctrl, work) = build_workers(cfg, workers);
    let start = Instant::now();
    let (reports, _caches) = run_workers(work);
    let wall = start.elapsed();
    let mut total_ops = 0u64;
    for r in &reports {
        assert!(r.error.is_none(), "worker {} failed: {:?}", r.worker, r.error);
        total_ops += r.ops;
    }
    // Consistency: the device-side sharded counters must account for
    // every worker's traffic.
    let device = ctrl.device_io_stats();
    assert!(device.writes > 0, "throughput run produced no device writes");
    ctrl.with_ftl(|f| f.check_invariants());
    let wall_secs = wall.as_secs_f64().max(1e-9);
    ThroughputResult { workers, total_ops, wall_secs, kops: total_ops as f64 / wall_secs / 1e3 }
}

/// Runs the standard sweep (1, 2, 4, 8 workers), taking the best of
/// `trials` runs per point — wall-clock noise on shared hosts is
/// one-sided (preemption only slows a run), so max kops is the
/// faithful estimate. Returns the results in sweep order.
pub fn sweep(cfg: &ThroughputConfig, trials: u64) -> Vec<ThroughputResult> {
    [1usize, 2, 4, 8]
        .iter()
        .map(|&w| {
            (0..trials.max(1))
                .map(|_| run_throughput(cfg, w))
                .max_by(|a, b| a.kops.total_cmp(&b.kops))
                .expect("at least one trial")
        })
        .collect()
}

/// One point of the queue-depth sweep: a deterministic single-worker
/// replay of the region-seal-heavy workload at queue depth `qd`.
///
/// Unlike the worker sweep (wall clock, host-parallelism), the QD sweep
/// is measured in **virtual** time: the simulator's latency model is
/// deterministic, so ops per simulated second is a bit-reproducible
/// readout of how much device parallelism the batched submission
/// pipeline exploits — host core count and scheduler noise cannot touch
/// the gate.
#[derive(Debug, Clone, Copy)]
pub struct QdResult {
    /// Queue depth of the run.
    pub qd: usize,
    /// Operations replayed.
    pub total_ops: u64,
    /// Virtual (simulated) seconds the replay took.
    pub virtual_secs: f64,
    /// Throughput in thousands of ops per **virtual** second.
    pub vkops: f64,
    /// Wall-clock seconds for the run (informational).
    pub wall_secs: f64,
    /// Final virtual clock (ns) — bit-identical across runs of the same
    /// configuration, which is what the determinism check asserts.
    pub now_ns: u64,
}

/// Replays the region-seal-heavy workload through one cache at queue
/// depth `qd` and reports virtual-time throughput.
///
/// # Panics
///
/// Panics if the replay hits a device error (the configuration is sized
/// so the device cannot wear out).
pub fn run_qd_replay(cfg: &ThroughputConfig, qd: usize) -> QdResult {
    let ctrl = build_device(cfg.ftl_config(), cfg.store, true).expect("device");
    let cache_config = CacheConfig {
        ram_bytes: 256 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.02, region_bytes: 1 << 20, ..NvmConfig::default() },
        use_fdp: true,
    };
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("ns");
    let mut cache =
        build_cache(&ctrl, nsid, &cache_config, Box::new(RoundRobinPolicy::new())).expect("cache");
    cache.set_queue_depth(qd);
    let profile = WorkloadProfile::loc_seal_heavy();
    let mut gen = profile.generator(20_000, cfg.seed);
    let start = Instant::now();
    for _ in 0..cfg.ops_per_worker {
        let req = gen.next_request();
        match req.op {
            Op::Get => {
                cache.get(req.key).expect("get");
            }
            Op::Set => match cache.put(req.key, Value::synthetic(req.size)) {
                Ok(()) | Err(CacheError::ObjectTooLarge { .. }) => {}
                Err(e) => panic!("put failed: {e}"),
            },
            Op::Delete => {
                cache.delete(req.key).expect("delete");
            }
        }
    }
    cache.drain_io();
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    let now_ns = cache.now_ns();
    let virtual_secs = (now_ns as f64 * 1e-9).max(1e-12);
    ctrl.with_ftl(|f| f.check_invariants());
    QdResult {
        qd,
        total_ops: cfg.ops_per_worker,
        virtual_secs,
        vkops: cfg.ops_per_worker as f64 / virtual_secs / 1e3,
        wall_secs,
        now_ns,
    }
}

/// Runs the standard queue-depth sweep (QD 1, 2, 4, 8) of the
/// region-seal-heavy replay. One trial per point: virtual-time results
/// are deterministic, so repetition buys nothing.
pub fn qd_sweep(cfg: &ThroughputConfig) -> Vec<QdResult> {
    [1usize, 2, 4, 8].iter().map(|&qd| run_qd_replay(cfg, qd)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_run_completes_and_accounts_every_op() {
        let cfg = ThroughputConfig {
            device_mib: 64,
            ru_mib: 2,
            ops_per_worker: 2_000,
            ..ThroughputConfig::default()
        };
        let r = run_throughput(&cfg, 4);
        assert_eq!(r.workers, 4);
        assert_eq!(r.total_ops, 4 * 2_000);
        assert!(r.kops > 0.0);
    }

    #[test]
    fn qd_replay_is_deterministic_and_scales_virtual_throughput() {
        let cfg = ThroughputConfig {
            device_mib: 64,
            ru_mib: 2,
            ops_per_worker: 3_000,
            store: StoreKind::Null,
            ..ThroughputConfig::default()
        };
        let qd1 = run_qd_replay(&cfg, 1);
        let qd1_again = run_qd_replay(&cfg, 1);
        assert_eq!(qd1.now_ns, qd1_again.now_ns, "QD-1 replay must be bit-identical");
        let qd4 = run_qd_replay(&cfg, 4);
        assert!(
            qd4.vkops >= 1.3 * qd1.vkops,
            "QD4 batched replay must beat the synchronous path: {} vs {}",
            qd4.vkops,
            qd1.vkops
        );
    }
}
