//! Concurrent driving: many worker threads, one device.
//!
//! The paper's CacheBench runs tens of threads, each submitting through
//! its own io_uring queue pair into one SSD ("We use an io_uring queue
//! pair per worker thread", §5.4). The simulator reproduces that
//! topology end to end: each worker owns a [`HybridCache`] (its own
//! namespace, opened once, and its own queue pair), and all workers
//! share one controller — a plain `Arc` with fine-grained interior
//! locking. Per-namespace submission state and statistics are the
//! worker's own; payload storage is sharded; only the brief FTL mapping
//! section of each command takes a device-wide lock, and only admin
//! commands touch the namespace table's lock (see
//! `fdpcache_nvme::controller` and DESIGN.md §"Locking model").
//!
//! Because the data path no longer funnels through a controller-wide
//! mutex, this module is a correctness/stress harness on real OS
//! threads: N workers on N namespaces share only the device.
//! Per-worker results aggregate over a bounded channel.
//!
//! Two driver shapes live here:
//!
//! * [`run_workers`] — one [`HybridCache`] **per worker** (worker =
//!   tenant = namespace); the device is the only shared object.
//! * [`run_pool_round`] — one shared [`ConcurrentPool`] for **all**
//!   workers, who either partition its shards deterministically or
//!   contend on them ([`PoolMode`]); this drives the full cache tier
//!   from real threads and backs the pool replayer
//!   ([`crate::replay::replay_pool`]).

use crossbeam::channel;

use fdpcache_cache::value::Value;
use fdpcache_cache::{CacheStats, ConcurrentPool, HybridCache};

use crate::trace::Op;
use crate::tracefile::RequestSource;

/// One worker's inputs: a cache (own namespace + queue pair) and a
/// request source.
pub struct Worker<S: RequestSource + Send> {
    /// The worker's cache instance.
    pub cache: HybridCache,
    /// Its private request stream.
    pub source: S,
    /// Operations to run.
    pub ops: u64,
}

/// One worker's outcome.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker index (input order).
    pub worker: usize,
    /// Operations completed.
    pub ops: u64,
    /// Cache statistics delta over the run.
    pub stats: CacheStats,
    /// First error encountered, if the worker stopped early.
    pub error: Option<String>,
}

/// Runs every worker on its own OS thread until it completes `ops`
/// operations (or hits a device error, which is reported rather than
/// panicking — wear-out stress uses this). Returns reports in worker
/// order along with the caches for post-run inspection.
pub fn run_workers<S: RequestSource + Send>(
    workers: Vec<Worker<S>>,
) -> (Vec<WorkerReport>, Vec<HybridCache>) {
    let n = workers.len();
    let (tx, rx) = channel::bounded::<(usize, WorkerReport, HybridCache)>(n);
    std::thread::scope(|scope| {
        for (idx, mut w) in workers.into_iter().enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                let stats0 = w.cache.stats();
                let mut done = 0u64;
                let mut error = None;
                while done < w.ops {
                    let req = w.source.next_request();
                    let result = match req.op {
                        Op::Get => w.cache.get(req.key).map(|_| ()),
                        Op::Set => match w.cache.put(req.key, Value::synthetic(req.size)) {
                            Err(fdpcache_cache::CacheError::ObjectTooLarge { .. }) => Ok(()),
                            r => r,
                        },
                        Op::Delete => w.cache.delete(req.key).map(|_| ()),
                    };
                    match result {
                        Ok(()) => done += 1,
                        Err(e) => {
                            error = Some(e.to_string());
                            break;
                        }
                    }
                }
                let report = WorkerReport {
                    worker: idx,
                    ops: done,
                    stats: w.cache.stats().delta(&stats0),
                    error,
                };
                // The receiver outlives every sender; a failed send can
                // only mean a panicking main thread, so ignore it.
                let _ = tx.send((idx, report, w.cache));
            });
        }
        drop(tx);
    });
    let mut slots: Vec<Option<(WorkerReport, HybridCache)>> = (0..n).map(|_| None).collect();
    for (idx, report, cache) in rx.iter() {
        slots[idx] = Some((report, cache));
    }
    let mut reports = Vec::with_capacity(n);
    let mut caches = Vec::with_capacity(n);
    for slot in slots {
        let (r, c) = slot.expect("every worker reports exactly once");
        reports.push(r);
        caches.push(c);
    }
    (reports, caches)
}

/// How a round of pool workers divides a trace over a
/// [`ConcurrentPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMode {
    /// Every worker walks an **identical** request stream but executes
    /// only the requests whose shard it owns (shard `s` belongs to
    /// worker `s % workers`). Each request is executed exactly once
    /// across the worker set, and each shard sees the same request
    /// subsequence in the same order **regardless of worker count** —
    /// this is what makes aggregate cache counters thread-count
    /// invariant (the determinism regression test relies on it).
    Partitioned,
    /// Every worker has its own independent stream and executes all of
    /// it, contending on shard locks. Total executed work is
    /// `workers × ops`; used for scaling/stress measurement.
    Contended,
}

/// One pool worker's outcome for a round.
#[derive(Debug, Clone)]
pub struct PoolWorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Requests drawn from the worker's stream.
    pub generated: u64,
    /// Requests actually executed (equals `generated` in
    /// [`PoolMode::Contended`]; the owned-shard subset in
    /// [`PoolMode::Partitioned`]).
    pub executed: u64,
    /// First error encountered, if the worker stopped early.
    pub error: Option<String>,
}

/// Runs one round of pool workers: `sources.len()` OS threads share
/// `pool` through `&self`, each drawing exactly `ops_per_stream`
/// requests from its own source and executing them per `mode`. Sources
/// are advanced in place, so consecutive rounds (warm-up, then
/// measurement) continue the same streams. Reports come back in worker
/// order.
pub fn run_pool_round<S: RequestSource + Send>(
    pool: &ConcurrentPool,
    sources: &mut [S],
    mode: PoolMode,
    ops_per_stream: u64,
) -> Vec<PoolWorkerReport> {
    let workers = sources.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter_mut()
            .enumerate()
            .map(|(widx, source)| {
                scope.spawn(move || {
                    let mut generated = 0u64;
                    let mut executed = 0u64;
                    let mut error = None;
                    while generated < ops_per_stream {
                        let req = source.next_request();
                        generated += 1;
                        let owned = match mode {
                            PoolMode::Contended => true,
                            PoolMode::Partitioned => pool.shard_of(req.key) % workers == widx,
                        };
                        if !owned {
                            continue;
                        }
                        let result = match req.op {
                            Op::Get => pool.get(req.key).map(|_| ()),
                            Op::Set => match pool.put(req.key, Value::synthetic(req.size)) {
                                Err(fdpcache_cache::CacheError::ObjectTooLarge { .. }) => Ok(()),
                                r => r,
                            },
                            Op::Delete => pool.delete(req.key).map(|_| ()),
                        };
                        match result {
                            Ok(()) => executed += 1,
                            Err(e) => {
                                error = Some(e.to_string());
                                break;
                            }
                        }
                    }
                    PoolWorkerReport { worker: widx, generated, executed, error }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::WorkloadProfile;
    use fdpcache_cache::builder::{
        build_cache, build_device, create_namespace, equal_share_fraction, StoreKind,
    };
    use fdpcache_cache::{CacheConfig, NvmConfig};
    use fdpcache_core::RoundRobinPolicy;
    use fdpcache_ftl::FtlConfig;

    fn worker_set(
        n: usize,
        ops: u64,
    ) -> (fdpcache_core::SharedController, Vec<Worker<crate::TraceGen>>) {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Null, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 8 << 10,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let mut workers = Vec::new();
        for i in 0..n {
            let nsid =
                create_namespace(&ctrl, equal_share_fraction(i, n, 0.9), (0..4).collect()).unwrap();
            let cache =
                build_cache(&ctrl, nsid, &config, Box::new(RoundRobinPolicy::new())).unwrap();
            let profile = WorkloadProfile::meta_kv_cache();
            workers.push(Worker { cache, source: profile.generator(5_000, i as u64 + 1), ops });
        }
        (ctrl, workers)
    }

    #[test]
    fn four_workers_share_one_device() {
        let (ctrl, workers) = worker_set(4, 10_000);
        let (reports, _caches) = run_workers(workers);
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert_eq!(r.error, None, "worker {} failed", r.worker);
            assert_eq!(r.ops, 10_000);
            // Oversized tail objects are counted done but rejected before
            // the stats counters; the band weights keep them rare.
            assert!(r.stats.gets + r.stats.puts + r.stats.deletes >= 9_900);
        }
        // The shared device saw everyone's writes and stayed consistent.
        let log = ctrl.fdp_stats_log();
        assert!(log.host_bytes_written > 0);
        assert!(log.dlwa() >= 1.0);
        ctrl.with_ftl(|f| f.check_invariants());
        // Sharded per-namespace counters aggregate without losing ops.
        let device = ctrl.device_io_stats();
        assert!(device.writes > 0);
        assert_eq!(
            device.writes,
            (1..=4).filter_map(|nsid| ctrl.namespace_stats(nsid)).map(|s| s.writes).sum::<u64>()
        );
    }

    #[test]
    fn reports_come_back_in_worker_order() {
        let (_ctrl, workers) = worker_set(3, 1_000);
        let (reports, caches) = run_workers(workers);
        assert_eq!(caches.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.worker, i);
        }
    }

    #[test]
    fn wear_out_under_concurrency_reports_errors_cleanly() {
        let mut ftl = FtlConfig::tiny_test();
        ftl.pe_limit = 6;
        let ctrl = build_device(ftl, StoreKind::Null, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 4 << 10,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let mut workers = Vec::new();
        for i in 0..2 {
            let nsid =
                create_namespace(&ctrl, equal_share_fraction(i, 2, 0.9), (0..4).collect()).unwrap();
            let cache =
                build_cache(&ctrl, nsid, &config, Box::new(RoundRobinPolicy::new())).unwrap();
            let profile = WorkloadProfile::wo_kv_cache();
            workers.push(Worker {
                cache,
                source: profile.generator(5_000, 7 + i as u64),
                ops: u64::MAX / 2, // run until the device dies
            });
        }
        let (reports, _caches) = run_workers(workers);
        // The endurance budget guarantees both workers stop with a device
        // error rather than running forever; no panics, no poisoned state.
        for r in &reports {
            assert!(r.error.is_some(), "worker {} should have hit end-of-life", r.worker);
            assert!(r.ops > 0);
        }
        ctrl.with_ftl(|f| {
            assert!(f.stats().retired_rus > 0);
            f.check_invariants();
        });
    }

    fn shared_pool(shards: usize) -> (fdpcache_core::SharedController, ConcurrentPool) {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Null, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 16 << 10,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let pool =
            ConcurrentPool::new(&ctrl, &config, shards, 0.9, || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        (ctrl, pool)
    }

    #[test]
    fn partitioned_round_executes_every_request_exactly_once() {
        let (ctrl, pool) = shared_pool(4);
        let profile = WorkloadProfile::meta_kv_cache();
        const OPS: u64 = 4_000;
        // All workers walk the SAME stream (same seed).
        let mut sources: Vec<_> = (0..4).map(|_| profile.generator(5_000, 9)).collect();
        let reports = run_pool_round(&pool, &mut sources, PoolMode::Partitioned, OPS);
        for r in &reports {
            assert_eq!(r.error, None, "worker {} failed", r.worker);
            assert_eq!(r.generated, OPS);
        }
        // The partition covers the request stream with no overlap.
        let executed: u64 = reports.iter().map(|r| r.executed).sum();
        assert_eq!(executed, OPS);
        // Oversized tail objects execute but are rejected before the
        // stats counters; the band weights keep them rare.
        let s = pool.stats();
        let counted = s.gets + s.puts + s.deletes;
        assert!((OPS - OPS / 50..=OPS).contains(&counted), "counted {counted} of {OPS}");
        ctrl.with_ftl(|f| f.check_invariants());
    }

    #[test]
    fn contended_round_executes_every_worker_stream_fully() {
        let (ctrl, pool) = shared_pool(2);
        let profile = WorkloadProfile::meta_kv_cache();
        const OPS: u64 = 2_000;
        let mut sources: Vec<_> = (0..3).map(|i| profile.generator(5_000, 21 + i)).collect();
        let reports = run_pool_round(&pool, &mut sources, PoolMode::Contended, OPS);
        for r in &reports {
            assert_eq!(r.error, None, "worker {} failed", r.worker);
            assert_eq!(r.executed, OPS);
        }
        let s = pool.stats();
        let counted = s.gets + s.puts + s.deletes;
        assert!((3 * OPS - OPS / 20..=3 * OPS).contains(&counted), "counted {counted}");
        ctrl.with_ftl(|f| f.check_invariants());
    }

    #[test]
    fn consecutive_rounds_continue_the_same_streams() {
        let (_ctrl, pool) = shared_pool(2);
        let profile = WorkloadProfile::meta_kv_cache();
        let mut sources = vec![profile.generator(5_000, 5)];
        let warm = run_pool_round(&pool, &mut sources, PoolMode::Partitioned, 500);
        let measure = run_pool_round(&pool, &mut sources, PoolMode::Partitioned, 700);
        assert_eq!(warm[0].generated, 500);
        assert_eq!(measure[0].generated, 700);
        // One deterministic stream replayed in one round covers the
        // same requests the two split rounds did.
        let (_ctrl2, pool2) = shared_pool(2);
        let mut whole = vec![profile.generator(5_000, 5)];
        let all = run_pool_round(&pool2, &mut whole, PoolMode::Partitioned, 1_200);
        assert_eq!(all[0].executed, warm[0].executed + measure[0].executed);
        assert_eq!(pool2.stats(), pool.stats());
    }
}
