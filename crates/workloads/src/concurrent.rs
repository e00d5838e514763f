//! Concurrent driving: many worker threads, one device.
//!
//! The paper's CacheBench runs tens of threads, each submitting through
//! its own io_uring queue pair into one SSD ("We use an io_uring queue
//! pair per worker thread", §5.4). The simulator reproduces that
//! topology end to end: each pool shard is a cache on its own namespace
//! with its own queue pair, and all shards share one controller — a
//! plain `Arc` with fine-grained interior locking. Per-namespace
//! submission state and statistics are the shard's own; payload
//! storage is sharded; only the brief FTL mapping
//! section of each command takes a device-wide lock, and only admin
//! commands touch the namespace table's lock (see
//! `fdpcache_nvme::controller` and DESIGN.md §"Locking model").
//!
//! Because the data path no longer funnels through a controller-wide
//! mutex, this module is a correctness/stress harness on real OS
//! threads: [`run_pool_round`] drives one shared [`ConcurrentPool`]
//! from N workers, who either partition its shards deterministically
//! or contend on them ([`PoolMode`]). N shards replayed by N
//! partitioned workers is the "N threads, N caches, one device"
//! topology; the same round backs the pool replayer
//! ([`crate::replay::replay_pool`]).

use fdpcache_cache::ConcurrentPool;

use crate::replay::serve;
use crate::tracefile::RequestSource;

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
                    let mut pool = pool;
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
                        match serve(&mut pool, req) {
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
    use fdpcache_cache::builder::{build_device, StoreKind};
    use fdpcache_cache::{CacheConfig, NvmConfig};
    use fdpcache_core::RoundRobinPolicy;
    use fdpcache_ftl::FtlConfig;

    /// `shards` shards of `ram_bytes / shards` DRAM each on a tiny
    /// device with `pe_limit` erase cycles per reclaim unit.
    fn pool_on(
        shards: usize,
        ram_bytes: u64,
        pe_limit: u32,
    ) -> (fdpcache_core::SharedController, ConcurrentPool) {
        let ftl = FtlConfig { pe_limit, ..FtlConfig::tiny_test() };
        let ctrl = build_device(ftl, StoreKind::Null, true).unwrap();
        let config = CacheConfig {
            ram_bytes,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let pool =
            ConcurrentPool::new(&ctrl, &config, shards, 0.9, || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        (ctrl, pool)
    }

    fn shared_pool(shards: usize) -> (fdpcache_core::SharedController, ConcurrentPool) {
        pool_on(shards, 16 << 10, FtlConfig::tiny_test().pe_limit)
    }

    #[test]
    fn four_workers_share_one_device() {
        // Four shards of 8 KiB DRAM, one partitioned worker each.
        let (ctrl, pool) = pool_on(4, 32 << 10, FtlConfig::tiny_test().pe_limit);
        let profile = WorkloadProfile::meta_kv_cache();
        const OPS: u64 = 40_000;
        let mut sources: Vec<_> = (0..4).map(|_| profile.generator(20_000, 1)).collect();
        let reports = run_pool_round(&pool, &mut sources, PoolMode::Partitioned, OPS);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.worker, i, "reports come back in worker order");
            assert_eq!(r.error, None, "worker {i} failed");
            assert!(r.executed > 0, "worker {i} owns a shard and must serve it");
        }
        assert_eq!(reports.iter().map(|r| r.executed).sum::<u64>(), OPS);
        // Oversized tail objects are served but rejected before the
        // stats counters; the band weights keep them rare.
        let s = pool.stats();
        assert!(s.gets + s.puts + s.deletes >= OPS - OPS / 100);
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
    fn wear_out_under_concurrency_reports_errors_cleanly() {
        let (ctrl, pool) = pool_on(2, 8 << 10, 6);
        let profile = WorkloadProfile::wo_kv_cache();
        let mut sources: Vec<_> = (0..2).map(|_| profile.generator(10_000, 7)).collect();
        // Run until the device dies.
        let reports = run_pool_round(&pool, &mut sources, PoolMode::Partitioned, u64::MAX / 2);
        // The endurance budget guarantees both workers stop with a device
        // error rather than running forever; no panics, no poisoned state.
        for r in &reports {
            assert!(r.error.is_some(), "worker {} should have hit end-of-life", r.worker);
            assert!(r.executed > 0);
        }
        ctrl.with_ftl(|f| {
            assert!(f.stats().retired_rus > 0);
            f.check_invariants();
        });
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
