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
//! from N workers that partition its shards. N shards replayed by N
//! workers is the "N threads, N caches, one device" topology.

use fdpcache_cache::ConcurrentPool;

use crate::replay::serve;
use crate::tracefile::RequestSource;

/// One pool worker's outcome for a round.
#[derive(Debug, Clone)]
pub struct PoolWorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Requests drawn from the worker's stream.
    pub generated: u64,
    /// Requests executed: those on the worker's shards, each shard's up
    /// to its first error.
    pub executed: u64,
    /// The first error, prefixed with the shard it stopped.
    pub error: Option<String>,
}

/// Runs one round of pool workers: `sources.len()` OS threads share
/// `pool` through `&self`, each drawing up to `ops_per_stream` requests
/// from its own source. Sources are advanced in place, so consecutive
/// rounds (warm-up, then measurement) continue the same streams.
/// Reports come back in worker order.
///
/// Every worker should walk an **identical** stream; worker `w` owns
/// the shards `s` with `s % workers == w` and executes only the
/// requests routed to them. Each request is then executed exactly once
/// across the worker set, and each shard sees the same request
/// subsequence in the same order **regardless of worker count**, which
/// makes per-shard cache state thread-count invariant (the determinism
/// table in `tests/integration_determinism.rs` relies on it).
///
/// An error stops its shard, not its worker: the worker skips that
/// shard's later requests and keeps serving its other shards, so one
/// failed shard changes no other shard's subsequence. A worker returns
/// early once every shard it owns has failed (or at once if it owns
/// none).
pub fn run_pool_round<S: RequestSource + Send>(
    pool: &ConcurrentPool,
    sources: &mut [S],
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
                    // The owned shards that have not failed this round.
                    let mut live: Vec<usize> = (widx..pool.shards()).step_by(workers).collect();
                    let (mut generated, mut executed, mut error) = (0u64, 0u64, None);
                    while generated < ops_per_stream && !live.is_empty() {
                        let req = source.next_request();
                        generated += 1;
                        let shard = pool.shard_of(req.key);
                        if !live.contains(&shard) {
                            continue;
                        }
                        match serve(&mut pool, req) {
                            Ok(()) => executed += 1,
                            Err(e) => {
                                live.retain(|&s| s != shard);
                                error.get_or_insert_with(|| format!("shard {shard}: {e}"));
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
    use fdpcache_cache::builder::{build_device, build_device_faulted, StoreKind};
    use fdpcache_cache::{CacheConfig, CacheStats, NvmConfig};
    use fdpcache_core::RoundRobinPolicy;
    use fdpcache_ftl::FtlConfig;
    use fdpcache_nvme::{FaultConfig, FaultKind, ScriptedFault};

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
        let reports = run_pool_round(&pool, &mut sources, OPS);
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
        let reports = run_pool_round(&pool, &mut sources, u64::MAX / 2);
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
        let reports = run_pool_round(&pool, &mut sources, OPS);
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

    /// A kill on shard 0's first LOC region seal stops shard 0 only:
    /// shard 1 serves the same requests whether it shares a worker with
    /// the failed shard or has one of its own.
    #[test]
    fn a_shard_error_stops_that_shard_not_its_worker() {
        let config = CacheConfig {
            ram_bytes: 2_000,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 32 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let pool_on = |ctrl: fdpcache_core::SharedController| {
            ConcurrentPool::new(&ctrl, &config, 2, 0.9, || Box::new(RoundRobinPolicy::new()))
                .unwrap()
        };
        let probe = pool_on(build_device(FtlConfig::tiny_test(), StoreKind::Null, true).unwrap());
        let lba = probe.with_shard(0, |c| {
            c.navy().io().namespace().info().start_lba + c.navy().loc().region_start_block(0)
        });
        let kill =
            ScriptedFault { kind: FaultKind::Kill, lba: lba.unwrap(), at_access: 0, repeats: 1 };
        let fault = FaultConfig { scripted: vec![kill], ..FaultConfig::default() };
        let run = |workers: usize| {
            let ftl = FtlConfig::tiny_test();
            let pool =
                pool_on(build_device_faulted(ftl, StoreKind::Null, true, fault.clone()).unwrap());
            let profile = WorkloadProfile::loc_seal_heavy();
            let mut sources: Vec<_> = (0..workers).map(|_| profile.generator(5_000, 3)).collect();
            let reports = run_pool_round(&pool, &mut sources, 20_000);
            let errors: Vec<&str> = reports.iter().filter_map(|r| r.error.as_deref()).collect();
            assert_eq!(errors.len(), 1, "exactly one shard fails: {errors:?}");
            assert!(errors[0].starts_with("shard 0: "), "the report names the shard: {errors:?}");
            (0..2).map(|s| pool.with_shard(s, |c| c.stats()).unwrap()).collect::<Vec<_>>()
        };
        let one = run(1);
        assert_eq!(one, run(2), "per-shard counters changed with the worker count");
        let served = |s: &CacheStats| s.gets + s.puts;
        assert!(served(&one[1]) > 10 * served(&one[0]), "shard 1 stopped early: {one:?}");
    }

    #[test]
    fn consecutive_rounds_continue_the_same_streams() {
        let (_ctrl, pool) = shared_pool(2);
        let profile = WorkloadProfile::meta_kv_cache();
        let mut sources = vec![profile.generator(5_000, 5)];
        let warm = run_pool_round(&pool, &mut sources, 500);
        let measure = run_pool_round(&pool, &mut sources, 700);
        assert_eq!(warm[0].generated, 500);
        assert_eq!(measure[0].generated, 700);
        // One deterministic stream replayed in one round covers the
        // same requests the two split rounds did.
        let (_ctrl2, pool2) = shared_pool(2);
        let mut whole = vec![profile.generator(5_000, 5)];
        let all = run_pool_round(&pool2, &mut whole, 1_200);
        assert_eq!(all[0].executed, warm[0].executed + measure[0].executed);
        assert_eq!(pool2.stats(), pool.stats());
    }
}
