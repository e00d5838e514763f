//! The CacheBench-equivalent replayer: the one warm-up → measure →
//! roll-up loop every figure cell, example and replay test runs.
//!
//! [`Replayer::run`] drives one or more [`Tenant`]s that share one
//! device — each a [`HybridCache`], or a [`ConcurrentPool`] served
//! through its shard locks — round-robin, each from its own
//! [`RequestSource`] (a [`crate::TraceGen`] or a recorded
//! [`crate::FileReplay`]). It warms the caches for a host-byte budget,
//! then samples the device's FDP statistics log at fixed host-byte
//! intervals (the simulated counterpart of the paper's 10-minute
//! `nvme get-log` polling, §6.1) to produce the interval-DLWA series,
//! reads steady state off the series' last quarter, and rolls up the
//! CacheBench metrics the paper reports: throughput, hit ratios (merged
//! and per tenant), p99 latencies, ALWA.

use fdpcache_cache::{CacheError, CacheStats, ConcurrentPool, HybridCache};
use fdpcache_core::SharedController;
use fdpcache_metrics::Histogram;
use fdpcache_nvme::FdpStatsLog;
use serde::Serialize;

use crate::oracle::{apply, Cache};
use crate::trace::Request;
use crate::tracefile::RequestSource;

const GIB: f64 = (1u64 << 30) as f64;

/// Serves one request on `cache` — one [`HybridCache`], or a
/// [`ConcurrentPool`] through its lock-free read path: GET, SET or
/// DELETE. A SET too large for any engine is not cacheable and counts
/// as served — CacheBench records it as a failed SET and continues.
///
/// # Errors
///
/// Propagates every other cache/device error.
pub fn serve<C: Cache + ?Sized>(cache: &mut C, req: Request) -> Result<(), CacheError> {
    match apply(cache, req) {
        Err(CacheError::ObjectTooLarge { .. }) => Ok(()),
        r => r,
    }
}

/// What [`Replayer::run`] drives: one [`HybridCache`], or a
/// [`ConcurrentPool`] that routes each request to an engine pair by key.
pub trait Tenant {
    /// Serves one request ([`serve`]).
    fn serve(&mut self, req: Request) -> Result<(), CacheError>;
    /// Runs `f` on each of the tenant's caches in order: the one cache,
    /// or every shard of a pool.
    fn each(&mut self, f: &mut dyn FnMut(&mut HybridCache));
}

impl Tenant for HybridCache {
    fn serve(&mut self, req: Request) -> Result<(), CacheError> {
        serve(self, req)
    }

    fn each(&mut self, f: &mut dyn FnMut(&mut HybridCache)) {
        f(self);
    }
}

/// Each request goes through its shard's lock, never the lock-free DRAM
/// hit path: a locked hit moves the key to the LRU head, as a lone cache
/// does.
impl Tenant for &ConcurrentPool {
    fn serve(&mut self, req: Request) -> Result<(), CacheError> {
        self.with_shard(self.shard_of(req.key), |c| serve(c, req)).expect("routed shard exists")
    }

    fn each(&mut self, f: &mut dyn FnMut(&mut HybridCache)) {
        for i in 0..self.shards() {
            self.with_shard(i, &mut *f);
        }
    }
}

/// Replay configuration.
///
/// Run length is controlled by *host bytes written to the device* rather
/// than operation counts: DLWA experiments need a fixed number of device
/// turnovers regardless of hit ratio (the paper runs for fixed wall time
/// on fixed hardware, which amounts to the same thing).
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Host bytes to write during warm-up (uncounted; brings the flash
    /// cache and FTL to steady state).
    pub warmup_host_bytes: u64,
    /// Host bytes to write during measurement.
    pub measure_host_bytes: u64,
    /// Sample the FDP statistics log every this many host bytes written
    /// (one "interval" of the DLWA timeline; the simulated counterpart
    /// of the paper's 10-minute windows).
    pub interval_host_bytes: u64,
    /// Safety cap on total operations (guards against workloads that
    /// produce no flash writes, e.g. all-RAM-hit traces).
    pub max_ops: u64,
    /// Device queue depth during the replay: how many commands the
    /// cache's I/O path keeps in flight. 1 (the default) is the
    /// synchronous per-command model and is bit-identical to the
    /// pre-batching replayer; higher depths pipeline batched region
    /// seals across device lanes in virtual time.
    pub queue_depth: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            warmup_host_bytes: 1 << 30,
            measure_host_bytes: 4 << 30,
            interval_host_bytes: 256 << 20,
            max_ops: u64::MAX,
            queue_depth: 1,
        }
    }
}

/// Everything an experiment binary needs to print its figure/table.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ExperimentResult {
    /// Workload name.
    pub workload: String,
    /// Configuration label (e.g. "FDP" / "Non-FDP").
    pub label: String,
    /// Interval DLWA points: `(host GiB written, interval DLWA)`.
    pub dlwa_series: Vec<(f64, f64)>,
    /// DLWA over the measured portion (post-warmup).
    pub dlwa: f64,
    /// Mean of the last quarter of the interval series (steady state).
    pub dlwa_steady: f64,
    /// Overall cache hit ratio.
    pub hit_ratio: f64,
    /// Flash hit ratio (hits / flash lookups).
    pub nvm_hit_ratio: f64,
    /// Application-level write amplification.
    pub alwa: f64,
    /// Throughput in thousands of operations per simulated second.
    pub kops: f64,
    /// GET throughput (KGET/s).
    pub kgets: f64,
    /// p99 device read latency (µs).
    pub p99_read_us: f64,
    /// p99 device write latency (µs).
    pub p99_write_us: f64,
    /// GC events (Media Relocated) during measurement.
    pub gc_events: u64,
    /// Host bytes written during measurement.
    pub host_bytes: u64,
    /// Media bytes written during measurement.
    pub media_bytes: u64,
    /// Operations replayed (excluding warm-up).
    pub ops: u64,
    /// Each tenant's own hit ratio over the measurement, in tenant
    /// order; one entry for one cache or one pool.
    pub tenant_hit_ratios: Vec<f64>,
}

/// Replays traces against one or more tenants of one device.
#[derive(Debug)]
pub struct Replayer {
    config: ReplayConfig,
}

impl Replayer {
    /// Creates a replayer.
    pub fn new(config: ReplayConfig) -> Self {
        Replayer { config }
    }

    /// Runs the replay and returns the rolled-up result.
    ///
    /// Tenant `t` draws its requests from `sources[t]`, and the tenants
    /// are served round-robin: request `i`, counted from the first
    /// warm-up request, goes to tenant `i % tenants.len()`. `observe`
    /// sees the tenants at the measurement origin (with `None`), then
    /// after every measured request with the host bytes written since
    /// the origin, read from the same FDP log sample the replayer's own
    /// sampling uses. Pass `|_, _| {}` to observe nothing.
    ///
    /// With several tenants the throughput clock is the slowest
    /// tenant's (they run in parallel, as pool shards do) and ALWA is
    /// weighted by bytes across them, as [`ConcurrentPool::alwa`] is.
    ///
    /// # Errors
    ///
    /// No tenant, a source count that differs from the tenant count, or
    /// the first cache/device error, as a string (experiment binaries
    /// only report them).
    pub fn run<T: Tenant, S: RequestSource>(
        &self,
        label: &str,
        workload: &str,
        tenants: &mut [T],
        sources: &mut [S],
        ctrl: &SharedController,
        mut observe: impl FnMut(&mut [T], Option<u64>),
    ) -> Result<ExperimentResult, String> {
        if tenants.is_empty() || sources.len() != tenants.len() {
            return Err("the replay needs one request source per tenant, and a tenant".into());
        }
        let cfg = &self.config;
        each_cache(tenants, |c| c.set_queue_depth(cfg.queue_depth));

        // Warm-up (uncounted), bounded by host bytes written.
        let mut ops = 0u64;
        let warm = ctrl.fdp_stats_log().host_bytes_written + cfg.warmup_host_bytes;
        while ops < cfg.max_ops && ctrl.fdp_stats_log().host_bytes_written < warm {
            step(tenants, sources, ops)?;
            ops += 1;
        }

        // The origin reflects all warm-up work; percentiles cover the
        // measurement window only.
        let origin = Snapshot::take(tenants, ctrl);
        each_cache(tenants, HybridCache::reset_latency);
        observe(tenants, None);

        let (mut series, mut last) = (Vec::new(), origin.log);
        let end = origin.log.host_bytes_written + cfg.measure_host_bytes;
        let warm_ops = ops;
        while ops < cfg.max_ops {
            step(tenants, sources, ops)?;
            ops += 1;
            let log = ctrl.fdp_stats_log();
            let written = log.host_bytes_written - origin.log.host_bytes_written;
            observe(tenants, Some(written));
            if log.host_bytes_written >= last.host_bytes_written + cfg.interval_host_bytes {
                series.push((written as f64 / GIB, log.delta(&last).dlwa()));
                last = log;
            }
            if log.host_bytes_written >= end {
                break;
            }
        }

        let now = Snapshot::take(tenants, ctrl);
        Ok(roll_up(label, workload, tenants, &origin, &now, series, ops - warm_ops))
    }
}

/// Serves request `i` of the round-robin over `tenants`.
fn step<T: Tenant, S: RequestSource>(
    tenants: &mut [T],
    sources: &mut [S],
    i: u64,
) -> Result<(), String> {
    let t = (i % tenants.len() as u64) as usize;
    tenants[t].serve(sources[t].next_request()).map_err(|e| e.to_string())
}

/// Runs `f` on every cache of every tenant.
fn each_cache<T: Tenant>(tenants: &mut [T], mut f: impl FnMut(&mut HybridCache)) {
    tenants.iter_mut().for_each(|t| t.each(&mut f));
}

/// The counters a measurement window subtracts, read at its origin and
/// at its end.
struct Snapshot {
    /// Per tenant, merged across its caches.
    stats: Vec<CacheStats>,
    log: FdpStatsLog,
    /// The slowest cache clock: caches run in parallel, so that is when
    /// their submitted work is done.
    now_ns: u64,
}

impl Snapshot {
    /// Reaps every cache's in-flight completions (a no-op at queue
    /// depth 1), so virtual time covers all submitted work, then reads.
    fn take<T: Tenant>(tenants: &mut [T], ctrl: &SharedController) -> Self {
        let (mut stats, mut now_ns) = (Vec::with_capacity(tenants.len()), 0);
        for t in tenants {
            let mut merged = CacheStats::default();
            t.each(&mut |c| {
                c.drain_io();
                merged = merged.merge(&c.stats());
                now_ns = now_ns.max(c.now_ns());
            });
            stats.push(merged);
        }
        Snapshot { stats, log: ctrl.fdp_stats_log(), now_ns }
    }
}

/// The one roll-up: the window from `origin` to `now`, `ops` requests
/// long, with its interval-DLWA series. Steady state is the mean of the
/// series' last quarter, or the window's DLWA when the series is empty.
/// Latency and ALWA are read once, from `tenants` at the end: the
/// histograms were emptied at the origin, and ALWA is cumulative,
/// weighted by bytes across every cache.
fn roll_up<T: Tenant>(
    label: &str,
    workload: &str,
    tenants: &mut [T],
    origin: &Snapshot,
    now: &Snapshot,
    dlwa_series: Vec<(f64, f64)>,
    ops: u64,
) -> ExperimentResult {
    let deltas: Vec<CacheStats> =
        now.stats.iter().zip(&origin.stats).map(|(s, s0)| s.delta(s0)).collect();
    let stats = deltas.iter().fold(CacheStats::default(), |m, d| m.merge(d));
    let dlog = now.log.delta(&origin.log);
    let secs = now.now_ns.saturating_sub(origin.now_ns).max(1) as f64 * 1e-9;
    let (read, write) = merged_latency(tenants);
    let (mut dev, mut app) = (0, 0);
    each_cache(tenants, |c| {
        let (d, a) = c.amp_bytes();
        (dev, app) = (dev + d, app + a);
    });
    let tail: Vec<f64> =
        dlwa_series.iter().rev().take(dlwa_series.len().max(4) / 4).map(|p| p.1).collect();
    let dlwa_steady =
        if tail.is_empty() { dlog.dlwa() } else { tail.iter().sum::<f64>() / tail.len() as f64 };

    ExperimentResult {
        workload: workload.to_string(),
        label: label.to_string(),
        dlwa_series,
        dlwa: dlog.dlwa(),
        dlwa_steady,
        hit_ratio: stats.hit_ratio(),
        nvm_hit_ratio: stats.nvm_hit_ratio(),
        alwa: if app == 0 { 1.0 } else { dev as f64 / app as f64 },
        kops: (stats.gets + stats.puts + stats.deletes) as f64 / secs / 1e3,
        kgets: stats.gets as f64 / secs / 1e3,
        p99_read_us: read.p99() as f64 / 1e3,
        p99_write_us: write.p99() as f64 / 1e3,
        gc_events: dlog.media_relocated_events,
        host_bytes: dlog.host_bytes_written,
        media_bytes: dlog.media_bytes_written,
        ops,
        tenant_hit_ratios: deltas.iter().map(CacheStats::hit_ratio).collect(),
    }
}

/// Device read and write latency, merged across every cache.
fn merged_latency<T: Tenant>(tenants: &mut [T]) -> (Histogram, Histogram) {
    let (mut read, mut write) = (Histogram::new(), Histogram::new());
    each_cache(tenants, |c| {
        read.merge(c.navy().read_latency());
        write.merge(c.navy().write_latency());
    });
    (read, write)
}

#[cfg(test)]
mod tests {
    use std::slice;

    use super::*;
    use crate::profiles::WorkloadProfile;
    use fdpcache_cache::builder::{
        build_cache, build_device, build_stack, create_namespace, equal_share_fraction, StoreKind,
    };
    use fdpcache_cache::config::{CacheConfig, NvmConfig};
    use fdpcache_ftl::FtlConfig;

    fn stack(fdp: bool) -> (SharedController, HybridCache) {
        let config = CacheConfig {
            ram_bytes: 64 << 10,
            ram_item_overhead: 31,
            nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
            use_fdp: fdp,
        };
        build_stack(FtlConfig::tiny_test(), StoreKind::Null, fdp, 0.9, &config).unwrap()
    }

    #[test]
    fn replay_produces_sane_metrics() {
        let (ctrl, mut cache) = stack(true);
        let profile = WorkloadProfile::meta_kv_cache();
        let mut gen = profile.generator(20_000, 5);
        let replayer = Replayer::new(ReplayConfig {
            warmup_host_bytes: 2 << 20,
            measure_host_bytes: 24 << 20,
            interval_host_bytes: 4 << 20,
            max_ops: 200_000,
            queue_depth: 1,
        });
        let (caches, gens) = (slice::from_mut(&mut cache), slice::from_mut(&mut gen));
        let r = replayer.run("FDP", profile.name, caches, gens, &ctrl, |_, _| {}).unwrap();
        assert!(r.dlwa >= 1.0, "dlwa {}", r.dlwa);
        assert!(r.hit_ratio > 0.0 && r.hit_ratio < 1.0, "hit ratio {}", r.hit_ratio);
        assert!(r.kops > 0.0);
        assert!(r.alwa >= 1.0);
        assert!(r.host_bytes > 0);
        assert!(r.media_bytes >= r.host_bytes);
        assert!(!r.dlwa_series.is_empty(), "expected interval samples");
    }

    #[test]
    fn latency_percentiles_exclude_the_warm_up() {
        let (ctrl, mut cache) = stack(true);
        let profile = WorkloadProfile::wo_kv_cache();
        let mut gen = profile.generator(20_000, 3);
        let replayer = Replayer::new(ReplayConfig {
            warmup_host_bytes: 4 << 20,
            measure_host_bytes: 4 << 20,
            interval_host_bytes: 1 << 20,
            max_ops: 200_000,
            queue_depth: 1,
        });
        let (caches, gens) = (slice::from_mut(&mut cache), slice::from_mut(&mut gen));
        replayer.run("FDP", profile.name, caches, gens, &ctrl, |_, _| {}).unwrap();
        let recorded = cache.navy().write_latency().count();
        let writes = cache.navy().io().stats().writes;
        assert!(recorded > 0, "the measurement window wrote nothing");
        assert!(recorded < writes, "{recorded} of {writes} writes recorded: warm-up included");
    }

    #[test]
    fn write_only_replay_stresses_flash() {
        let (ctrl, mut cache) = stack(true);
        let profile = WorkloadProfile::wo_kv_cache();
        let mut gen = profile.generator(20_000, 5);
        let replayer = Replayer::new(ReplayConfig {
            warmup_host_bytes: 0,
            measure_host_bytes: 16 << 20,
            interval_host_bytes: 8 << 20,
            max_ops: 100_000,
            queue_depth: 1,
        });
        let (caches, gens) = (slice::from_mut(&mut cache), slice::from_mut(&mut gen));
        let r = replayer.run("FDP", profile.name, caches, gens, &ctrl, |_, _| {}).unwrap();
        assert_eq!(r.kgets, 0.0, "write-only trace has no GETs");
        assert!(r.host_bytes > 0);
    }

    #[test]
    fn result_serializes_to_json() {
        let (ctrl, mut cache) = stack(true);
        let profile = WorkloadProfile::twitter_cluster12();
        let mut gen = profile.generator(5_000, 1);
        let replayer = Replayer::new(ReplayConfig {
            warmup_host_bytes: 0,
            measure_host_bytes: 4 << 20,
            interval_host_bytes: 1 << 30,
            max_ops: 20_000,
            queue_depth: 1,
        });
        let (caches, gens) = (slice::from_mut(&mut cache), slice::from_mut(&mut gen));
        let r = replayer.run("x", profile.name, caches, gens, &ctrl, |_, _| {}).unwrap();
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"dlwa\""));
    }

    /// `tiny_test`'s geometry with real NAND timings, so latency
    /// percentiles are not all zero.
    fn timed_ftl() -> FtlConfig {
        FtlConfig { latency: FtlConfig::scaled_default().latency, ..FtlConfig::tiny_test() }
    }

    #[test]
    fn tenants_share_the_device_round_robin_and_report_their_own_hits() {
        let ctrl = build_device(timed_ftl(), StoreKind::Null, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 32 << 10,
            ram_item_overhead: 31,
            nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let mut tenants: Vec<HybridCache> = (0..2u8)
            .map(|t| {
                let share = equal_share_fraction(t as usize, 2, 0.9);
                let nsid = create_namespace(&ctrl, share, vec![2 * t, 2 * t + 1]).unwrap();
                let policy = Box::new(fdpcache_core::RoundRobinPolicy::new());
                build_cache(&ctrl, nsid, &config, policy).unwrap()
            })
            .collect();
        let profile = WorkloadProfile::meta_kv_cache();
        let mut gens: Vec<_> = (0..2).map(|t| profile.generator(5_000, t)).collect();
        let replayer = Replayer::new(ReplayConfig {
            warmup_host_bytes: 0,
            measure_host_bytes: 8 << 20,
            interval_host_bytes: 2 << 20,
            max_ops: 200_000,
            queue_depth: 1,
        });
        let before: Vec<CacheStats> = tenants.iter().map(HybridCache::stats).collect();
        let r = replayer.run("two", profile.name, &mut tenants, &mut gens, &ctrl, |_, _| {});
        let r = r.unwrap();
        assert!(r.ops > 0 && r.host_bytes > 0);
        for (t, g) in gens.iter().enumerate() {
            let served = g.generated();
            assert!(served.abs_diff(r.ops / 2) <= 1, "tenant {t} served {served} of {}", r.ops);
        }
        let deltas: Vec<CacheStats> =
            tenants.iter().zip(&before).map(|(c, s0)| c.stats().delta(s0)).collect();
        let own: Vec<f64> = deltas.iter().map(CacheStats::hit_ratio).collect();
        assert_eq!(r.tenant_hit_ratios, own);
        assert_eq!(r.hit_ratio, deltas[0].merge(&deltas[1]).hit_ratio());
        // Latency percentiles cover both tenants' measured writes.
        let counts: Vec<u64> = tenants.iter().map(|c| c.navy().write_latency().count()).collect();
        let (_, write) = merged_latency(&mut tenants);
        assert!(counts.iter().all(|&n| n > 0), "a tenant wrote nothing: {counts:?}");
        assert_eq!(write.count(), counts.iter().sum::<u64>());
        assert!(r.p99_write_us > 0.0);
        assert_eq!(r.p99_write_us, write.p99() as f64 / 1e3);

        let (ctrl, mut cache) = stack(true);
        let mut gen = profile.generator(5_000, 3);
        let one = slice::from_mut(&mut cache);
        let r = replayer.run("one", profile.name, one, slice::from_mut(&mut gen), &ctrl, |_, _| {});
        let r = r.unwrap();
        assert_eq!(r.tenant_hit_ratios, vec![r.hit_ratio]);
    }

    fn pool_stack(shards: usize) -> (SharedController, ConcurrentPool) {
        let ctrl = build_device(timed_ftl(), StoreKind::Null, true).unwrap();
        let config = CacheConfig {
            ram_bytes: 32 << 10,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        };
        let pool = ConcurrentPool::new(&ctrl, &config, shards, 0.9, || {
            Box::new(fdpcache_core::RoundRobinPolicy::new())
        })
        .unwrap();
        (ctrl, pool)
    }

    /// A pool tenant (the `pairs` figure row's path) reports the device
    /// latency of every shard's measured writes, merged.
    #[test]
    fn pool_tenant_latency_merges_every_shard() {
        let (ctrl, pool) = pool_stack(4);
        let profile = WorkloadProfile::meta_kv_cache();
        let mut gen = profile.generator(5_000, 7);
        let replayer = Replayer::new(ReplayConfig {
            warmup_host_bytes: 1 << 20,
            measure_host_bytes: 8 << 20,
            interval_host_bytes: 2 << 20,
            max_ops: 200_000,
            queue_depth: 1,
        });
        let (tenants, gens) = (&mut [&pool], slice::from_mut(&mut gen));
        let r = replayer.run("FDP", profile.name, tenants, gens, &ctrl, |_, _| {}).unwrap();
        assert!(r.hit_ratio > 0.0 && r.hit_ratio < 1.0, "hit ratio {}", r.hit_ratio);
        assert!(r.dlwa >= 1.0 && r.kops > 0.0 && r.ops > 0 && r.host_bytes > 0, "{r:?}");
        let count = |i| pool.with_shard(i, |c| c.navy().write_latency().count()).unwrap();
        let counts: Vec<u64> = (0..pool.shards()).map(count).collect();
        let (_, write) = merged_latency(tenants);
        assert!(counts.iter().all(|&n| n > 0), "a shard wrote nothing: {counts:?}");
        assert_eq!(write.count(), counts.iter().sum::<u64>());
        assert!(r.p99_write_us > 0.0);
        assert_eq!(r.p99_write_us, write.p99() as f64 / 1e3);
        ctrl.with_ftl(|f| f.check_invariants());
    }
}
