//! Shared experiment runner for the figure/table binaries.
//!
//! Every experiment instantiates the same scaled stack (DESIGN.md §2):
//! a 8–16 GiB simulated FDP SSD with 64 MiB reclaim units standing in
//! for the paper's 1.88 TB PM9D3 with ~6 GB RUs, and DRAM/SOC/utilization
//! expressed as *fractions* so the ratios that drive DLWA match the
//! paper's configurations exactly.

use fdpcache_cache::builder::{build_stack, StoreKind};
use fdpcache_cache::config::{CacheConfig, LocEviction, NvmConfig};
use fdpcache_cache::HybridCache;
use fdpcache_core::SharedController;
use fdpcache_ftl::{FtlConfig, GcPolicy, RuhType};
use fdpcache_metrics::{csv, Table, TimeSeries};
use fdpcache_nand::Geometry;
use fdpcache_workloads::{ExperimentResult, ReplayConfig, Replayer, WorkloadProfile};

use crate::cli::{Args, Flag};

/// One experiment's full parameter set.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Raw device capacity in GiB (scaled stand-in for 1.88 TB).
    pub device_gib: u64,
    /// Reclaim-unit (superblock) size in MiB.
    pub ru_mib: u64,
    /// Device overprovisioning fraction (PM9D3-class: 7%).
    pub op_fraction: f64,
    /// Host-visible utilization: namespace size as a fraction of
    /// exported capacity (the paper's 50%…100% x-axis).
    pub utilization: f64,
    /// SOC share of the namespace (paper default: 4%).
    pub soc_fraction: f64,
    /// DRAM cache size as a fraction of the namespace (paper default:
    /// 42 GB DRAM / 930 GB flash ≈ 4.5%).
    pub dram_fraction: f64,
    /// LOC region size in MiB.
    pub region_mib: u64,
    /// FDP segregation on (placement handles) or off (single stream).
    pub fdp: bool,
    /// RUH isolation type (ablation; the paper's device is initially
    /// isolated).
    pub ruh_type: RuhType,
    /// GC victim selection (ablation; default greedy).
    pub gc_policy: GcPolicy,
    /// LOC region eviction policy.
    pub loc_eviction: LocEviction,
    /// TRIM a LOC region's blocks on eviction (the paper's shelved
    /// FDP-specialized LOC eviction policy; ablation only).
    pub trim_on_evict: bool,
    /// Workload profile.
    pub workload: WorkloadProfile,
    /// Working-set multiple of the flash namespace size.
    pub keyspace_multiple: f64,
    /// Warm-up length in device-capacity multiples.
    pub warmup_turnovers: f64,
    /// Measurement length in device-capacity multiples.
    pub measure_turnovers: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ExpConfig {
    /// The scaled default configuration of §6.1: KV-cache workload, 50%
    /// utilization, 4% SOC, FDP on.
    pub fn paper_default() -> Self {
        ExpConfig {
            device_gib: 8,
            ru_mib: 64,
            // The paper puts PM9D3-class device OP at "7-20% of SSD
            // capacity" (§6.3); 12% reproduces its DLWA endpoints.
            op_fraction: 0.12,
            utilization: 0.5,
            soc_fraction: 0.04,
            dram_fraction: 0.045,
            region_mib: 16,
            fdp: true,
            ruh_type: RuhType::InitiallyIsolated,
            gc_policy: GcPolicy::Greedy,
            loc_eviction: LocEviction::Fifo,
            trim_on_evict: false,
            workload: WorkloadProfile::meta_kv_cache(),
            keyspace_multiple: 4.0,
            // Warm-up must span the first wrap of the LOC log (≈2
            // device turnovers) so measurement starts at steady state,
            // like the paper's multi-day runs.
            warmup_turnovers: 3.0,
            measure_turnovers: 3.0,
            seed: 42,
        }
    }

    /// Shrinks run length for `--quick` smoke runs.
    pub fn quick(mut self) -> Self {
        self.device_gib = self.device_gib.min(4);
        self.warmup_turnovers = 2.0;
        self.measure_turnovers = 1.0;
        self
    }

    /// The FTL configuration this experiment runs on.
    pub fn ftl_config(&self) -> FtlConfig {
        let geometry = Geometry::with_capacity(self.device_gib << 30, self.ru_mib << 20, 4096)
            .expect("experiment geometry must be constructible");
        FtlConfig {
            geometry,
            op_fraction: self.op_fraction,
            num_ruhs: 8,
            num_rgs: 1,
            ruh_type: self.ruh_type,
            gc_policy: self.gc_policy,
            gc_threshold_rus: 4,
            pe_limit: u32::MAX,
            latency: Default::default(),
            seed: self.seed,
            event_log_capacity: 1024,
        }
    }

    /// The cache configuration for a namespace of the given size.
    pub fn cache_config(&self, namespace_bytes: u64) -> CacheConfig {
        CacheConfig {
            ram_bytes: (((namespace_bytes as f64) * self.dram_fraction) as u64).max(1 << 20),
            ram_item_overhead: 31,
            nvm: NvmConfig {
                soc_fraction: self.soc_fraction,
                bucket_bytes: 4096,
                region_bytes: self.region_mib << 20,
                size_threshold: 2048,
                loc_eviction: self.loc_eviction,
                admission: fdpcache_cache::admission::AdmissionConfig::AdmitAll,
                trim_on_region_evict: self.trim_on_evict,
                io_lanes: 8,
            },
            use_fdp: self.fdp,
        }
    }

    /// Label used in tables ("FDP" / "Non-FDP").
    pub fn label(&self) -> &'static str {
        if self.fdp {
            "FDP"
        } else {
            "Non-FDP"
        }
    }
}

/// Builds the stack and replays the configured workload, returning the
/// rolled-up result.
///
/// # Panics
///
/// Panics (with context) on configuration errors — experiment binaries
/// are the end of the line for errors.
pub fn run_experiment(cfg: &ExpConfig) -> ExperimentResult {
    let ftl = cfg.ftl_config();
    let (ctrl, mut cache): (SharedController, HybridCache) =
        build_stack(ftl, StoreKind::Null, cfg.fdp, cfg.utilization, &cfg.cache_config_for_build())
            .unwrap_or_else(|e| panic!("stack construction failed: {e}"));
    let ns_bytes = cache.navy().io().capacity_bytes();
    let keyspace = cfg.workload.keyspace_for(ns_bytes, cfg.keyspace_multiple);
    let mut gen = cfg.workload.generator(keyspace, cfg.seed);
    let device_bytes = (cfg.device_gib << 30) as f64;
    let replayer = Replayer::new(ReplayConfig {
        warmup_host_bytes: (device_bytes * cfg.warmup_turnovers) as u64,
        measure_host_bytes: (device_bytes * cfg.measure_turnovers) as u64,
        interval_host_bytes: ((device_bytes * cfg.measure_turnovers) as u64 / 48).max(16 << 20),
        max_ops: 2_000_000_000,
        report_workers: 32,
        queue_depth: 1,
        fault: None,
    });
    replayer
        .run(cfg.label(), cfg.workload.name, &mut cache, &ctrl, &mut gen)
        .unwrap_or_else(|e| panic!("replay failed: {e}"))
}

impl ExpConfig {
    /// The cache configuration sized for this experiment's namespace.
    pub fn cache_config_for_build(&self) -> CacheConfig {
        // Namespace size isn't known until the controller exists; the
        // DRAM fraction is applied against utilization × exported bytes,
        // which build_stack realizes identically.
        let ftl = self.ftl_config();
        let ns_bytes = ((ftl.exported_bytes() as f64) * self.utilization) as u64;
        self.cache_config(ns_bytes)
    }
}

/// Interval-DLWA sampling shared by the serial and concurrent
/// multitenant runners: one `(host GiB written, interval DLWA)` point
/// per `interval` host bytes past the measurement origin. Keeping both
/// runners on one implementation keeps fig11's two modes comparable.
struct DlwaSampler {
    origin: fdpcache_nvme::FdpStatsLog,
    last: fdpcache_nvme::FdpStatsLog,
    next_sample: u64,
    interval: u64,
    series: Vec<(f64, f64)>,
}

impl DlwaSampler {
    fn new(origin: fdpcache_nvme::FdpStatsLog, interval: u64) -> Self {
        DlwaSampler {
            origin,
            last: origin,
            next_sample: origin.host_bytes_written + interval,
            interval,
            series: Vec::new(),
        }
    }

    fn observe(&mut self, log: fdpcache_nvme::FdpStatsLog) {
        if log.host_bytes_written >= self.next_sample {
            let d = log.delta(&self.last);
            let x = (log.host_bytes_written - self.origin.host_bytes_written) as f64
                / (1u64 << 30) as f64;
            self.series.push((x, d.dlwa()));
            self.last = log;
            self.next_sample = log.host_bytes_written + self.interval;
        }
    }

    fn into_series(self) -> Vec<(f64, f64)> {
        self.series
    }
}

/// Steady-state DLWA: mean of the tail quarter of the interval series,
/// falling back to the whole-run value when the series is empty.
fn dlwa_steady(series: &[(f64, f64)], whole_run: f64) -> f64 {
    let tail = series.len().max(4) / 4;
    let t: Vec<f64> = series.iter().rev().take(tail).map(|&(_, y)| y).collect();
    if t.is_empty() {
        whole_run
    } else {
        t.iter().sum::<f64>() / t.len() as f64
    }
}

/// Result of a multi-tenant run: the shared device's DLWA plus
/// per-tenant cache metrics.
#[derive(Debug, Clone)]
pub struct MultiTenantResult {
    /// Configuration label.
    pub label: String,
    /// Interval DLWA of the shared device `(host GiB, DLWA)`.
    pub dlwa_series: Vec<(f64, f64)>,
    /// Whole-run DLWA of the shared device (post-warmup).
    pub dlwa: f64,
    /// Steady-state DLWA (tail quarter of the series).
    pub dlwa_steady: f64,
    /// Per-tenant overall hit ratios.
    pub tenant_hit_ratios: Vec<f64>,
    /// GC events during measurement.
    pub gc_events: u64,
}

/// Figure 11's setup: `tenants` cache instances on disjoint namespaces
/// of one shared device, each replaying the configured workload.
/// Requests interleave round-robin between tenants.
///
/// With FDP, each tenant's SOC and LOC get their own RUHs (4 handles in
/// use for 2 tenants); without, everything shares the default handle.
///
/// # Panics
///
/// Panics (with context) on configuration errors.
pub fn run_multitenant(cfg: &ExpConfig, tenants: usize) -> MultiTenantResult {
    use fdpcache_cache::builder::{
        build_cache, build_device, create_namespace, equal_share_fraction,
    };
    use fdpcache_cache::value::Value;
    use fdpcache_core::RoundRobinPolicy;
    use fdpcache_workloads::trace::Op;

    let ftl = cfg.ftl_config();
    let num_ruhs = ftl.num_ruhs;
    let ctrl =
        build_device(ftl, StoreKind::Null, cfg.fdp).unwrap_or_else(|e| panic!("device: {e}"));
    let mut caches = Vec::new();
    let mut gens = Vec::new();
    let per_tenant_ruhs = (num_ruhs as usize / tenants).max(1);
    for t in 0..tenants {
        // Tenant t's namespace covers utilization/tenants of the device
        // and gets a disjoint slice of the RUH space.
        let frac = equal_share_fraction(t, tenants, cfg.utilization);
        let ruhs: Vec<u8> =
            (0..per_tenant_ruhs as u8).map(|i| (t * per_tenant_ruhs) as u8 + i).collect();
        let nsid = create_namespace(&ctrl, frac, ruhs).unwrap_or_else(|e| panic!("ns: {e}"));
        let ns_bytes = ctrl.namespace(nsid).unwrap().capacity_bytes(ctrl.lba_bytes());
        let cache_cfg = cfg.cache_config(ns_bytes);
        let cache = build_cache(&ctrl, nsid, &cache_cfg, Box::new(RoundRobinPolicy::new()))
            .unwrap_or_else(|e| panic!("cache: {e}"));
        let keyspace = cfg.workload.keyspace_for(ns_bytes, cfg.keyspace_multiple);
        gens.push(cfg.workload.generator(keyspace, cfg.seed + t as u64));
        caches.push(cache);
    }

    let device_bytes = (cfg.device_gib << 30) as f64;
    let warmup_target = (device_bytes * cfg.warmup_turnovers) as u64;
    let measure_target = (device_bytes * cfg.measure_turnovers) as u64;
    let interval = (measure_target / 32).max(16 << 20);

    let step = |caches: &mut Vec<fdpcache_cache::HybridCache>,
                gens: &mut Vec<fdpcache_workloads::TraceGen>,
                i: usize| {
        let t = i % caches.len();
        let req = gens[t].next_request();
        match req.op {
            Op::Get => {
                caches[t].get(req.key).unwrap_or_else(|e| panic!("get: {e}"));
            }
            Op::Set => match caches[t].put(req.key, Value::synthetic(req.size)) {
                Ok(()) | Err(fdpcache_cache::CacheError::ObjectTooLarge { .. }) => {}
                Err(e) => panic!("put: {e}"),
            },
            Op::Delete => {
                caches[t].delete(req.key).unwrap_or_else(|e| panic!("del: {e}"));
            }
        }
    };

    // Warm-up.
    let mut i = 0usize;
    while ctrl.fdp_stats_log().host_bytes_written < warmup_target {
        step(&mut caches, &mut gens, i);
        i += 1;
    }
    let log0 = ctrl.fdp_stats_log();
    let stats0: Vec<_> = caches.iter().map(|c| c.stats()).collect();
    let mut sampler = DlwaSampler::new(log0, interval);
    loop {
        step(&mut caches, &mut gens, i);
        i += 1;
        let log = ctrl.fdp_stats_log();
        sampler.observe(log);
        if log.host_bytes_written >= log0.host_bytes_written + measure_target {
            break;
        }
    }
    let dlog = ctrl.fdp_stats_log().delta(&log0);
    let dlwa_series = sampler.into_series();
    MultiTenantResult {
        label: cfg.label().to_string(),
        dlwa: dlog.dlwa(),
        dlwa_steady: dlwa_steady(&dlwa_series, dlog.dlwa()),
        dlwa_series,
        tenant_hit_ratios: caches
            .iter()
            .zip(stats0.iter())
            .map(|(c, s0)| c.stats().delta(s0).hit_ratio())
            .collect(),
        gc_events: dlog.media_relocated_events,
    }
}

/// Figure 11's topology on the concurrent cache tier: `tenants` shards
/// of one [`fdpcache_cache::ConcurrentPool`] (shard = tenant = its own
/// namespace of the shared device), each driven by its **own real OS
/// thread** until the shared device has absorbed the configured
/// warm-up and measurement host bytes. The main thread samples the FDP
/// statistics log while the workers run, producing the interval-DLWA
/// series.
///
/// Unlike [`run_multitenant`] (single-threaded, round-robin
/// interleaving, deterministic), this run interleaves tenants however
/// the host schedules them — which is exactly the paper's testbed
/// shape, and the sampled series is representative rather than
/// bit-reproducible.
///
/// # Errors
///
/// Returns the first tenant failure (device error or a worker panic,
/// with context) instead of panicking, so callers can report it and
/// exit cleanly. Failure never deadlocks the run: workers publish
/// errors through a shared flag instead of panicking on their own
/// threads, every wait loop (worker and observer alike) also watches
/// that flag, and the error is surfaced from the main thread after
/// the worker scope has drained.
///
/// # Panics
///
/// Panics only on configuration errors (bad device/pool parameters),
/// which are programmer mistakes, not runtime failures.
pub fn run_multitenant_concurrent(
    cfg: &ExpConfig,
    tenants: usize,
) -> Result<MultiTenantResult, String> {
    use fdpcache_cache::builder::build_device;
    use fdpcache_cache::value::Value;
    use fdpcache_cache::ConcurrentPool;
    use fdpcache_core::RoundRobinPolicy;
    use fdpcache_workloads::trace::Op;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    let ftl = cfg.ftl_config();
    let exported = ftl.exported_bytes();
    let ctrl =
        build_device(ftl, StoreKind::Null, cfg.fdp).unwrap_or_else(|e| panic!("device: {e}"));
    // Total allocated bytes across tenants; the pool splits capacity
    // and the DRAM budget evenly per shard.
    let ns_total = ((exported as f64) * cfg.utilization) as u64;
    let cache_cfg = cfg.cache_config(ns_total);
    let pool = ConcurrentPool::new(&ctrl, &cache_cfg, tenants, cfg.utilization, || {
        Box::new(RoundRobinPolicy::new())
    })
    .unwrap_or_else(|e| panic!("pool: {e}"));

    let per_tenant_bytes = ns_total / tenants as u64;
    let keyspace = cfg.workload.keyspace_for(per_tenant_bytes, cfg.keyspace_multiple);
    let device_bytes = (cfg.device_gib << 30) as f64;
    let warmup_target = (device_bytes * cfg.warmup_turnovers) as u64;
    let measure_target = (device_bytes * cfg.measure_turnovers) as u64;
    let interval = (measure_target / 32).max(16 << 20);

    // Phase protocol, deadlock-free by construction: workers warm up,
    // bump `warmed`, and spin until the main thread publishes
    // `measure_end`; the main thread waits for `warmed == tenants`,
    // snapshots, publishes, then samples until the byte target — with
    // every one of those waits also exiting on `failed`, which any
    // worker sets (with its error message) instead of panicking.
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let warmed = AtomicUsize::new(0);
    let measure_end = AtomicU64::new(u64::MAX);
    let mut sampler: Option<DlwaSampler> = None;
    let mut log0 = ctrl.fdp_stats_log();
    let mut stats0 = Vec::new();

    std::thread::scope(|scope| {
        for t in 0..tenants {
            let pool = &pool;
            let ctrl = &ctrl;
            let failed = &failed;
            let failure = &failure;
            let warmed = &warmed;
            let measure_end = &measure_end;
            let mut gen = cfg.workload.generator(keyspace, cfg.seed + t as u64);
            scope.spawn(move || {
                let report = |e: String| {
                    failure.lock().unwrap_or_else(|p| p.into_inner()).get_or_insert(e);
                    failed.store(true, Ordering::Release);
                };
                let body = || {
                    let step = |gen: &mut fdpcache_workloads::TraceGen| -> Result<(), String> {
                        let req = gen.next_request();
                        pool.with_shard(t, |cache| match req.op {
                            Op::Get => {
                                cache.get(req.key).map(|_| ()).map_err(|e| format!("get: {e}"))
                            }
                            Op::Set => match cache.put(req.key, Value::synthetic(req.size)) {
                                Ok(()) | Err(fdpcache_cache::CacheError::ObjectTooLarge { .. }) => {
                                    Ok(())
                                }
                                Err(e) => Err(format!("put: {e}")),
                            },
                            Op::Delete => {
                                cache.delete(req.key).map(|_| ()).map_err(|e| format!("del: {e}"))
                            }
                        })
                        .expect("tenant shard exists")
                    };
                    // One batch of ops between shared-state checks (the log
                    // read takes the media lock). Returns false to stop.
                    let batch = |gen: &mut fdpcache_workloads::TraceGen| -> bool {
                        for _ in 0..64 {
                            if let Err(e) = step(gen) {
                                report(format!("tenant {t}: {e}"));
                                return false;
                            }
                        }
                        true
                    };
                    // Warm-up to the shared byte target.
                    while !failed.load(Ordering::Acquire)
                        && ctrl.fdp_stats_log().host_bytes_written < warmup_target
                    {
                        if !batch(&mut gen) {
                            return;
                        }
                    }
                    warmed.fetch_add(1, Ordering::AcqRel);
                    // Wait for the main thread to snapshot and publish the
                    // measurement end point.
                    while !failed.load(Ordering::Acquire)
                        && measure_end.load(Ordering::Acquire) == u64::MAX
                    {
                        std::thread::yield_now();
                    }
                    let end = measure_end.load(Ordering::Acquire);
                    while !failed.load(Ordering::Acquire)
                        && ctrl.fdp_stats_log().host_bytes_written < end
                    {
                        if !batch(&mut gen) {
                            return;
                        }
                    }
                };
                // A panic below the error-reporting layer (a cache bug,
                // not a device error) must also unblock the observer:
                // convert it into the same failure flag.
                if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "unknown panic".to_string());
                    report(format!("tenant {t} panicked: {msg}"));
                }
            });
        }

        // Wait until every tenant warmed up (or one failed).
        while !failed.load(Ordering::Acquire) && warmed.load(Ordering::Acquire) < tenants {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        log0 = ctrl.fdp_stats_log();
        stats0 = (0..tenants)
            .map(|t| pool.with_shard(t, |c| c.stats()).expect("tenant shard"))
            .collect();
        let end = log0.host_bytes_written + measure_target;
        measure_end.store(end, Ordering::Release);

        // Sample the FDP log while the tenants run — the simulated
        // counterpart of the paper's 10-minute `nvme get-log` polling,
        // from a real observer thread this time.
        let mut s = DlwaSampler::new(log0, interval);
        while !failed.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let log = ctrl.fdp_stats_log();
            s.observe(log);
            if log.host_bytes_written >= end {
                break;
            }
        }
        sampler = Some(s);
    });

    if let Some(e) = failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(format!("concurrent multitenant run failed: {e}"));
    }

    ctrl.with_ftl(|f| f.check_invariants());
    let dlog = ctrl.fdp_stats_log().delta(&log0);
    let dlwa_series = sampler.map(DlwaSampler::into_series).unwrap_or_default();
    Ok(MultiTenantResult {
        label: cfg.label().to_string(),
        dlwa: dlog.dlwa(),
        dlwa_steady: dlwa_steady(&dlwa_series, dlog.dlwa()),
        dlwa_series,
        tenant_hit_ratios: (0..tenants)
            .map(|t| {
                let s = pool.with_shard(t, |c| c.stats()).expect("tenant shard");
                s.delta(&stats0[t]).hit_ratio()
            })
            .collect(),
        gc_events: dlog.media_relocated_events,
    })
}

/// Common CLI handling: `--quick` shrinks runs; `--out <dir>` selects
/// the CSV output directory (default `results/`); `--concurrent` asks
/// experiments that support it (fig11) to drive the stack from real
/// worker threads over a [`fdpcache_cache::ConcurrentPool`].
#[derive(Debug, Clone)]
pub struct Cli {
    /// Quick smoke-run mode.
    pub quick: bool,
    /// Output directory for CSV artifacts.
    pub out_dir: String,
    /// Run on the concurrent sharded pool with real threads.
    pub concurrent: bool,
}

impl Cli {
    /// Parses the process arguments; anything but the three flags above
    /// exits with status 2.
    pub fn parse() -> Self {
        Self::parse_with(&[]).0
    }

    /// [`Cli::parse`] for a binary that understands `extra` arguments
    /// too; they are read off the returned [`Args`].
    pub fn parse_with(extra: &[Flag]) -> (Self, Args) {
        let mut declared =
            vec![Flag::Switch("--quick"), Flag::Switch("--concurrent"), Flag::Value("--out")];
        declared.extend_from_slice(extra);
        let args = Args::from_env(&declared);
        let cli = Cli {
            quick: args.has("--quick"),
            out_dir: args.value("--out").unwrap_or("results").to_string(),
            concurrent: args.has("--concurrent"),
        };
        (cli, args)
    }

    /// Writes a CSV artifact, creating the directory as needed.
    pub fn write_csv(&self, name: &str, content: &str) {
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir);
            return;
        }
        let path = format!("{}/{name}", self.out_dir);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("warning: cannot write {path}: {e}");
        } else {
            eprintln!("wrote {path}");
        }
    }
}

/// Renders a result pair (FDP vs non-FDP) as the standard metric table.
pub fn summary_table(results: &[&ExperimentResult]) -> String {
    let mut t = Table::new(vec![
        "config",
        "workload",
        "DLWA",
        "DLWA(steady)",
        "hit%",
        "NVM hit%",
        "ALWA",
        "KOPS",
        "p99 rd (us)",
        "p99 wr (us)",
        "GC events",
    ])
    .numeric();
    for r in results {
        t.row(vec![
            r.label.clone(),
            r.workload.clone(),
            format!("{:.2}", r.dlwa),
            format!("{:.2}", r.dlwa_steady),
            format!("{:.1}", r.hit_ratio * 100.0),
            format!("{:.1}", r.nvm_hit_ratio * 100.0),
            format!("{:.2}", r.alwa),
            format!("{:.0}", r.kops),
            format!("{:.0}", r.p99_read_us),
            format!("{:.0}", r.p99_write_us),
            format!("{}", r.gc_events),
        ]);
    }
    t.render()
}

/// Renders interval-DLWA series side by side and returns the CSV body.
pub fn dlwa_series_csv(results: &[&ExperimentResult]) -> String {
    let series: Vec<TimeSeries> = results
        .iter()
        .map(|r| {
            let mut s = TimeSeries::new(r.label.clone());
            for &(x, y) in &r.dlwa_series {
                s.push(x, y);
            }
            s
        })
        .collect();
    let refs: Vec<&TimeSeries> = series.iter().collect();
    for s in &series {
        println!("{}", s.render_ascii(48));
    }
    csv::render_series(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_builds_valid_ftl_config() {
        let cfg = ExpConfig::paper_default();
        cfg.ftl_config().validate().expect("paper default must validate");
        assert_eq!(cfg.label(), "FDP");
        assert_eq!(ExpConfig { fdp: false, ..cfg }.label(), "Non-FDP");
    }

    #[test]
    fn quick_mode_shrinks_run_length() {
        let full = ExpConfig::paper_default();
        let quick = full.clone().quick();
        assert!(quick.device_gib <= full.device_gib);
        assert!(quick.measure_turnovers < full.measure_turnovers);
        quick.ftl_config().validate().expect("quick config must validate");
    }

    #[test]
    fn cache_config_scales_with_namespace() {
        let cfg = ExpConfig::paper_default();
        let small = cfg.cache_config(1 << 30);
        let large = cfg.cache_config(4 << 30);
        assert_eq!(large.ram_bytes, 4 * small.ram_bytes);
        assert!((small.nvm.soc_fraction - cfg.soc_fraction).abs() < 1e-12);
        assert_eq!(small.use_fdp, cfg.fdp);
    }

    #[test]
    fn summary_table_renders_all_rows() {
        let mk = |label: &str| ExperimentResult {
            workload: "kv-cache".into(),
            label: label.into(),
            dlwa_series: vec![(1.0, 1.0)],
            dlwa: 1.25,
            dlwa_steady: 1.3,
            hit_ratio: 0.5,
            nvm_hit_ratio: 0.25,
            alwa: 2.0,
            kops: 100.0,
            kgets: 80.0,
            p50_read_us: 20.0,
            p99_read_us: 52.0,
            p50_write_us: 100.0,
            p99_write_us: 1180.0,
            gc_events: 42,
            host_bytes: 1 << 30,
            media_bytes: 1 << 30,
            ops: 1000,
            faults: 0,
            retries: 0,
            repairs: 0,
            requeues: 0,
            tenants: Vec::new(),
        };
        let a = mk("FDP");
        let b = mk("Non-FDP");
        let table = summary_table(&[&a, &b]);
        assert!(table.contains("FDP"));
        assert!(table.contains("Non-FDP"));
        assert!(table.contains("1.30"));
        assert!(table.contains("42"));
    }

    #[test]
    fn cli_parses_quick_and_out() {
        // Cli::parse reads process args; exercise write_csv directly.
        let dir = std::env::temp_dir().join("fdpcache_cli_test");
        let cli =
            Cli { quick: true, out_dir: dir.to_string_lossy().into_owned(), concurrent: false };
        cli.write_csv("x.csv", "a,b\n1,2\n");
        let written = std::fs::read_to_string(dir.join("x.csv")).expect("csv written");
        assert!(written.starts_with("a,b"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
