//! Fleet-scale open-loop serving gate (`fleet::tests::gate`): multi-tenant
//! SLOs on one device, plus health-routed failover across a
//! multi-device tier.
//!
//! Two scenarios, both deterministic in virtual time:
//!
//! 1. **Open-loop tenants** ([`run_fleet_tenants`]) — an N-tenant
//!    catalog drives one FDP device through a [`ConcurrentPool`]
//!    (shard = tenant, so each tenant pair owns disjoint RUHs).
//!    Arrivals come from seed-stable [`ArrivalProcess`] schedules —
//!    offered load is fixed *before* the run, unlike every closed-loop
//!    driver in this repo — and each request is charged its queueing
//!    delay: `sojourn = wait-in-queue + service`, where service is the
//!    tenant shard's virtual-clock advance. A scripted mid-run burst
//!    saturates one aggressor tenant (≥ [`OVERLOAD_P99_FACTOR`]× p99
//!    inflation, proving the driver actually measures overload) while
//!    the isolated tenants' p99 stays flat (≤
//!    [`ISOLATION_P99_FACTOR`]×) and a budgeted tenant sheds
//!    deterministically through its token bucket. The whole run is
//!    executed on the chaos gate's turn ring, so every observable is
//!    bit-identical across reruns *and worker counts*.
//! 2. **Health-routed failover** ([`run_fleet_failover`]) — three
//!    devices behind a [`FleetRouter`]. Mid-stream, one device starts
//!    failing every media command; its cumulative
//!    [`Controller::health_report_with`](fdpcache_nvme::Controller)
//!    crosses `Failing` under the router's (tight) thresholds and the
//!    ring routes around it. The gate demands: failover happened, the
//!    sick device ends the run evicted from rotation, and **zero
//!    acknowledged writes are lost** — every key the fleet ack'd
//!    verifies on the device that acknowledged it (`Absent` is legal
//!    for a cache; `Mismatch` is not).
//!
//! [`sweep_fleet`] runs scenario 1 at workers ∈ {1, 2, 4} plus a
//! rerun, scenario 2 twice, and [`FleetSweep::gate_failures`] lists
//! every violation of the gate.

use std::collections::BTreeMap;
use std::sync::Mutex;

use fdpcache_cache::builder::{build_device, build_device_faulted, StoreKind};
use fdpcache_cache::fleet::{FleetDevice, FleetRouter, DEFAULT_VNODES};
use fdpcache_cache::value::Value;
use fdpcache_cache::{CacheConfig, CacheError, CacheStats, ConcurrentPool, FlashVerify, NvmConfig};
use fdpcache_core::RoundRobinPolicy;
use fdpcache_metrics::Histogram;
use fdpcache_nvme::{FaultRates, HealthConfig};
use fdpcache_workloads::trace::Op;
use fdpcache_workloads::{
    ArrivalProcess, BurstWindow, RateShape, TenantCatalog, TenantSloSummary, TenantSloTracker,
    TenantSpec, TokenBucket, WorkloadProfile,
};

use crate::harness::bench_ftl_config;
use crate::turn_ring::TurnRing;

/// Isolated tenants' burst-phase p99 may inflate at most this factor
/// over their calm-phase p99 while the aggressor saturates.
pub const ISOLATION_P99_FACTOR: f64 = 2.0;

/// The aggressor's burst-phase p99 must inflate at least this factor —
/// the open-loop driver must actually observe the overload it offers.
pub const OVERLOAD_P99_FACTOR: f64 = 10.0;

/// DLWA ceiling for the shared FDP device under the full tenant mix.
pub const FLEET_DLWA_CEILING: f64 = 1.3;

/// Worker counts scenario 1 must replay bit-identically across.
pub const FLEET_WORKERS: [usize; 3] = [1, 2, 4];

/// Configuration of the fleet gate.
#[derive(Debug, Clone)]
pub struct FleetGateConfig {
    /// Device capacity in MiB (each fleet device uses the same).
    pub device_mib: u64,
    /// Reclaim-unit size in MiB.
    pub ru_mib: u64,
    /// Trace/arrival RNG seed.
    pub seed: u64,
    /// Open-loop schedule horizon in virtual nanoseconds.
    pub horizon_ns: u64,
    /// Scripted overload window (applies to the aggressor and the
    /// budgeted tenant).
    pub burst: BurstWindow,
    /// Base arrival rate per tenant (ops per virtual second).
    pub base_rate: f64,
    /// Keys per tenant keyspace.
    pub keyspace: u64,
    /// Devices in the failover fleet.
    pub devices: usize,
    /// Operations in the failover stream.
    pub failover_ops: u64,
    /// Stream position at which the victim device starts failing
    /// every media command.
    pub fail_at: u64,
}

impl Default for FleetGateConfig {
    fn default() -> Self {
        FleetGateConfig {
            device_mib: 16,
            ru_mib: 1,
            seed: 42,
            horizon_ns: 600_000_000, // 600 virtual ms
            burst: BurstWindow { start_ns: 200_000_000, end_ns: 400_000_000, multiplier: 20.0 },
            base_rate: 1_000.0,
            keyspace: 20_000,
            devices: 3,
            failover_ops: 9_000,
            fail_at: 3_000,
        }
    }
}

impl FleetGateConfig {
    /// Cache geometry shared by both scenarios — same family as the
    /// fault/chaos gates so the fleet stresses the same stack shape.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            // Small DRAM front: each tenant shard warms up within its
            // first few dozen puts, so the pre-burst phase already
            // measures the steady flash path (a big front would make
            // the calm-phase p99 a vacuous DRAM-only number).
            ram_bytes: 64 << 10,
            ram_item_overhead: 0,
            nvm: NvmConfig {
                soc_fraction: 0.1,
                region_bytes: 256 << 10,
                trim_on_region_evict: true,
                ..NvmConfig::default()
            },
            use_fdp: true,
        }
    }

    /// Cache geometry for the failover scenario: a tiny DRAM front and
    /// small LOC regions so evictions reach the device *immediately* —
    /// the scripted storm must surface as flash faults while it rages,
    /// not sit buffered in DRAM/region buffers until `drain_io` runs
    /// after the storm lifts.
    pub fn failover_cache_config(&self) -> CacheConfig {
        CacheConfig {
            ram_bytes: 32 << 10,
            ram_item_overhead: 0,
            nvm: NvmConfig {
                soc_fraction: 0.25,
                region_bytes: 128 << 10,
                trim_on_region_evict: true,
                ..NvmConfig::default()
            },
            use_fdp: true,
        }
    }

    /// The router's failover thresholds. Much tighter than the
    /// degraded-mode ladder's defaults: a serving tier evicts a device
    /// from rotation long before the device itself would give up.
    /// `min_events` guards cold devices; the ppm thresholds are
    /// cumulative-rate cutoffs over `commands + faults`.
    pub fn router_health(&self) -> HealthConfig {
        HealthConfig {
            min_events: 128,
            degraded_ppm: 10_000,
            failing_ppm: 20_000,
            ..HealthConfig::default()
        }
    }

    /// The N-tenant catalog the open-loop scenario serves.
    pub fn catalog(&self) -> TenantCatalog {
        let steady = |name: &str| TenantSpec {
            name: name.to_string(),
            profile: WorkloadProfile::wo_kv_cache(),
            keyspace: self.keyspace,
            base_rate_ops_per_sec: self.base_rate,
            shape: RateShape::Steady,
            admission: None,
            // Tuned to the simulator's virtual service times: the
            // steady flash path costs a few hundred µs per put (SOC
            // read-modify-write) with multi-ms LOC region flushes in
            // the tail, so a ~0.4-utilized shard sees sub-ms p50 and
            // single-digit-ms p99. Roughly 2x headroom on both.
            slo: fdpcache_workloads::SloTarget { p50_us: 2_000, p99_us: 20_000 },
        };
        let bursty = RateShape::Bursts(vec![self.burst]);
        TenantCatalog::new(vec![
            steady("isolated-a"),
            steady("isolated-b"),
            TenantSpec {
                name: "aggressor".to_string(),
                profile: WorkloadProfile::wo_kv_cache(),
                keyspace: self.keyspace,
                base_rate_ops_per_sec: self.base_rate,
                shape: bursty.clone(),
                admission: None,
                // The aggressor is *expected* to blow any SLO during
                // its burst; give it an unmissable target so `met`
                // stays a statement about the isolated tenants.
                slo: fdpcache_workloads::SloTarget { p50_us: u64::MAX, p99_us: u64::MAX },
            },
            TenantSpec {
                name: "budgeted".to_string(),
                profile: WorkloadProfile::wo_kv_cache(),
                keyspace: self.keyspace,
                base_rate_ops_per_sec: self.base_rate,
                shape: bursty,
                admission: Some(fdpcache_workloads::AdmissionBudget {
                    rate_ops_per_sec: self.base_rate * 1.6,
                    burst: 64,
                }),
                // The token bucket admits up to `burst` back-to-back
                // arrivals, so admitted requests queue in pulses; the
                // budgeted tenant's SLO is accordingly looser than the
                // isolated ones'.
                slo: fdpcache_workloads::SloTarget { p50_us: 20_000, p99_us: 60_000 },
            },
        ])
    }
}

/// One precomputed schedule entry: who arrives when, with what
/// request, and whether admission control lets it through. The entire
/// schedule — arrivals, request payloads and admission verdicts — is a
/// pure function of the config, computed before any worker starts, so
/// execution order is the only thing the turn ring has to pin.
#[derive(Debug, Clone)]
struct SchedEntry {
    tenant: usize,
    arrival_ns: u64,
    admitted: bool,
    op: Op,
    key: u64,
    size: u32,
}

/// Builds the merged open-loop schedule for the catalog: per-tenant
/// Poisson/burst arrivals, per-tenant trace streams, per-tenant token
/// buckets, merged into one global order by `(arrival, tenant)`.
fn build_schedule(cfg: &FleetGateConfig, catalog: &TenantCatalog) -> Vec<SchedEntry> {
    let mut all = Vec::new();
    for (t, spec) in catalog.tenants.iter().enumerate() {
        let mut arrivals = ArrivalProcess::new(
            spec.base_rate_ops_per_sec,
            spec.shape.clone(),
            cfg.seed.wrapping_add(t as u64),
        );
        let mut gen = spec.profile.generator(spec.keyspace, cfg.seed + 1_000 + t as u64);
        let mut bucket = spec.admission.as_ref().map(TokenBucket::new);
        for arrival_ns in arrivals.take_until(cfg.horizon_ns) {
            let req = gen.next_request();
            let admitted = bucket.as_mut().is_none_or(|b| b.admit(arrival_ns));
            all.push(SchedEntry {
                tenant: t,
                arrival_ns,
                admitted,
                op: req.op,
                key: req.key,
                size: req.size,
            });
        }
    }
    // Tenant index breaks arrival ties; a single tenant's stamps are
    // strictly increasing, so the order is total and deterministic.
    all.sort_by_key(|e| (e.arrival_ns, e.tenant));
    all
}

/// Which burst phase an arrival stamp falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pre,
    Burst,
    Post,
}

fn phase_of(burst: &BurstWindow, arrival_ns: u64) -> Phase {
    if arrival_ns < burst.start_ns {
        Phase::Pre
    } else if burst.contains(arrival_ns) {
        Phase::Burst
    } else {
        Phase::Post
    }
}

/// Per-tenant measurement state, owned by exactly one worker for the
/// whole run (tenant → worker ownership is static), so its contents
/// are independent of the worker count.
#[derive(Debug)]
struct TenantTrack {
    tracker: TenantSloTracker,
    /// Sojourn histograms by burst phase (keyed by *arrival* stamp, so
    /// queue backlog drained after the window still charges the burst).
    hists: [Histogram; 3],
    sheds: [u64; 3],
}

impl TenantTrack {
    fn new() -> Self {
        TenantTrack {
            tracker: TenantSloTracker::new(),
            hists: [Histogram::new(), Histogram::new(), Histogram::new()],
            sheds: [0; 3],
        }
    }
}

/// Executes the schedule on the chaos gate's deterministic
/// [`TurnRing`]: each position is executed by the worker owning its
/// tenant (`tenant % workers`) only after every earlier position
/// completed, so the shared device sees the merged arrival order
/// exactly — for any worker count. Shed arrivals still take their
/// turn (they consume schedule order, not device time).
fn run_schedule(
    pool: &ConcurrentPool,
    sched: &[SchedEntry],
    workers: usize,
    burst: &BurstWindow,
    tracks: &[Mutex<TenantTrack>],
) {
    let ring = TurnRing::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|widx| {
                let ring = &ring;
                scope.spawn(move || {
                    let _poison = ring.poison_on_panic();
                    for (pos, e) in (0u64..).zip(sched) {
                        if e.tenant % workers != widx {
                            continue;
                        }
                        if !ring.wait_for(pos) {
                            break;
                        }
                        let phase = phase_of(burst, e.arrival_ns) as usize;
                        let mut track = tracks[e.tenant].lock().unwrap_or_else(|p| p.into_inner());
                        if !e.admitted {
                            track.tracker.record_shed();
                            track.sheds[phase] += 1;
                            ring.done(pos);
                            continue;
                        }
                        // Service time = the tenant shard's virtual-clock
                        // advance for this op (host CPU + any flash/GC
                        // time the shared FTL charges it).
                        let service_ns = pool
                            .with_shard(e.tenant, |c| {
                                let t0 = c.now_ns();
                                match e.op {
                                    Op::Get => {
                                        c.get(e.key).unwrap_or_else(|err| {
                                            panic!("tenant {} get({}): {err}", e.tenant, e.key)
                                        });
                                    }
                                    Op::Set => match c.put(e.key, Value::synthetic(e.size)) {
                                        Ok(()) | Err(CacheError::ObjectTooLarge { .. }) => {}
                                        Err(err) => {
                                            panic!("tenant {} put({}): {err}", e.tenant, e.key)
                                        }
                                    },
                                    Op::Delete => {
                                        c.delete(e.key).unwrap_or_else(|err| {
                                            panic!("tenant {} del({}): {err}", e.tenant, e.key)
                                        });
                                    }
                                }
                                c.now_ns() - t0
                            })
                            .expect("tenant shard exists");
                        let sojourn = track.tracker.observe(e.arrival_ns, service_ns);
                        track.hists[phase].record(sojourn.max(1));
                        drop(track);
                        ring.done(pos);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("fleet worker panicked");
        }
    });
}

/// One tenant's per-phase latency evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPhaseStats {
    /// Tenant name.
    pub tenant: String,
    /// Arrivals admitted / shed over the whole run.
    pub admitted: u64,
    /// Shed arrivals over the whole run.
    pub shed: u64,
    /// Sheds whose arrival predates the burst window (must be 0 for a
    /// correctly-sized budget).
    pub shed_pre: u64,
    /// p99 sojourn (µs) for arrivals before the burst window.
    pub pre_p99_us: Option<f64>,
    /// p99 sojourn (µs) for arrivals inside the burst window.
    pub burst_p99_us: Option<f64>,
    /// p99 sojourn (µs) for arrivals after the burst window.
    pub post_p99_us: Option<f64>,
}

/// Everything one open-loop tenant run reports. Every field is
/// deterministic — bit-identical across reruns and worker counts.
#[derive(Debug, Clone)]
pub struct FleetTenantsResult {
    /// Worker threads that drove the turn ring.
    pub workers: usize,
    /// Per-tenant SLO rollups in catalog order.
    pub summaries: Vec<TenantSloSummary>,
    /// Per-tenant per-phase p99 evidence in catalog order.
    pub phases: Vec<TenantPhaseStats>,
    /// Final per-shard virtual clocks.
    pub shard_now_ns: Vec<u64>,
    /// Pool-wide cache counters.
    pub stats: CacheStats,
    /// Whole-run device-level write amplification.
    pub dlwa: f64,
    /// Host bytes the device absorbed (non-vacuity evidence for the
    /// DLWA gate).
    pub host_bytes: u64,
    /// Device capacity in bytes.
    pub device_bytes: u64,
}

impl FleetTenantsResult {
    /// Whether `other` is bit-identical in every deterministic
    /// observable.
    pub fn matches(&self, other: &FleetTenantsResult) -> bool {
        self.summaries == other.summaries
            && self.phases == other.phases
            && self.shard_now_ns == other.shard_now_ns
            && self.stats == other.stats
            && self.host_bytes == other.host_bytes
            && self.dlwa.to_bits() == other.dlwa.to_bits()
    }
}

/// Runs the open-loop tenant scenario with `workers` turn-ring
/// workers.
///
/// # Panics
///
/// Panics on configuration errors and on any device error — the
/// scenario runs a fault-free device, so errors are driver bugs.
pub fn run_fleet_tenants(cfg: &FleetGateConfig, workers: usize) -> FleetTenantsResult {
    let catalog = cfg.catalog();
    let tenants = catalog.len();
    let ctrl =
        build_device(bench_ftl_config(cfg.device_mib, cfg.ru_mib, cfg.seed), StoreKind::Null, true)
            .expect("device");
    let pool = ConcurrentPool::new(&ctrl, &cfg.cache_config(), tenants, 0.9, || {
        Box::new(RoundRobinPolicy::new())
    })
    .expect("pool");

    let sched = build_schedule(cfg, &catalog);
    let tracks: Vec<Mutex<TenantTrack>> =
        (0..tenants).map(|_| Mutex::new(TenantTrack::new())).collect();
    let workers = workers.max(1);
    run_schedule(&pool, &sched, workers, &cfg.burst, &tracks);
    pool.drain_io();

    let log = ctrl.fdp_stats_log();
    let stats = pool.stats();
    let shard_now_ns: Vec<u64> =
        (0..tenants).map(|i| pool.with_shard(i, |c| c.now_ns()).expect("shard in range")).collect();
    let tracks: Vec<TenantTrack> =
        tracks.into_iter().map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner())).collect();

    let summaries: Vec<TenantSloSummary> =
        tracks.iter().zip(&catalog.tenants).map(|(tr, spec)| tr.tracker.summary(spec)).collect();
    let p99 = |h: &Histogram| h.try_percentile(99.0).map(|ns| ns as f64 / 1_000.0);
    let phases: Vec<TenantPhaseStats> = tracks
        .iter()
        .zip(&catalog.tenants)
        .map(|(tr, spec)| TenantPhaseStats {
            tenant: spec.name.clone(),
            admitted: tr.tracker.admitted(),
            shed: tr.tracker.shed(),
            shed_pre: tr.sheds[Phase::Pre as usize],
            pre_p99_us: p99(&tr.hists[Phase::Pre as usize]),
            burst_p99_us: p99(&tr.hists[Phase::Burst as usize]),
            post_p99_us: p99(&tr.hists[Phase::Post as usize]),
        })
        .collect();

    ctrl.with_ftl(|f| f.check_invariants());
    FleetTenantsResult {
        workers,
        summaries,
        phases,
        shard_now_ns,
        stats,
        dlwa: log.dlwa(),
        host_bytes: log.host_bytes_written,
        device_bytes: cfg.device_mib << 20,
    }
}

/// One fleet device's end-of-run evidence in the failover scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDeviceReport {
    /// Device name.
    pub device: String,
    /// Ops the router sent here.
    pub routed: u64,
    /// Ops that preferred this device but were routed elsewhere.
    pub failed_over: u64,
    /// Health state under the router's thresholds at the end.
    pub health: String,
    /// Cumulative fault rate (ppm of `commands + faults`).
    pub rate_ppm: u64,
    /// Fault events the device's store injected.
    pub faults: u64,
}

/// Everything one failover run reports. Deterministic end to end: the
/// stream is single-threaded, routing is a pure function of (key,
/// ring, cumulative health), and health only changes with executed
/// commands.
#[derive(Debug, Clone)]
pub struct FleetFailoverResult {
    /// Per-device reports in fleet order.
    pub devices: Vec<FleetDeviceReport>,
    /// Injected-fault errors that surfaced to the driver.
    pub surfaced: u64,
    /// Acknowledged writes tracked by the shadow map at the end.
    pub acked: u64,
    /// Acknowledged keys verified exactly on their acking device.
    pub verified: u64,
    /// Acknowledged keys with torn/wrong bytes — **lost acknowledged
    /// writes**; the gate requires zero.
    pub lost: u64,
    /// Acknowledged keys absent from flash (evicted or shed while the
    /// victim served DRAM-only) — legal for a cache.
    pub absent: u64,
    /// Acknowledged keys whose verification read itself faulted.
    pub unverifiable: u64,
    /// Per-device final virtual clocks.
    pub device_now_ns: Vec<u64>,
}

impl FleetFailoverResult {
    /// Whether `other` replayed bit-identically.
    pub fn matches(&self, other: &FleetFailoverResult) -> bool {
        self.devices == other.devices
            && self.surfaced == other.surfaced
            && (self.acked, self.verified, self.lost, self.absent, self.unverifiable)
                == (other.acked, other.verified, other.lost, other.absent, other.unverifiable)
            && self.device_now_ns == other.device_now_ns
    }
}

/// Runs the scripted-failure failover scenario.
///
/// # Panics
///
/// Panics on configuration errors and on non-injected device errors.
pub fn run_fleet_failover(cfg: &FleetGateConfig) -> FleetFailoverResult {
    let devices: Vec<FleetDevice> = (0..cfg.devices)
        .map(|d| {
            let ctrl = build_device_faulted(
                bench_ftl_config(cfg.device_mib, cfg.ru_mib, cfg.seed.wrapping_add(d as u64)),
                StoreKind::Mem,
                true,
                fdpcache_nvme::FaultConfig { seed: cfg.seed ^ (d as u64), ..Default::default() },
            )
            .expect("fleet device");
            let pool = ConcurrentPool::new(&ctrl, &cfg.failover_cache_config(), 1, 0.9, || {
                Box::new(RoundRobinPolicy::new())
            })
            .expect("fleet pool");
            // Short probe backoff (as in the chaos gate): an open shard
            // serves DRAM-only at host-op cost, so its virtual clock
            // crawls toward the default multi-second probe deadline.
            pool.set_breaker_backoff(1_000_000, 8_000_000);
            FleetDevice { name: format!("dev{d}"), ctrl, pool }
        })
        .collect();
    let router = FleetRouter::new(devices, DEFAULT_VNODES, cfg.router_health()).expect("router");

    let victim = 1usize.min(cfg.devices - 1);
    let storm = FaultRates {
        read_err_ppm: 1_000_000,
        write_err_ppm: 1_000_000,
        discard_err_ppm: 1_000_000,
        ..FaultRates::default()
    };

    let mut gen = WorkloadProfile::wo_kv_cache().generator(cfg.keyspace, cfg.seed);
    // key → (acking device, Some(size) for an acknowledged put / None
    // for a delete or an indeterminate casualty).
    let mut shadow: BTreeMap<u64, (usize, Option<u32>)> = BTreeMap::new();
    let mut surfaced = 0u64;
    for pos in 0..cfg.failover_ops {
        if pos == cfg.fail_at {
            assert!(
                router.device(victim).ctrl.set_fault_rates(storm),
                "fleet device store must accept fault retunes"
            );
        }
        let req = gen.next_request();
        let dev = router.route(req.key).expect("at least one device serves");
        let pool = &router.device(dev).pool;
        match req.op {
            Op::Get => match pool.get(req.key) {
                Ok(_) => {}
                Err(e) if e.is_injected_fault() => surfaced += 1,
                Err(CacheError::Unrecoverable(_)) => surfaced += 1,
                Err(e) => panic!("get({}) on dev{dev} failed non-fault: {e}", req.key),
            },
            Op::Set => match pool.put(req.key, Value::synthetic(req.size)) {
                Ok(()) => {
                    shadow.insert(req.key, (dev, Some(req.size)));
                }
                Err(CacheError::ObjectTooLarge { .. }) => {}
                // Not acknowledged: the shadow keeps any previous ack.
                Err(e) if e.is_injected_fault() => surfaced += 1,
                Err(CacheError::Unrecoverable(_)) => {
                    surfaced += 1;
                    shadow.insert(req.key, (dev, None));
                }
                Err(e) => panic!("put({}) on dev{dev} failed non-fault: {e}", req.key),
            },
            Op::Delete => match pool.delete(req.key) {
                Ok(_) => {
                    shadow.insert(req.key, (dev, None));
                }
                Err(e) if e.is_injected_fault() => surfaced += 1,
                Err(CacheError::Unrecoverable(_)) => {
                    surfaced += 1;
                    shadow.insert(req.key, (dev, None));
                }
                Err(e) => panic!("delete({}) on dev{dev} failed non-fault: {e}", req.key),
            },
        }
    }
    // Capture routing/health evidence *before* verification touches
    // the devices (verification reads would inflate `commands`).
    let reports: Vec<FleetDeviceReport> = (0..cfg.devices)
        .map(|d| {
            let s = router.device_stats(d);
            let h = router.health_of(d);
            FleetDeviceReport {
                device: router.device(d).name.clone(),
                routed: s.routed,
                failed_over: s.failed_over,
                health: format!("{:?}", h.state),
                rate_ppm: h.rate_ppm,
                faults: h.faults,
            }
        })
        .collect();
    let device_now_ns: Vec<u64> = (0..cfg.devices)
        .map(|d| router.device(d).pool.with_shard(0, |c| c.now_ns()).expect("shard"))
        .collect();

    // Lift the storm so verification reads are honest, then check
    // every acknowledged key on the device that acknowledged it.
    router.device(victim).ctrl.set_fault_rates(FaultRates::default());
    for d in 0..cfg.devices {
        router.device(d).pool.drain_io();
    }
    let (mut verified, mut lost, mut absent, mut unverifiable) = (0u64, 0u64, 0u64, 0u64);
    let mut acked = 0u64;
    for (&key, &(dev, entry)) in &shadow {
        if entry.is_none() {
            continue;
        }
        acked += 1;
        let verdict = router
            .device(dev)
            .pool
            .with_shard(0, |c| c.verify_flash_key(key).expect("verification must not error"))
            .expect("shard");
        match verdict {
            FlashVerify::Verified => verified += 1,
            FlashVerify::Mismatch => lost += 1,
            FlashVerify::Absent => absent += 1,
            FlashVerify::Unverifiable => unverifiable += 1,
        }
    }
    for d in 0..cfg.devices {
        router.device(d).ctrl.with_ftl(|f| f.check_invariants());
    }

    FleetFailoverResult {
        devices: reports,
        surfaced,
        acked,
        verified,
        lost,
        absent,
        unverifiable,
        device_now_ns,
    }
}

/// The full fleet sweep: scenario 1 at every worker count plus a
/// rerun, scenario 2 twice.
#[derive(Debug, Clone)]
pub struct FleetSweep {
    /// Open-loop tenant runs, one per [`FLEET_WORKERS`] entry.
    pub tenant_runs: Vec<FleetTenantsResult>,
    /// Rerun of the first worker count (determinism evidence).
    pub tenant_rerun: FleetTenantsResult,
    /// First failover run.
    pub failover: FleetFailoverResult,
    /// Rerun of the failover scenario.
    pub failover_rerun: FleetFailoverResult,
}

/// Runs the full sweep.
pub fn sweep_fleet(cfg: &FleetGateConfig) -> FleetSweep {
    let tenant_runs: Vec<FleetTenantsResult> =
        FLEET_WORKERS.iter().map(|&w| run_fleet_tenants(cfg, w)).collect();
    let tenant_rerun = run_fleet_tenants(cfg, FLEET_WORKERS[0]);
    let failover = run_fleet_failover(cfg);
    let failover_rerun = run_fleet_failover(cfg);
    FleetSweep { tenant_runs, tenant_rerun, failover, failover_rerun }
}

impl FleetSweep {
    /// Every gate violation in the sweep, empty when the gate passes.
    pub fn gate_failures(&self, cfg: &FleetGateConfig) -> Vec<String> {
        let mut fails = Vec::new();
        let base = &self.tenant_runs[0];

        // Determinism: every worker count and the rerun must match the
        // base run bit-for-bit.
        for r in &self.tenant_runs[1..] {
            if !base.matches(r) {
                fails.push(format!(
                    "tenant run with {} workers diverged from the {}-worker run",
                    r.workers, base.workers
                ));
            }
        }
        if !base.matches(&self.tenant_rerun) {
            fails.push("tenant rerun diverged from the first run".to_string());
        }
        if !self.failover.matches(&self.failover_rerun) {
            fails.push("failover rerun diverged from the first run".to_string());
        }

        for p in base.phases.iter().filter(|p| p.admitted == 0) {
            fails.push(format!("{}: admitted nothing (vacuous)", p.tenant));
        }

        // SLO isolation: isolated tenants stay flat and meet their SLO
        // while the aggressor saturates its shard.
        for p in &base.phases[..2] {
            match (p.pre_p99_us, p.burst_p99_us) {
                (Some(pre), Some(burst)) if pre > 0.0 => {
                    if burst > ISOLATION_P99_FACTOR * pre {
                        fails.push(format!(
                            "{}: burst p99 {burst:.1}µs > {ISOLATION_P99_FACTOR}x calm p99 \
                             {pre:.1}µs",
                            p.tenant
                        ));
                    }
                }
                _ => fails.push(format!("{}: missing phase percentiles", p.tenant)),
            }
        }
        for s in &base.summaries[..2] {
            if !s.met {
                fails.push(format!(
                    "{}: SLO missed (p50 {:?}µs / p99 {:?}µs vs {} / {})",
                    s.tenant, s.p50_us, s.p99_us, s.slo_p50_us, s.slo_p99_us
                ));
            }
        }

        // Overload visibility: the aggressor's own p99 must explode.
        let agg = &base.phases[2];
        match (agg.pre_p99_us, agg.burst_p99_us) {
            (Some(pre), Some(burst)) if pre > 0.0 => {
                if burst < OVERLOAD_P99_FACTOR * pre {
                    fails.push(format!(
                        "aggressor burst p99 {burst:.1}µs < {OVERLOAD_P99_FACTOR}x calm p99 \
                         {pre:.1}µs — open-loop driver not observing overload"
                    ));
                }
            }
            _ => fails.push("aggressor: missing phase percentiles".to_string()),
        }

        // Admission control: the budgeted tenant sheds, and only once
        // the burst starts.
        let bud = &base.phases[3];
        if bud.shed == 0 {
            fails.push("budgeted tenant shed nothing under a 20x burst".to_string());
        }
        if bud.shed_pre > 0 {
            fails.push(format!("budgeted tenant shed {} arrivals before the burst", bud.shed_pre));
        }

        // Placement: DLWA ~1 on the shared FDP device, non-vacuously.
        if base.host_bytes < base.device_bytes {
            fails.push(format!(
                "DLWA gate vacuous: host bytes {} < device bytes {}",
                base.host_bytes, base.device_bytes
            ));
        }
        if base.dlwa > FLEET_DLWA_CEILING {
            fails.push(format!("DLWA {:.3} > ceiling {FLEET_DLWA_CEILING}", base.dlwa));
        }

        // Failover: the victim was evicted from rotation by health, the
        // ring rerouted around it, and no acknowledged write was lost.
        let victim = 1usize.min(cfg.devices - 1);
        let v = &self.failover.devices[victim];
        if v.health != "Failing" {
            fails.push(format!(
                "victim {} ended {} (rate {} ppm), expected Failing",
                v.device, v.health, v.rate_ppm
            ));
        }
        if v.failed_over == 0 {
            fails.push("no op failed over off the victim device".to_string());
        }
        if self.failover.acked == 0 || self.failover.verified == 0 {
            fails.push(format!(
                "failover verification vacuous: acked {} verified {}",
                self.failover.acked, self.failover.verified
            ));
        }
        if self.failover.lost > 0 {
            fails.push(format!(
                "{} acknowledged writes lost across the failover",
                self.failover.lost
            ));
        }
        fails
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> FleetGateConfig {
        FleetGateConfig {
            horizon_ns: 30_000_000,
            burst: BurstWindow { start_ns: 10_000_000, end_ns: 20_000_000, multiplier: 20.0 },
            failover_ops: 4_000,
            fail_at: 1_500,
            ..FleetGateConfig::default()
        }
    }

    #[test]
    fn schedule_is_deterministic_and_ordered() {
        let cfg = quick_cfg();
        let catalog = cfg.catalog();
        let a = build_schedule(&cfg, &catalog);
        let b = build_schedule(&cfg, &catalog);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.tenant, x.arrival_ns, x.admitted, x.key),
                (y.tenant, y.arrival_ns, y.admitted, y.key)
            );
        }
        for w in a.windows(2) {
            assert!((w[0].arrival_ns, w[0].tenant) < (w[1].arrival_ns, w[1].tenant));
        }
        // The aggressor (t2) must arrive far more often in-burst.
        let in_burst =
            a.iter().filter(|e| e.tenant == 2 && cfg.burst.contains(e.arrival_ns)).count();
        let pre = a.iter().filter(|e| e.tenant == 2 && e.arrival_ns < cfg.burst.start_ns).count();
        assert!(in_burst > 5 * pre, "burst {in_burst} vs pre {pre}");
    }

    /// Both scenarios at full length: the tenant run at every worker
    /// count plus a rerun, the failover run twice.
    #[test]
    fn gate() {
        let cfg = FleetGateConfig::default();
        let fails = sweep_fleet(&cfg).gate_failures(&cfg);
        assert!(
            fails.is_empty(),
            "fleet gate: {} violation(s):\n{}",
            fails.len(),
            fails.join("\n")
        );
    }
}
