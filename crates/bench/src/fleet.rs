//! Fleet-scale open-loop serving gate (`fleet::tests::gate`): multi-tenant
//! SLOs on one device, plus health-routed failover across a
//! multi-device tier.
//!
//! Two scenarios, both deterministic in virtual time:
//!
//! 1. **Open-loop tenants** — an N-tenant
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
//!    executed on the gates' turn ring, so every observable is
//!    bit-identical across reruns *and worker counts*.
//! 2. **Health-routed failover** — three
//!    devices behind a [`FleetRouter`]. Mid-stream, one device starts
//!    failing every media command; its cumulative
//!    [`Controller::health_report_with`](fdpcache_nvme::Controller)
//!    crosses `Failing` under the router's (tight) thresholds and the
//!    ring routes around it. The gate demands: failover happened, the
//!    sick device ends the run evicted from rotation, and **zero
//!    acknowledged writes are lost** — the oracle's flash tally checks
//!    every key the fleet ack'd on the device that acknowledged it
//!    (`Absent` is legal for a cache; `Mismatch` is not).
//!
//! The gate runs scenario 1 at workers ∈ {1, 2, 4} plus a rerun and
//! scenario 2 twice, and lists every violation.

use std::collections::BTreeMap;
use std::sync::Mutex;

use fdpcache_cache::builder::{build_device, build_device_faulted, StoreKind};
use fdpcache_cache::fleet::{FleetDevice, FleetRouter, DEFAULT_VNODES};
use fdpcache_cache::{CacheConfig, CacheError, CacheStats, ConcurrentPool, HybridCache, NvmConfig};
use fdpcache_core::RoundRobinPolicy;
use fdpcache_metrics::Histogram;
use fdpcache_nvme::{FaultRates, HealthConfig};
use fdpcache_workloads::oracle::FlashTally;
use fdpcache_workloads::trace::{Op, Request};
use fdpcache_workloads::{
    serve, AdmissionBudget, ArrivalProcess, BurstWindow, Oracle, RateShape, SloTarget,
    TenantCatalog, TenantSloSummary, TenantSloTracker, TenantSpec, TokenBucket, WorkloadProfile,
};

use crate::chaos::PROBE_BACKOFF_NS;
use crate::faults::GATE_SEED;
use crate::harness::bench_ftl_config;
use crate::turn_ring::run_in_order;

/// Isolated tenants' burst-phase p99 may inflate at most this factor
/// over their calm-phase p99 while the aggressor saturates.
const ISOLATION_P99_FACTOR: f64 = 2.0;

/// The aggressor's burst-phase p99 must inflate at least this factor —
/// the open-loop driver must actually observe the overload it offers.
const OVERLOAD_P99_FACTOR: f64 = 10.0;

/// DLWA ceiling for the shared FDP device under the full tenant mix.
const FLEET_DLWA_CEILING: f64 = 1.3;

/// Worker counts scenario 1 must replay bit-identically across.
const FLEET_WORKERS: [usize; 3] = [1, 2, 4];

/// Capacity (MiB) of each fleet device.
const DEVICE_MIB: u64 = 16;

/// Open-loop schedule horizon: 600 virtual ms.
const HORIZON_NS: u64 = 600_000_000;

/// Scripted overload window, for the aggressor and the budgeted tenant.
const BURST: BurstWindow =
    BurstWindow { start_ns: 200_000_000, end_ns: 400_000_000, multiplier: 20.0 };

/// Base arrival rate per tenant (ops per virtual second).
const BASE_RATE: f64 = 1_000.0;

/// Keys per tenant keyspace.
const KEYSPACE: u64 = 20_000;

/// Devices in the failover fleet.
const DEVICES: usize = 3;

/// Operations in the failover stream.
const FAILOVER_OPS: u64 = 9_000;

/// Stream position at which the victim device starts failing every
/// media command.
const FAIL_AT: u64 = 3_000;

/// The device the failover storm hits.
const VICTIM: usize = 1;

/// Cache geometry of the tenant scenario — same family as the
/// fault/chaos gates so the fleet stresses the same stack shape.
fn tenant_cache_config() -> CacheConfig {
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
/// small LOC regions so evictions reach the device *immediately* — the
/// scripted storm must surface as flash faults while it rages, not sit
/// buffered in DRAM/region buffers until `drain_io` runs after the
/// storm lifts.
fn failover_cache_config() -> CacheConfig {
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
/// degraded-mode ladder's defaults: a serving tier evicts a device from
/// rotation long before the device itself would give up. `min_events`
/// guards cold devices; the ppm thresholds are cumulative-rate cutoffs
/// over `commands + faults`.
fn router_health() -> HealthConfig {
    HealthConfig {
        min_events: 128,
        degraded_ppm: 10_000,
        failing_ppm: 20_000,
        ..HealthConfig::default()
    }
}

/// The N-tenant catalog the open-loop scenario serves.
fn catalog() -> TenantCatalog {
    let tenant = |name: &str, shape: RateShape, admission, slo| TenantSpec {
        name: name.to_string(),
        profile: WorkloadProfile::wo_kv_cache(),
        keyspace: KEYSPACE,
        base_rate_ops_per_sec: BASE_RATE,
        shape,
        admission,
        slo,
    };
    // Tuned to the simulator's virtual service times: the steady flash
    // path costs a few hundred µs per put (SOC read-modify-write) with
    // multi-ms LOC region flushes in the tail, so a ~0.4-utilized shard
    // sees sub-ms p50 and single-digit-ms p99. Roughly 2x headroom on
    // both.
    let steady = SloTarget { p50_us: 2_000, p99_us: 20_000 };
    let bursty = RateShape::Bursts(vec![BURST]);
    TenantCatalog::new(vec![
        tenant("isolated-a", RateShape::Steady, None, steady),
        tenant("isolated-b", RateShape::Steady, None, steady),
        // The aggressor is *expected* to blow any SLO during its burst;
        // give it an unmissable target so `met` stays a statement about
        // the isolated tenants.
        tenant("aggressor", bursty.clone(), None, SloTarget { p50_us: u64::MAX, p99_us: u64::MAX }),
        // The token bucket admits up to `burst` back-to-back arrivals,
        // so admitted requests queue in pulses; the budgeted tenant's
        // SLO is accordingly looser than the isolated ones'.
        tenant(
            "budgeted",
            bursty,
            Some(AdmissionBudget { rate_ops_per_sec: BASE_RATE * 1.6, burst: 64 }),
            SloTarget { p50_us: 20_000, p99_us: 60_000 },
        ),
    ])
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
    req: Request,
}

/// Builds the merged open-loop schedule for the catalog: per-tenant
/// Poisson/burst arrivals, per-tenant trace streams, per-tenant token
/// buckets, merged into one global order by `(arrival, tenant)`.
fn build_schedule(catalog: &TenantCatalog) -> Vec<SchedEntry> {
    let mut all = Vec::new();
    for (t, spec) in catalog.tenants.iter().enumerate() {
        let mut arrivals = ArrivalProcess::new(
            spec.base_rate_ops_per_sec,
            spec.shape.clone(),
            GATE_SEED.wrapping_add(t as u64),
        );
        let mut gen = spec.profile.generator(spec.keyspace, GATE_SEED + 1_000 + t as u64);
        let mut bucket = spec.admission.as_ref().map(TokenBucket::new);
        for arrival_ns in arrivals.take_until(HORIZON_NS) {
            let req = gen.next_request();
            let admitted = bucket.as_mut().is_none_or(|b| b.admit(arrival_ns));
            all.push(SchedEntry { tenant: t, arrival_ns, admitted, req });
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

fn phase_of(arrival_ns: u64) -> Phase {
    if arrival_ns < BURST.start_ns {
        Phase::Pre
    } else if BURST.contains(arrival_ns) {
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

/// One tenant's per-phase latency evidence.
#[derive(Debug, Clone, PartialEq)]
struct TenantPhaseStats {
    /// Tenant name.
    tenant: String,
    /// Arrivals admitted / shed over the whole run.
    admitted: u64,
    /// Shed arrivals over the whole run.
    shed: u64,
    /// Sheds whose arrival predates the burst window (must be 0 for a
    /// correctly-sized budget).
    shed_pre: u64,
    /// p99 sojourn (µs) for arrivals before the burst window.
    pre_p99_us: Option<f64>,
    /// p99 sojourn (µs) for arrivals inside the burst window.
    burst_p99_us: Option<f64>,
    /// p99 sojourn (µs) for arrivals after the burst window.
    post_p99_us: Option<f64>,
}

/// Everything one open-loop tenant run reports. Every field is
/// deterministic — bit-identical across reruns and worker counts.
#[derive(Debug, Clone, PartialEq)]
struct FleetTenantsResult {
    /// Per-tenant SLO rollups in catalog order.
    summaries: Vec<TenantSloSummary>,
    /// Per-tenant per-phase p99 evidence in catalog order.
    phases: Vec<TenantPhaseStats>,
    /// Final per-shard virtual clocks.
    shard_now_ns: Vec<u64>,
    /// Pool-wide cache counters.
    stats: CacheStats,
    /// Whole-run device-level write amplification.
    dlwa: f64,
    /// Host bytes the device absorbed (non-vacuity evidence for the
    /// DLWA gate).
    host_bytes: u64,
}

/// Runs the open-loop tenant scenario on the turn ring
/// ([`run_in_order`]): each arrival is executed by the worker owning
/// its tenant (`tenant % workers`) only after every earlier arrival, so
/// the shared device sees the merged arrival order exactly — for any
/// worker count. Shed arrivals still take their turn (they consume
/// schedule order, not device time).
///
/// # Panics
///
/// Panics on configuration errors and on any device error — the
/// scenario runs a fault-free device, so errors are driver bugs.
fn run_fleet_tenants(workers: usize) -> FleetTenantsResult {
    let catalog = catalog();
    let tenants = catalog.len();
    let ctrl = build_device(bench_ftl_config(DEVICE_MIB, 1, GATE_SEED), StoreKind::Null, true)
        .expect("device");
    let pool = ConcurrentPool::new(&ctrl, &tenant_cache_config(), tenants, 0.9, || {
        Box::new(RoundRobinPolicy::new())
    })
    .expect("pool");

    let sched = build_schedule(&catalog);
    let tracks: Vec<Mutex<TenantTrack>> =
        (0..tenants).map(|_| Mutex::new(TenantTrack::new())).collect();
    run_in_order(
        &sched,
        workers,
        |e| e.tenant,
        |e| {
            let phase = phase_of(e.arrival_ns) as usize;
            let mut track = tracks[e.tenant].lock().expect("no fleet worker panicked");
            if !e.admitted {
                track.tracker.record_shed();
                track.sheds[phase] += 1;
                return;
            }
            // Service time = the tenant shard's virtual-clock advance for
            // this op (host CPU + any flash/GC time the shared FTL charges
            // it).
            let service_ns = pool
                .with_shard(e.tenant, |c| {
                    let t0 = c.now_ns();
                    serve(c, e.req)
                        .unwrap_or_else(|err| panic!("tenant {} {:?}: {err}", e.tenant, e.req));
                    c.now_ns() - t0
                })
                .expect("tenant shard exists");
            let sojourn = track.tracker.observe(e.arrival_ns, service_ns);
            track.hists[phase].record(sojourn.max(1));
        },
    );
    pool.drain_io();

    let log = ctrl.fdp_stats_log();
    let stats = pool.stats();
    let shard_now_ns: Vec<u64> =
        (0..tenants).map(|i| pool.with_shard(i, |c| c.now_ns()).expect("shard in range")).collect();
    let tracks: Vec<TenantTrack> =
        tracks.into_iter().map(|m| m.into_inner().expect("no fleet worker panicked")).collect();

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
        summaries,
        phases,
        shard_now_ns,
        stats,
        dlwa: log.dlwa(),
        host_bytes: log.host_bytes_written,
    }
}

/// One fleet device's end-of-run evidence in the failover scenario.
#[derive(Debug, Clone, PartialEq)]
struct FleetDeviceReport {
    /// Device name.
    device: String,
    /// Ops the router sent here.
    routed: u64,
    /// Ops that preferred this device but were routed elsewhere.
    failed_over: u64,
    /// Health state under the router's thresholds at the end.
    health: String,
    /// Cumulative fault rate (ppm of `commands + faults`).
    rate_ppm: u64,
    /// Fault events the device's store injected.
    faults: u64,
}

/// Everything one failover run reports. Deterministic end to end: the
/// stream is single-threaded, routing is a pure function of (key,
/// ring, cumulative health), and health only changes with executed
/// commands.
#[derive(Debug, Clone, PartialEq)]
struct FleetFailoverResult {
    /// Per-device reports in fleet order.
    devices: Vec<FleetDeviceReport>,
    /// Injected-fault errors that surfaced to the driver.
    surfaced: u64,
    /// Every acknowledged key's verdict on the device that acknowledged
    /// it.
    flash: FlashTally,
    /// Per-device final virtual clocks.
    device_now_ns: Vec<u64>,
}

/// Runs the scripted-failure failover scenario.
///
/// # Panics
///
/// Panics on configuration errors and on non-injected device errors.
fn run_fleet_failover() -> FleetFailoverResult {
    let devices: Vec<FleetDevice> = (0..DEVICES)
        .map(|d| {
            let ctrl = build_device_faulted(
                bench_ftl_config(DEVICE_MIB, 1, GATE_SEED.wrapping_add(d as u64)),
                StoreKind::Mem,
                true,
                fdpcache_nvme::FaultConfig { seed: GATE_SEED ^ (d as u64), ..Default::default() },
            )
            .expect("fleet device");
            let pool = ConcurrentPool::new(&ctrl, &failover_cache_config(), 1, 0.9, || {
                Box::new(RoundRobinPolicy::new())
            })
            .expect("fleet pool");
            pool.set_breaker_backoff(PROBE_BACKOFF_NS.0, PROBE_BACKOFF_NS.1);
            FleetDevice { name: format!("dev{d}"), ctrl, pool }
        })
        .collect();
    let router = FleetRouter::new(devices, DEFAULT_VNODES, router_health()).expect("router");
    let storm = FaultRates {
        read_err_ppm: 1_000_000,
        write_err_ppm: 1_000_000,
        discard_err_ppm: 1_000_000,
        ..FaultRates::default()
    };

    let mut gen = WorkloadProfile::wo_kv_cache().generator(KEYSPACE, GATE_SEED);
    let mut oracle = Oracle::new();
    // key → the device that acknowledged its latest SET.
    let mut acking: BTreeMap<u64, usize> = BTreeMap::new();
    let mut surfaced = 0u64;
    for pos in 0..FAILOVER_OPS {
        if pos == FAIL_AT {
            assert!(
                router.device(VICTIM).ctrl.set_fault_rates(storm),
                "fleet device store must accept fault retunes"
            );
        }
        let req = gen.next_request();
        let dev = router.route(req.key).expect("at least one device serves");
        match oracle.step(&mut &router.device(dev).pool, req) {
            Ok(()) => {
                if req.op == Op::Set {
                    acking.insert(req.key, dev);
                }
            }
            // Not acknowledged: the oracle keeps any previous ack, or
            // makes an `Unrecoverable` casualty's key indeterminate.
            Err(CacheError::ObjectTooLarge { .. }) => {}
            Err(e) if e.is_injected_fault() || matches!(e, CacheError::Unrecoverable(_)) => {
                surfaced += 1;
            }
            Err(e) => panic!("{req:?} on dev{dev} failed non-fault: {e}"),
        }
    }
    // Capture routing/health evidence *before* verification touches
    // the devices (verification reads would inflate `commands`).
    let reports: Vec<FleetDeviceReport> = (0..DEVICES)
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
    let device_now_ns: Vec<u64> = (0..DEVICES)
        .map(|d| router.device(d).pool.with_shard(0, |c| c.now_ns()).expect("shard"))
        .collect();

    // Lift the storm so verification reads are honest, then check
    // every acknowledged key on the device that acknowledged it.
    router.device(VICTIM).ctrl.set_fault_rates(FaultRates::default());
    for d in 0..DEVICES {
        router.device(d).pool.drain_io();
    }
    let flash = oracle.tally_flash(|key| {
        let verify = |c: &mut HybridCache| c.verify_flash_key(key);
        let verdict = router.device(acking[&key]).pool.with_shard(0, verify).expect("shard");
        verdict.expect("verification must not error")
    });
    for d in 0..DEVICES {
        router.device(d).ctrl.with_ftl(|f| f.check_invariants());
    }
    FleetFailoverResult { devices: reports, surfaced, flash, device_now_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::first_divergence;

    #[test]
    fn schedule_is_deterministic_and_ordered() {
        let catalog = catalog();
        let a = build_schedule(&catalog);
        let b = build_schedule(&catalog);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.tenant, x.arrival_ns, x.admitted, x.req.key),
                (y.tenant, y.arrival_ns, y.admitted, y.req.key)
            );
        }
        for w in a.windows(2) {
            assert!((w[0].arrival_ns, w[0].tenant) < (w[1].arrival_ns, w[1].tenant));
        }
        // The aggressor (t2) must arrive far more often in-burst.
        let in_burst = a.iter().filter(|e| e.tenant == 2 && BURST.contains(e.arrival_ns)).count();
        let pre = a.iter().filter(|e| e.tenant == 2 && e.arrival_ns < BURST.start_ns).count();
        assert!(in_burst > 5 * pre, "burst {in_burst} vs pre {pre}");
    }

    /// Both scenarios at full length: the tenant run at every worker
    /// count plus a rerun, the failover run twice.
    #[test]
    fn gate() {
        let runs: Vec<(usize, FleetTenantsResult)> =
            FLEET_WORKERS.iter().map(|&w| (w, run_fleet_tenants(w))).collect();
        let tenant_rerun = run_fleet_tenants(FLEET_WORKERS[0]);
        let failover = run_fleet_failover();
        let failover_rerun = run_fleet_failover();
        let mut fails = Vec::new();
        let (base_workers, base) = &runs[0];

        // Determinism: every worker count and the rerun must match the
        // base run bit-for-bit.
        for (workers, r) in &runs[1..] {
            if r != base {
                fails.push(format!(
                    "tenant run with {workers} workers diverged from the {base_workers}-worker \
                     run: {}",
                    first_divergence(base, r)
                ));
            }
        }
        if tenant_rerun != *base {
            fails.push(format!(
                "tenant rerun diverged from the first run: {}",
                first_divergence(base, &tenant_rerun)
            ));
        }
        if failover_rerun != failover {
            fails.push(format!(
                "failover rerun diverged from the first run: {}",
                first_divergence(&failover, &failover_rerun)
            ));
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
        let device_bytes = DEVICE_MIB << 20;
        if base.host_bytes < device_bytes {
            fails.push(format!(
                "DLWA gate vacuous: host bytes {} < device bytes {device_bytes}",
                base.host_bytes
            ));
        }
        if base.dlwa > FLEET_DLWA_CEILING {
            fails.push(format!("DLWA {:.3} > ceiling {FLEET_DLWA_CEILING}", base.dlwa));
        }

        // Failover: the victim was evicted from rotation by health, the
        // ring rerouted around it, and no acknowledged write was lost.
        let v = &failover.devices[VICTIM];
        if v.health != "Failing" {
            fails.push(format!(
                "victim {} ended {} (rate {} ppm), expected Failing",
                v.device, v.health, v.rate_ppm
            ));
        }
        if v.failed_over == 0 {
            fails.push("no op failed over off the victim device".to_string());
        }
        if failover.flash.acked() == 0 || failover.flash.verified() == 0 {
            fails.push(format!(
                "failover verification vacuous: acked {} verified {}",
                failover.flash.acked(),
                failover.flash.verified()
            ));
        }
        if !failover.flash.lost.is_empty() {
            fails.push(format!(
                "{} acknowledged writes lost across the failover",
                failover.flash.lost.len()
            ));
        }
        assert!(
            fails.is_empty(),
            "fleet gate: {} violation(s):\n{}",
            fails.len(),
            fails.join("\n")
        );
    }
}
