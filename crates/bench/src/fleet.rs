//! Fleet failover gate (`fleet::tests::gate`): health-routed failover
//! across a multi-device tier, deterministic in virtual time.
//!
//! Three devices sit behind a [`FleetRouter`]. Mid-stream, one device
//! starts failing every media command; its cumulative
//! [`Controller::health_report_with`](fdpcache_nvme::Controller)
//! crosses `Failing` under the router's (tight) thresholds and the ring
//! routes around it. The gate demands: failover happened, the sick
//! device ends the run evicted from rotation, and **zero acknowledged
//! writes are lost** — the oracle's flash tally checks every key the
//! fleet ack'd on the device that acknowledged it (`Absent` is legal
//! for a cache; `Mismatch` is not).
//!
//! The gate runs the scenario twice and lists every violation.

use std::collections::BTreeMap;

use fdpcache_cache::builder::{build_device_faulted, StoreKind};
use fdpcache_cache::fleet::{FleetDevice, FleetRouter, DEFAULT_VNODES};
use fdpcache_cache::{CacheConfig, CacheError, ConcurrentPool, HybridCache, NvmConfig};
use fdpcache_core::RoundRobinPolicy;
use fdpcache_nvme::{FaultRates, HealthConfig};
use fdpcache_workloads::oracle::FlashTally;
use fdpcache_workloads::trace::Op;
use fdpcache_workloads::{Oracle, WorkloadProfile};

use crate::chaos::PROBE_BACKOFF_NS;
use crate::faults::GATE_SEED;
use crate::harness::bench_ftl_config;

/// Capacity (MiB) of each fleet device.
const DEVICE_MIB: u64 = 16;

/// Keys in the failover keyspace.
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

    /// The failover run twice: its checks, then bit-identical rerun.
    #[test]
    fn gate() {
        let failover = run_fleet_failover();
        let failover_rerun = run_fleet_failover();
        let mut fails = Vec::new();

        if failover_rerun != failover {
            fails.push(format!(
                "failover rerun diverged from the first run: {}",
                first_divergence(&failover, &failover_rerun)
            ));
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
