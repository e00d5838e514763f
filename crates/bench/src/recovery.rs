//! Warm-restart gate: deterministic crash plus crash-consistent
//! recovery of flash-resident cache state (`recovery::tests::gate`).
//!
//! Each crash point replays the fault-gate workload with 2 % DELETEs
//! added (`recovery_trace`) against a `MemStore`-backed stack whose
//! fault plan carries exactly one scripted
//! [`fdpcache_nvme::FaultKind::Kill`]. When the kill fires the
//! driver drops every host-side structure (the simulated process
//! death), rebuilds the FTL mapping by the full out-of-band media scan
//! ([`fdpcache_nvme::Controller::recover_ftl`]), reattaches the cache
//! with [`fdpcache_cache::builder::recover_cache`], and then:
//!
//! 1. **Zero lost acknowledged-and-sealed writes** — every key the
//!    crashed instance had persisted (SOC bucket entries, sealed LOC
//!    regions — [`HybridCache::persisted_keys`]) must be served by the
//!    recovered instance with untorn bytes of a size acknowledged since
//!    its last delete, or of the interrupted SET's own size (the
//!    oracle's crash contract, [`Oracle::check_crash`]).
//! 2. **No resurrection** — keys whose delete was acknowledged before
//!    the crash must stay dead after recovery, except the interrupted
//!    request's key.
//! 3. **Bounded recovery time** — the simulated cost of FTL recovery
//!    plus cache reattachment must fit in four read passes over the
//!    namespace's LBAs plus 10 ms (the recovery budget below).
//! 4. **Hit-ratio preservation** — continuing the interrupted trace on
//!    the recovered instance must land within 3 points of the same
//!    trace segment replayed with no crash (flash survived; only DRAM
//!    contents, the LOC active buffer and recency are lost). Both sides
//!    are measured from [`WARMUP_OPS`] operations past the crash,
//!    excluding the DRAM-refill transient.
//! 5. **Determinism** — the whole crash + recovery + continuation is a
//!    pure function of its seeds: reruns are bit-identical.
//!
//! The verification reads run on a *scratch* recovered instance with
//! DRAM promotion disabled (read-only), which is then discarded and the
//! store recovered a second time, so the measured continuation starts
//! from exactly the cold-DRAM state a real warm restart would see.

use std::collections::{BTreeMap, BTreeSet};

use fdpcache_cache::builder::{
    build_cache, build_device, build_device_faulted, create_namespace, StoreKind,
};
use fdpcache_cache::{CacheError, CacheStats, HybridCache};
use fdpcache_core::RoundRobinPolicy;
use fdpcache_workloads::oracle::{reattach, CrashReport};
use fdpcache_workloads::trace::Request;
use fdpcache_workloads::{serve, FaultScenario, Oracle, TraceGen, WorkloadProfile};

use crate::faults::{gate_cache_config, gate_ftl_config, GATE_OPS, GATE_SEED};

/// Maximum tolerated hit-ratio gap between the recovered continuation
/// and the no-crash baseline (3 points).
const HIT_RATIO_TOLERANCE: f64 = 0.03;

/// Post-recovery operations excluded from the hit-ratio comparison: the
/// DRAM-refill transient. Warm restart preserves flash-resident state,
/// not DRAM, so the gate compares steady-state behaviour after the RAM
/// layer has had one refill's worth of traffic. The no-crash baseline
/// segment starts at the same trace index.
const WARMUP_OPS: u64 = 2_000;

/// The fault-gate trace (Meta KV over 20,000 keys) with 2 % DELETEs, so
/// the no-resurrection contract probes real deletes. The crashed runs
/// and the no-crash baseline replay the same trace.
fn recovery_trace() -> TraceGen {
    WorkloadProfile { delete_ratio: 0.02, ..WorkloadProfile::meta_kv_cache() }
        .generator(20_000, GATE_SEED)
}

/// The built-in crash points, each a label and the device LBA whose
/// first command the kill fires on. They are derived from the gate
/// stack's actual engine geometry (probed from a throwaway instance, so
/// the coordinates track configuration changes instead of rotting):
///
/// * `soc_bucket_rmw` — a busy SOC bucket page partway through the
///   replay (kills a bucket read-modify-write);
/// * `loc_first_seal` — the very first LOC region seal (the batch —
///   payload plus footer — must be all-or-nothing);
/// * `loc_mid_seal` — a later region's first seal, mid-replay;
/// * `loc_footer_write` — the first footer block of an early region
///   (kills inside metadata persistence or a delete's footer scrub).
fn builtin_crash_points() -> [(&'static str, u64); 4] {
    let ctrl = build_device(gate_ftl_config(), StoreKind::Mem, true).expect("probe device");
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("probe namespace");
    let cache = build_cache(&ctrl, nsid, &gate_cache_config(), Box::new(RoundRobinPolicy::new()))
        .expect("probe cache");
    let start = ctrl.namespace(nsid).expect("probe ns").start_lba;
    let soc = cache.navy().soc();
    let loc = cache.navy().loc();
    let mid_region = 4.min(loc.num_regions().saturating_sub(1)).max(1);
    [
        ("soc_bucket_rmw", start + soc.bucket_block(soc.bucket_index(1))),
        ("loc_first_seal", start + loc.region_start_block(0)),
        ("loc_mid_seal", start + loc.region_start_block(mid_region)),
        ("loc_footer_write", start + loc.meta_start_block(1)),
    ]
}

/// [`Oracle::step`], serving an oversized SET as [`serve`] does. Every
/// other error propagates: a kill-only plan injects no recoverable
/// faults.
fn step(oracle: &mut Oracle, cache: &mut HybridCache, req: Request) -> Result<(), CacheError> {
    match oracle.step(cache, req) {
        Err(CacheError::ObjectTooLarge { .. }) => Ok(()),
        r => r,
    }
}

/// Everything one crash-point run reports.
#[derive(Debug, Clone, PartialEq)]
struct RecoveryRunResult {
    /// Crash-point label.
    label: &'static str,
    /// Operations acknowledged before the kill fired.
    ops_before_crash: u64,
    /// Whether the kill actually fired (a completed replay is a vacuous
    /// run and fails the gate).
    crashed: bool,
    /// Virtual clock at the crash (ns).
    now_at_crash_ns: u64,
    /// Simulated recovery cost: FTL reconstruction plus cache
    /// reattachment reads (ns).
    recovery_ns: u64,
    /// Recovery budget (ns): four read passes over the namespace's LBAs
    /// plus 10 ms of slack. Recovery must cost asymptotically less than
    /// rebuilding the cache from the workload, and concretely less than
    /// this.
    recovery_budget_ns: u64,
    /// The crash contract checked on the recovered instance: the keys
    /// the crashed instance had persisted (acknowledged and
    /// sealed/bucket-written) at the kill, and the acknowledged deletes.
    check: CrashReport,
    /// Whether the recovered instance's persisted-key set is exactly
    /// the crashed instance's (recovery invents nothing, loses
    /// nothing).
    persisted_match: bool,
    /// Operations replayed after recovery (the interrupted op first).
    post_ops: u64,
    /// Trace index the measured post-recovery segment starts at (crash
    /// op plus the DRAM-refill warmup, capped at the trace end).
    measured_from: u64,
    /// Hit ratio over the measured post-recovery segment (warmup
    /// excluded).
    post_hit_ratio: f64,
    /// Cache counters over the measured post-recovery segment.
    post_stats: CacheStats,
}

/// Replays the recovery trace against a stack armed with a kill of the
/// first command at `lba`,
/// recovers at the crash, checks the crash contract, and finishes the
/// trace on the recovered instance.
///
/// # Panics
///
/// Panics on any error other than the scripted kill: a kill-only plan
/// has no recoverable faults, so everything else is a driver or stack
/// bug.
fn run_crash_recovery(label: &'static str, lba: u64) -> RecoveryRunResult {
    let scenario = FaultScenario::crash_at(lba, 0);
    let ctrl = build_device_faulted(gate_ftl_config(), StoreKind::Mem, true, scenario.config)
        .expect("faulted device");
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("namespace");
    let config = gate_cache_config();
    let mut cache =
        build_cache(&ctrl, nsid, &config, Box::new(RoundRobinPolicy::new())).expect("cache");
    let ns_lbas = ctrl.namespace(nsid).expect("ns").lba_count;

    let mut gen = recovery_trace();
    let mut oracle = Oracle::new();
    let mut interrupted: Option<Request> = None;
    let mut ops_done = 0u64;
    for i in 0..GATE_OPS {
        let req = gen.next_request();
        match step(&mut oracle, &mut cache, req) {
            Ok(()) => ops_done += 1,
            Err(e) if e.is_kill() => {
                interrupted = Some(req);
                break;
            }
            Err(e) => panic!("non-kill error at op {i}: {e}"),
        }
    }

    let crashed = interrupted.is_some();
    oracle.crash(interrupted);
    let now_at_crash_ns = cache.now_ns();
    let must_survive: BTreeSet<u64> = cache.persisted_keys().into_iter().collect();
    // The simulated process dies: every host-side structure is gone.
    drop(cache);

    // FTL recovery, then a read-only scratch reattachment for
    // verification.
    let ftl_ns = ctrl.recover_ftl();
    let mut scratch = reattach(&ctrl, nsid, &config);
    let recovery_ns = ftl_ns + scratch.now_ns();
    let latency = gate_ftl_config().latency;
    let recovery_budget_ns = 4 * ns_lbas * latency.read_ns.max(1) + 10_000_000;

    scratch.set_promote_on_nvm_hit(false);
    let recovered_set: BTreeSet<u64> = scratch.persisted_keys().into_iter().collect();
    let persisted_match = recovered_set == must_survive;
    let check = oracle.check_crash(&mut scratch, &must_survive).expect("verification read");
    drop(scratch);

    // Second recovery: the continuation starts from the exact cold-DRAM
    // state a warm restart presents (the scratch reads never promoted).
    let mut cache = reattach(&ctrl, nsid, &config);
    let mut post_ops = 0u64;
    if let Some(req) = interrupted {
        step(&mut oracle, &mut cache, req).expect("interrupted op must complete once recovered");
        post_ops += 1;
    }
    let measured_from = (ops_done + post_ops + WARMUP_OPS).min(GATE_OPS);
    let mut stats_before_post = cache.stats();
    for i in (ops_done + post_ops)..GATE_OPS {
        if i == measured_from {
            stats_before_post = cache.stats();
        }
        let req = gen.next_request();
        step(&mut oracle, &mut cache, req).unwrap_or_else(|e| panic!("post op {i}: {e}"));
        post_ops += 1;
    }
    cache.drain_io();
    let post_stats = cache.stats().delta(&stats_before_post);
    ctrl.with_ftl(|f| f.check_invariants());

    RecoveryRunResult {
        label,
        ops_before_crash: ops_done,
        crashed,
        now_at_crash_ns,
        recovery_ns,
        recovery_budget_ns,
        check,
        persisted_match,
        post_ops,
        measured_from,
        post_hit_ratio: post_stats.hit_ratio(),
        post_stats,
    }
}

/// Replays the recovery trace on an uncrashed stack and returns, for each
/// requested split index, the hit ratio of the segment `[split, ops)` —
/// the no-crash baselines the crash runs are compared against.
///
/// # Panics
///
/// Panics on any replay error (the plain stack has no fault plan).
fn baseline_segment_hit_ratios(splits: &[u64]) -> Vec<f64> {
    let ctrl = build_device(gate_ftl_config(), StoreKind::Mem, true).expect("baseline device");
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("baseline namespace");
    let mut cache =
        build_cache(&ctrl, nsid, &gate_cache_config(), Box::new(RoundRobinPolicy::new()))
            .expect("baseline cache");
    let mut gen = recovery_trace();
    let mut snapshots: BTreeMap<u64, CacheStats> = BTreeMap::new();
    for i in 0..GATE_OPS {
        if splits.contains(&i) {
            snapshots.insert(i, cache.stats());
        }
        serve(&mut cache, gen.next_request()).unwrap_or_else(|e| panic!("baseline op {i}: {e}"));
    }
    cache.drain_io();
    let end = cache.stats();
    splits
        .iter()
        .map(|s| snapshots.get(s).map_or(0.0, |before| end.delta(before).hit_ratio()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::first_divergence;

    #[test]
    fn crash_points_are_distinct_and_probed_from_geometry() {
        let specs = builtin_crash_points();
        let lbas: BTreeSet<u64> = specs.iter().map(|&(_, lba)| lba).collect();
        assert_eq!(lbas.len(), specs.len(), "crash points must target distinct LBAs");
        assert_eq!(specs, builtin_crash_points(), "probe must be deterministic");
    }

    /// Every built-in crash point at full length, twice, against the
    /// no-crash baseline.
    #[test]
    fn gate() {
        let runs: Vec<(RecoveryRunResult, RecoveryRunResult)> = builtin_crash_points()
            .into_iter()
            .map(|(label, lba)| (run_crash_recovery(label, lba), run_crash_recovery(label, lba)))
            .collect();
        let splits: Vec<u64> = runs.iter().map(|(r, _)| r.measured_from).collect();
        let baselines = baseline_segment_hit_ratios(&splits);
        let mut fails: Vec<String> = Vec::new();
        for ((r, rerun), baseline) in runs.iter().zip(baselines) {
            if !r.crashed {
                fails.push(format!("crash point {} never fired its kill (vacuous)", r.label));
            }
            if r.check.persisted.checked == 0 {
                fails.push(format!(
                    "crash point {} had nothing persisted before the kill (vacuous)",
                    r.label
                ));
            }
            if r.check.deleted.checked == 0 {
                fails.push(format!(
                    "crash point {} had no delete acknowledged before the kill (vacuous)",
                    r.label
                ));
            }
            if !r.check.persisted.violations.is_empty() {
                fails.push(format!(
                    "crash point {} lost {} acknowledged-and-sealed write(s)",
                    r.label,
                    r.check.persisted.violations.len()
                ));
            }
            if !r.check.deleted.violations.is_empty() {
                fails.push(format!(
                    "crash point {} resurrected {} acknowledged delete(s)",
                    r.label,
                    r.check.deleted.violations.len()
                ));
            }
            if !r.persisted_match {
                fails.push(format!(
                    "crash point {}: recovered persisted-key set diverged from the crashed \
                     instance's",
                    r.label
                ));
            }
            if r.recovery_ns == 0 || r.recovery_ns > r.recovery_budget_ns {
                fails.push(format!(
                    "crash point {}: recovery cost {} ns outside (0, {} ns] budget",
                    r.label, r.recovery_ns, r.recovery_budget_ns
                ));
            }
            if r.ops_before_crash + r.post_ops != GATE_OPS {
                fails.push(format!(
                    "crash point {}: {} ops before the crash + {} after != {GATE_OPS} — the trace \
                     must complete on the recovered instance",
                    r.label, r.ops_before_crash, r.post_ops
                ));
            }
            let gap = (r.post_hit_ratio - baseline).abs();
            if gap > HIT_RATIO_TOLERANCE {
                fails.push(format!(
                    "crash point {}: post-recovery hit ratio {:.4} vs no-crash {baseline:.4} (gap \
                     {gap:.4} > {HIT_RATIO_TOLERANCE})",
                    r.label, r.post_hit_ratio
                ));
            }
            if r != rerun {
                fails.push(format!(
                    "crash point {} diverged across same-seed reruns — crash + recovery must be \
                     a pure function of its seeds: {}",
                    r.label,
                    first_divergence(r, rerun)
                ));
            }
        }
        assert!(
            fails.is_empty(),
            "warm-restart gate: {} violation(s):\n{}",
            fails.len(),
            fails.join("\n")
        );
    }
}
