//! Warm-restart gate: deterministic crash plus crash-consistent
//! recovery of flash-resident cache state (`recovery::tests::gate`).
//!
//! Each crash point replays the fault-gate trace against a
//! `MemStore`-backed stack whose fault plan carries exactly one
//! scripted [`fdpcache_nvme::FaultKind::Kill`]. When the kill fires the
//! driver drops every host-side structure (the simulated process
//! death), rebuilds the FTL mapping from its persisted evidence
//! ([`fdpcache_nvme::Controller::recover_ftl`] with the newest
//! periodic checkpoint), reattaches the cache with
//! [`fdpcache_cache::builder::recover_cache`], and then:
//!
//! 1. **Zero lost acknowledged-and-sealed writes** — every key the
//!    crashed instance had persisted (SOC bucket entries, sealed LOC
//!    regions — [`HybridCache::persisted_keys`]) must be served by the
//!    recovered instance with untorn bytes of an acknowledged size.
//! 2. **No resurrection** — keys whose delete was acknowledged before
//!    the crash must stay dead after recovery.
//! 3. **Bounded recovery time** — the simulated cost of FTL recovery
//!    plus cache reattachment must fit in a small constant number of
//!    full-device read passes (the recovery budget below).
//! 4. **Hit-ratio preservation** — continuing the interrupted trace on
//!    the recovered instance must land within 3 points of the same
//!    trace segment replayed with no crash (flash survived; only DRAM
//!    contents, the LOC active buffer and recency are lost). Both sides
//!    are measured from [`RecoveryGateConfig::warmup_ops`] operations
//!    past the crash, excluding the DRAM-refill transient.
//! 5. **Determinism** — the whole crash + recovery + continuation is a
//!    pure function of its seeds: reruns are bit-identical.
//!
//! The verification reads run on a *scratch* recovered instance with
//! DRAM promotion disabled (read-only), which is then discarded and the
//! store recovered a second time, so the measured continuation starts
//! from exactly the cold-DRAM state a real warm restart would see.

use std::collections::{BTreeMap, BTreeSet};

use fdpcache_cache::builder::{
    build_cache, build_device, build_device_faulted, create_namespace, recover_cache, StoreKind,
};
use fdpcache_cache::{
    CacheConfig, CacheError, CacheStats, GetOutcome, HybridCache, NvmConfig, Value,
};
use fdpcache_core::RoundRobinPolicy;
use fdpcache_ftl::FtlSnapshot;
use fdpcache_workloads::trace::{Op, Request};
use fdpcache_workloads::{FaultScenario, WorkloadProfile};

use crate::harness::bench_ftl_config;

/// Maximum tolerated hit-ratio gap between the recovered continuation
/// and the no-crash baseline (3 points).
pub const HIT_RATIO_TOLERANCE: f64 = 0.03;

/// Configuration of one warm-restart gate run.
#[derive(Debug, Clone)]
pub struct RecoveryGateConfig {
    /// Device capacity in MiB.
    pub device_mib: u64,
    /// Reclaim-unit size in MiB.
    pub ru_mib: u64,
    /// Operations in the full (uncrashed) trace.
    pub ops: u64,
    /// Trace RNG seed.
    pub seed: u64,
    /// FTL checkpoint cadence in operations (the periodic host flush a
    /// real deployment would run; the crash uses the newest one).
    pub checkpoint_every: u64,
    /// Post-recovery operations excluded from the hit-ratio comparison:
    /// the DRAM-refill transient. Warm restart preserves flash-resident
    /// state, not DRAM, so the gate compares steady-state behaviour
    /// after the RAM layer has had one refill's worth of traffic. The
    /// no-crash baseline segment starts at the same trace index.
    pub warmup_ops: u64,
}

impl Default for RecoveryGateConfig {
    fn default() -> Self {
        RecoveryGateConfig {
            device_mib: 64,
            ru_mib: 2,
            ops: 30_000,
            seed: 42,
            checkpoint_every: 5_000,
            warmup_ops: 2_000,
        }
    }
}

impl RecoveryGateConfig {
    /// The cache configuration of the gate stack (same shape as the
    /// fault gate's, so crash points land in familiar geometry).
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            ram_bytes: 256 << 10,
            ram_item_overhead: 0,
            nvm: NvmConfig {
                soc_fraction: 0.1,
                region_bytes: 1 << 20,
                trim_on_region_evict: true,
                ..NvmConfig::default()
            },
            use_fdp: true,
        }
    }

    fn ftl_config(&self) -> fdpcache_ftl::FtlConfig {
        bench_ftl_config(self.device_mib, self.ru_mib, self.seed)
    }
}

/// One scripted crash coordinate: kill the command starting at `lba`
/// on its `at_access`-th start.
#[derive(Debug, Clone)]
pub struct CrashSpec {
    /// Stable crash-point label.
    pub label: String,
    /// Device LBA the kill is keyed on.
    pub lba: u64,
    /// Zero-based access ordinal at which it fires.
    pub at_access: u64,
}

/// The built-in crash points, derived from the gate stack's actual
/// engine geometry (probed from a throwaway instance, so the
/// coordinates track configuration changes instead of rotting):
///
/// * `soc_bucket_rmw` — a busy SOC bucket page partway through the
///   replay (kills a bucket read-modify-write);
/// * `loc_first_seal` — the very first LOC region seal (the batch —
///   payload plus footer — must be all-or-nothing);
/// * `loc_mid_seal` — a later region's first seal, mid-replay;
/// * `loc_footer_write` — the first footer block of an early region
///   (kills inside metadata persistence or a delete's footer scrub).
pub fn builtin_crash_points(cfg: &RecoveryGateConfig) -> Vec<CrashSpec> {
    let ctrl = build_device(cfg.ftl_config(), StoreKind::Mem, true).expect("probe device");
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("probe namespace");
    let cache = build_cache(&ctrl, nsid, &cfg.cache_config(), Box::new(RoundRobinPolicy::new()))
        .expect("probe cache");
    let start = ctrl.namespace(nsid).expect("probe ns").start_lba;
    let soc = cache.navy().soc();
    let loc = cache.navy().loc();
    let mid_region = 4.min(loc.num_regions().saturating_sub(1)).max(1);
    vec![
        CrashSpec {
            label: "soc_bucket_rmw".into(),
            lba: start + soc.bucket_block(soc.bucket_index(1)),
            at_access: 0,
        },
        CrashSpec {
            label: "loc_first_seal".into(),
            lba: start + loc.region_start_block(0),
            at_access: 0,
        },
        CrashSpec {
            label: "loc_mid_seal".into(),
            lba: start + loc.region_start_block(mid_region),
            at_access: 0,
        },
        CrashSpec {
            label: "loc_footer_write".into(),
            lba: start + loc.meta_start_block(1),
            at_access: 0,
        },
    ]
}

/// Shadow bookkeeping of acknowledged operations, mirrored alongside
/// the replay exactly as the fault gate does.
#[derive(Debug, Default, Clone)]
struct Shadow {
    /// Sizes ever acknowledged for a key since its last acknowledged
    /// delete (recovery may legally serve any of them: the newest copy
    /// can be DRAM-only at the crash, exposing an older sealed one).
    acked_sizes: BTreeMap<u64, BTreeSet<u32>>,
    /// Keys whose delete was acknowledged and not re-inserted.
    deleted: BTreeSet<u64>,
}

/// Applies one trace request, updating the shadow on acknowledgement.
/// Every error propagates (a kill-only plan injects no recoverable
/// faults).
fn apply(cache: &mut HybridCache, req: &Request, shadow: &mut Shadow) -> Result<(), CacheError> {
    match req.op {
        Op::Get => {
            cache.get(req.key)?;
        }
        Op::Set => match cache.put(req.key, Value::synthetic(req.size)) {
            Ok(()) => {
                shadow.deleted.remove(&req.key);
                shadow.acked_sizes.entry(req.key).or_default().insert(req.size);
            }
            Err(CacheError::ObjectTooLarge { .. }) => {}
            Err(e) => return Err(e),
        },
        Op::Delete => {
            cache.delete(req.key)?;
            shadow.acked_sizes.remove(&req.key);
            shadow.deleted.insert(req.key);
        }
    }
    Ok(())
}

/// Everything one crash-point run reports.
#[derive(Debug, Clone)]
pub struct RecoveryRunResult {
    /// Crash-point label.
    pub label: String,
    /// Operations acknowledged before the kill fired.
    pub ops_before_crash: u64,
    /// Whether the kill actually fired (a completed replay is a vacuous
    /// run and fails the gate).
    pub crashed: bool,
    /// Virtual clock at the crash (ns).
    pub now_at_crash_ns: u64,
    /// FTL mapping-reconstruction strategy taken (`checkpoint`,
    /// `journal`, `full-scan`).
    pub ftl_path: String,
    /// FDP event-log entries lost to ring overflow at recovery (any
    /// non-zero value must have forced the full scan).
    pub ftl_events_dropped: u64,
    /// Simulated recovery cost: FTL reconstruction plus cache
    /// reattachment reads (ns).
    pub recovery_ns: u64,
    /// Recovery budget (ns): four full-device read passes. Recovery
    /// must cost asymptotically less than rebuilding the cache from the
    /// workload, and concretely less than this.
    pub recovery_budget_ns: u64,
    /// Keys the crashed instance had persisted (acknowledged and
    /// sealed/bucket-written) at the kill.
    pub must_survive: u64,
    /// Of those, keys served by the recovered instance with untorn
    /// bytes of an acknowledged size.
    pub recovered: u64,
    /// Of those, keys lost or served torn — the gate requires zero.
    pub lost: u64,
    /// Keys whose acknowledged delete was undone by recovery — the gate
    /// requires zero.
    pub resurrected: u64,
    /// Whether the recovered instance's persisted-key set is exactly
    /// the crashed instance's (recovery invents nothing, loses
    /// nothing).
    pub persisted_match: bool,
    /// Operations replayed after recovery (the interrupted op first).
    pub post_ops: u64,
    /// Trace index the measured post-recovery segment starts at (crash
    /// op plus the configured DRAM-refill warmup, capped at the trace
    /// end).
    pub measured_from: u64,
    /// Hit ratio over the measured post-recovery segment (warmup
    /// excluded).
    pub post_hit_ratio: f64,
    /// Cache counters over the measured post-recovery segment.
    pub post_stats: CacheStats,
}

/// Reattaches the cache, retrying when a still-armed kill fires during
/// the recovery reads themselves. A crash *during* recovery is a crash
/// like any other: recovery never writes to the device, so the reboot's
/// retry starts from identical flash state and must succeed once the
/// one-shot kill window is spent.
fn recover_cache_retrying(
    ctrl: &std::sync::Arc<fdpcache_nvme::Controller>,
    nsid: fdpcache_nvme::NamespaceId,
    config: &CacheConfig,
) -> HybridCache {
    loop {
        match recover_cache(ctrl, nsid, config, Box::new(RoundRobinPolicy::new())) {
            Ok(cache) => return cache,
            Err(e) if e.is_kill() => continue,
            Err(e) => panic!("recovery: {e}"),
        }
    }
}

/// Replays the gate trace against a stack armed with `spec`'s kill,
/// recovers at the crash, verifies survival/resurrection, and finishes
/// the trace on the recovered instance.
///
/// # Panics
///
/// Panics on any error other than the scripted kill: a kill-only plan
/// has no recoverable faults, so everything else is a driver or stack
/// bug.
pub fn run_crash_recovery(cfg: &RecoveryGateConfig, spec: &CrashSpec) -> RecoveryRunResult {
    let scenario = FaultScenario::crash_at(spec.lba, spec.at_access);
    let ctrl =
        build_device_faulted(cfg.ftl_config(), StoreKind::Mem, true, scenario.config.clone())
            .expect("faulted device");
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("namespace");
    let mut cache =
        build_cache(&ctrl, nsid, &cfg.cache_config(), Box::new(RoundRobinPolicy::new()))
            .expect("cache");
    let ns_lbas = ctrl.namespace(nsid).expect("ns").lba_count;

    let profile = WorkloadProfile::meta_kv_cache();
    let mut gen = profile.generator(20_000, cfg.seed);
    let mut shadow = Shadow::default();
    let mut checkpoint: Option<FtlSnapshot> = None;
    let mut interrupted: Option<Request> = None;
    let mut ops_done = 0u64;
    for i in 0..cfg.ops {
        if i > 0 && i % cfg.checkpoint_every == 0 {
            checkpoint = Some(ctrl.checkpoint_ftl());
        }
        let req = gen.next_request();
        match apply(&mut cache, &req, &mut shadow) {
            Ok(()) => ops_done += 1,
            Err(e) if e.is_kill() => {
                interrupted = Some(req);
                break;
            }
            Err(e) => panic!("non-kill error at op {i}: {e}"),
        }
    }

    let crashed = interrupted.is_some();
    let now_at_crash_ns = cache.now_ns();
    let must_survive: BTreeSet<u64> = cache.persisted_keys().into_iter().collect();
    let deleted = shadow.deleted.clone();
    // The simulated process dies: every host-side structure is gone.
    drop(cache);

    // FTL recovery from the newest periodic checkpoint (possibly none),
    // then a read-only scratch reattachment for verification.
    let report = ctrl.recover_ftl(checkpoint.as_ref());
    let mut scratch = recover_cache_retrying(&ctrl, nsid, &cfg.cache_config());
    let recovery_ns = report.recovery_ns + scratch.now_ns();
    let latency = cfg.ftl_config().latency;
    let recovery_budget_ns = 4 * ns_lbas * latency.read_ns.max(1) + 10_000_000;

    scratch.set_promote_on_nvm_hit(false);
    let recovered_set: BTreeSet<u64> = scratch.persisted_keys().into_iter().collect();
    let persisted_match = recovered_set == must_survive;
    let (mut recovered, mut lost) = (0u64, 0u64);
    for &k in &must_survive {
        let (_, v) = scratch.get(k).expect("verification read");
        match v {
            Some(v) => {
                let len = v.len() as u32;
                let size_acked =
                    shadow.acked_sizes.get(&k).is_some_and(|sizes| sizes.contains(&len));
                let untorn = v.to_bytes(k) == Value::synthetic(len).to_bytes(k);
                if size_acked && untorn {
                    recovered += 1;
                } else {
                    lost += 1;
                }
            }
            None => lost += 1,
        }
    }
    let mut resurrected = 0u64;
    for &k in &deleted {
        let (outcome, _) = scratch.get(k).expect("resurrection probe");
        if outcome != GetOutcome::Miss {
            resurrected += 1;
        }
    }
    drop(scratch);

    // Second recovery: the continuation starts from the exact cold-DRAM
    // state a warm restart presents (the scratch reads never promoted).
    let mut cache = recover_cache_retrying(&ctrl, nsid, &cfg.cache_config());
    let mut post_ops = 0u64;
    if let Some(req) = interrupted {
        apply(&mut cache, &req, &mut shadow).expect("interrupted op must complete once recovered");
        post_ops += 1;
    }
    let measured_from = (ops_done + post_ops + cfg.warmup_ops).min(cfg.ops);
    let mut stats_before_post = cache.stats();
    for i in (ops_done + post_ops)..cfg.ops {
        if i == measured_from {
            stats_before_post = cache.stats();
        }
        let req = gen.next_request();
        apply(&mut cache, &req, &mut shadow).unwrap_or_else(|e| panic!("post op {i}: {e}"));
        post_ops += 1;
    }
    cache.drain_io();
    let post_stats = cache.stats().delta(&stats_before_post);
    ctrl.with_ftl(|f| f.check_invariants());

    RecoveryRunResult {
        label: spec.label.clone(),
        ops_before_crash: ops_done,
        crashed,
        now_at_crash_ns,
        ftl_path: report.path.to_string(),
        ftl_events_dropped: report.events_dropped,
        recovery_ns,
        recovery_budget_ns,
        must_survive: must_survive.len() as u64,
        recovered,
        lost,
        resurrected,
        persisted_match,
        post_ops,
        measured_from,
        post_hit_ratio: post_stats.hit_ratio(),
        post_stats,
    }
}

/// Replays the gate trace on an uncrashed stack and returns, for each
/// requested split index, the hit ratio of the segment `[split, ops)` —
/// the no-crash baselines the crash runs are compared against.
///
/// # Panics
///
/// Panics on any replay error (the plain stack has no fault plan).
pub fn baseline_segment_hit_ratios(cfg: &RecoveryGateConfig, splits: &[u64]) -> Vec<f64> {
    let ctrl = build_device(cfg.ftl_config(), StoreKind::Mem, true).expect("baseline device");
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("baseline namespace");
    let mut cache =
        build_cache(&ctrl, nsid, &cfg.cache_config(), Box::new(RoundRobinPolicy::new()))
            .expect("baseline cache");
    let profile = WorkloadProfile::meta_kv_cache();
    let mut gen = profile.generator(20_000, cfg.seed);
    let mut shadow = Shadow::default();
    let mut snapshots: BTreeMap<u64, CacheStats> = BTreeMap::new();
    for i in 0..cfg.ops {
        if splits.contains(&i) {
            snapshots.insert(i, cache.stats());
        }
        let req = gen.next_request();
        apply(&mut cache, &req, &mut shadow).unwrap_or_else(|e| panic!("baseline op {i}: {e}"));
    }
    cache.drain_io();
    let end = cache.stats();
    splits
        .iter()
        .map(|s| snapshots.get(s).map_or(0.0, |before| end.delta(before).hit_ratio()))
        .collect()
}

/// One crash point's gate evidence: two identical-seed runs plus the
/// no-crash baseline for the same trace segment.
#[derive(Debug, Clone)]
pub struct RecoverySweepEntry {
    /// First run.
    pub first: RecoveryRunResult,
    /// Rerun with identical seeds.
    pub rerun: RecoveryRunResult,
    /// Hit ratio of the same post-crash segment replayed with no crash.
    pub baseline_post_hit_ratio: f64,
}

impl RecoverySweepEntry {
    /// Whether both runs are bit-identical in every deterministic
    /// observable.
    pub fn deterministic(&self) -> bool {
        let (a, b) = (&self.first, &self.rerun);
        a.ops_before_crash == b.ops_before_crash
            && a.now_at_crash_ns == b.now_at_crash_ns
            && a.ftl_path == b.ftl_path
            && a.recovery_ns == b.recovery_ns
            && (a.must_survive, a.recovered, a.lost, a.resurrected)
                == (b.must_survive, b.recovered, b.lost, b.resurrected)
            && a.post_ops == b.post_ops
            && a.measured_from == b.measured_from
            && a.post_stats == b.post_stats
    }

    /// Absolute hit-ratio gap between the recovered continuation and
    /// the no-crash baseline over the same segment.
    pub fn hit_ratio_gap(&self) -> f64 {
        (self.first.post_hit_ratio - self.baseline_post_hit_ratio).abs()
    }
}

/// Runs every built-in crash point twice plus the shared no-crash
/// baseline.
pub fn sweep_recovery(cfg: &RecoveryGateConfig) -> Vec<RecoverySweepEntry> {
    let specs = builtin_crash_points(cfg);
    let runs: Vec<(RecoveryRunResult, RecoveryRunResult)> =
        specs.iter().map(|s| (run_crash_recovery(cfg, s), run_crash_recovery(cfg, s))).collect();
    let splits: Vec<u64> = runs.iter().map(|(f, _)| f.measured_from).collect();
    let baselines = baseline_segment_hit_ratios(cfg, &splits);
    runs.into_iter()
        .zip(baselines)
        .map(|((first, rerun), baseline_post_hit_ratio)| RecoverySweepEntry {
            first,
            rerun,
            baseline_post_hit_ratio,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_points_are_distinct_and_probed_from_geometry() {
        let cfg = RecoveryGateConfig::default();
        let specs = builtin_crash_points(&cfg);
        let mut lbas: Vec<u64> = specs.iter().map(|s| s.lba).collect();
        lbas.sort_unstable();
        lbas.dedup();
        assert_eq!(lbas.len(), specs.len(), "crash points must target distinct LBAs");
        let again = builtin_crash_points(&cfg);
        assert_eq!(
            specs.iter().map(|s| (s.lba, s.at_access)).collect::<Vec<_>>(),
            again.iter().map(|s| (s.lba, s.at_access)).collect::<Vec<_>>(),
            "probe must be deterministic"
        );
    }

    /// Every built-in crash point at full length, twice, against the
    /// no-crash baseline.
    #[test]
    fn gate() {
        let cfg = RecoveryGateConfig::default();
        let entries = sweep_recovery(&cfg);
        let mut fails: Vec<String> = Vec::new();
        for e in &entries {
            let r = &e.first;
            if !r.crashed {
                fails.push(format!("crash point {} never fired its kill (vacuous)", r.label));
            }
            if r.must_survive == 0 {
                fails.push(format!(
                    "crash point {} had nothing persisted before the kill (vacuous)",
                    r.label
                ));
            }
            if r.lost > 0 {
                fails.push(format!(
                    "crash point {} lost {} acknowledged-and-sealed write(s)",
                    r.label, r.lost
                ));
            }
            if r.resurrected > 0 {
                fails.push(format!(
                    "crash point {} resurrected {} acknowledged delete(s)",
                    r.label, r.resurrected
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
            if r.ops_before_crash + r.post_ops != cfg.ops {
                fails.push(format!(
                    "crash point {}: {} ops before the crash + {} after != {} — the trace must \
                     complete on the recovered instance",
                    r.label, r.ops_before_crash, r.post_ops, cfg.ops
                ));
            }
            if e.hit_ratio_gap() > HIT_RATIO_TOLERANCE {
                fails.push(format!(
                    "crash point {}: post-recovery hit ratio {:.4} vs no-crash {:.4} (gap {:.4} \
                     > {HIT_RATIO_TOLERANCE})",
                    r.label,
                    r.post_hit_ratio,
                    e.baseline_post_hit_ratio,
                    e.hit_ratio_gap()
                ));
            }
            if !e.deterministic() {
                fails.push(format!(
                    "crash point {} diverged across same-seed reruns — crash + recovery must be \
                     a pure function of its seeds:\nfirst: {:?}\nrerun: {:?}",
                    r.label, e.first, e.rerun
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
