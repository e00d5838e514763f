//! Fault-injection gate: deterministic, crash-consistent recovery
//! across the full cache stack (`faults::tests::gate`).
//!
//! Each built-in [`FaultScenario`] replays the same deterministic
//! mixed trace against a `MemStore`-backed stack whose payload store is
//! wrapped in a fault-injecting decorator, while the driver keeps a
//! shadow map of every *acknowledged* write (successful `put`). The
//! gate then asserts the fault-model contract end to end:
//!
//! 1. **Determinism** — two runs of the same scenario finish at
//!    bit-identical virtual clocks with identical cache counters
//!    (including fault/retry/repair/requeue) and identical injection
//!    totals.
//! 2. **Zero lost acknowledged writes** — a post-run verification pass
//!    reads every acknowledged key's on-flash bytes back
//!    ([`fdpcache_cache::HybridCache::verify_flash_key`]); a cache miss
//!    is legal (eviction), a *torn or wrong* hit is not.
//! 3. **Transparency** — the `none` scenario is bit-identical to an
//!    undecorated device: the fault layer costs nothing when idle.
//!
//! Scenario runs keep their fault counters visible so the gate can also
//! require that non-trivial scenarios really injected faults and really
//! exercised recovery (no vacuous pass).

use std::collections::BTreeMap;

use fdpcache_cache::builder::{build_cache, build_device, build_device_faulted, StoreKind};
use fdpcache_cache::value::Value;
use fdpcache_cache::{CacheConfig, CacheError, CacheStats, FlashVerify, HybridCache, NvmConfig};
use fdpcache_core::{RoundRobinPolicy, SharedController};
use fdpcache_nvme::FaultTotals;
use fdpcache_workloads::trace::Op;
use fdpcache_workloads::{FaultScenario, WorkloadProfile};

use crate::harness::bench_ftl_config;

/// Configuration of one fault-gate replay.
#[derive(Debug, Clone)]
pub struct FaultGateConfig {
    /// Device capacity in MiB.
    pub device_mib: u64,
    /// Reclaim-unit size in MiB.
    pub ru_mib: u64,
    /// Operations to replay per scenario run.
    pub ops: u64,
    /// Trace RNG seed (the fault seed lives in the scenario).
    pub seed: u64,
}

impl Default for FaultGateConfig {
    fn default() -> Self {
        FaultGateConfig { device_mib: 64, ru_mib: 2, ops: 30_000, seed: 42 }
    }
}

impl FaultGateConfig {
    fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            ram_bytes: 256 << 10,
            ram_item_overhead: 0,
            nvm: NvmConfig {
                soc_fraction: 0.1,
                region_bytes: 1 << 20,
                // Region evictions issue DSM discards, so discard-fault
                // recovery (retry, then skip the advisory TRIM) is
                // exercised too.
                trim_on_region_evict: true,
                ..NvmConfig::default()
            },
            use_fdp: true,
        }
    }
}

/// Everything one scenario run reports.
#[derive(Debug, Clone)]
pub struct FaultRunResult {
    /// Scenario name.
    pub scenario: String,
    /// Final virtual clock (ns), pre-verification — bit-identical
    /// across reruns of the same scenario.
    pub now_ns: u64,
    /// Cache counters at the end of the replay (pre-verification).
    pub stats: CacheStats,
    /// Store-level injection totals (pre-verification).
    pub injected: FaultTotals,
    /// Injected-fault errors that surfaced to the driver (persistently
    /// faulting deletes); the op is skipped, state is rolled back.
    pub surfaced: u64,
    /// Acknowledged writes tracked by the shadow map at the end.
    pub acked: u64,
    /// Acknowledged keys whose on-flash bytes verified exactly.
    pub verified: u64,
    /// Acknowledged keys with torn/wrong on-flash bytes — **lost
    /// acknowledged writes**; the gate requires zero.
    pub lost: u64,
    /// Acknowledged keys absent from flash (evicted or RAM-only) —
    /// legal for a cache.
    pub absent: u64,
    /// Acknowledged keys whose verification read itself faulted.
    pub unverifiable: u64,
}

fn drive(
    cache: &mut HybridCache,
    cfg: &FaultGateConfig,
    shadow: &mut BTreeMap<u64, u32>,
    surfaced: &mut u64,
) {
    let profile = WorkloadProfile::meta_kv_cache();
    let mut gen = profile.generator(20_000, cfg.seed);
    for _ in 0..cfg.ops {
        let req = gen.next_request();
        match req.op {
            Op::Get => match cache.get(req.key) {
                Ok(_) => {}
                Err(e) if e.is_injected_fault() => *surfaced += 1,
                Err(e) => panic!("get({}) failed non-fault: {e}", req.key),
            },
            Op::Set => match cache.put(req.key, Value::synthetic(req.size)) {
                Ok(()) => {
                    shadow.insert(req.key, req.size);
                }
                Err(CacheError::ObjectTooLarge { .. }) => {}
                // Not acknowledged: the shadow map is not updated.
                Err(e) if e.is_injected_fault() => *surfaced += 1,
                Err(e) => panic!("put({}) failed non-fault: {e}", req.key),
            },
            Op::Delete => match cache.delete(req.key) {
                Ok(_) => {
                    shadow.remove(&req.key);
                }
                // Rolled back: the key (if present) is still intact.
                Err(e) if e.is_injected_fault() => *surfaced += 1,
                Err(e) => panic!("delete({}) failed non-fault: {e}", req.key),
            },
        }
    }
}

fn verify(cache: &mut HybridCache, shadow: &BTreeMap<u64, u32>, r: &mut FaultRunResult) {
    // SOC verification checks the whole bucket's serialization, so one
    // device read per *bucket* covers every acknowledged key in it —
    // cache the per-bucket verdict instead of re-reading per key.
    let mut bucket_verdicts: BTreeMap<u64, FlashVerify> = BTreeMap::new();
    for &key in shadow.keys() {
        let verdict = if cache.navy().soc().contains(key) {
            let bucket = cache.navy().soc().bucket_index(key);
            match bucket_verdicts.get(&bucket) {
                Some(&v) => v,
                None => {
                    let v = cache.verify_flash_key(key).expect("verification must not error");
                    bucket_verdicts.insert(bucket, v);
                    v
                }
            }
        } else {
            cache.verify_flash_key(key).expect("verification must not error")
        };
        match verdict {
            FlashVerify::Verified => r.verified += 1,
            FlashVerify::Mismatch => r.lost += 1,
            FlashVerify::Absent => r.absent += 1,
            FlashVerify::Unverifiable => r.unverifiable += 1,
        }
    }
}

fn run_on(ctrl: &SharedController, cfg: &FaultGateConfig, scenario_name: &str) -> FaultRunResult {
    let nsid =
        fdpcache_cache::builder::create_namespace(ctrl, 0.9, (0..8).collect()).expect("namespace");
    let mut cache = build_cache(ctrl, nsid, &cfg.cache_config(), Box::new(RoundRobinPolicy::new()))
        .expect("cache");
    let mut shadow = BTreeMap::new();
    let mut surfaced = 0u64;
    drive(&mut cache, cfg, &mut shadow, &mut surfaced);
    cache.drain_io();
    let mut r = FaultRunResult {
        scenario: scenario_name.to_string(),
        now_ns: cache.now_ns(),
        stats: cache.stats(),
        injected: ctrl.fault_totals(),
        surfaced,
        acked: shadow.len() as u64,
        verified: 0,
        lost: 0,
        absent: 0,
        unverifiable: 0,
    };
    verify(&mut cache, &shadow, &mut r);
    ctrl.with_ftl(|f| f.check_invariants());
    r
}

/// Replays the gate trace under one scenario and verifies every
/// acknowledged write.
///
/// # Panics
///
/// Panics on non-injected errors (driver bugs), never on injected
/// faults — those must be recovered by the stack.
pub fn run_fault_scenario(cfg: &FaultGateConfig, scenario: &FaultScenario) -> FaultRunResult {
    let ctrl = build_device_faulted(
        bench_ftl_config(cfg.device_mib, cfg.ru_mib, cfg.seed),
        StoreKind::Mem,
        true,
        scenario.config.clone(),
    )
    .expect("faulted device");
    run_on(&ctrl, cfg, scenario.name)
}

/// Replays the gate trace on a plain, undecorated device — the
/// baseline the `none` scenario must match bit-for-bit.
pub fn run_plain_baseline(cfg: &FaultGateConfig) -> FaultRunResult {
    let ctrl =
        build_device(bench_ftl_config(cfg.device_mib, cfg.ru_mib, cfg.seed), StoreKind::Mem, true)
            .expect("plain device");
    run_on(&ctrl, cfg, "plain")
}

/// One scenario's gate evidence: two reruns (for the determinism
/// comparison).
#[derive(Debug, Clone)]
pub struct FaultSweepEntry {
    /// First run.
    pub first: FaultRunResult,
    /// Rerun with identical seeds.
    pub rerun: FaultRunResult,
}

impl FaultSweepEntry {
    /// Whether both runs are bit-identical in every deterministic
    /// observable (virtual clock, cache counters, injection totals,
    /// verification tally).
    pub fn deterministic(&self) -> bool {
        self.first.now_ns == self.rerun.now_ns
            && self.first.stats == self.rerun.stats
            && self.first.injected == self.rerun.injected
            && self.first.surfaced == self.rerun.surfaced
            && (self.first.acked, self.first.verified, self.first.lost)
                == (self.rerun.acked, self.rerun.verified, self.rerun.lost)
    }
}

/// Runs every built-in scenario twice, in stable order.
pub fn sweep_faults(cfg: &FaultGateConfig) -> Vec<FaultSweepEntry> {
    FaultScenario::all_builtin()
        .iter()
        .map(|s| FaultSweepEntry {
            first: run_fault_scenario(cfg, s),
            rerun: run_fault_scenario(cfg, s),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every built-in scenario at full length: bit-identical reruns,
    /// zero lost acknowledged writes, non-vacuous injection and
    /// recovery, and an empty plan that is bit-transparent.
    #[test]
    fn gate() {
        let cfg = FaultGateConfig::default();
        let entries = sweep_faults(&cfg);
        let plain = run_plain_baseline(&cfg);
        let mut fails: Vec<String> = Vec::new();
        for e in &entries {
            let r = &e.first;
            if !e.deterministic() {
                fails.push(format!(
                    "scenario {} diverged across same-seed reruns ({} ns vs {} ns) — the fault \
                     schedule must be a pure function of its seed",
                    r.scenario, r.now_ns, e.rerun.now_ns
                ));
            }
            if r.lost > 0 {
                fails.push(format!(
                    "scenario {} lost {} acknowledged write(s) — recovery must never serve torn \
                     data",
                    r.scenario, r.lost
                ));
            }
            if r.scenario != "none" {
                if r.injected.total() == 0 {
                    fails.push(format!("scenario {} injected nothing (vacuous)", r.scenario));
                }
                if r.stats.retries + r.stats.repairs + r.stats.requeues == 0 {
                    fails.push(format!("scenario {} never engaged recovery (vacuous)", r.scenario));
                }
            }
        }
        let none =
            &entries.iter().find(|e| e.first.scenario == "none").expect("none scenario").first;
        if none.now_ns != plain.now_ns || none.stats != plain.stats {
            fails.push(format!(
                "empty fault plan perturbed the stack ({} ns faulted-none vs {} ns plain) — the \
                 decorator must be bit-transparent when idle",
                none.now_ns, plain.now_ns
            ));
        }
        if none.injected.total() > 0 {
            fails.push(format!("empty fault plan injected {} fault(s)", none.injected.total()));
        }
        if plain.lost > 0 {
            fails.push(format!("plain device lost {} acknowledged write(s)", plain.lost));
        }
        assert!(
            fails.is_empty(),
            "fault gate: {} violation(s):\n{}",
            fails.len(),
            fails.join("\n")
        );
    }
}
