//! Fault-injection gate: deterministic, crash-consistent recovery
//! across the full cache stack (`faults::tests::gate`).
//!
//! Each built-in [`FaultScenario`] replays the same deterministic
//! mixed trace against a `MemStore`-backed stack whose payload store is
//! wrapped in a fault-injecting decorator, while an [`Oracle`] records
//! every *acknowledged* write. The gate then asserts the fault-model
//! contract end to end:
//!
//! 1. **Determinism** — two runs of the same scenario finish at
//!    bit-identical virtual clocks with identical cache counters
//!    (including fault/retry/repair/requeue), identical injection
//!    totals and an identical flash tally.
//! 2. **Zero lost acknowledged writes** — the oracle's flash tally
//!    reads every acknowledged key's on-flash bytes back
//!    ([`fdpcache_cache::HybridCache::verify_flash_key`]); a cache miss
//!    is legal (eviction), a *torn or wrong* hit is not, and a tally
//!    that verified nothing fails.
//! 3. **Transparency** — the `none` scenario is bit-identical to an
//!    undecorated device: the fault layer costs nothing when idle.
//!
//! Scenario runs keep their fault counters visible so the gate can also
//! require that non-trivial scenarios really injected faults and really
//! exercised recovery (no vacuous pass). Besides the built-in scenarios
//! the gate replays one of its own, `footer_write`, which faults a LOC
//! footer write outside a seal ([`footer_fault_scenario`]) and must
//! drive the footer-rewrite retry and its slot-discard fallback.

use std::collections::BTreeMap;

use fdpcache_cache::builder::{
    build_cache, build_device, build_device_faulted, create_namespace, StoreKind,
};
use fdpcache_cache::loc::LocStats;
use fdpcache_cache::{CacheConfig, CacheError, CacheStats, NvmConfig};
use fdpcache_core::{RoundRobinPolicy, SharedController};
use fdpcache_ftl::FtlConfig;
use fdpcache_nvme::{FaultConfig, FaultKind, FaultTotals, ScriptedFault};
use fdpcache_workloads::oracle::{verify_by_bucket, FlashTally};
use fdpcache_workloads::{FaultScenario, Oracle, TraceGen, WorkloadProfile};

use crate::harness::bench_ftl_config;

/// Seed of every gate scenario's trace and device.
pub(crate) const GATE_SEED: u64 = 42;

/// Requests in the trace the fault, warm-restart and chaos gates replay.
pub(crate) const GATE_OPS: u64 = 30_000;

/// The device those three gates run on: 64 MiB, 2 MiB reclaim units.
pub(crate) fn gate_ftl_config() -> FtlConfig {
    bench_ftl_config(64, 2, GATE_SEED)
}

/// The cache those three gates run: 256 KiB of DRAM, 10 % SOC and
/// 1 MiB LOC regions whose evictions issue DSM discards, so discard
/// faults are exercised too.
pub(crate) fn gate_cache_config() -> CacheConfig {
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

/// The trace those three gates replay: Meta KV over 20,000 keys.
pub(crate) fn gate_trace() -> TraceGen {
    WorkloadProfile::meta_kv_cache().generator(20_000, GATE_SEED)
}

/// Everything one scenario run reports.
#[derive(Debug, Clone, PartialEq)]
struct FaultRunResult {
    /// Scenario name.
    scenario: String,
    /// Final virtual clock (ns), pre-verification — bit-identical
    /// across reruns of the same scenario.
    now_ns: u64,
    /// Cache counters at the end of the replay (pre-verification).
    stats: CacheStats,
    /// The LOC's counters at the same point.
    loc: LocStats,
    /// Store-level injection totals (pre-verification).
    injected: FaultTotals,
    /// Injected-fault errors that surfaced to the driver (persistently
    /// faulting deletes); the op is skipped, state is rolled back.
    surfaced: u64,
    /// Every acknowledged key's on-flash verdict.
    flash: FlashTally,
}

/// Replays the gate trace on `ctrl` and verifies every acknowledged
/// write.
///
/// # Panics
///
/// Panics on non-injected errors (driver bugs), never on injected
/// faults — those must be recovered by the stack.
fn run_on(ctrl: &SharedController, scenario: &str) -> FaultRunResult {
    let nsid = create_namespace(ctrl, 0.9, (0..8).collect()).expect("namespace");
    let mut cache =
        build_cache(ctrl, nsid, &gate_cache_config(), Box::new(RoundRobinPolicy::new()))
            .expect("cache");
    let mut oracle = Oracle::new();
    let mut surfaced = 0u64;
    let mut gen = gate_trace();
    for _ in 0..GATE_OPS {
        let req = gen.next_request();
        match oracle.step(&mut cache, req) {
            Ok(()) | Err(CacheError::ObjectTooLarge { .. }) => {}
            // Not acknowledged, or rolled back: the key (if present) is
            // still intact.
            Err(e) if e.is_injected_fault() => surfaced += 1,
            Err(e) => panic!("{req:?} failed non-fault: {e}"),
        }
    }
    cache.drain_io();
    let (now_ns, stats, injected) = (cache.now_ns(), cache.stats(), ctrl.fault_totals());
    let loc = cache.navy().loc().stats();
    let mut buckets = BTreeMap::new();
    let flash = oracle.tally_flash(|key| verify_by_bucket(&mut cache, 0, key, &mut buckets));
    ctrl.with_ftl(|f| f.check_invariants());
    FaultRunResult { scenario: scenario.to_string(), now_ns, stats, injected, surfaced, flash, loc }
}

/// Replays the gate trace under one scenario.
fn run_fault_scenario(scenario: &FaultScenario) -> FaultRunResult {
    let ctrl =
        build_device_faulted(gate_ftl_config(), StoreKind::Mem, true, scenario.config.clone())
            .expect("faulted device");
    run_on(&ctrl, scenario.name)
}

/// The gate's own scenario: a scripted write fault on the footer slot
/// of LOC region 0, the first region the gate trace seals and evicts.
/// The slot's first write is region 0's seal, so the fault starts at
/// its second, the first footer write outside a seal (a delete's
/// rewrite or the eviction's retirement), and lasts four attempts —
/// every attempt `Retry::Write` grants a footer — so the write retries
/// and then falls back to discarding the slot.
fn footer_fault_scenario() -> FaultScenario {
    let ctrl = build_device(gate_ftl_config(), StoreKind::Mem, true).expect("plain device");
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("namespace");
    let cache = build_cache(&ctrl, nsid, &gate_cache_config(), Box::new(RoundRobinPolicy::new()))
        .expect("cache");
    let start = ctrl.namespace(nsid).expect("namespace").start_lba;
    let lba = start + cache.navy().loc().meta_start_block(0);
    let fault = ScriptedFault { kind: FaultKind::WriteError, lba, at_access: 1, repeats: 4 };
    FaultScenario {
        name: "footer_write",
        config: FaultConfig { seed: 0xFA07, scripted: vec![fault], ..Default::default() },
    }
}

/// Replays the gate trace on a plain, undecorated device — the
/// baseline the `none` scenario must match bit-for-bit.
fn run_plain_baseline() -> FaultRunResult {
    let ctrl = build_device(gate_ftl_config(), StoreKind::Mem, true).expect("plain device");
    run_on(&ctrl, "plain")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::first_divergence;

    /// Every built-in scenario and the footer scenario at full length,
    /// twice: bit-identical reruns, zero lost acknowledged writes,
    /// non-vacuous injection, recovery and verification, a footer
    /// fault that retries and falls back, and an empty plan that is
    /// bit-transparent.
    #[test]
    fn gate() {
        let mut scenarios = FaultScenario::all_builtin();
        scenarios.push(footer_fault_scenario());
        let runs: Vec<(FaultRunResult, FaultRunResult)> =
            scenarios.iter().map(|s| (run_fault_scenario(s), run_fault_scenario(s))).collect();
        let plain = run_plain_baseline();
        let mut fails: Vec<String> = Vec::new();
        for (r, rerun) in &runs {
            if r != rerun {
                fails.push(format!(
                    "scenario {} diverged across same-seed reruns ({}) — the fault schedule \
                     must be a pure function of its seed",
                    r.scenario,
                    first_divergence(r, rerun)
                ));
            }
            if !r.flash.lost.is_empty() {
                fails.push(format!(
                    "scenario {} lost {} acknowledged write(s) — recovery must never serve torn \
                     data",
                    r.scenario,
                    r.flash.lost.len()
                ));
            }
            if r.flash.checked == 0 {
                fails.push(format!(
                    "scenario {} verified none of its {} acknowledged write(s) (vacuous)",
                    r.scenario,
                    r.flash.acked()
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
            if r.scenario == "footer_write"
                && (r.loc.footer_retries == 0 || r.loc.footer_faults == 0)
            {
                fails.push(format!(
                    "scenario footer_write never retried a footer write outside a seal and fell \
                     back ({} footer retries, {} footer faults)",
                    r.loc.footer_retries, r.loc.footer_faults
                ));
            }
        }
        let none = &runs.iter().find(|(r, _)| r.scenario == "none").expect("none scenario").0;
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
        if !plain.flash.lost.is_empty() {
            fails.push(format!(
                "plain device lost {} acknowledged write(s)",
                plain.flash.lost.len()
            ));
        }
        if plain.flash.checked == 0 {
            fails.push(format!(
                "plain device verified none of its {} acknowledged write(s) (vacuous)",
                plain.flash.acked()
            ));
        }
        assert!(
            fails.is_empty(),
            "fault gate: {} violation(s):\n{}",
            fails.len(),
            fails.join("\n")
        );
    }
}
