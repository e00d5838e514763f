//! Chaos-soak gate: deterministic fault storms against the sharded
//! pool, end to end through health classification, the per-shard flash
//! circuit breaker, degraded DRAM-only serving, half-open probing and
//! the background scrubber (`chaos::tests::gate`).
//!
//! Each built-in [`ChaosStorm`] replays a phased fault schedule (rates
//! retuned at deterministic op boundaries) against a `MemStore`-backed
//! [`ConcurrentPool`] while an [`Oracle`] records every *acknowledged*
//! write and the driver ticks the patrol scrubber on a fixed op
//! cadence. The gate then asserts the degraded-mode contract:
//!
//! 1. **Determinism** — reruns of the same storm finish at bit-identical
//!    per-shard virtual clocks with identical cache counters, injection
//!    totals and breaker transition traces.
//! 2. **Topology invariance** — the same storm replayed across worker
//!    counts 1/4/8 produces identical per-shard clocks, counters and
//!    breaker traces: the breaker opens and re-closes at the *same
//!    virtual times* no matter how the work is scheduled. This is the
//!    partitioned-pool invariant — shard `s` belongs to worker
//!    `s % workers`, so each shard sees the same request subsequence in
//!    the same order regardless of the worker count.
//! 3. **Zero lost acknowledged writes** — across breaker open/close
//!    cycles, shed evictions and parked requeues, the oracle's flash
//!    tally finds no acknowledged key with torn or wrong on-flash bytes
//!    (absence is legal for a cache; corruption is not), and verifies
//!    at least one.
//! 4. **Scrub precedence** — with scripted permanently-unreadable flash
//!    pages, the patrol scrubber repairs every one of them *before* any
//!    client read can observe the fault.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fdpcache_cache::builder::{build_cache, build_device_faulted, create_namespace, StoreKind};
use fdpcache_cache::value::Value;
use fdpcache_cache::{
    BreakerState, BreakerTransition, CacheError, CacheStats, ConcurrentPool, FlashVerify,
};
use fdpcache_core::RoundRobinPolicy;
use fdpcache_nvme::{FaultConfig, FaultKind, FaultTotals, ScriptedFault};
use fdpcache_workloads::oracle::{verify_by_bucket, FlashTally};
use fdpcache_workloads::trace::Request;
use fdpcache_workloads::{ChaosStorm, Oracle};

use crate::faults::{gate_cache_config, gate_ftl_config, gate_trace, GATE_OPS, GATE_SEED};
use crate::turn_ring::run_in_order;

/// Pool shards.
const SHARDS: usize = 2;

/// Patrol-scrub cadence: one budgeted scrub tick every this many stream
/// ops (aligned on deterministic round boundaries).
const SCRUB_INTERVAL_OPS: u64 = 2_000;

/// Page budget per shard per scrub tick.
const SCRUB_BUDGET_PAGES: u64 = 4_096;

/// Initial half-open probe backoff and its cap (virtual ns), for every
/// gate that opens a breaker. Shorter than the production default
/// because an open shard serves DRAM-only at host-op cost, so its
/// virtual clock crawls toward the deadline.
pub(crate) const PROBE_BACKOFF_NS: (u64, u64) = (1_000_000, 8_000_000);

/// Worker counts the topology sweep replays `storm_recover` at.
const TOPOLOGY_WORKERS: [usize; 3] = [1, 4, 8];

/// One shard's breaker evidence for a run: counts, final state and the
/// full virtual-time transition trace.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardBreakerTrace {
    /// `Closed → Open` transitions taken.
    opens: u64,
    /// Probe-success closes taken.
    closes: u64,
    /// State at the end of the replay.
    final_state: BreakerState,
    /// The virtual-time-stamped transition trace.
    transitions: Vec<BreakerTransition>,
}

/// Everything one storm replay reports; the worker count is not part
/// of it, so runs at different worker counts compare with `==`.
#[derive(Debug, Clone, PartialEq)]
struct ChaosRunResult {
    /// Storm name.
    storm: String,
    /// Final per-shard virtual clocks (ns), pre-verification —
    /// bit-identical across reruns and worker counts.
    shard_now_ns: Vec<u64>,
    /// Pool-wide cache counters at the end of the replay
    /// (pre-verification).
    stats: CacheStats,
    /// Store-level injection totals (pre-verification).
    injected: FaultTotals,
    /// Injected-fault errors that surfaced to the driver (the op is
    /// skipped; state is rolled back).
    surfaced: u64,
    /// Per-shard breaker traces.
    breakers: Vec<ShardBreakerTrace>,
    /// Every acknowledged key's on-flash verdict.
    flash: FlashTally,
}

impl ChaosRunResult {
    /// Total breaker opens across shards.
    fn total_opens(&self) -> u64 {
        self.breakers.iter().map(|b| b.opens).sum()
    }

    /// Total breaker closes across shards.
    fn total_closes(&self) -> u64 {
        self.breakers.iter().map(|b| b.closes).sum()
    }

    /// Whether every shard that opened also re-closed and ended the
    /// replay serving flash again.
    fn all_reclosed(&self) -> bool {
        self.breakers.iter().all(|b| b.closes == b.opens && b.final_state == BreakerState::Closed)
    }
}

/// Replays one storm against a fresh pool on the turn ring
/// ([`run_in_order`]) with `workers` workers, each executing the
/// requests whose shard it owns, scrubbing on the fixed cadence, and
/// verifies every acknowledged write.
///
/// # Panics
///
/// Panics on non-injected errors (driver bugs), never on injected
/// faults — those must be recovered (or degraded around) by the stack.
fn run_chaos_storm(storm: &ChaosStorm, workers: usize) -> ChaosRunResult {
    let ctrl = build_device_faulted(gate_ftl_config(), StoreKind::Mem, true, storm.base_config())
        .expect("faulted device");
    let pool = ConcurrentPool::new(&ctrl, &gate_cache_config(), SHARDS, 0.9, || {
        Box::new(RoundRobinPolicy::new())
    })
    .expect("pool");
    pool.set_breaker_backoff(PROBE_BACKOFF_NS.0, PROBE_BACKOFF_NS.1);

    // Round boundaries: phase-rate retunes and scrub ticks both land on
    // deterministic stream positions.
    let bounds = storm.boundaries(GATE_OPS);
    let mut cuts: BTreeSet<u64> = bounds.iter().map(|(s, _)| *s).collect();
    cuts.extend((1..).map(|n| n * SCRUB_INTERVAL_OPS).take_while(|&t| t < GATE_OPS));
    cuts.insert(GATE_OPS);
    let cuts: Vec<u64> = cuts.into_iter().collect();

    let mut gen = gate_trace();
    let reqs: Vec<Request> = (0..GATE_OPS).map(|_| gen.next_request()).collect();
    let oracle = Mutex::new(Oracle::new());
    let surfaced = AtomicU64::new(0);
    for w in cuts.windows(2) {
        let (from, to) = (w[0], w[1]);
        if let Some((_, phase)) = bounds.iter().find(|(s, _)| *s == from) {
            ctrl.set_fault_rates(phase.rates);
        }
        if from > 0 && from % SCRUB_INTERVAL_OPS == 0 {
            pool.scrub(SCRUB_BUDGET_PAGES).expect("scrub must not surface non-injected errors");
        }
        let owner = |r: &Request| pool.shard_of(r.key);
        run_in_order(&reqs[from as usize..to as usize], workers, owner, |&req| {
            let mut oracle = oracle.lock().expect("no chaos worker panicked");
            match oracle.step(&mut &pool, req) {
                Ok(()) | Err(CacheError::ObjectTooLarge { .. }) => {}
                // Not acknowledged, or rolled back. `Unrecoverable` is a
                // legal storm casualty, not a harness bug: under a
                // sustained error storm a failed region seal can exhaust
                // both requeue passes *before* the health window crosses
                // `Failing` and the breaker starts parking requeues. The
                // rescued objects are dropped from the index (future
                // reads miss — the lossy-cache contract), and the oracle
                // makes the op's own key indeterminate.
                Err(e) if e.is_injected_fault() || matches!(e, CacheError::Unrecoverable(_)) => {
                    surfaced.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("{req:?} failed non-fault: {e}"),
            }
        });
    }
    pool.drain_io();

    let shard_now_ns: Vec<u64> =
        (0..SHARDS).map(|i| pool.with_shard(i, |c| c.now_ns()).expect("shard in range")).collect();
    let breakers: Vec<ShardBreakerTrace> = (0..SHARDS)
        .map(|i| {
            pool.with_shard(i, |c| ShardBreakerTrace {
                opens: c.breaker().opens(),
                closes: c.breaker().closes(),
                final_state: c.breaker().state(),
                transitions: c.breaker().transitions().to_vec(),
            })
            .expect("shard in range")
        })
        .collect();
    let (stats, injected) = (pool.stats(), ctrl.fault_totals());
    let oracle = oracle.into_inner().expect("no chaos worker panicked");
    let mut buckets = BTreeMap::new();
    let flash = oracle.tally_flash(|key| {
        let shard = pool.shard_of(key);
        pool.with_shard(shard, |c| verify_by_bucket(c, shard, key, &mut buckets))
            .expect("shard in range")
    });
    ctrl.with_ftl(|f| f.check_invariants());
    ChaosRunResult {
        storm: storm.name.to_string(),
        shard_now_ns,
        stats,
        injected,
        surfaced: surfaced.into_inner(),
        breakers,
        flash,
    }
}

/// Outcome of the scrub-precedence scenario.
#[derive(Debug, Clone)]
struct ScrubPrecedenceResult {
    /// Scripted permanently-unreadable SOC pages seeded.
    bad_pages: u64,
    /// Acknowledged puts in the seeding phase.
    acked: u64,
    /// Scrubber repairs — the gate requires at least one (one per
    /// reachable bad page).
    scrub_repairs: u64,
    /// Injected faults observed during the client read-back phase —
    /// the gate requires **zero**: every bad page must be repaired (or
    /// invalidated into memory-serving) before a client read touches
    /// it.
    readback_injected: u64,
    /// Read-back keys answered with a hit; the rest missed (legal
    /// eviction).
    readback_hits: u64,
    /// Acknowledged keys with torn/wrong on-flash bytes after the full
    /// cycle; the gate requires zero.
    lost: u64,
}

/// The scrub-precedence scenario: seeds a single-shard cache whose
/// device has scripted **permanently unreadable** SOC bucket pages
/// (media read errors from birth, `repeats = u64::MAX`), then runs the
/// patrol scrubber until dry, then replays a client read of every
/// acknowledged key with promotion disabled. Because the pages can
/// never be read, relocation is impossible — the scrubber's repair
/// must detect the still-faulting rewrite and invalidate the page so
/// lookups serve from the authoritative in-memory list. The gate
/// asserts at least one scrubber repair happened and that **no client
/// read observed an injected fault** — repairs strictly precede
/// client-visible corruption.
///
/// # Panics
///
/// Panics on non-injected errors and on scripted pages falling outside
/// SOC bucket space (config bug).
fn run_scrub_precedence() -> ScrubPrecedenceResult {
    // Namespace blocks map 1:1 onto device LBAs for the first
    // namespace, and SOC buckets occupy the namespace's first blocks
    // (one page per bucket) — so small LBAs address SOC pages directly.
    let bad_lbas = [300u64, 700, 1_100];
    let scripted: Vec<ScriptedFault> = bad_lbas
        .iter()
        .map(|&lba| ScriptedFault {
            kind: FaultKind::ReadError,
            lba,
            at_access: 0,
            repeats: u64::MAX,
        })
        .collect();
    let fault = FaultConfig { seed: GATE_SEED ^ 0x5C12_B0B0, scripted, ..Default::default() };
    let ctrl = build_device_faulted(gate_ftl_config(), StoreKind::Mem, true, fault)
        .expect("faulted device");
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("namespace");
    let mut cache =
        build_cache(&ctrl, nsid, &gate_cache_config(), Box::new(RoundRobinPolicy::new()))
            .expect("cache");
    cache.set_breaker_backoff(PROBE_BACKOFF_NS.0, PROBE_BACKOFF_NS.1);
    for &lba in &bad_lbas {
        assert!(
            lba < cache.navy().soc().num_buckets(),
            "scripted LBA {lba} outside SOC bucket space ({} buckets)",
            cache.navy().soc().num_buckets()
        );
    }

    // Phase A — seed: unique SOC-sized puts; evictions stream to flash.
    // Inserts that land on a bad page fail their RMW read and surface
    // (not acknowledged); each bad bucket keeps exactly its first,
    // acknowledged key — on flash but unreadable.
    let mut acked: Vec<u64> = Vec::new();
    for key in 0..8_000u64 {
        match cache.put(key, Value::synthetic(120)) {
            Ok(()) => acked.push(key),
            Err(e) if e.is_injected_fault() => {}
            Err(e) => panic!("seed put({key}) failed non-fault: {e}"),
        }
    }
    cache.drain_io();

    // Phase B — patrol until dry: scrub full sweeps until two
    // consecutive passes repair nothing.
    let mut passes = 0u64;
    let mut dry = 0u32;
    while dry < 2 && passes < 64 {
        let (_, repairs) = cache.scrub(1_000_000).expect("scrub");
        passes += 1;
        if repairs == 0 {
            dry += 1;
        } else {
            dry = 0;
        }
    }
    let stats_after_scrub = cache.stats();

    // Phase C — client read-back with promotion disabled (promotions
    // would write, polluting the injected-fault delta): not a single
    // injected fault may reach a client read.
    cache.set_promote_on_nvm_hit(false);
    let injected_before = ctrl.fault_totals();
    let mut hits = 0u64;
    for &key in &acked {
        match cache.get(key) {
            Ok((_, value)) => hits += u64::from(value.is_some()),
            Err(e) => panic!("read-back get({key}) errored: {e}"),
        }
    }
    let injected_after = ctrl.fault_totals();

    let lost = acked
        .iter()
        .filter(|&&key| {
            cache.verify_flash_key(key).expect("verification must not error")
                == FlashVerify::Mismatch
        })
        .count() as u64;
    ctrl.with_ftl(|f| f.check_invariants());
    ScrubPrecedenceResult {
        bad_pages: bad_lbas.len() as u64,
        acked: acked.len() as u64,
        scrub_repairs: stats_after_scrub.scrub_repairs,
        readback_injected: injected_after.total() - injected_before.total(),
        readback_hits: hits,
        lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::first_divergence;

    /// Every built-in storm at full length twice, `storm_recover`
    /// across the topology matrix, and the scrub-precedence scenario.
    #[test]
    fn gate() {
        let storms: Vec<(ChaosRunResult, ChaosRunResult)> = ChaosStorm::all_builtin()
            .iter()
            .map(|s| (run_chaos_storm(s, 2), run_chaos_storm(s, 2)))
            .collect();
        let storm = ChaosStorm::storm_recover();
        let topology: Vec<(usize, ChaosRunResult)> =
            TOPOLOGY_WORKERS.iter().map(|&w| (w, run_chaos_storm(&storm, w))).collect();
        let p = run_scrub_precedence();
        let mut fails: Vec<String> = Vec::new();
        for (r, rerun) in &storms {
            if r != rerun {
                fails.push(format!(
                    "storm {} diverged across same-seed reruns — the storm schedule, breaker and \
                     scrubber must be pure functions of their seeds: {}",
                    r.storm,
                    first_divergence(r, rerun)
                ));
            }
            if r.injected.total() == 0 {
                fails.push(format!("storm {} injected nothing (vacuous)", r.storm));
            }
            if r.stats.scrubbed_pages == 0 {
                fails.push(format!("storm {} never ran the patrol scrubber (vacuous)", r.storm));
            }
        }
        // Error/busy storms must trip the breaker and probe back to
        // Closed; the latent-corruption storm must instead exercise the
        // scrubber (silent corruption never fails a command, so health
        // stays clean by design).
        let storm = |name: &str| storms.iter().map(|(r, _)| r).find(|r| r.storm == name);
        for name in ["storm_recover", "busy_brownout"] {
            match storm(name) {
                None => fails.push(format!("builtin storm {name} missing from the sweep")),
                Some(r) if r.total_opens() == 0 => fails.push(format!(
                    "storm {name} never opened the breaker — the storm is too weak to exercise \
                     degraded mode (vacuous)"
                )),
                Some(r) if !r.all_reclosed() => fails.push(format!(
                    "storm {name} ended with a breaker stuck open ({} opens, {} closes) — \
                     half-open probes must re-close once the storm clears",
                    r.total_opens(),
                    r.total_closes()
                )),
                Some(_) => {}
            }
        }
        match storm("latent_corruption") {
            None => fails.push("builtin storm latent_corruption missing from the sweep".into()),
            Some(r) if r.stats.scrub_repairs == 0 => fails.push(
                "storm latent_corruption produced no scrubber repairs — patrol reads must find \
                 and fix silent corruption"
                    .into(),
            ),
            Some(_) => {}
        }
        let firsts = storms.iter().map(|(r, _)| (2, r));
        for (workers, r) in firsts.chain(topology.iter().map(|(w, r)| (*w, r))) {
            if !r.flash.lost.is_empty() {
                fails.push(format!(
                    "{} ({workers}w) lost {} acknowledged write(s) — degraded mode must never \
                     serve torn data",
                    r.storm,
                    r.flash.lost.len()
                ));
            }
            if r.flash.checked == 0 {
                fails.push(format!(
                    "{} ({workers}w) verified none of its {} acknowledged write(s) (vacuous)",
                    r.storm,
                    r.flash.acked()
                ));
            }
        }
        let (base_workers, base) = &topology[0];
        for (workers, r) in &topology[1..] {
            if r != base {
                fails.push(format!(
                    "topology {workers}w diverged from {base_workers}w — breaker transitions must \
                     land at identical virtual times for every worker count: {}",
                    first_divergence(base, r)
                ));
            }
        }
        if p.bad_pages == 0 || p.acked == 0 {
            fails.push(format!("scrub-precedence scenario seeded nothing (vacuous): {p:?}"));
        }
        if p.scrub_repairs == 0 {
            fails.push(format!(
                "scrub precedence — the scrubber repaired nothing despite {} scripted bad \
                 page(s)",
                p.bad_pages
            ));
        }
        if p.readback_injected > 0 {
            fails.push(format!(
                "scrub precedence — {} client read(s) observed an injected fault; every bad page \
                 must be repaired or invalidated before clients touch it",
                p.readback_injected
            ));
        }
        if p.readback_hits == 0 {
            fails.push(format!("scrub precedence — read-back served nothing: {p:?}"));
        }
        if p.lost > 0 {
            fails.push(format!(
                "scrub precedence — {} acknowledged write(s) torn after the repair cycle",
                p.lost
            ));
        }
        assert!(
            fails.is_empty(),
            "chaos gate: {} violation(s):\n{}",
            fails.len(),
            fails.join("\n")
        );
    }
}
