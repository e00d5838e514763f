//! Chaos-soak gate: deterministic fault storms against the sharded
//! pool, end to end through health classification, the per-shard flash
//! circuit breaker, degraded DRAM-only serving, half-open probing and
//! the background scrubber (`chaos::tests::gate`).
//!
//! Each built-in [`ChaosStorm`] replays a phased fault schedule (rates
//! retuned at deterministic op boundaries) against a `MemStore`-backed
//! [`ConcurrentPool`] while the driver keeps a shadow map of every
//! *acknowledged* write and ticks the patrol scrubber on a fixed op
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
//!    cycles, shed evictions and parked requeues, a post-run
//!    verification pass finds no acknowledged key with torn or wrong
//!    on-flash bytes (absence is legal for a cache; corruption is not).
//! 4. **Scrub precedence** — with scripted permanently-unreadable flash
//!    pages, the patrol scrubber repairs every one of them *before* any
//!    client read can observe the fault
//!    ([`run_scrub_precedence`]).

use std::collections::{BTreeMap, BTreeSet};

use fdpcache_cache::builder::{build_cache, build_device_faulted, create_namespace, StoreKind};
use fdpcache_cache::value::Value;
use fdpcache_cache::{
    BreakerState, BreakerTransition, CacheConfig, CacheError, CacheStats, ConcurrentPool,
    FlashVerify, NvmConfig,
};
use fdpcache_core::RoundRobinPolicy;
use fdpcache_nvme::{FaultConfig, FaultKind, FaultTotals, ScriptedFault};
use fdpcache_workloads::trace::Op;
use fdpcache_workloads::{ChaosStorm, TraceGen, WorkloadProfile};

use crate::harness::bench_ftl_config;
use crate::turn_ring::TurnRing;

/// Configuration of one chaos-gate replay.
#[derive(Debug, Clone)]
pub struct ChaosGateConfig {
    /// Device capacity in MiB.
    pub device_mib: u64,
    /// Reclaim-unit size in MiB.
    pub ru_mib: u64,
    /// Operations replayed per trace stream (every worker walks the
    /// identical stream and executes only the shards it owns).
    pub ops: u64,
    /// Trace RNG seed (the fault seed lives in the storm).
    pub seed: u64,
    /// Pool shards.
    pub shards: usize,
    /// Patrol-scrub cadence: one budgeted scrub tick every this many
    /// stream ops (aligned on deterministic round boundaries).
    pub scrub_interval_ops: u64,
    /// Page budget per shard per scrub tick.
    pub scrub_budget_pages: u64,
    /// Initial half-open probe backoff (virtual ns). Shorter than the
    /// production default because an open shard serves DRAM-only at
    /// host-op cost, so its virtual clock crawls toward the deadline.
    pub probe_backoff_ns: u64,
    /// Cap on the doubled probe backoff (virtual ns).
    pub max_probe_backoff_ns: u64,
}

impl Default for ChaosGateConfig {
    fn default() -> Self {
        ChaosGateConfig {
            device_mib: 64,
            ru_mib: 2,
            ops: 30_000,
            seed: 42,
            shards: 2,
            scrub_interval_ops: 2_000,
            scrub_budget_pages: 4_096,
            probe_backoff_ns: 1_000_000,
            max_probe_backoff_ns: 8_000_000,
        }
    }
}

impl ChaosGateConfig {
    /// The cache geometry under test — identical to the fault gate's
    /// ([`crate::faults`]) so the two gates stress the same stack shape.
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
}

/// One shard's breaker evidence for a run: counts, final state and the
/// full virtual-time transition trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardBreakerTrace {
    /// Shard index.
    pub shard: usize,
    /// `Closed → Open` transitions taken.
    pub opens: u64,
    /// Probe-success closes taken.
    pub closes: u64,
    /// State at the end of the replay.
    pub final_state: BreakerState,
    /// The virtual-time-stamped transition trace.
    pub transitions: Vec<BreakerTransition>,
}

/// Everything one storm replay reports.
#[derive(Debug, Clone)]
pub struct ChaosRunResult {
    /// Storm name.
    pub storm: String,
    /// Worker threads driving the partitioned streams.
    pub workers: usize,
    /// Final per-shard virtual clocks (ns), pre-verification —
    /// bit-identical across reruns and worker counts.
    pub shard_now_ns: Vec<u64>,
    /// Pool-wide cache counters at the end of the replay
    /// (pre-verification).
    pub stats: CacheStats,
    /// Store-level injection totals (pre-verification).
    pub injected: FaultTotals,
    /// Injected-fault errors that surfaced to the driver (the op is
    /// skipped; state is rolled back).
    pub surfaced: u64,
    /// Per-shard breaker traces.
    pub breakers: Vec<ShardBreakerTrace>,
    /// Acknowledged writes tracked by the shadow map at the end.
    pub acked: u64,
    /// Acknowledged keys whose on-flash bytes verified exactly.
    pub verified: u64,
    /// Acknowledged keys with torn/wrong on-flash bytes — **lost
    /// acknowledged writes**; the gate requires zero.
    pub lost: u64,
    /// Acknowledged keys absent from flash (evicted, shed while
    /// degraded, or RAM-only) — legal for a cache.
    pub absent: u64,
    /// Acknowledged keys whose verification read itself faulted.
    pub unverifiable: u64,
}

impl ChaosRunResult {
    /// Total breaker opens across shards.
    pub fn total_opens(&self) -> u64 {
        self.breakers.iter().map(|b| b.opens).sum()
    }

    /// Total breaker closes across shards.
    pub fn total_closes(&self) -> u64 {
        self.breakers.iter().map(|b| b.closes).sum()
    }

    /// Whether every shard that opened also re-closed and ended the
    /// replay serving flash again.
    pub fn all_reclosed(&self) -> bool {
        self.breakers.iter().all(|b| b.closes == b.opens && b.final_state == BreakerState::Closed)
    }

    /// Whether `other` is bit-identical in every deterministic
    /// observable: per-shard clocks, cache counters, injection totals,
    /// surfaced errors, full breaker traces and the verification tally.
    pub fn matches(&self, other: &ChaosRunResult) -> bool {
        self.shard_now_ns == other.shard_now_ns
            && self.stats == other.stats
            && self.injected == other.injected
            && self.surfaced == other.surfaced
            && self.breakers.iter().map(|b| (b.opens, b.closes, b.final_state, &b.transitions)).eq(
                other.breakers.iter().map(|b| (b.opens, b.closes, b.final_state, &b.transitions)),
            )
            && (self.acked, self.verified, self.lost) == (other.acked, other.verified, other.lost)
    }
}

/// One partitioned round: every worker walks its own clone of the
/// identical trace stream for `ops_per_stream` requests and executes
/// only the requests whose shard it owns. Returns the per-worker
/// shadow-map deltas (`Some(size)` = acknowledged put, `None` =
/// acknowledged delete) and the surfaced injected-error count. Deltas
/// merge conflict-free: a key's shard — hence its owning worker — is
/// fixed for the whole replay, so each key's full history lives in
/// exactly one worker's delta.
///
/// Unlike the free-running replay drivers, execution follows a
/// **deterministic turn ring** ([`TurnRing`]): each stream position is
/// executed by its owning worker only once every earlier position has
/// completed, so the shared device sees commands in exact stream order
/// for *any* worker count. Free-running partitioned drivers
/// (`fdpcache_workloads::replay_pool`) keep per-shard *counters*
/// invariant but not the per-shard clock frontier — the shared FTL
/// charges GC and reclaim-unit switches to whichever shard's command
/// trips them, which depends on thread interleaving. The chaos gate
/// pins breaker transitions to exact virtual times across reruns and
/// worker counts, so it schedules deterministically and measures no
/// wall-clock scaling.
fn chaos_round(
    pool: &ConcurrentPool,
    sources: &mut [TraceGen],
    ops_per_stream: u64,
) -> (Vec<BTreeMap<u64, Option<u32>>>, u64) {
    let workers = sources.len();
    let ring = TurnRing::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter_mut()
            .enumerate()
            .map(|(widx, source)| {
                let ring = &ring;
                scope.spawn(move || {
                    let _poison = ring.poison_on_panic();
                    let mut delta: BTreeMap<u64, Option<u32>> = BTreeMap::new();
                    let mut surfaced = 0u64;
                    for pos in 0..ops_per_stream {
                        let req = source.next_request();
                        if pool.shard_of(req.key) % workers != widx {
                            continue;
                        }
                        // Our position in the global order: wait for
                        // every earlier position (each owned by exactly
                        // one worker) to complete.
                        if !ring.wait_for(pos) {
                            break;
                        }
                        // `Unrecoverable` is a legal storm casualty, not a
                        // harness bug: under a sustained error storm a
                        // failed region seal can exhaust both requeue
                        // passes *before* the health window crosses
                        // `Failing` and the breaker starts parking
                        // requeues. The rescued objects are dropped from
                        // the index (future reads miss — the lossy-cache
                        // contract), and the op's own key becomes
                        // indeterminate: mark it unacknowledged so
                        // verification asserts nothing about it.
                        match req.op {
                            Op::Get => match pool.get(req.key) {
                                Ok(_) => {}
                                Err(e) if e.is_injected_fault() => surfaced += 1,
                                Err(CacheError::Unrecoverable(_)) => surfaced += 1,
                                Err(e) => panic!("get({}) failed non-fault: {e}", req.key),
                            },
                            Op::Set => match pool.put(req.key, Value::synthetic(req.size)) {
                                Ok(()) => {
                                    delta.insert(req.key, Some(req.size));
                                }
                                Err(CacheError::ObjectTooLarge { .. }) => {}
                                // Not acknowledged: the delta is not updated.
                                Err(e) if e.is_injected_fault() => surfaced += 1,
                                Err(CacheError::Unrecoverable(_)) => {
                                    surfaced += 1;
                                    delta.insert(req.key, None);
                                }
                                Err(e) => panic!("put({}) failed non-fault: {e}", req.key),
                            },
                            Op::Delete => match pool.delete(req.key) {
                                Ok(_) => {
                                    delta.insert(req.key, None);
                                }
                                Err(e) if e.is_injected_fault() => surfaced += 1,
                                Err(CacheError::Unrecoverable(_)) => {
                                    surfaced += 1;
                                    delta.insert(req.key, None);
                                }
                                Err(e) => panic!("delete({}) failed non-fault: {e}", req.key),
                            },
                        }
                        ring.done(pos);
                    }
                    (delta, surfaced)
                })
            })
            .collect();
        let mut deltas = Vec::new();
        let mut surfaced = 0u64;
        for h in handles {
            let (d, s) = h.join().expect("chaos worker panicked");
            deltas.push(d);
            surfaced += s;
        }
        (deltas, surfaced)
    })
}

/// Verifies every acknowledged key's on-flash bytes, caching one
/// verdict per (shard, SOC bucket) — SOC verification checks the whole
/// bucket serialization, so one device read covers every key in it.
fn verify_pool(pool: &ConcurrentPool, shadow: &BTreeMap<u64, Option<u32>>, r: &mut ChaosRunResult) {
    let mut bucket_verdicts: BTreeMap<(usize, u64), FlashVerify> = BTreeMap::new();
    for (&key, entry) in shadow {
        if entry.is_none() {
            continue; // deleted: nothing acknowledged to survive
        }
        let shard = pool.shard_of(key);
        let verdict = pool
            .with_shard(shard, |c| {
                if c.navy().soc().contains(key) {
                    let bucket = c.navy().soc().bucket_index(key);
                    match bucket_verdicts.get(&(shard, bucket)) {
                        Some(&v) => v,
                        None => {
                            let v = c.verify_flash_key(key).expect("verification must not error");
                            bucket_verdicts.insert((shard, bucket), v);
                            v
                        }
                    }
                } else {
                    c.verify_flash_key(key).expect("verification must not error")
                }
            })
            .expect("shard in range");
        match verdict {
            FlashVerify::Verified => r.verified += 1,
            FlashVerify::Mismatch => r.lost += 1,
            FlashVerify::Absent => r.absent += 1,
            FlashVerify::Unverifiable => r.unverifiable += 1,
        }
    }
}

/// Replays one storm against a fresh pool with `workers` partitioned
/// streams, scrubbing on the configured cadence, and verifies every
/// acknowledged write.
///
/// # Panics
///
/// Panics on non-injected errors (driver bugs), never on injected
/// faults — those must be recovered (or degraded around) by the stack.
pub fn run_chaos_storm(
    cfg: &ChaosGateConfig,
    storm: &ChaosStorm,
    workers: usize,
) -> ChaosRunResult {
    let ctrl = build_device_faulted(
        bench_ftl_config(cfg.device_mib, cfg.ru_mib, cfg.seed),
        StoreKind::Mem,
        true,
        storm.base_config(),
    )
    .expect("faulted device");
    let pool = ConcurrentPool::new(&ctrl, &cfg.cache_config(), cfg.shards, 0.9, || {
        Box::new(RoundRobinPolicy::new())
    })
    .expect("pool");
    pool.set_breaker_backoff(cfg.probe_backoff_ns, cfg.max_probe_backoff_ns);

    // Every worker gets an identical stream: same profile, same seed.
    let profile = WorkloadProfile::meta_kv_cache();
    let mut sources: Vec<TraceGen> =
        (0..workers.max(1)).map(|_| profile.generator(20_000, cfg.seed)).collect();

    // Round boundaries: phase-rate retunes and scrub ticks both land on
    // deterministic stream positions shared by every worker.
    let bounds = storm.boundaries(cfg.ops);
    let mut cuts: BTreeSet<u64> = bounds.iter().map(|(s, _)| *s).collect();
    let mut tick = cfg.scrub_interval_ops.max(1);
    while tick < cfg.ops {
        cuts.insert(tick);
        tick += cfg.scrub_interval_ops.max(1);
    }
    cuts.insert(cfg.ops);
    let cuts: Vec<u64> = cuts.into_iter().collect();

    let mut shadow: BTreeMap<u64, Option<u32>> = BTreeMap::new();
    let mut surfaced = 0u64;
    for w in cuts.windows(2) {
        let (from, to) = (w[0], w[1]);
        if let Some((_, phase)) = bounds.iter().find(|(s, _)| *s == from) {
            ctrl.set_fault_rates(phase.rates);
        }
        if from > 0 && from % cfg.scrub_interval_ops.max(1) == 0 {
            pool.scrub(cfg.scrub_budget_pages).expect("scrub must not surface non-injected errors");
        }
        let (deltas, s) = chaos_round(&pool, &mut sources, to - from);
        surfaced += s;
        for d in deltas {
            shadow.extend(d);
        }
    }
    pool.drain_io();

    let shard_now_ns: Vec<u64> = (0..cfg.shards)
        .map(|i| pool.with_shard(i, |c| c.now_ns()).expect("shard in range"))
        .collect();
    let breakers: Vec<ShardBreakerTrace> = (0..cfg.shards)
        .map(|i| {
            pool.with_shard(i, |c| ShardBreakerTrace {
                shard: i,
                opens: c.breaker().opens(),
                closes: c.breaker().closes(),
                final_state: c.breaker().state(),
                transitions: c.breaker().transitions().to_vec(),
            })
            .expect("shard in range")
        })
        .collect();
    let acked = shadow.values().filter(|e| e.is_some()).count() as u64;
    let mut r = ChaosRunResult {
        storm: storm.name.to_string(),
        workers: workers.max(1),
        shard_now_ns,
        stats: pool.stats(),
        injected: ctrl.fault_totals(),
        surfaced,
        breakers,
        acked,
        verified: 0,
        lost: 0,
        absent: 0,
        unverifiable: 0,
    };
    verify_pool(&pool, &shadow, &mut r);
    ctrl.with_ftl(|f| f.check_invariants());
    r
}

/// One storm's determinism evidence: two identically-configured runs.
#[derive(Debug, Clone)]
pub struct ChaosSweepEntry {
    /// First run.
    pub first: ChaosRunResult,
    /// Rerun with identical seeds and topology.
    pub rerun: ChaosRunResult,
}

impl ChaosSweepEntry {
    /// Whether both runs replay bit-identically.
    pub fn deterministic(&self) -> bool {
        self.first.matches(&self.rerun)
    }
}

/// Outcome of the scrub-precedence scenario
/// ([`run_scrub_precedence`]).
#[derive(Debug, Clone)]
pub struct ScrubPrecedenceResult {
    /// Scripted permanently-unreadable SOC pages seeded.
    pub bad_pages: u64,
    /// Acknowledged puts in the seeding phase.
    pub acked: u64,
    /// Scrub passes until two consecutive passes found nothing.
    pub scrub_passes: u64,
    /// Total pages patrol-read.
    pub scrubbed_pages: u64,
    /// Scrubber repairs — the gate requires at least one (one per
    /// reachable bad page).
    pub scrub_repairs: u64,
    /// Injected faults observed during the client read-back phase —
    /// the gate requires **zero**: every bad page must be repaired (or
    /// invalidated into memory-serving) before a client read touches
    /// it.
    pub readback_injected: u64,
    /// Read-back keys answered with the acknowledged value.
    pub readback_hits: u64,
    /// Read-back keys answered as a miss (legal eviction).
    pub readback_misses: u64,
    /// Acknowledged keys with torn/wrong on-flash bytes after the full
    /// cycle; the gate requires zero.
    pub lost: u64,
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
pub fn run_scrub_precedence(cfg: &ChaosGateConfig) -> ScrubPrecedenceResult {
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
    let fault = FaultConfig { seed: cfg.seed ^ 0x5C12_B0B0, scripted, ..Default::default() };
    let ctrl = build_device_faulted(
        bench_ftl_config(cfg.device_mib, cfg.ru_mib, cfg.seed),
        StoreKind::Mem,
        true,
        fault,
    )
    .expect("faulted device");
    let nsid = create_namespace(&ctrl, 0.9, (0..8).collect()).expect("namespace");
    let mut cache =
        build_cache(&ctrl, nsid, &cfg.cache_config(), Box::new(RoundRobinPolicy::new()))
            .expect("cache");
    cache.set_breaker_backoff(cfg.probe_backoff_ns, cfg.max_probe_backoff_ns);
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
    let mut shadow: BTreeMap<u64, u32> = BTreeMap::new();
    for key in 0..8_000u64 {
        match cache.put(key, Value::synthetic(120)) {
            Ok(()) => {
                shadow.insert(key, 120);
            }
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
    let mut misses = 0u64;
    for &key in shadow.keys() {
        match cache.get(key) {
            Ok((_, Some(_))) => hits += 1,
            Ok((_, None)) => misses += 1,
            Err(e) => panic!("read-back get({key}) errored: {e}"),
        }
    }
    let injected_after = ctrl.fault_totals();

    let mut lost = 0u64;
    for &key in shadow.keys() {
        if cache.verify_flash_key(key).expect("verification must not error")
            == FlashVerify::Mismatch
        {
            lost += 1;
        }
    }
    ctrl.with_ftl(|f| f.check_invariants());
    ScrubPrecedenceResult {
        bad_pages: bad_lbas.len() as u64,
        acked: shadow.len() as u64,
        scrub_passes: passes,
        scrubbed_pages: stats_after_scrub.scrubbed_pages,
        scrub_repairs: stats_after_scrub.scrub_repairs,
        readback_injected: injected_after.total() - injected_before.total(),
        readback_hits: hits,
        readback_misses: misses,
        lost,
    }
}

/// The full chaos sweep the gate evaluates.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    /// Every built-in storm run twice (2 workers) for the determinism
    /// comparison.
    pub storms: Vec<ChaosSweepEntry>,
    /// `storm_recover` replayed across worker counts 1/4/8 — all three
    /// must match bit-for-bit.
    pub topology: Vec<ChaosRunResult>,
    /// The scrub-precedence scenario.
    pub precedence: ScrubPrecedenceResult,
}

/// Worker counts the topology sweep replays.
pub const TOPOLOGY_WORKERS: [usize; 3] = [1, 4, 8];

/// Runs the full sweep: per-storm determinism pairs, the topology
/// matrix, and the scrub-precedence scenario.
pub fn sweep_chaos(cfg: &ChaosGateConfig) -> ChaosSweep {
    let storms = ChaosStorm::all_builtin()
        .iter()
        .map(|s| ChaosSweepEntry {
            first: run_chaos_storm(cfg, s, 2),
            rerun: run_chaos_storm(cfg, s, 2),
        })
        .collect();
    let storm = ChaosStorm::storm_recover();
    let topology = TOPOLOGY_WORKERS.iter().map(|&w| run_chaos_storm(cfg, &storm, w)).collect();
    ChaosSweep { storms, topology, precedence: run_scrub_precedence(cfg) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every built-in storm at full length twice, `storm_recover`
    /// across the topology matrix, and the scrub-precedence scenario.
    #[test]
    fn gate() {
        let sweep = sweep_chaos(&ChaosGateConfig::default());
        let mut fails: Vec<String> = Vec::new();
        for e in &sweep.storms {
            let r = &e.first;
            if !e.deterministic() {
                fails.push(format!(
                    "storm {} diverged across same-seed reruns — the storm schedule, breaker and \
                     scrubber must be pure functions of their seeds:\nfirst: {:?}\nrerun: {:?}",
                    r.storm, r, e.rerun
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
        let storm = |name: &str| sweep.storms.iter().map(|e| &e.first).find(|r| r.storm == name);
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
        for r in sweep.storms.iter().map(|e| &e.first).chain(&sweep.topology) {
            if r.lost > 0 {
                fails.push(format!(
                    "{} ({}w) lost {} acknowledged write(s) — degraded mode must never serve torn \
                     data",
                    r.storm, r.workers, r.lost
                ));
            }
        }
        let base = &sweep.topology[0];
        for r in &sweep.topology[1..] {
            if !base.matches(r) {
                fails.push(format!(
                    "topology {}w diverged from {}w — breaker transitions must land at identical \
                     virtual times for every worker count:\nbase {:?} {:?}\nother {:?} {:?}",
                    r.workers,
                    base.workers,
                    base.shard_now_ns,
                    base.breakers,
                    r.shard_now_ns,
                    r.breakers
                ));
            }
        }
        let p = &sweep.precedence;
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
