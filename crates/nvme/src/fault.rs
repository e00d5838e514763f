//! Deterministic fault injection at the [`DataStore`] boundary.
//!
//! The stack's happy paths are gated and bit-reproducible; this module
//! makes the *unhappy* paths equally reproducible. A [`FaultPlan`] is a
//! pure function of its seed and the per-location access history: every
//! device command asks the plan (via [`DataStore::fault`]) whether it
//! fails before performing any side effect, and the answer depends only
//! on `(kind, location, nth-access-to-that-location)` — never on wall
//! clock, thread interleaving or global submission order. Two replays
//! of the same trace under the same plan therefore inject byte-for-byte
//! identical fault schedules, and under the threaded pool driver's
//! shard partition the schedule is invariant to the worker-thread count
//! because namespaces own disjoint LBA ranges (each location's access
//! sequence is a per-shard property).
//!
//! Fault kinds (paper-world analogues in parentheses):
//!
//! * [`FaultKind::ReadError`] / [`FaultKind::WriteError`] /
//!   [`FaultKind::DiscardError`] — per-LBA media errors (unrecoverable
//!   read error, program failure, failed DSM).
//! * [`FaultKind::Corruption`] — per-*segment* detected corruption on
//!   the read path: a whole 2048-block corruption segment
//!   ([`CORRUPTION_SEGMENT_BLOCKS`]) reports
//!   end-to-end-protection failure together, like a die losing a
//!   wordline.
//! * [`FaultKind::Busy`] — a transient device-busy latency spike: the
//!   command is rejected and the caller is expected to retry after the
//!   reported penalty (SSDs throttling during internal housekeeping).
//!
//! Faults are **transient by default**: the decision hash advances with
//! every access to the location, so a retried command re-rolls. Scripted
//! faults ([`ScriptedFault`]) pin failures to exact
//! `(kind, location, access-window)` coordinates — `repeats: u64::MAX`
//! models a permanently bad block.
//!
//! [`FaultStore`] is the decorator that carries a plan: it wraps any
//! inner [`DataStore`], passes every payload operation through
//! untouched, and answers the controller's [`DataStore::fault`] queries
//! from the plan. An empty plan short-circuits to `None` before
//! touching any state, so a fault-free `FaultStore` is bit-identical
//! to the undecorated store (asserted by the property tests).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use parking_lot::Mutex;

use crate::datastore::{DataStore, FillSource};

/// Blocks per corruption-detection segment (8 MiB at 4 KiB LBAs): the
/// unit a "per-segment corruption" fault covers. It is part of the
/// fault model, not of any store's layout, and it places every seeded
/// corruption fault, so changing it moves fault scenarios.
pub const CORRUPTION_SEGMENT_BLOCKS: u64 = 2048;

/// Default busy-spike penalty when a scenario does not set one (ns).
pub const DEFAULT_BUSY_PENALTY_NS: u64 = 500_000;

/// What kind of failure the plan injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Unrecoverable media error on a read.
    ReadError,
    /// Program failure on a write.
    WriteError,
    /// Failed DSM deallocate.
    DiscardError,
    /// Detected corruption covering a whole corruption segment.
    Corruption,
    /// Transient device-busy rejection (retry after the penalty).
    Busy,
    /// Deterministic process-kill point: the host crashes *before* the
    /// command has any side effect. Scripted-only (no probability knob) —
    /// crash points must be exact coordinates so recovery replays are
    /// seed-stable. The driver that sees the resulting
    /// [`crate::NvmeError::Killed`] drops all in-memory state and runs
    /// recovery; retry loops must never swallow it.
    Kill,
}

impl FaultKind {
    /// Stable index used to key per-location access counters.
    fn idx(self) -> u64 {
        match self {
            FaultKind::ReadError => 0,
            FaultKind::WriteError => 1,
            FaultKind::DiscardError => 2,
            FaultKind::Corruption => 3,
            FaultKind::Busy => 4,
            FaultKind::Kill => 5,
        }
    }
}

/// The operation class a fault query describes (the controller's view;
/// the plan folds busy/corruption checks into the matching classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A read command's block range.
    Read,
    /// A write command's block range.
    Write,
    /// A deallocate command's block range.
    Discard,
}

/// A fault pinned to exact coordinates: fires on accesses
/// `[at_access, at_access + repeats)` of `(kind, location)`, where the
/// location is the LBA (or, for [`FaultKind::Corruption`], the LBA's
/// segment — pass any LBA inside the segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    /// Which failure to inject.
    pub kind: FaultKind,
    /// The LBA the fault is pinned to.
    pub lba: u64,
    /// First access (0-based, per `(kind, location)`) that fails.
    pub at_access: u64,
    /// How many consecutive accesses fail (`u64::MAX` = permanent).
    pub repeats: u64,
}

/// A seed-replayable fault schedule: per-kind probabilities (parts per
/// million, evaluated per block access) plus scripted triggers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// Per-block read media-error probability (ppm).
    pub read_err_ppm: u32,
    /// Per-block write media-error probability (ppm).
    pub write_err_ppm: u32,
    /// Per-block discard media-error probability (ppm).
    pub discard_err_ppm: u32,
    /// Per-segment detected-corruption probability on reads (ppm).
    pub corruption_ppm: u32,
    /// Per-command device-busy probability (ppm).
    pub busy_ppm: u32,
    /// Latency penalty a busy rejection charges (ns); 0 selects
    /// [`DEFAULT_BUSY_PENALTY_NS`].
    pub busy_penalty_ns: u64,
    /// Explicit scripted triggers, evaluated before the probabilities.
    pub scripted: Vec<ScriptedFault>,
}

impl FaultConfig {
    /// Whether the plan can ever inject anything.
    pub fn is_empty(&self) -> bool {
        !self.rates().any() && self.scripted.is_empty()
    }

    /// The effective busy penalty.
    pub fn busy_penalty(&self) -> u64 {
        if self.busy_penalty_ns == 0 {
            DEFAULT_BUSY_PENALTY_NS
        } else {
            self.busy_penalty_ns
        }
    }

    /// The probability knobs as a live-tunable rate set.
    pub fn rates(&self) -> FaultRates {
        FaultRates {
            read_err_ppm: self.read_err_ppm,
            write_err_ppm: self.write_err_ppm,
            discard_err_ppm: self.discard_err_ppm,
            corruption_ppm: self.corruption_ppm,
            busy_ppm: self.busy_ppm,
        }
    }
}

/// The per-kind probability knobs of a [`FaultConfig`], separated out
/// so chaos drivers can retune a live plan between phases (escalating
/// storms, fault-clear windows) without rebuilding the stack. Scripted
/// triggers and the seed stay fixed for the plan's lifetime; only the
/// ppm rates move. Determinism is preserved as long as retunes happen
/// at deterministic points in the op stream (the access counters keep
/// advancing, so the same retune schedule replays the same faults).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Per-block read media-error probability (ppm).
    pub read_err_ppm: u32,
    /// Per-block write media-error probability (ppm).
    pub write_err_ppm: u32,
    /// Per-block discard media-error probability (ppm).
    pub discard_err_ppm: u32,
    /// Per-segment detected-corruption probability on reads (ppm).
    pub corruption_ppm: u32,
    /// Per-command device-busy probability (ppm).
    pub busy_ppm: u32,
}

impl FaultRates {
    /// Whether any probability is nonzero.
    pub fn any(&self) -> bool {
        self.read_err_ppm > 0
            || self.write_err_ppm > 0
            || self.discard_err_ppm > 0
            || self.corruption_ppm > 0
            || self.busy_ppm > 0
    }
}

/// One injected failure, as reported to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failure kind.
    pub kind: FaultKind,
    /// First affected LBA (segment-aligned for corruption).
    pub lba: u64,
    /// Latency penalty the command still pays (busy spikes only).
    pub penalty_ns: u64,
}

fdpcache_metrics::counters! {
    /// Monotonic injection counters, snapshotted for gate comparison.
    pub struct FaultTotals {
        /// Read media errors injected.
        pub read_errors: u64,
        /// Write media errors injected.
        pub write_errors: u64,
        /// Discard media errors injected.
        pub discard_errors: u64,
        /// Segment corruption errors injected.
        pub corruption_errors: u64,
        /// Busy rejections injected.
        pub busy_events: u64,
        /// Scripted kill points fired.
        pub kill_events: u64,
    }
    /// The plan's live totals, bumped by every injection.
    atomic struct AtomicTotals;
}

impl FaultTotals {
    /// Sum over every kind.
    pub fn total(&self) -> u64 {
        self.read_errors
            + self.write_errors
            + self.discard_errors
            + self.corruption_errors
            + self.busy_events
            + self.kill_events
    }
}

impl AtomicTotals {
    fn count(&self, kind: FaultKind) {
        let c = match kind {
            FaultKind::ReadError => &self.read_errors,
            FaultKind::WriteError => &self.write_errors,
            FaultKind::DiscardError => &self.discard_errors,
            FaultKind::Corruption => &self.corruption_errors,
            FaultKind::Busy => &self.busy_events,
            FaultKind::Kill => &self.kill_events,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// Lock shards for the per-location access counters (keyed by location,
/// so two namespaces — disjoint LBA ranges — never contend).
const COUNTER_SHARDS: u64 = 64;

/// splitmix64 finalizer over the decision coordinates.
#[inline]
fn decision_hash(seed: u64, kind: u64, id: u64, n: u64) -> u64 {
    let mut z = seed
        ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ id.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ n.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic schedule: configuration + per-location access
/// counters + injection totals. Thread-safe through `&self`.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    /// Whether anything (a scripted trigger or a live rate) can fire.
    /// Updated by [`FaultPlan::set_rates`]; a disabled plan's `inject`
    /// returns `None` before touching any counter.
    enabled: AtomicBool,
    /// Per-kind "a scripted trigger exists", indexed by
    /// [`FaultKind::idx`]. Fixed for the plan's lifetime.
    scripted_live: [bool; 6],
    /// Live per-kind ppm rates (the rated kinds, indices 0..=4; Kill
    /// has no probability knob). Retunable through `&self` so chaos
    /// drivers can phase rates mid-run. A kind with rate 0 and no
    /// scripted trigger skips its counter bumps entirely on the hot
    /// path — safe, because a kind that never fires has no observable
    /// schedule (and a retune schedule is itself part of the replayed
    /// plan).
    rates: [AtomicU32; 5],
    /// Access counters keyed by `(location << 3) | kind`, sharded by
    /// location so disjoint namespaces never contend.
    counters: Vec<Mutex<HashMap<u64, u64>>>,
    totals: AtomicTotals,
}

impl FaultPlan {
    /// Builds a plan from a configuration.
    pub fn new(config: FaultConfig) -> Self {
        let mut scripted_live = [false; 6];
        for s in &config.scripted {
            scripted_live[s.kind.idx() as usize] = true;
        }
        let rates = config.rates();
        let plan = FaultPlan {
            config,
            enabled: AtomicBool::new(false),
            scripted_live,
            rates: Default::default(),
            counters: (0..COUNTER_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            totals: AtomicTotals::default(),
        };
        plan.set_rates(rates);
        plan
    }

    /// The live ppm rate for `kind` (0 for Kill, which has no knob).
    #[inline]
    fn rate(&self, kind: FaultKind) -> u32 {
        let idx = kind.idx() as usize;
        if idx < self.rates.len() {
            self.rates[idx].load(Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Whether `kind` can currently fire (scripted trigger or live rate).
    #[inline]
    fn is_live(&self, kind: FaultKind) -> bool {
        self.scripted_live[kind.idx() as usize] || self.rate(kind) > 0
    }

    /// The plan's construction-time configuration. The probability
    /// knobs reflect the original values even after a retune; use
    /// [`FaultPlan::rates`] for the live set.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Snapshot of the live probability rates.
    pub fn rates(&self) -> FaultRates {
        FaultRates {
            read_err_ppm: self.rate(FaultKind::ReadError),
            write_err_ppm: self.rate(FaultKind::WriteError),
            discard_err_ppm: self.rate(FaultKind::DiscardError),
            corruption_ppm: self.rate(FaultKind::Corruption),
            busy_ppm: self.rate(FaultKind::Busy),
        }
    }

    /// Retunes the live probability rates (chaos phase changes). The
    /// seed, scripted triggers and access counters are untouched, so
    /// the same retune schedule applied at the same points in the op
    /// stream replays the same faults.
    pub fn set_rates(&self, rates: FaultRates) {
        for (kind, ppm) in [
            (FaultKind::ReadError, rates.read_err_ppm),
            (FaultKind::WriteError, rates.write_err_ppm),
            (FaultKind::DiscardError, rates.discard_err_ppm),
            (FaultKind::Corruption, rates.corruption_ppm),
            (FaultKind::Busy, rates.busy_ppm),
        ] {
            self.rates[kind.idx() as usize].store(ppm, Ordering::Relaxed);
        }
        let enabled = rates.any() || !self.config.scripted.is_empty();
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Snapshot of the injection totals.
    pub fn totals(&self) -> FaultTotals {
        self.totals.snapshot()
    }

    /// Bumps the access counter of `(kind, id)` and returns its value
    /// *before* the bump (the 0-based access ordinal).
    fn bump(&self, kind: FaultKind, id: u64) -> u64 {
        let key = (id << 3) | kind.idx();
        let shard = &self.counters[(id % COUNTER_SHARDS) as usize];
        let mut map = shard.lock();
        let slot = map.entry(key).or_insert(0);
        let n = *slot;
        *slot += 1;
        n
    }

    /// Whether access ordinal `n` of `(kind, id)` faults: scripted
    /// triggers first, then the seeded probability.
    fn fires(&self, kind: FaultKind, id: u64, n: u64, ppm: u32) -> bool {
        for s in &self.config.scripted {
            let sid = if s.kind == FaultKind::Corruption {
                s.lba / CORRUPTION_SEGMENT_BLOCKS
            } else {
                s.lba
            };
            if s.kind == kind && sid == id && n >= s.at_access && n - s.at_access < s.repeats {
                return true;
            }
        }
        ppm > 0 && decision_hash(self.config.seed, kind.idx(), id, n) % 1_000_000 < ppm as u64
    }

    /// Consults the schedule for one command covering `[lba, lba+nlb)`.
    /// Bumps the busy counter (per command), then the per-block counters
    /// of the op's error kind, then — for reads — the per-segment
    /// corruption counters, returning the first failure found. A plan
    /// with an empty configuration returns `None` without touching any
    /// counter.
    pub fn inject(&self, op: FaultOp, lba: u64, nlb: u64) -> Option<InjectedFault> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        // Scripted kill points come first: a crash pre-empts every other
        // failure mode, and it must fire before the command has any side
        // effect. Decided once per command on its start LBA; Kill has no
        // probability knob, so only scripted coordinates can trip it.
        if self.is_live(FaultKind::Kill) {
            let n = self.bump(FaultKind::Kill, lba);
            if self.fires(FaultKind::Kill, lba, n, 0) {
                self.totals.count(FaultKind::Kill);
                return Some(InjectedFault { kind: FaultKind::Kill, lba, penalty_ns: 0 });
            }
        }
        // Transient busy, decided once per command on its start LBA.
        if self.is_live(FaultKind::Busy) {
            let n = self.bump(FaultKind::Busy, lba);
            if self.fires(FaultKind::Busy, lba, n, self.rate(FaultKind::Busy)) {
                self.totals.count(FaultKind::Busy);
                return Some(InjectedFault {
                    kind: FaultKind::Busy,
                    lba,
                    penalty_ns: self.config.busy_penalty(),
                });
            }
        }
        let kind = match op {
            FaultOp::Read => FaultKind::ReadError,
            FaultOp::Write => FaultKind::WriteError,
            FaultOp::Discard => FaultKind::DiscardError,
        };
        let ppm = self.rate(kind);
        if self.is_live(kind) {
            if op == FaultOp::Discard {
                // DSM deallocate is a metadata command: one decision per
                // range, keyed by its start LBA (a whole-device TRIM
                // reset must not roll per block).
                let n = self.bump(kind, lba);
                if self.fires(kind, lba, n, ppm) {
                    self.totals.count(kind);
                    return Some(InjectedFault { kind, lba, penalty_ns: 0 });
                }
                return None;
            }
            for b in lba..lba + nlb {
                let n = self.bump(kind, b);
                if self.fires(kind, b, n, ppm) {
                    self.totals.count(kind);
                    return Some(InjectedFault { kind, lba: b, penalty_ns: 0 });
                }
            }
        }
        if op == FaultOp::Read && self.is_live(FaultKind::Corruption) {
            // Corruption decisions and scripted triggers key on the
            // *segment* (the whole allocation unit fails together), but
            // the access ordinal is kept per command start LBA:
            // segments can straddle namespace boundaries, and a shared
            // segment counter would make the schedule depend on how
            // worker threads interleave — breaking the thread-count
            // invariance the partitioned pool replays rely on. Same
            // (segment, ordinal) coordinates still hash identically,
            // so faults stay segment-correlated.
            let n = self.bump(FaultKind::Corruption, lba);
            let first = lba / CORRUPTION_SEGMENT_BLOCKS;
            let last = (lba + nlb - 1) / CORRUPTION_SEGMENT_BLOCKS;
            let ppm = self.rate(FaultKind::Corruption);
            for seg in first..=last {
                if self.fires(FaultKind::Corruption, seg, n, ppm) {
                    self.totals.count(FaultKind::Corruption);
                    return Some(InjectedFault {
                        kind: FaultKind::Corruption,
                        lba: seg * CORRUPTION_SEGMENT_BLOCKS,
                        penalty_ns: 0,
                    });
                }
            }
        }
        None
    }
}

/// The fault-injecting [`DataStore`] decorator: payload operations pass
/// through to the inner store untouched; the controller's
/// [`DataStore::fault`] queries are answered from the plan.
pub struct FaultStore {
    inner: Box<dyn DataStore>,
    plan: FaultPlan,
}

impl std::fmt::Debug for FaultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultStore").field("plan", &self.plan.config).finish()
    }
}

impl FaultStore {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: Box<dyn DataStore>, config: FaultConfig) -> Self {
        FaultStore { inner, plan: FaultPlan::new(config) }
    }

    /// Snapshot of the injection totals.
    pub fn totals(&self) -> FaultTotals {
        self.plan.totals()
    }

    /// The plan's live probability rates.
    pub fn rates(&self) -> FaultRates {
        self.plan.rates()
    }
}

impl DataStore for FaultStore {
    fn attach(&self, exported_lbas: u64, lba_bytes: u32) {
        self.inner.attach(exported_lbas, lba_bytes);
    }

    fn write_block(&self, lba: u64, data: &[u8]) {
        self.inner.write_block(lba, data);
    }

    fn read_block(&self, lba: u64, out: &mut [u8]) -> bool {
        self.inner.read_block(lba, out)
    }

    fn discard(&self, lba: u64) {
        self.inner.discard(lba);
    }

    fn retains_data(&self) -> bool {
        self.inner.retains_data()
    }

    fn write_blocks(&self, lba: u64, data: &[u8], block_bytes: usize) {
        self.inner.write_blocks(lba, data, block_bytes);
    }

    fn write_source(
        &self,
        lba: u64,
        nlb: u64,
        block_bytes: usize,
        source: &FillSource,
        base: usize,
    ) {
        self.inner.write_source(lba, nlb, block_bytes, source, base);
    }

    fn read_blocks(&self, lba: u64, out: &mut [u8], block_bytes: usize) {
        self.inner.read_blocks(lba, out, block_bytes);
    }

    fn discard_blocks(&self, lba: u64, count: u64) {
        self.inner.discard_blocks(lba, count);
    }

    fn fault(&self, op: FaultOp, lba: u64, nlb: u64) -> Option<InjectedFault> {
        self.plan.inject(op, lba, nlb)
    }

    fn fault_totals(&self) -> FaultTotals {
        self.plan.totals()
    }

    fn set_fault_rates(&self, rates: FaultRates) -> bool {
        self.plan.set_rates(rates);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datastore::MemStore;

    fn plan(config: FaultConfig) -> FaultPlan {
        FaultPlan::new(config)
    }

    #[test]
    fn empty_plan_never_fires_and_keeps_no_state() {
        let p = plan(FaultConfig::default());
        for lba in 0..1_000 {
            assert!(p.inject(FaultOp::Write, lba, 4).is_none());
        }
        assert_eq!(p.totals(), FaultTotals::default());
        assert!(p.counters.iter().all(|s| s.lock().is_empty()), "empty plan must not track");
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_history() {
        let cfg =
            FaultConfig { seed: 7, write_err_ppm: 50_000, busy_ppm: 10_000, ..Default::default() };
        let run = |cfg: &FaultConfig| -> Vec<Option<InjectedFault>> {
            let p = plan(cfg.clone());
            (0..500u64).map(|i| p.inject(FaultOp::Write, i % 64, 2)).collect()
        };
        assert_eq!(run(&cfg), run(&cfg), "same seed must replay the same schedule");
        let other = FaultConfig { seed: 8, ..cfg.clone() };
        assert_ne!(run(&cfg), run(&other), "different seeds must differ");
    }

    #[test]
    fn faults_are_transient_across_retries() {
        // A ppm-probability fault re-rolls on every access: find a
        // faulting access, then verify an immediate retry can pass
        // (the hash advances with the counter).
        let p = plan(FaultConfig { seed: 3, write_err_ppm: 200_000, ..Default::default() });
        let mut recovered = false;
        for lba in 0..256u64 {
            if p.inject(FaultOp::Write, lba, 1).is_some()
                && p.inject(FaultOp::Write, lba, 1).is_none()
            {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "at 20% ppm some faulting LBA must succeed on retry");
    }

    #[test]
    fn scripted_fault_fires_exactly_in_its_window() {
        let cfg = FaultConfig {
            scripted: vec![ScriptedFault {
                kind: FaultKind::WriteError,
                lba: 9,
                at_access: 1,
                repeats: 2,
            }],
            ..Default::default()
        };
        let p = plan(cfg);
        assert!(p.inject(FaultOp::Write, 9, 1).is_none(), "access 0 clean");
        assert_eq!(
            p.inject(FaultOp::Write, 9, 1),
            Some(InjectedFault { kind: FaultKind::WriteError, lba: 9, penalty_ns: 0 })
        );
        assert!(p.inject(FaultOp::Write, 9, 1).is_some(), "access 2 still faulting");
        assert!(p.inject(FaultOp::Write, 9, 1).is_none(), "window over");
        assert_eq!(p.totals().write_errors, 2);
    }

    #[test]
    fn permanent_bad_block_faults_forever() {
        let cfg = FaultConfig {
            scripted: vec![ScriptedFault {
                kind: FaultKind::ReadError,
                lba: 5,
                at_access: 0,
                repeats: u64::MAX,
            }],
            ..Default::default()
        };
        let p = plan(cfg);
        for _ in 0..32 {
            assert!(p.inject(FaultOp::Read, 5, 1).is_some());
        }
        // Other LBAs and kinds are untouched.
        assert!(p.inject(FaultOp::Read, 6, 1).is_none());
        assert!(p.inject(FaultOp::Write, 5, 1).is_none());
    }

    #[test]
    fn busy_fires_per_command_and_carries_its_penalty() {
        let cfg = FaultConfig { busy_ppm: 1_000_000, busy_penalty_ns: 777, ..Default::default() };
        let p = plan(cfg);
        let f = p.inject(FaultOp::Write, 0, 128).unwrap();
        assert_eq!(f.kind, FaultKind::Busy);
        assert_eq!(f.penalty_ns, 777);
        assert_eq!(p.totals().busy_events, 1, "one busy per command, not per block");
    }

    #[test]
    fn corruption_is_segment_granular_on_reads_only() {
        let cfg = FaultConfig {
            scripted: vec![ScriptedFault {
                kind: FaultKind::Corruption,
                lba: CORRUPTION_SEGMENT_BLOCKS + 17,
                at_access: 0,
                repeats: u64::MAX,
            }],
            ..Default::default()
        };
        let p = plan(cfg);
        // Writes in the segment do not trip corruption.
        assert!(p.inject(FaultOp::Write, CORRUPTION_SEGMENT_BLOCKS, 8).is_none());
        // Any read touching the segment does, reporting its base LBA.
        let f = p.inject(FaultOp::Read, CORRUPTION_SEGMENT_BLOCKS + 100, 4).unwrap();
        assert_eq!(f.kind, FaultKind::Corruption);
        assert_eq!(f.lba, CORRUPTION_SEGMENT_BLOCKS);
        // Reads confined to other segments pass.
        assert!(p.inject(FaultOp::Read, 0, 4).is_none());
    }

    #[test]
    fn kill_points_are_scripted_only_and_preempt_other_kinds() {
        let cfg = FaultConfig {
            busy_ppm: 1_000_000,
            scripted: vec![ScriptedFault {
                kind: FaultKind::Kill,
                lba: 4,
                at_access: 1,
                repeats: 1,
            }],
            ..Default::default()
        };
        let p = plan(cfg);
        // Access 0 of LBA 4 misses the kill window and falls through to
        // the (certain) busy roll.
        assert_eq!(p.inject(FaultOp::Write, 4, 1).unwrap().kind, FaultKind::Busy);
        // Access 1 is the scripted crash: it pre-empts the busy roll.
        let f = p.inject(FaultOp::Write, 4, 1).unwrap();
        assert_eq!(f.kind, FaultKind::Kill);
        assert_eq!(f.lba, 4);
        assert_eq!(p.totals().kill_events, 1);
        // Once spent, the schedule continues normally. The kill counter
        // is per command start LBA across all op classes, so the window
        // stays spent for reads too.
        assert_eq!(p.inject(FaultOp::Write, 4, 1).unwrap().kind, FaultKind::Busy);
        assert_ne!(p.inject(FaultOp::Read, 4, 1).map(|f| f.kind), Some(FaultKind::Kill));
    }

    #[test]
    fn live_rate_retune_phases_deterministically() {
        // A rate retune at a fixed point in the access stream must be
        // part of the replayed schedule: same phases → same faults.
        let run = || -> Vec<bool> {
            let p = plan(FaultConfig { seed: 11, ..Default::default() });
            let mut out = Vec::new();
            for i in 0..100u64 {
                out.push(p.inject(FaultOp::Write, i % 16, 1).is_some());
            }
            p.set_rates(FaultRates { write_err_ppm: 400_000, ..Default::default() });
            for i in 0..100u64 {
                out.push(p.inject(FaultOp::Write, i % 16, 1).is_some());
            }
            p.set_rates(FaultRates::default());
            for i in 0..100u64 {
                out.push(p.inject(FaultOp::Write, i % 16, 1).is_some());
            }
            out
        };
        let a = run();
        assert_eq!(a, run(), "retune schedule must replay bit-identically");
        assert!(a[..100].iter().all(|f| !f), "phase 1 is fault-free");
        assert!(a[100..200].iter().any(|f| *f), "storm phase must inject");
        assert!(a[200..].iter().all(|f| !f), "cleared phase is fault-free");
    }

    #[test]
    fn retuned_empty_plan_disables_and_reenables() {
        let p = plan(FaultConfig { seed: 2, write_err_ppm: 1_000_000, ..Default::default() });
        assert!(p.inject(FaultOp::Write, 0, 1).is_some());
        p.set_rates(FaultRates::default());
        assert!(p.inject(FaultOp::Write, 0, 1).is_none());
        assert_eq!(p.rates(), FaultRates::default());
        p.set_rates(FaultRates { write_err_ppm: 1_000_000, ..Default::default() });
        assert!(p.inject(FaultOp::Write, 0, 1).is_some());
    }

    #[test]
    fn fault_store_passes_payloads_through() {
        let s = FaultStore::new(
            Box::new(MemStore::new()),
            FaultConfig { seed: 1, read_err_ppm: 500_000, ..Default::default() },
        );
        s.write_block(3, &[9; 8]);
        let mut out = [0u8; 8];
        // Payload path is never blocked by the plan — only the
        // controller's explicit fault() queries are.
        assert!(s.read_block(3, &mut out));
        assert_eq!(out, [9; 8]);
        assert!(s.retains_data());
        s.discard(3);
        assert!(!s.read_block(3, &mut out));
    }

    #[test]
    fn totals_track_each_kind() {
        let cfg = FaultConfig {
            scripted: vec![
                ScriptedFault { kind: FaultKind::WriteError, lba: 1, at_access: 0, repeats: 1 },
                ScriptedFault { kind: FaultKind::DiscardError, lba: 2, at_access: 0, repeats: 1 },
            ],
            ..Default::default()
        };
        let p = plan(cfg);
        assert!(p.inject(FaultOp::Write, 1, 1).is_some());
        assert!(p.inject(FaultOp::Discard, 2, 1).is_some());
        let t = p.totals();
        assert_eq!((t.write_errors, t.discard_errors), (1, 1));
        assert_eq!(t.total(), 2);
    }
}
