//! End-to-end warm-restart integration: a scripted kill at every
//! crash point of a seal-heavy replay, followed by FTL + cache
//! recovery from on-flash evidence alone. The matrix asserts zero lost
//! acknowledged-and-sealed writes, zero resurrected deletes, and
//! bit-identical outcomes across same-seed reruns; the pool test adds
//! invariance to the worker-thread count (per-shard fault schedules
//! key on disjoint namespace LBA ranges); the sweep kills a short
//! trace at *every* device command and once more after each recovery.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use fdpcache::cache::builder::{
    build_cache, build_device, build_device_faulted, create_namespace, StoreKind,
};
use fdpcache::cache::layout::footer_header;
use fdpcache::cache::value::Value;
use fdpcache::cache::{
    CacheConfig, CacheStats, ConcurrentPool, GetOutcome, HybridCache, NvmConfig,
};
use fdpcache::ftl::FtlConfig;
use fdpcache::nvme::{
    Controller, DataStore, FaultConfig, FaultKind, FaultOp, FaultStore, InjectedFault, MemStore,
    NamespaceId, ScriptedFault,
};
use fdpcache::placement::{IoManager, RoundRobinPolicy};
use fdpcache::workloads::oracle::{reattach, Cache, CrashReport};
use fdpcache::workloads::{Op, Oracle, Request};

const BLOCK: u64 = 4096;

fn cache_config(ram_bytes: u64) -> CacheConfig {
    CacheConfig {
        ram_bytes,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * BLOCK, ..NvmConfig::default() },
        use_fdp: true,
    }
}

fn put(key: u64, size: u32) -> Request {
    Request { op: Op::Set, key, size }
}

fn get(key: u64) -> Request {
    Request { op: Op::Get, key, size: 0 }
}

fn delete(key: u64) -> Request {
    Request { op: Op::Delete, key, size: 0 }
}

/// Seal-heavy script, a pure function of the index (no RNG, so reruns
/// and worker partitions agree): a small-object prelude (so SOC buckets
/// persist entries before the first LOC seal — no crash point is
/// vacuous), then large LOC-bound puts every third op, a rotating small
/// SOC-bound working set, periodic deletes of older large keys, and
/// gets over both populations.
fn script(i: u64) -> Request {
    if i < 30 {
        return put(500_000 + i % 64, 90);
    }
    match i % 9 {
        0 | 3 | 6 => put(i, 12_000 + (i % 5) as u32 * 2_000),
        1 | 4 => put(500_000 + i % 64, 90),
        7 => delete((i / 9) * 3),
        2 | 5 => get((i / 3) * 3),
        _ => get(500_000 + i % 64),
    }
}

/// Serves one scripted request through the oracle; returns `false`
/// when the scripted kill fired (the op is unacknowledged). Panics on
/// any other error — a kill-only plan injects nothing recoverable.
fn apply<C: Cache + ?Sized>(cache: &mut C, req: Request, oracle: &mut Oracle) -> bool {
    match oracle.step(cache, req) {
        Ok(()) => true,
        Err(e) if e.is_kill() => false,
        Err(e) => panic!("non-kill error on {req:?}: {e}"),
    }
}

/// Everything one matrix run observes; two same-seed runs must be
/// equal in every field.
#[derive(Debug, PartialEq)]
struct MatrixOutcome {
    ops_before_crash: u64,
    crashed: bool,
    now_at_crash_ns: u64,
    persisted: BTreeSet<u64>,
    check: CrashReport,
    final_stats: CacheStats,
}

/// Replays the script against a stack armed with one kill, recovers at
/// the crash, verifies survivors and deletes, and finishes the script
/// on the recovered instance.
fn run_matrix_point(lba: u64, at_access: u64, ops: u64) -> MatrixOutcome {
    let fault = FaultConfig {
        scripted: vec![ScriptedFault { kind: FaultKind::Kill, lba, at_access, repeats: 1 }],
        ..Default::default()
    };
    let ctrl = build_device_faulted(FtlConfig::tiny_test(), StoreKind::Mem, true, fault).unwrap();
    let nsid = create_namespace(&ctrl, 0.9, vec![0, 1]).unwrap();
    let config = cache_config(1_000);
    let mut cache = build_cache(&ctrl, nsid, &config, Box::new(RoundRobinPolicy::new())).unwrap();

    let mut oracle = Oracle::new();
    let mut ops_done = 0u64;
    let mut crashed = false;
    for i in 0..ops {
        if apply(&mut cache, script(i), &mut oracle) {
            ops_done += 1;
        } else {
            crashed = true;
            break;
        }
    }
    let now_at_crash_ns = cache.now_ns();
    let persisted: BTreeSet<u64> = cache.persisted_keys().into_iter().collect();
    drop(cache);

    ctrl.recover_ftl();
    let mut cache = reattach(&ctrl, nsid, &config);
    cache.set_promote_on_nvm_hit(false);
    let recovered: BTreeSet<u64> = cache.persisted_keys().into_iter().collect();
    assert_eq!(recovered, persisted, "recovery must rebuild exactly the persisted set");
    // The interrupted op is checked like an unwritten one: no in-flight
    // allowance.
    let check = oracle.check_crash(&mut cache, &persisted).expect("verification read");
    cache.set_promote_on_nvm_hit(true);
    for i in (ops_done + u64::from(crashed))..ops {
        assert!(apply(&mut cache, script(i), &mut oracle), "kill is one-shot");
    }
    cache.drain_io();
    ctrl.with_ftl(|f| f.check_invariants());
    MatrixOutcome {
        ops_before_crash: ops_done,
        crashed,
        now_at_crash_ns,
        persisted,
        check,
        final_stats: cache.stats(),
    }
}

#[test]
fn crash_matrix_loses_nothing_and_replays_bit_identically() {
    // Crash coordinates probed from a fault-free twin of the stack:
    // the first payload write of LOC regions 0 and 2, region 0's
    // footer block, and a scripted small key's SOC bucket page.
    let ops = 600u64;
    let specs: Vec<(String, u64, u64)> = {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let nsid = create_namespace(&ctrl, 0.9, vec![0, 1]).unwrap();
        let cache =
            build_cache(&ctrl, nsid, &cache_config(1_000), Box::new(RoundRobinPolicy::new()))
                .unwrap();
        let start = ctrl.namespace(nsid).unwrap().start_lba;
        let loc = cache.navy().loc();
        let soc = cache.navy().soc();
        vec![
            ("loc_region0_payload".into(), start + loc.region_start_block(0), 0),
            ("loc_region2_payload".into(), start + loc.region_start_block(2), 0),
            ("loc_region0_footer".into(), start + loc.meta_start_block(0), 0),
            // The bucket's *second* access: its first write is the
            // first flash write of the whole replay, so killing it
            // would leave nothing persisted (a vacuous crash).
            ("soc_bucket".into(), start + soc.bucket_block(soc.bucket_index(500_000)), 1),
        ]
    };
    for (label, lba, at_access) in specs {
        let first = run_matrix_point(lba, at_access, ops);
        assert!(first.crashed, "{label}: kill never fired — vacuous crash point");
        assert!(first.ops_before_crash < ops, "{label}: crash must interrupt the replay");
        assert!(!first.persisted.is_empty(), "{label}: nothing persisted before the kill");
        let c = &first.check;
        assert_eq!(c.persisted.checked, first.persisted.len() as u64, "{label}: unchecked keys");
        assert_eq!(c.persisted.violations, [], "{label}: lost acknowledged-and-sealed writes");
        assert_eq!(c.deleted.violations, [], "{label}: acknowledged deletes resurrected");
        let rerun = run_matrix_point(lba, at_access, ops);
        assert_eq!(first, rerun, "{label}: crash + recovery diverged across reruns");
    }
}

/// Write-amplification accounting across the crash boundary: recovered
/// engines report **zero** application bytes (rebuilding an index is
/// not application traffic — recounting survivors would deflate ALWA),
/// every ratio denominator degrades to its identity value on the fresh
/// instance, and the device-level identity `nand = host + relocated`
/// survives crash + recovery and keeps holding as the recovered
/// instance takes writes.
#[test]
fn recovered_engines_report_zero_app_bytes_and_wa_identities_hold() {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
    let nsid = create_namespace(&ctrl, 0.9, vec![0, 1]).unwrap();
    let config = cache_config(1_000);
    let mut cache = build_cache(&ctrl, nsid, &config, Box::new(RoundRobinPolicy::new())).unwrap();
    let mut oracle = Oracle::new();
    for i in 0..300 {
        assert!(apply(&mut cache, script(i), &mut oracle));
    }
    cache.drain_io();
    let (dev_before, app_before) = cache.amp_bytes();
    assert!(app_before > 0 && dev_before >= app_before);
    drop(cache); // the crash

    ctrl.recover_ftl();
    // The FTL's lifetime counters survive in the device (they are the
    // device's own bookkeeping); the identity must hold right after
    // mapping reconstruction.
    ctrl.with_ftl(|f| f.check_invariants());
    let mut cache = reattach(&ctrl, nsid, &config);
    // Host-side counters do NOT survive: the recovered engines start
    // from zero and every ratio sits at its identity value.
    let (dev, app) = cache.amp_bytes();
    assert_eq!(app, 0, "recovered engines must not recount survivors as app bytes");
    assert_eq!(dev, 0, "recovery reads must not count as device writes");
    assert_eq!(cache.alwa(), 1.0, "zero app bytes must degrade ALWA to 1.0, not NaN");
    let fresh = cache.stats();
    assert_eq!((fresh.gets, fresh.puts, fresh.nvm_app_bytes), (0, 0, 0));
    assert_eq!(fresh.hit_ratio(), 0.0);
    assert_eq!(fresh.ram_hit_ratio(), 0.0);
    // Post-recovery traffic rebuilds the ratios from clean denominators
    // and the device identity keeps holding.
    for i in 300..600 {
        assert!(apply(&mut cache, script(i), &mut oracle));
    }
    cache.drain_io();
    let (dev, app) = cache.amp_bytes();
    assert!(app > 0, "continuation must write app bytes");
    let alwa = cache.alwa();
    assert!(alwa >= 1.0 && alwa.is_finite(), "post-recovery ALWA broken: {alwa}");
    assert!(
        (alwa - dev as f64 / app as f64).abs() < 1e-9,
        "ALWA must be dev/app over the \
         recovered instance's own traffic"
    );
    ctrl.with_ftl(|f| {
        f.check_invariants();
        assert!(f.stats().dlwa() >= 1.0);
    });
}

/// Per-shard observables of one pool crash run; equal across reruns
/// *and* worker counts.
#[derive(Debug, PartialEq)]
struct ShardOutcome {
    ops_done: u64,
    crashed: bool,
    persisted: BTreeSet<u64>,
    check: CrashReport,
}

/// Partitions the script by owning shard, replays each shard's
/// sub-trace on `workers` threads (a shard is owned by one worker, so
/// per-shard op order never depends on the thread count), crashes
/// shard 0 at its first LOC region write, recovers the pool from the
/// surviving namespaces, and verifies every shard.
fn run_pool_crash(workers: usize, ops: u64, crash_lba: u64) -> Vec<ShardOutcome> {
    let fault = FaultConfig {
        scripted: vec![ScriptedFault {
            kind: FaultKind::Kill,
            lba: crash_lba,
            at_access: 0,
            repeats: 1,
        }],
        ..Default::default()
    };
    let ctrl = build_device_faulted(FtlConfig::tiny_test(), StoreKind::Mem, true, fault).unwrap();
    let config = cache_config(2_000);
    let pool =
        ConcurrentPool::new(&ctrl, &config, 2, 0.9, || Box::new(RoundRobinPolicy::new())).unwrap();
    let shards = pool.shards();
    // Shard-owned sub-traces, in trace order.
    let mut subtraces: Vec<Vec<Request>> = vec![Vec::new(); shards];
    for i in 0..ops {
        let req = script(i);
        subtraces[pool.shard_of(req.key)].push(req);
    }

    // Each worker replays the shards it owns; a kill stops only the
    // owning shard's stream (the simulated blast radius of the crash —
    // every shard's flash state is a pure function of its sub-trace).
    let results: Vec<(u64, bool, Oracle)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mut pool = &pool;
                let subtraces = &subtraces;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for s in (0..shards).filter(|s| s % workers == w) {
                        let mut oracle = Oracle::new();
                        let mut done = 0u64;
                        let mut crashed = false;
                        for &req in &subtraces[s] {
                            if apply(&mut pool, req, &mut oracle) {
                                done += 1;
                            } else {
                                crashed = true;
                                break;
                            }
                        }
                        out.push((s, (done, crashed, oracle)));
                    }
                    out
                })
            })
            .collect();
        let mut merged: Vec<Option<(u64, bool, Oracle)>> = (0..shards).map(|_| None).collect();
        for h in handles {
            for (s, r) in h.join().unwrap() {
                merged[s] = Some(r);
            }
        }
        merged.into_iter().map(Option::unwrap).collect()
    });

    let persisted: Vec<BTreeSet<u64>> = (0..shards)
        .map(|s| pool.with_shard(s, |c| c.persisted_keys().into_iter().collect()).unwrap())
        .collect();
    drop(pool);

    ctrl.recover_ftl();
    let recovered =
        ConcurrentPool::recover(&ctrl, &config, &[1, 2], || Box::new(RoundRobinPolicy::new()))
            .unwrap();
    recovered.set_promote_on_nvm_hit(false);
    (0..shards)
        .map(|s| {
            let (done, crashed, oracle) = &results[s];
            let got: BTreeSet<u64> =
                recovered.with_shard(s, |c| c.persisted_keys().into_iter().collect()).unwrap();
            assert_eq!(got, persisted[s], "shard {s}: recovered persisted set diverged");
            let check =
                oracle.check_crash(&mut &recovered, &persisted[s]).expect("verification read");
            ShardOutcome {
                ops_done: *done,
                crashed: *crashed,
                persisted: persisted[s].clone(),
                check,
            }
        })
        .collect()
}

#[test]
fn pool_crash_recovery_is_worker_count_invariant() {
    let ops = 400u64;
    // Shard 0's first LOC region write, from a fault-free twin.
    let crash_lba = {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
        let config = cache_config(2_000);
        let pool =
            ConcurrentPool::new(&ctrl, &config, 2, 0.9, || Box::new(RoundRobinPolicy::new()))
                .unwrap();
        let block = pool.with_shard(0, |c| c.navy().loc().region_start_block(0)).unwrap();
        ctrl.namespace(1).unwrap().start_lba + block
    };
    let single = run_pool_crash(1, ops, crash_lba);
    assert!(single[0].crashed, "shard 0's kill never fired — vacuous crash point");
    for (s, o) in single.iter().enumerate() {
        assert!(!o.persisted.is_empty(), "shard {s}: nothing persisted");
        assert_eq!(o.check.persisted.checked, o.persisted.len() as u64, "shard {s}: unchecked");
        assert_eq!(
            o.check.persisted.violations,
            [],
            "shard {s}: lost acknowledged-and-sealed writes"
        );
        assert_eq!(o.check.deleted.violations, [], "shard {s}: resurrected deletes");
    }
    assert!(!single[1].crashed, "the crash must be confined to shard 0's stream");
    let rerun = run_pool_crash(1, ops, crash_lba);
    assert_eq!(single, rerun, "pool crash + recovery diverged across reruns");
    let two = run_pool_crash(2, ops, crash_lba);
    assert_eq!(single, two, "pool crash + recovery must not depend on the worker count");
}

// ---------------------------------------------------------------------
// Exhaustive crash sweep: a kill at every device command of a short
// trace, and a second kill during each post-recovery run.
// ---------------------------------------------------------------------

/// 512 KiB regions: two-block footer slots, 253 entries to a block.
const SWEEP_REGION_BLOCKS: u64 = 128;

/// Objects of 1 KiB and up go to the LOC, so one region can collect
/// more entries than a footer block lists.
fn sweep_config() -> CacheConfig {
    CacheConfig {
        ram_bytes: 1_000,
        ram_item_overhead: 0,
        nvm: NvmConfig {
            soc_fraction: 0.1,
            region_bytes: SWEEP_REGION_BLOCKS * BLOCK,
            size_threshold: 1024,
            ..NvmConfig::default()
        },
        use_fdp: true,
    }
}

const SWEEP_OPS: u64 = 460;

/// The sweep's trace: a small-object prelude (SOC pages persist before
/// the first seal), 300 LOC objects of 1100 bytes that seal together
/// under one two-block footer, then 120 KB objects that roll the LOC
/// through every region and into eviction, interleaved with overwrites
/// of sealed keys, deletes of sealed keys (from the long footer too),
/// SOC traffic and reads of both engines.
fn sweep_script(i: u64) -> Request {
    const SMALL: u64 = 500_000;
    match i {
        0..=39 => put(SMALL + i % 24, 90),
        40..=339 => put(1_000 + (i - 40), 1_100),
        _ => {
            let j = i - 340;
            let big = 2_000 + j / 4;
            match j % 12 {
                0 | 4 | 8 => put(big, 120_000 + (j % 5) as u32 * 1_000),
                // Overwrite a key sealed a couple of regions back.
                1 => put(2_000 + (j / 4).saturating_sub(9), 130_000),
                2 | 6 | 10 => put(SMALL + j % 24, 90),
                // Delete out of the long footer, then out of a short one.
                3 => delete(1_000 + j / 12),
                7 => delete(2_000 + (j / 4).saturating_sub(5)),
                5 => get(2_000 + (j / 4).saturating_sub(2)),
                9 => get(1_150 + j / 12),
                _ => get(SMALL + (j + 7) % 24),
            }
        }
    }
}

/// The footer format through the whole stack: a region with more
/// entries than one footer block lists seals under a two-block footer,
/// deletes rewrite it shorter as its table shrinks, and recovery reads
/// the one live block — not the stale second block behind it.
#[test]
fn long_footer_shrinks_with_deletes_and_recovers_whole() {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
    let nsid = create_namespace(&ctrl, 0.45, vec![0, 1, 2]).unwrap();
    let config = sweep_config();
    let mut cache = build_cache(&ctrl, nsid, &config, Box::new(RoundRobinPolicy::new())).unwrap();
    for k in 1_000..1_300u64 {
        cache.put(k, Value::synthetic(1_100)).unwrap();
    }
    cache.put(5_000, Value::synthetic(120_000)).unwrap();
    cache.put(5_001, Value::synthetic(120_000)).unwrap(); // seals the region: 301 entries
    let footer_blocks = |c: &HybridCache| c.navy().loc().stats().footer_blocks_written;
    assert_eq!((cache.navy().loc().stats().seals, footer_blocks(&cache)), (1, 2));
    // 301 → 253 entries: every rewrite but the last still needs two blocks.
    for k in 1_000..1_048u64 {
        let before = footer_blocks(&cache);
        assert!(cache.delete(k).unwrap());
        let expect = if k < 1_047 { 2 } else { 1 };
        assert_eq!(footer_blocks(&cache) - before, expect, "delete {k}");
    }
    drop(cache); // the crash

    ctrl.recover_ftl();
    let mut cache = reattach(&ctrl, nsid, &config);
    let recovered: BTreeSet<u64> = cache.persisted_keys().into_iter().collect();
    let expected: BTreeSet<u64> = (1_048..1_300).chain([5_000]).collect();
    assert_eq!(recovered, expected);
    for &k in &expected {
        let (_, v) = cache.get(k).unwrap();
        let v = v.unwrap_or_else(|| panic!("sealed key {k} lost"));
        assert!(v.to_bytes(k) == Value::synthetic(v.len() as u32).to_bytes(k), "key {k} mangled");
    }
    for k in 1_000..1_048u64 {
        assert_eq!(cache.get(k).unwrap().0, GetOutcome::Miss, "deleted key {k} resurrected");
    }
}

/// A [`FaultStore`] that also logs the start LBA of every command the
/// controller gates — the coordinates scripted kills are keyed on.
struct CommandLog {
    inner: FaultStore,
    starts: Arc<Mutex<Vec<u64>>>,
}

impl DataStore for CommandLog {
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
    fn read_blocks(&self, lba: u64, out: &mut [u8], block_bytes: usize) {
        self.inner.read_blocks(lba, out, block_bytes);
    }
    fn discard_blocks(&self, lba: u64, count: u64) {
        self.inner.discard_blocks(lba, count);
    }
    fn fault(&self, op: FaultOp, lba: u64, nlb: u64) -> Option<InjectedFault> {
        self.starts.lock().unwrap().push(lba);
        self.inner.fault(op, lba, nlb)
    }
}

/// The scripted kill that fires at command `index` of `log`: kills key
/// on a command's start LBA and how many commands started there before.
fn kill_at(log: &[u64], index: usize) -> ScriptedFault {
    let lba = log[index];
    let at_access = log[..index].iter().filter(|&&l| l == lba).count() as u64;
    ScriptedFault { kind: FaultKind::Kill, lba, at_access, repeats: 1 }
}

/// Seal sequence in the first footer block of every region slot that
/// holds a footer, read straight off the device.
fn footer_seqs(ctrl: &Arc<Controller>, nsid: NamespaceId, cache: &HybridCache) -> Vec<(u32, u64)> {
    let mut io = IoManager::new(ctrl.clone(), nsid, 1).unwrap();
    let loc = cache.navy().loc();
    let mut page = vec![0u8; BLOCK as usize];
    (0..loc.num_regions())
        .filter_map(|r| {
            io.read(loc.meta_start_block(r), &mut page).ok()?;
            footer_header(r, 0, &page).ok().map(|h| (r, h.seq))
        })
        .collect()
}

/// One crash of the sweep: everything after it is checked against the
/// oracle.
struct Crash {
    /// Index of the op the kill interrupted.
    op: u64,
    /// Keys the engines held sealed when the kill fired.
    persisted: BTreeSet<u64>,
}

/// Replays ops `from..` until the trace ends or a kill fires.
fn replay(cache: &mut HybridCache, from: u64, oracle: &mut Oracle) -> Option<Crash> {
    for i in from..SWEEP_OPS {
        if !apply(cache, sweep_script(i), oracle) {
            return Some(Crash { op: i, persisted: cache.persisted_keys().into_iter().collect() });
        }
    }
    None
}

/// Recovers after `crash` and checks the oracle's crash contract:
/// nothing the engines held sealed is lost or mangled, and no
/// acknowledged delete comes back. The interrupted op was never
/// acknowledged, so its key may read either way. The device's own books
/// must balance too.
fn recover_and_check(
    ctrl: &Arc<Controller>,
    nsid: NamespaceId,
    crash: &Crash,
    oracle: &mut Oracle,
    at: &str,
) -> HybridCache {
    ctrl.recover_ftl();
    ctrl.with_ftl(|f| f.check_invariants());
    let mut cache = reattach(ctrl, nsid, &sweep_config());
    cache.set_promote_on_nvm_hit(false);
    oracle.crash(Some(sweep_script(crash.op)));
    let check = oracle.check_crash(&mut cache, &crash.persisted).expect("verification read");
    assert_eq!(check.persisted.checked, crash.persisted.len() as u64, "{at}: unchecked keys");
    let broken: Vec<String> = check
        .persisted
        .violations
        .iter()
        .chain(&check.deleted.violations)
        .map(|v| v.to_string())
        .collect();
    assert!(broken.is_empty(), "{at}: crash contract broken: {}", broken.join("; "));
    cache.set_promote_on_nvm_hit(true);
    cache
}

/// Footers written since `before` must carry sequences above everything
/// that was on flash then, and no two slots may share one.
fn assert_seal_chain_monotone(before: &[(u32, u64)], after: &[(u32, u64)], at: &str) {
    let high_water = before.iter().map(|&(_, s)| s).max().unwrap_or(0);
    for &(region, seq) in after {
        if !before.contains(&(region, seq)) {
            assert!(seq > high_water, "{at}: region {region} sealed under reissued sequence {seq}");
        }
    }
    let distinct: BTreeSet<u64> = after.iter().map(|&(_, s)| s).collect();
    assert_eq!(distinct.len(), after.len(), "{at}: two footers share a seal sequence");
}

/// What one armed run of the sweep's trace saw.
struct SweepRun {
    /// Start LBA of every device command, in issue order.
    log: Vec<u64>,
    /// How many kills fired.
    crashes: usize,
    /// Length of `log` when the trace resumed after the first recovery.
    resumed_at: usize,
}

/// Builds the sweep's stack with `kills` armed and replays the whole
/// trace, recovering and checking at every crash they cause.
fn run_sweep(kills: Vec<ScriptedFault>, at: &str) -> SweepRun {
    let starts = Arc::new(Mutex::new(Vec::new()));
    let fault = FaultConfig { scripted: kills, ..Default::default() };
    let store = CommandLog {
        inner: FaultStore::new(Box::new(MemStore::new()), fault),
        starts: Arc::clone(&starts),
    };
    let ctrl = Arc::new(Controller::new(FtlConfig::tiny_test(), Box::new(store)).unwrap());
    ctrl.set_fdp_enabled(true);
    // Four LOC regions, so the trace wraps the log; three handles:
    // SOC, LOC and one left free for the footers.
    let nsid = create_namespace(&ctrl, 0.45, vec![0, 1, 2]).unwrap();
    let mut cache =
        build_cache(&ctrl, nsid, &sweep_config(), Box::new(RoundRobinPolicy::new())).unwrap();
    assert_ne!(cache.navy().loc().meta_handle(), cache.navy().loc().handle());

    let mut oracle = Oracle::new();
    let mut run = SweepRun { log: Vec::new(), crashes: 0, resumed_at: 0 };
    let mut from = 0;
    // Footers on flash when the last recovery finished.
    let mut recovered_footers: Option<Vec<(u32, u64)>> = None;
    loop {
        let crash = replay(&mut cache, from, &mut oracle);
        // Reads the checks themselves issue are no crash points.
        run.log = starts.lock().unwrap().clone();
        if let Some(before) = recovered_footers.take() {
            assert_seal_chain_monotone(&before, &footer_seqs(&ctrl, nsid, &cache), at);
        }
        let Some(crash) = crash else { break };
        run.crashes += 1;
        let at =
            format!("{at}: crash {} in op {} {:?}", run.crashes, crash.op, sweep_script(crash.op));
        drop(cache);
        cache = recover_and_check(&ctrl, nsid, &crash, &mut oracle, &at);
        recovered_footers = Some(footer_seqs(&ctrl, nsid, &cache));
        from = crash.op + 1;
        if run.crashes == 1 {
            run.resumed_at = starts.lock().unwrap().len();
        }
    }
    cache.drain_io();
    ctrl.with_ftl(|f| f.check_invariants());
    if run.crashes == 0 {
        // The trace does what the sweep is for: it wraps the LOC,
        // deletes sealed keys and writes footers longer than a block.
        let loc = cache.navy().loc().stats();
        assert!(loc.seals >= 8 && loc.region_evictions >= 4 && loc.removes >= 8, "{loc:?}");
        assert!(loc.footer_blocks_written > loc.seals + loc.footer_rewrites, "{loc:?}");
    }
    run
}

/// ROADMAP 1(c): a `Kill` at every device command index of the trace;
/// recover; kill once more somewhere in the post-recovery run; recover
/// again; finish the trace. At every crash: zero lost
/// acknowledged-and-sealed writes, zero resurrected deletes, a monotone
/// seal-sequence chain and `Ftl::check_invariants`.
#[test]
fn crash_sweep_at_every_device_command_loses_nothing() {
    let twin = run_sweep(Vec::new(), "fault-free twin");
    assert_eq!(twin.crashes, 0);
    assert!(twin.log.len() >= 150, "{} commands is no sweep", twin.log.len());
    let mut second_kills = 0;
    for index in 0..twin.log.len() {
        let first = kill_at(&twin.log, index);
        let at = format!("kill at command {index}");
        // Pass one arms the single kill; its log names the commands of
        // the post-recovery run, one of which pass two kills as well.
        let once = run_sweep(vec![first], &at);
        assert_eq!(once.crashes, 1, "{at}: kill never fired");
        let resumed = once.log.len() - once.resumed_at;
        if resumed == 0 {
            continue; // the trace's last command: nothing left to kill
        }
        let second = kill_at(&once.log, once.resumed_at + (index * 7) % resumed);
        let at = format!("{at} and again at lba {} access {}", second.lba, second.at_access);
        let twice = run_sweep(vec![first, second], &at);
        assert_eq!(twice.crashes, 2, "{at}: second kill never fired");
        second_kills += 1;
    }
    assert!(second_kills >= twin.log.len() - 2);
}
