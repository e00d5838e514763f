//! Concurrency battery for the lock-free DRAM-hit read path.
//!
//! Three layers of assurance, mirroring DESIGN.md §5.1a:
//!
//! 1. **Model checking** — proptest drives get/put/delete sequences
//!    through [`ConcurrentPool`] (the lock-free probe live on every
//!    get) and compares every observation against a single-threaded
//!    reference map.
//! 2. **Multi-threaded stress** — self-validating versioned payloads
//!    catch torn reads, stale reads after a completed put/delete, and
//!    per-reader version regressions (the single-key linearizability
//!    contract).
//! 3. **Reclamation safety** — hot-key churn with concurrent readers
//!    must neither free memory a reader can still see (checksummed
//!    payloads would tear) nor leak it (the retire backlog drains to
//!    zero once readers quiesce).
//!
//! Payload format used by the stress tests: 24 bytes encoding
//! `(key, version, key ^ version)`. Any interleaving of two values —
//! a torn read — fails the checksum; a reclamation bug that hands a
//! reader freed/reused memory fails it too.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fdpcache_cache::builder::{build_device, StoreKind};
use fdpcache_cache::cache::HOST_OP_NS;
use fdpcache_cache::config::{CacheConfig, NvmConfig};
use fdpcache_cache::ram::RamCache;
use fdpcache_cache::value::Value;
use fdpcache_cache::{ConcurrentPool, GetOutcome, ReadSideStats};
use fdpcache_core::RoundRobinPolicy;
use fdpcache_ftl::FtlConfig;
use proptest::prelude::*;

/// A pool whose DRAM tier comfortably holds every key the tests touch,
/// so lock-free index hits — not flash fallbacks — are what's under
/// test.
fn dram_pool(shards: usize) -> ConcurrentPool {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
    let config = CacheConfig {
        ram_bytes: 1 << 20,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    };
    ConcurrentPool::new(&ctrl, &config, shards, 0.9, || Box::new(RoundRobinPolicy::new())).unwrap()
}

fn encode(key: u64, version: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(key ^ version).to_le_bytes());
    out
}

/// Decodes a payload, panicking on any torn/corrupt read.
fn decode(value: &Value) -> (u64, u64) {
    let bytes = value.as_real().expect("stress payloads are real bytes");
    assert_eq!(bytes.len(), 24, "payload truncated: {} bytes", bytes.len());
    let word = |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
    let (key, version, check) = (word(0), word(1), word(2));
    assert_eq!(key ^ version, check, "torn read: key {key} version {version} check {check:#x}");
    (key, version)
}

/// One step of the model check; `PutCurrent` SETs the value the key
/// already holds, if it holds one.
#[derive(Debug, Clone)]
enum PoolOp {
    Put { key: u8, size: u16 },
    PutCurrent { key: u8 },
    Get { key: u8 },
    Delete { key: u8 },
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (any::<u8>(), 1..512u16).prop_map(|(key, size)| PoolOp::Put { key, size }),
        any::<u8>().prop_map(|key| PoolOp::PutCurrent { key }),
        any::<u8>().prop_map(|key| PoolOp::Get { key }),
        any::<u8>().prop_map(|key| PoolOp::Delete { key }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pool with the lock-free read path live behaves identically
    /// to a reference map: every get (lock-free *and* locked baseline)
    /// observes exactly the surviving puts, deletes report presence
    /// truthfully, and a DRAM-resident key always answers as a RAM hit.
    /// Odd sizes are real payloads, so a SET of a key's current value
    /// hands the pool the buffer it already holds; even ones synthetic.
    #[test]
    fn pool_matches_reference_model(
        ops in prop::collection::vec(pool_op(), 1..150),
        shards in 1usize..=4,
    ) {
        let pool = dram_pool(shards);
        let mut model: std::collections::HashMap<u64, Value> = Default::default();
        for op in ops {
            match op {
                PoolOp::Put { key, size } => {
                    let value = if size % 2 == 1 {
                        Value::real(vec![key; size as usize])
                    } else {
                        Value::synthetic(size as u32)
                    };
                    pool.put(key as u64, value.clone()).unwrap();
                    model.insert(key as u64, value);
                }
                PoolOp::PutCurrent { key } => {
                    if let Some(value) = model.get(&(key as u64)) {
                        pool.put(key as u64, value.clone()).unwrap();
                    }
                    // Still published, and both paths read the value.
                    let (outcome, got) = pool.get(key as u64).unwrap();
                    let (_, locked_got) = pool.get_locked(key as u64).unwrap();
                    let expected = model.get(&(key as u64));
                    prop_assert_eq!(got.as_ref(), expected);
                    prop_assert_eq!(locked_got.as_ref(), expected);
                    if expected.is_some() {
                        prop_assert_eq!(outcome, GetOutcome::RamHit);
                    }
                }
                PoolOp::Get { key } => {
                    let (outcome, got) = pool.get(key as u64).unwrap();
                    let (locked_outcome, locked_got) = pool.get_locked(key as u64).unwrap();
                    let expected = model.get(&(key as u64));
                    prop_assert_eq!(got.as_ref(), expected);
                    prop_assert_eq!(locked_got.as_ref(), expected);
                    // Nothing evicts at this scale, so presence means a
                    // DRAM hit on both paths.
                    if expected.is_some() {
                        prop_assert_eq!(outcome, GetOutcome::RamHit);
                        prop_assert_eq!(locked_outcome, GetOutcome::RamHit);
                    } else {
                        prop_assert_eq!(outcome, GetOutcome::Miss);
                    }
                }
                PoolOp::Delete { key } => {
                    let deleted = pool.delete(key as u64).unwrap();
                    prop_assert_eq!(deleted, model.remove(&(key as u64)).is_some());
                    // Unpublished immediately: the lock-free probe must
                    // never resurrect the key.
                    prop_assert!(pool.get(key as u64).unwrap().1.is_none());
                }
            }
        }
        // Final sweep: the index agrees with the model on every key.
        for key in 0..=u8::MAX {
            let expected = model.get(&(key as u64));
            prop_assert_eq!(pool.get(key as u64).unwrap().1.as_ref(), expected);
        }
    }

    /// The DRAM budget holds after every `put`, whichever residents
    /// lock-free readers flagged in between: second chances reorder
    /// eviction, they never excuse it.
    #[test]
    fn ram_budget_holds_with_interleaved_lock_free_gets(
        ops in prop::collection::vec((any::<bool>(), 0..12u64, 1..100u32), 1..200),
    ) {
        let mut ram = RamCache::new(100, 0);
        for (is_put, key, size) in ops {
            if is_put {
                ram.put(key, Value::synthetic(size));
                prop_assert!(
                    ram.used_bytes() <= ram.capacity_bytes(),
                    "{} bytes resident after put({}, {})", ram.used_bytes(), key, size
                );
                ram.check_invariants();
            } else {
                ram.read_index().get(key);
            }
        }
    }
}

/// Writers overwrite disjoint hot-key sets with strictly increasing
/// versions while readers hammer the lock-free path. Versioned,
/// checksummed payloads assert:
///
/// * no torn reads (checksum),
/// * no stale reads — a reader that saw `floor[key] = f` *before* its
///   get must observe version ≥ f (the put of version f completed
///   before the get began),
/// * per-reader monotonicity — versions of one key never go backward
///   within one thread (single-key linearizability).
#[test]
fn concurrent_readers_never_see_torn_or_stale_values() {
    const WRITERS: usize = 2;
    const KEYS_PER_WRITER: u64 = 8;
    const ROUNDS: u64 = 4_000;
    const READERS: usize = 4;
    let keys = WRITERS as u64 * KEYS_PER_WRITER;

    let pool = dram_pool(2);
    let floor: Vec<AtomicU64> = (0..keys).map(|_| AtomicU64::new(0)).collect();
    // Version 1 of every key published before any reader starts.
    for key in 0..keys {
        pool.put(key, Value::real(encode(key, 1))).unwrap();
        floor[key as usize].store(1, Ordering::SeqCst);
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (pool, floor, done) = (&pool, &floor, &done);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let key = w as u64 * KEYS_PER_WRITER + (round % KEYS_PER_WRITER);
                    let version = 2 + round / KEYS_PER_WRITER;
                    pool.put(key, Value::real(encode(key, version))).unwrap();
                    // Published: every get starting after this store
                    // must observe at least `version`.
                    floor[key as usize].store(version, Ordering::SeqCst);
                }
                if w == 0 {
                    done.store(true, Ordering::SeqCst);
                }
            });
        }
        for _ in 0..READERS {
            let (pool, floor, done) = (&pool, &floor, &done);
            scope.spawn(move || {
                let mut last_seen = vec![0u64; keys as usize];
                let mut round = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let key = round % keys;
                    round += 1;
                    let f = floor[key as usize].load(Ordering::SeqCst);
                    let (_, value) = pool.get(key).unwrap();
                    let value = value.expect("hot keys are never deleted");
                    let (got_key, got_version) = decode(&value);
                    assert_eq!(got_key, key, "index returned the wrong key's payload");
                    assert!(
                        got_version >= f,
                        "stale read: key {key} version {got_version} < floor {f}"
                    );
                    assert!(
                        got_version >= last_seen[key as usize],
                        "version went backward: key {key} {got_version} < {}",
                        last_seen[key as usize]
                    );
                    last_seen[key as usize] = got_version;
                }
            });
        }
    });
}

/// A deleted key stays dead: once a delete completes, no reader may
/// observe the deleted version again — the index must not resurrect
/// unlinked nodes. Versions are unique across rounds, so seeing the
/// deleted round's version after its delete completed is unambiguous
/// proof of resurrection.
#[test]
fn deleted_keys_never_resurrect() {
    const ROUNDS: u64 = 2_000;
    const READERS: usize = 3;
    const KEY: u64 = 7;
    // state = version << 1 | alive; writers publish AFTER the matching
    // pool call returns, so a reader that loads `state` before its get
    // holds a completed-operation witness.
    let state = AtomicU64::new(0);
    let pool = dram_pool(1);
    std::thread::scope(|scope| {
        let (pool, state) = (&pool, &state);
        scope.spawn(move || {
            for version in 1..=ROUNDS {
                pool.put(KEY, Value::real(encode(KEY, version))).unwrap();
                state.store(version << 1 | 1, Ordering::SeqCst);
                pool.delete(KEY).unwrap();
                state.store(version << 1, Ordering::SeqCst);
            }
        });
        for _ in 0..READERS {
            scope.spawn(move || {
                loop {
                    let s = state.load(Ordering::SeqCst);
                    let (version, alive) = (s >> 1, s & 1 == 1);
                    let (_, value) = pool.get(KEY).unwrap();
                    match value {
                        Some(v) => {
                            let (got_key, got_version) = decode(&v);
                            assert_eq!(got_key, KEY);
                            if !alive {
                                // Delete of `version` completed before
                                // this get started: that version is
                                // gone for good (versions are unique).
                                assert!(
                                    got_version > version,
                                    "resurrected: saw version {got_version} after its \
                                     delete completed (state version {version})"
                                );
                            } else {
                                assert!(
                                    got_version >= version,
                                    "stale read: saw {got_version}, put of {version} \
                                     had completed"
                                );
                            }
                        }
                        None => {
                            // Always legal: even when the witnessed
                            // state says "alive", the writer may be
                            // mid-delete — the index unpublishes before
                            // the state word is stamped. Put-visibility
                            // (no lost updates) is asserted by the
                            // stress test above, where keys are never
                            // deleted.
                        }
                    }
                    if state.load(Ordering::SeqCst) >= ROUNDS << 1 {
                        break;
                    }
                }
            });
        }
    });
}

/// DRAM hits bypass the shard mutex: a thread camping on the shard
/// lock must not block concurrent lock-free gets.
#[test]
fn dram_hits_do_not_wait_on_the_shard_lock() {
    const KEY: u64 = 3;
    let pool = dram_pool(1);
    pool.put(KEY, Value::real(encode(KEY, 1))).unwrap();
    let locked = Barrier::new(2);
    std::thread::scope(|scope| {
        let (pool, locked) = (&pool, &locked);
        scope.spawn(move || {
            pool.with_shard(0, |_cache| {
                locked.wait();
                std::thread::sleep(Duration::from_millis(400));
            });
        });
        locked.wait();
        let start = Instant::now();
        let (outcome, value) = pool.get(KEY).unwrap();
        let waited = start.elapsed();
        assert_eq!(outcome, GetOutcome::RamHit);
        assert_eq!(decode(&value.unwrap()), (KEY, 1));
        assert!(
            waited < Duration::from_millis(250),
            "lock-free get waited {waited:?} behind a held shard lock"
        );
    });
}

/// Epoch-reclamation safety under hot-key churn: writers retire an
/// index node per overwrite while readers hold epoch pins on the same
/// chains. No reader may observe freed memory (the checksum would
/// tear), and once everyone quiesces the retire backlog must drain to
/// zero — garbage is eventually freed, not leaked.
#[test]
fn epoch_reclamation_frees_garbage_without_use_after_retire() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const KEYS: u64 = 4;
    const ROUNDS: u64 = 3_000;

    let pool = dram_pool(1);
    for key in 0..KEYS {
        pool.put(key, Value::real(encode(key, 1))).unwrap();
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (pool, done) = (&pool, &done);
        for w in 0..WRITERS {
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let key = (w as u64 + round) % KEYS;
                    pool.put(key, Value::real(encode(key, 2 + round))).unwrap();
                }
                if w == 0 {
                    done.store(true, Ordering::SeqCst);
                }
            });
        }
        for _ in 0..READERS {
            scope.spawn(move || {
                let mut round = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let key = round % KEYS;
                    round += 1;
                    // decode() checksums the payload: a node freed
                    // while this reader's epoch pin protected it would
                    // surface here as a torn read (or a crash).
                    let (_, value) = pool.get(key).unwrap();
                    let (got_key, _) = decode(&value.expect("churned keys always present"));
                    assert_eq!(got_key, key);
                }
            });
        }
    });
    let retired = pool.with_shard(0, |c| c.read_index().retired_total()).unwrap();
    assert!(
        retired >= 2 * (WRITERS as u64 * ROUNDS) / 3,
        "overwrites should retire shadowed index nodes: only {retired} retired"
    );
    // Quiesced: a bounded number of sweeps reclaims everything.
    let mut backlog = pool.collect_read_garbage();
    for _ in 0..8 {
        if backlog == 0 {
            break;
        }
        backlog = pool.collect_read_garbage();
    }
    assert_eq!(backlog, 0, "retired nodes were never freed after quiescence");
}

/// Warm restart meets the lock-free read path: a recovered pool must
/// start with a *fresh* read-side — empty per-shard `ReadIndex`, a
/// quiesced epoch collector (zero retired nodes, zero garbage) — and a
/// key whose delete completed before the crash must stay dead on the
/// lock-free path even while writers republish survivors around it.
#[test]
fn recovered_pool_keeps_deletes_dead_and_starts_with_a_fresh_read_index() {
    const DEAD: u64 = 13;
    const KEYS: u64 = 120;
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
    // Tiny DRAM: the population spills to the SOC, so recovery has
    // flash-resident state to rebuild (and to scrub the delete from).
    let config = CacheConfig {
        ram_bytes: 2 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.2, region_bytes: 8 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    };
    let pool =
        ConcurrentPool::new(&ctrl, &config, 1, 0.9, || Box::new(RoundRobinPolicy::new())).unwrap();
    for key in 0..KEYS {
        pool.put(key, Value::synthetic(90)).unwrap();
    }
    let persisted_before: std::collections::BTreeSet<u64> =
        pool.with_shard(0, |c| c.persisted_keys().into_iter().collect()).unwrap();
    assert!(persisted_before.contains(&DEAD), "DEAD must be flash-resident before its delete");
    assert!(pool.delete(DEAD).unwrap(), "delete must acknowledge");
    let survivors: Vec<u64> =
        pool.with_shard(0, |c| c.persisted_keys()).unwrap().into_iter().collect();
    assert!(!survivors.is_empty());
    drop(pool); // the crash: every host-side structure is gone

    let pool = ConcurrentPool::recover(&ctrl, &config, &[1], || Box::new(RoundRobinPolicy::new()))
        .unwrap();
    // Fresh read-side state: nothing published, nothing retired.
    assert_eq!(pool.collect_read_garbage(), 0, "recovered epoch collector must start empty");
    assert_eq!(
        pool.with_shard(0, |c| c.read_index().retired_total()).unwrap(),
        0,
        "recovered ReadIndex must not inherit pre-crash retirements"
    );
    // Concurrent witnesses: readers hammer the dead key on the
    // lock-free path while a writer republishes survivors (promotions
    // and overwrites churning the same index).
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (pool, done, survivors) = (&pool, &done, &survivors);
        scope.spawn(move || {
            for round in 0..3u64 {
                for &k in survivors.iter() {
                    pool.put(k, Value::real(encode(k, round + 1))).unwrap();
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        for _ in 0..2 {
            scope.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    let (outcome, value) = pool.get(DEAD).unwrap();
                    assert_eq!(outcome, GetOutcome::Miss, "deleted key resurrected by recovery");
                    assert!(value.is_none());
                }
            });
        }
    });
    // The locked baseline agrees once everything quiesces.
    assert_eq!(pool.get_locked(DEAD).unwrap().0, GetOutcome::Miss);
    for &k in &survivors {
        assert!(pool.get(k).unwrap().1.is_some(), "survivor {k} lost after recovery");
    }
}

/// Mid-run stats coherence: merged-on-read snapshots taken while
/// readers and writers are live must be monotonic (counters never go
/// backward), never overshoot the work actually issued, and land on
/// the exact totals once the run quiesces — the atomic read-side
/// counters may not lose or invent operations.
#[test]
fn stats_snapshots_stay_coherent_mid_run() {
    const WORKERS: u64 = 3;
    const OPS: u64 = 3_000;
    let pool = dram_pool(2);
    for key in 0..WORKERS {
        pool.put(key, Value::synthetic(64)).unwrap();
    }
    let baseline = pool.stats();
    let expected_gets = baseline.gets + WORKERS * OPS * 7 / 8;
    let expected_puts = baseline.puts + WORKERS * OPS / 8;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (pool, done) = (&pool, &done);
        let poller = scope.spawn(move || {
            let (mut last_gets, mut last_puts) = (0u64, 0u64);
            let mut samples = 0u64;
            while !done.load(Ordering::SeqCst) {
                let s = pool.stats();
                assert!(s.gets >= last_gets, "gets went backward: {} < {last_gets}", s.gets);
                assert!(s.puts >= last_puts, "puts went backward: {} < {last_puts}", s.puts);
                assert!(s.gets <= expected_gets, "gets overshot: {} > {expected_gets}", s.gets);
                assert!(s.puts <= expected_puts, "puts overshot: {} > {expected_puts}", s.puts);
                (last_gets, last_puts) = (s.gets, s.puts);
                samples += 1;
            }
            samples
        });
        std::thread::scope(|workers| {
            for w in 0..WORKERS {
                workers.spawn(move || {
                    for i in 0..OPS {
                        if i % 8 == 0 {
                            pool.put(w, Value::synthetic(64)).unwrap();
                        } else {
                            let (_, v) = pool.get(w).unwrap();
                            assert!(v.is_some());
                        }
                    }
                });
            }
        });
        done.store(true, Ordering::SeqCst);
        assert!(poller.join().unwrap() > 0, "poller never sampled mid-run");
    });
    let end = pool.stats();
    assert_eq!(end.gets, expected_gets, "merged gets lost or invented operations");
    assert_eq!(end.puts, expected_puts, "merged puts lost or invented operations");
}

/// Hit accounting is exact under contention: `threads` readers hammer
/// a 2-shard pool with nothing but DRAM hits, all released together,
/// and afterwards the merged `gets` and `ram_hits` equal the ops issued
/// and each shard's clock moved by exactly its hits × `HOST_OP_NS` —
/// whether every thread owns a stripe of the hit counter or several
/// share one.
fn hits_are_counted_exactly(threads: u64, hits_per_thread: u64) {
    const KEYS: u64 = 64;
    let pool = dram_pool(2);
    for key in 0..KEYS {
        pool.put(key, Value::synthetic(64)).unwrap();
    }
    let before = pool.stats();
    let shard_state = |i| pool.with_shard(i, |c| (c.now_ns(), c.stats().ram_hits)).unwrap();
    let shards_before = [shard_state(0), shard_state(1)];
    let start = Barrier::new(threads as usize);
    std::thread::scope(|scope| {
        let (pool, start) = (&pool, &start);
        for t in 0..threads {
            scope.spawn(move || {
                start.wait();
                for i in 0..hits_per_thread {
                    let (outcome, _) = pool.get((t + i) % KEYS).unwrap();
                    assert_eq!(outcome, GetOutcome::RamHit);
                }
            });
        }
    });
    let after = pool.stats();
    let issued = threads * hits_per_thread;
    assert_eq!(after.gets - before.gets, issued, "gets lost or invented");
    assert_eq!(after.ram_hits - before.ram_hits, issued, "ram_hits lost or invented");
    assert_eq!(after.gets, after.ram_hits, "every GET of this test is a DRAM hit");
    let mut hits_seen = 0;
    for (i, (clock_before, hits_before)) in shards_before.into_iter().enumerate() {
        let (clock, hits) = shard_state(i);
        assert_eq!(clock - clock_before, (hits - hits_before) * HOST_OP_NS, "shard {i} clock");
        hits_seen += hits - hits_before;
    }
    assert_eq!(hits_seen, issued);
}

#[test]
fn contended_hits_are_counted_exactly() {
    hits_are_counted_exactly(8, 50_000);
}

#[test]
fn hits_stay_exact_with_more_threads_than_stripes() {
    hits_are_counted_exactly(ReadSideStats::STRIPES as u64 + 8, 20_000);
}
