//! Whole-stack cache integration tests: hybrid cache over the simulated
//! FDP device, including data-integrity checks against a reference
//! model.

use std::collections::HashMap;

use fdpcache::cache::builder::{build_stack, StoreKind};
use fdpcache::cache::value::Value;
use fdpcache::cache::{CacheConfig, GetOutcome, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::workloads::{Op, Oracle, Request};

fn config(ram_bytes: u64, use_fdp: bool) -> CacheConfig {
    CacheConfig {
        ram_bytes,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
        use_fdp,
    }
}

#[test]
fn values_survive_the_full_stack_bit_exactly() {
    let (_ctrl, mut cache) =
        build_stack(FtlConfig::tiny_test(), StoreKind::Mem, true, 0.9, &config(2_000, true))
            .unwrap();
    // Mixed small and large objects with distinctive contents.
    let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
    for k in 0..200u64 {
        let size = if k % 7 == 0 {
            5_000 + (k as usize * 13) % 20_000
        } else {
            60 + (k as usize * 7) % 800
        };
        let bytes: Vec<u8> = (0..size).map(|i| ((k as usize + i) % 251) as u8).collect();
        cache.put(k, Value::real(bytes.clone())).unwrap();
        expected.insert(k, bytes);
    }
    let mut present = 0;
    for (k, bytes) in &expected {
        let (outcome, v) = cache.get(*k).unwrap();
        if outcome != GetOutcome::Miss {
            assert_eq!(&v.unwrap().to_bytes(*k), bytes, "key {k} corrupted");
            present += 1;
        }
    }
    assert!(present > 100, "most keys should still be cached, got {present}");
}

#[test]
fn cache_model_equivalence_under_churn() {
    // Reference-model check: every non-miss GET must return the last
    // PUT's bytes; deletes must stick (until the key is re-PUT).
    let (_ctrl, mut cache) =
        build_stack(FtlConfig::tiny_test(), StoreKind::Mem, true, 0.9, &config(4_000, true))
            .unwrap();
    let mut oracle = Oracle::new();
    let mut x = 0x1234_5678u64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 500;
        let req = match x % 10 {
            0 => Request { op: Op::Delete, key, size: 0 },
            1..=4 => Request { op: Op::Set, key, size: 50 + (x % 3000) as u32 },
            _ => {
                let report = oracle.check_served(&mut cache, [key]).unwrap();
                assert_eq!(report.violations, [], "stale or deleted value served");
                continue;
            }
        };
        oracle.step(&mut cache, req).unwrap();
    }
}

#[test]
fn nonfdp_device_runs_the_same_cache_unchanged() {
    // Backward compatibility: identical API and behaviour on a device
    // with FDP disabled; only placement differs.
    let (ctrl, mut cache) =
        build_stack(FtlConfig::tiny_test(), StoreKind::Mem, false, 0.9, &config(2_000, true))
            .unwrap();
    for k in 0..500u64 {
        cache.put(k, Value::synthetic(100)).unwrap();
    }
    let (outcome, v) = cache.get(0).unwrap();
    assert_ne!(outcome, GetOutcome::Miss);
    assert_eq!(v.unwrap().len(), 100);
    // Everything landed on the default handle.
    let c = &ctrl;
    let pages = c.with_ftl(|f| f.ruh_host_pages().to_vec());
    assert!(pages[0] > 0);
    assert!(pages[1..].iter().all(|&p| p == 0), "non-FDP must use only the default RUH");
}

#[test]
fn fdp_cache_splits_traffic_across_ruhs() {
    let (ctrl, mut cache) =
        build_stack(FtlConfig::tiny_test(), StoreKind::Null, true, 0.9, &config(2_000, true))
            .unwrap();
    for k in 0..2_000u64 {
        let size = if k % 5 == 0 { 9_000 } else { 120 };
        cache.put(k, Value::synthetic(size)).unwrap();
    }
    let c = &ctrl;
    let pages = c.with_ftl(|f| f.ruh_host_pages().to_vec());
    assert!(pages[0] > 0, "SOC handle unused");
    assert!(pages[1] > 0, "LOC handle unused");
}

#[test]
fn flash_serves_after_dram_pressure() {
    let (_ctrl, mut cache) =
        build_stack(FtlConfig::tiny_test(), StoreKind::Null, true, 0.9, &config(1_000, true))
            .unwrap();
    for k in 0..1_000u64 {
        cache.put(k, Value::synthetic(90)).unwrap();
    }
    let stats = cache.stats();
    assert!(stats.nvm_inserts > 0);
    let mut soc_hits = 0;
    for k in 0..1_000u64 {
        if matches!(cache.get(k).unwrap().0, GetOutcome::SocHit) {
            soc_hits += 1;
        }
    }
    assert!(soc_hits > 0, "flash must serve some of the evicted keys");
}

#[test]
fn alwa_is_invariant_to_fdp_mode() {
    // §6.3: "we made no changes to how data is stored in SOC and LOC, we
    // did not expect to see any change in the ALWA".
    let mut alwas = Vec::new();
    for fdp in [true, false] {
        let (_ctrl, mut cache) =
            build_stack(FtlConfig::tiny_test(), StoreKind::Null, fdp, 0.9, &config(1_000, fdp))
                .unwrap();
        let mut x = 42u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let size = if x.is_multiple_of(5) { 9_000 } else { 120 };
            cache.put(x % 800, Value::synthetic(size)).unwrap();
        }
        alwas.push(cache.alwa());
    }
    let diff = (alwas[0] - alwas[1]).abs() / alwas[0];
    assert!(diff < 0.01, "ALWA must not depend on FDP mode: {alwas:?}");
}

#[test]
fn latency_histograms_populate() {
    // tiny_test zeroes media latency; use the real timing model here.
    let mut ftl = FtlConfig::tiny_test();
    ftl.latency = fdpcache::nand::LatencyModel::default();
    let (_ctrl, mut cache) =
        build_stack(ftl, StoreKind::Null, true, 0.9, &config(1_000, true)).unwrap();
    for k in 0..2_000u64 {
        cache.put(k, Value::synthetic(90)).unwrap();
    }
    for k in 0..500u64 {
        cache.get(k).unwrap();
    }
    assert!(cache.navy().write_latency().count() > 0);
    assert!(cache.navy().read_latency().count() > 0);
    assert!(cache.navy().write_latency().p99() > 0);
}
