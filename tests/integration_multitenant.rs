//! Multi-tenant integration: two hybrid caches on one device (the
//! Figure 11 deployment) — isolation, handle disjointness, and the DLWA
//! benefit of per-tenant segregation.

use fdpcache::cache::builder::{build_cache, build_device, create_namespace, StoreKind};
use fdpcache::cache::value::Value;
use fdpcache::cache::{CacheConfig, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::placement::RoundRobinPolicy;

fn cache_config() -> CacheConfig {
    CacheConfig {
        ram_bytes: 2_000,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    }
}

#[test]
fn tenants_are_functionally_isolated() {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
    let ns_a = create_namespace(&ctrl, 0.5, vec![0, 1]).unwrap();
    let ns_b = create_namespace(&ctrl, 1.0, vec![2, 3]).unwrap();
    let mut a =
        build_cache(&ctrl, ns_a, &cache_config(), Box::new(RoundRobinPolicy::new())).unwrap();
    let mut b =
        build_cache(&ctrl, ns_b, &cache_config(), Box::new(RoundRobinPolicy::new())).unwrap();

    // Same keys, different tenants, different values.
    for k in 0..300u64 {
        a.put(k, Value::synthetic(100)).unwrap();
        b.put(k, Value::synthetic(200)).unwrap();
    }
    let mut checked = 0;
    for k in 0..300u64 {
        let (oa, va) = a.get(k).unwrap();
        let (ob, vb) = b.get(k).unwrap();
        if oa != fdpcache::cache::GetOutcome::Miss && ob != fdpcache::cache::GetOutcome::Miss {
            assert_eq!(va.unwrap().len(), 100);
            assert_eq!(vb.unwrap().len(), 200);
            checked += 1;
        }
    }
    assert!(checked > 100, "tenants should retain most keys ({checked})");
    // Deleting in one tenant must not affect the other.
    a.delete(0).unwrap();
    let (ob, _) = b.get(0).unwrap();
    assert_ne!(ob, fdpcache::cache::GetOutcome::Miss);
}

#[test]
fn tenant_engines_map_to_disjoint_device_ruhs() {
    let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Null, true).unwrap();
    let ns_a = create_namespace(&ctrl, 0.5, vec![0, 1]).unwrap();
    let ns_b = create_namespace(&ctrl, 1.0, vec![2, 3]).unwrap();
    let mut a =
        build_cache(&ctrl, ns_a, &cache_config(), Box::new(RoundRobinPolicy::new())).unwrap();
    let mut b =
        build_cache(&ctrl, ns_b, &cache_config(), Box::new(RoundRobinPolicy::new())).unwrap();
    // Drive flash traffic in both tenants (small + large objects).
    for k in 0..2_000u64 {
        let size = if k % 5 == 0 { 9_000 } else { 100 };
        a.put(k, Value::synthetic(size)).unwrap();
        b.put(k, Value::synthetic(size)).unwrap();
    }
    let c = &ctrl;
    let pages = c.with_ftl(|f| f.ruh_host_pages().to_vec());
    assert!(pages[0] > 0 && pages[1] > 0, "tenant A handles idle: {pages:?}");
    assert!(pages[2] > 0 && pages[3] > 0, "tenant B handles idle: {pages:?}");
    assert!(pages[4..].iter().all(|&p| p == 0), "unexpected handle use: {pages:?}");
}

/// The shared device of the DLWA test: the tiny geometry at 10 % OP,
/// so that intermixed SOC and LOC pages make GC relocate.
fn segregation_device() -> FtlConfig {
    FtlConfig { op_fraction: 0.1, ..FtlConfig::tiny_test() }
}

#[test]
fn shared_device_dlwa_benefits_from_per_tenant_segregation() {
    /// Returns the run's DLWA and host bytes written.
    fn run(fdp: bool) -> (f64, u64) {
        let ctrl = build_device(segregation_device(), StoreKind::Null, fdp).unwrap();
        let ns_a = create_namespace(&ctrl, 0.5, vec![0, 1]).unwrap();
        let ns_b = create_namespace(&ctrl, 1.0, vec![2, 3]).unwrap();
        let mut cfg = cache_config();
        // A small SOC, as in the paper's deployments: its random
        // rewrites are what FDP keeps out of the LOC's reclaim units.
        cfg.nvm.soc_fraction = 0.05;
        cfg.use_fdp = fdp;
        let mut a = build_cache(&ctrl, ns_a, &cfg, Box::new(RoundRobinPolicy::new())).unwrap();
        let mut b = build_cache(&ctrl, ns_b, &cfg, Box::new(RoundRobinPolicy::new())).unwrap();
        let mut x = 77u64;
        for _ in 0..60_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 3_000;
            let size = if x.is_multiple_of(4) { 9_000 } else { 120 };
            let cache = if x.is_multiple_of(2) { &mut a } else { &mut b };
            match cache.put(key, Value::synthetic(size)) {
                Ok(()) | Err(fdpcache::cache::CacheError::ObjectTooLarge { .. }) => {}
                Err(e) => panic!("{e}"),
            }
        }
        let log = ctrl.fdp_stats_log();
        (log.dlwa(), log.host_bytes_written)
    }
    let (with_fdp, fdp_host_bytes) = run(true);
    let (without, _) = run(false);
    // The absolute bound means something only once the host has
    // written the whole exported device at least once.
    let exported = segregation_device().exported_bytes();
    assert!(
        fdp_host_bytes >= exported,
        "DLWA bound vacuous: host bytes {fdp_host_bytes} < exported bytes {exported}"
    );
    // Measured: FDP 1.0014, Non-FDP 1.3405.
    assert!(with_fdp <= 1.05, "FDP DLWA {with_fdp:.4} > 1.05 on the shared device");
    assert!(
        without >= with_fdp + 0.2,
        "per-tenant segregation should cut DLWA: fdp {with_fdp:.4} vs non {without:.4}"
    );
}
