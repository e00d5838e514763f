//! Convenience builders that assemble the full stack: NAND → FTL → NVMe
//! controller → namespace(s) → placement allocator → hybrid cache.
//!
//! Every experiment and example follows the same recipe the paper's
//! testbed does:
//!
//! 1. bring up the device (optionally with FDP disabled, the Non-FDP
//!    baseline);
//! 2. create a namespace covering `utilization × exported capacity`
//!    (the paper's "device utilization" knob — the rest of the LBA space
//!    is host overprovisioning);
//! 3. discover placement handles and build the cache.

use std::sync::Arc;

use fdpcache_core::{
    IoManager, PlacementHandleAllocator, PlacementPolicy, RoundRobinPolicy, SharedController,
};
use fdpcache_ftl::{FtlConfig, RuhId};
use fdpcache_nvme::{Controller, FaultConfig, FaultStore, MemStore, NamespaceId, NullStore};

use crate::cache::HybridCache;
use crate::config::CacheConfig;
use crate::error::CacheError;

/// Which payload store to attach to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Retain payload bytes (functional tests, examples).
    Mem,
    /// Discard payloads (at-scale DLWA experiments).
    Null,
}

/// Builds a device controller.
///
/// # Errors
///
/// Propagates FTL configuration validation failures.
pub fn build_device(
    ftl: FtlConfig,
    store: StoreKind,
    fdp_enabled: bool,
) -> Result<SharedController, CacheError> {
    let boxed: Box<dyn fdpcache_nvme::DataStore> = match store {
        StoreKind::Mem => Box::new(MemStore::new()),
        StoreKind::Null => Box::new(NullStore),
    };
    let ctrl = Controller::new(ftl, boxed).map_err(CacheError::Config)?;
    ctrl.set_fdp_enabled(fdp_enabled);
    Ok(Arc::new(ctrl))
}

/// Builds a device controller whose payload store is wrapped in a
/// [`FaultStore`] carrying the given fault schedule — the entry point
/// for replaying any workload under a fault scenario. An empty
/// `FaultConfig` behaves bit-identically to [`build_device`].
///
/// # Errors
///
/// Propagates FTL configuration validation failures.
pub fn build_device_faulted(
    ftl: FtlConfig,
    store: StoreKind,
    fdp_enabled: bool,
    fault: FaultConfig,
) -> Result<SharedController, CacheError> {
    let inner: Box<dyn fdpcache_nvme::DataStore> = match store {
        StoreKind::Mem => Box::new(MemStore::new()),
        StoreKind::Null => Box::new(NullStore),
    };
    let ctrl = Controller::new(ftl, Box::new(FaultStore::new(inner, fault)))
        .map_err(CacheError::Config)?;
    ctrl.set_fdp_enabled(fdp_enabled);
    Ok(Arc::new(ctrl))
}

/// Creates a namespace covering `utilization` of the device's exported
/// capacity with the given placement-handle list.
///
/// # Errors
///
/// Propagates namespace-creation failures (capacity, invalid handles).
pub fn create_namespace(
    ctrl: &SharedController,
    utilization: f64,
    ruh_list: Vec<RuhId>,
) -> Result<NamespaceId, CacheError> {
    let lbas = ((ctrl.unallocated_lbas() as f64) * utilization).floor() as u64;
    ctrl.create_namespace(lbas.max(1), ruh_list).map_err(CacheError::Io)
}

/// The `utilization` argument for carving namespace `index` of `count`
/// equal slices totalling `total_utilization` of the device.
///
/// [`create_namespace`] consumes a fraction of the *remaining*
/// capacity, so slice `i` of `n` must request `share / (1 - i×share)`
/// to end up the same size as its siblings. [`crate::ConcurrentPool`]
/// and every caller that carves tenant namespaces itself share this
/// arithmetic.
pub fn equal_share_fraction(index: usize, count: usize, total_utilization: f64) -> f64 {
    let share = total_utilization / count as f64;
    let remaining = 1.0 - index as f64 * share;
    (share / remaining).min(1.0)
}

/// The queue pair and placement allocator for cache `index` of the
/// `count` that share one RUH list, on its namespace `nsid` (a lone
/// cache is member 0 of 1). Construction and recovery both come through
/// here, so a recovered cache cannot land on other handles than it
/// wrote through. The allocator replays the policy in member order
/// ([`PlacementHandleAllocator::discover_member`], two data picks —
/// SOC, LOC — per cache): each cache's engines get identifiers of their
/// own while the list has `2 × count` of them, and all caches send LOC
/// footers to the one identifier after those, or each to its own LOC's
/// when there is none.
pub(crate) fn attach(
    ctrl: &SharedController,
    nsid: NamespaceId,
    config: &CacheConfig,
    policy: Box<dyn PlacementPolicy>,
    index: usize,
    count: usize,
) -> Result<(IoManager, PlacementHandleAllocator), CacheError> {
    let ns = ctrl
        .namespace(nsid)
        .ok_or(CacheError::Io(fdpcache_nvme::NvmeError::InvalidNamespace(nsid)))?;
    let allocator =
        PlacementHandleAllocator::discover_member(&ctrl.identify(), &ns, policy, index, count, 2);
    let io = IoManager::new(ctrl.clone(), nsid, config.nvm.io_lanes).map_err(CacheError::Io)?;
    Ok((io, allocator))
}

/// Builds a [`HybridCache`] on an existing namespace, discovering
/// placement capability automatically.
///
/// # Errors
///
/// Propagates construction failures from any layer.
pub fn build_cache(
    ctrl: &SharedController,
    nsid: NamespaceId,
    config: &CacheConfig,
    policy: Box<dyn PlacementPolicy>,
) -> Result<HybridCache, CacheError> {
    let (io, mut allocator) = attach(ctrl, nsid, config, policy, 0, 1)?;
    HybridCache::new(config, io, &mut allocator)
}

/// Rebuilds a [`HybridCache`] on an existing namespace after a crash:
/// same discovery and handle-allocation sequence as [`build_cache`],
/// but the engines are reconstructed from flash-resident metadata
/// ([`HybridCache::recover`]) instead of formatted (DESIGN.md §6.6).
///
/// The namespace must be the one the crashed cache ran on — recovery
/// reattaches, it does not re-carve.
///
/// # Errors
///
/// Propagates construction and recovery-read failures from any layer.
pub fn recover_cache(
    ctrl: &SharedController,
    nsid: NamespaceId,
    config: &CacheConfig,
    policy: Box<dyn PlacementPolicy>,
) -> Result<HybridCache, CacheError> {
    let (io, mut allocator) = attach(ctrl, nsid, config, policy, 0, 1)?;
    HybridCache::recover(config, io, &mut allocator)
}

/// One-call setup for the common single-tenant experiment: device +
/// namespace at `utilization` + cache. Uses round-robin placement.
///
/// # Errors
///
/// Propagates construction failures from any layer.
pub fn build_stack(
    ftl: FtlConfig,
    store: StoreKind,
    fdp: bool,
    utilization: f64,
    config: &CacheConfig,
) -> Result<(SharedController, HybridCache), CacheError> {
    let ctrl = build_device(ftl.clone(), store, fdp)?;
    // Hand the namespace every device RUH; the allocator decides usage.
    let ruh_list: Vec<RuhId> = (0..ftl.num_ruhs).collect();
    let nsid = create_namespace(&ctrl, utilization, ruh_list)?;
    let cache = build_cache(&ctrl, nsid, config, Box::new(RoundRobinPolicy::new()))?;
    Ok((ctrl, cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NvmConfig;

    fn small_cache_config() -> CacheConfig {
        CacheConfig {
            ram_bytes: 4096,
            ram_item_overhead: 0,
            nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
            use_fdp: true,
        }
    }

    #[test]
    fn full_stack_comes_up_and_serves() {
        let (_ctrl, mut cache) =
            build_stack(FtlConfig::tiny_test(), StoreKind::Mem, true, 0.9, &small_cache_config())
                .unwrap();
        cache.put(1, crate::value::Value::synthetic(100)).unwrap();
        let (_, v) = cache.get(1).unwrap();
        assert_eq!(v.unwrap().len(), 100);
    }

    #[test]
    fn fdp_stack_uses_distinct_handles() {
        let (_c, cache) =
            build_stack(FtlConfig::tiny_test(), StoreKind::Mem, true, 0.9, &small_cache_config())
                .unwrap();
        assert_ne!(cache.navy().soc().handle(), cache.navy().loc().handle());
    }

    #[test]
    fn nonfdp_stack_falls_back_to_default_handle() {
        let (_c, cache) =
            build_stack(FtlConfig::tiny_test(), StoreKind::Null, false, 0.9, &small_cache_config())
                .unwrap();
        assert!(cache.navy().soc().handle().is_default());
        assert!(cache.navy().loc().handle().is_default());
    }

    #[test]
    fn recover_cache_reattaches_existing_namespace() {
        let (ctrl, mut cache) =
            build_stack(FtlConfig::tiny_test(), StoreKind::Mem, true, 0.9, &small_cache_config())
                .unwrap();
        // Spill past DRAM so some objects live on flash, then crash.
        for k in 0..120u64 {
            cache.put(k, crate::value::Value::synthetic(200)).unwrap();
        }
        let survivors = cache.persisted_keys();
        assert!(!survivors.is_empty(), "workload must reach flash");
        drop(cache);
        let mut recovered =
            recover_cache(&ctrl, 1, &small_cache_config(), Box::new(RoundRobinPolicy::new()))
                .unwrap();
        for k in &survivors {
            let (_, v) = recovered.get(*k).unwrap();
            assert!(v.is_some(), "sealed key {k} lost across recovery");
        }
        // Same handle assignment as the original construction order.
        assert_ne!(recovered.navy().soc().handle(), recovered.navy().loc().handle());
    }

    #[test]
    fn soc_fraction_at_either_end_builds_no_cache() {
        // At 0 the SOC and LOC region 0 would share block 0; at 1 the
        // LOC would start past the end of the namespace.
        for soc_fraction in [0.0, 1.0] {
            let mut cfg = small_cache_config();
            cfg.nvm.soc_fraction = soc_fraction;
            let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Mem, true).unwrap();
            let nsid = create_namespace(&ctrl, 0.9, vec![0, 1]).unwrap();
            let built = build_cache(&ctrl, nsid, &cfg, Box::new(RoundRobinPolicy::new()));
            assert!(
                matches!(built, Err(CacheError::Config(_))),
                "soc_fraction {soc_fraction} must be a config error"
            );
        }
    }

    #[test]
    fn utilization_controls_namespace_size() {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Null, true).unwrap();
        let before = ctrl.unallocated_lbas();
        let _ns = create_namespace(&ctrl, 0.5, vec![0]).unwrap();
        let after = ctrl.unallocated_lbas();
        assert_eq!(after, before - before / 2);
    }

    #[test]
    fn two_tenants_share_one_device() {
        let ctrl = build_device(FtlConfig::tiny_test(), StoreKind::Null, true).unwrap();
        let ns1 = create_namespace(&ctrl, 0.5, vec![0, 1]).unwrap();
        let ns2 = create_namespace(&ctrl, 1.0, vec![2, 3]).unwrap();
        let cfg = small_cache_config();
        let mut a = build_cache(&ctrl, ns1, &cfg, Box::new(RoundRobinPolicy::new())).unwrap();
        let mut b = build_cache(&ctrl, ns2, &cfg, Box::new(RoundRobinPolicy::new())).unwrap();
        a.put(1, crate::value::Value::synthetic(100)).unwrap();
        b.put(1, crate::value::Value::synthetic(200)).unwrap();
        // Tenants are isolated namespaces: same key, different objects.
        let (_, va) = a.get(1).unwrap();
        let (_, vb) = b.get(1).unwrap();
        assert_eq!(va.unwrap().len(), 100);
        assert_eq!(vb.unwrap().len(), 200);
        // And their engines resolve to four distinct device RUHs (DSPECs
        // are namespace-relative indices into each tenant's handle list).
        let mut ruhs: Vec<_> = [
            (ns1, a.navy().soc().handle()),
            (ns1, a.navy().loc().handle()),
            (ns2, b.navy().soc().handle()),
            (ns2, b.navy().loc().handle()),
        ]
        .into_iter()
        .map(|(nsid, h)| {
            ctrl.namespace(nsid).unwrap().resolve_pid(h.dspec().expect("fdp handle")).unwrap()
        })
        .collect();
        ruhs.sort_unstable();
        ruhs.dedup();
        assert_eq!(ruhs.len(), 4, "tenant engines must map to disjoint RUHs");
    }
}
