//! The experiment configuration every [`crate::figures`] cell varies,
//! the device shape every gate scenario runs on, and
//! [`first_divergence`], which names where two runs stop agreeing.
//!
//! Every experiment instantiates the same scaled stack (DESIGN.md §1):
//! a 4–8 GiB simulated FDP SSD with 64 MiB reclaim units standing in
//! for the paper's 1.88 TB PM9D3 with ~6 GB RUs, and DRAM/SOC/utilization
//! expressed as *fractions* so the ratios that drive DLWA match the
//! paper's configurations exactly.

use std::fmt::Debug;

use fdpcache_cache::config::{CacheConfig, NvmConfig};
use fdpcache_ftl::{FtlConfig, GcPolicy, RuhType};
use fdpcache_nand::Geometry;
use fdpcache_workloads::{ReplayConfig, WorkloadProfile};

/// The bench-device FTL configuration shared by every gate scenario, so
/// they always measure the same device shape: 4 KiB LBAs, 8 RUHs,
/// scaled defaults otherwise.
pub fn bench_ftl_config(device_mib: u64, ru_mib: u64, seed: u64) -> FtlConfig {
    let geometry = Geometry::with_capacity(device_mib << 20, ru_mib << 20, 4096)
        .expect("bench geometry must be constructible");
    FtlConfig { geometry, num_ruhs: 8, seed, ..FtlConfig::scaled_default() }
}

/// The first line where the `{:#?}` renderings of two runs differ, as
/// `line N: <a's line> vs <b's line>`: what a determinism check prints
/// instead of both runs.
pub fn first_divergence(a: &impl Debug, b: &impl Debug) -> String {
    let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
    let (mut la, mut lb) = (a.lines(), b.lines());
    for n in 1.. {
        match (la.next(), lb.next()) {
            (None, None) => break,
            (x, y) if x == y => {}
            (x, y) => {
                let end = "<end>";
                return format!(
                    "line {n}: {} vs {}",
                    x.unwrap_or(end).trim(),
                    y.unwrap_or(end).trim()
                );
            }
        }
    }
    "no line of their {:#?} differs".to_string()
}

/// One experiment's full parameter set.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Raw device capacity in GiB (scaled stand-in for 1.88 TB).
    pub device_gib: u64,
    /// Reclaim-unit (superblock) size in MiB.
    pub ru_mib: u64,
    /// Device overprovisioning fraction (PM9D3-class: 7%).
    pub op_fraction: f64,
    /// Host-visible utilization: namespace size as a fraction of
    /// exported capacity (the paper's 50%…100% x-axis).
    pub utilization: f64,
    /// SOC share of the namespace (paper default: 4%).
    pub soc_fraction: f64,
    /// DRAM cache size as a fraction of the namespace (paper default:
    /// 42 GB DRAM / 930 GB flash ≈ 4.5%).
    pub dram_fraction: f64,
    /// FDP segregation on (placement handles) or off (single stream).
    pub fdp: bool,
    /// RUH isolation type (ablation; the paper's device is initially
    /// isolated).
    pub ruh_type: RuhType,
    /// GC victim selection (ablation; default greedy).
    pub gc_policy: GcPolicy,
    /// TRIM a LOC region's blocks on eviction (the paper's shelved
    /// FDP-specialized LOC eviction policy; ablation only).
    pub trim_on_evict: bool,
    /// Workload profile.
    pub workload: WorkloadProfile,
    /// Working-set multiple of the flash namespace size.
    pub keyspace_multiple: f64,
    /// Warm-up length in device-capacity multiples.
    pub warmup_turnovers: f64,
    /// Measurement length in device-capacity multiples.
    pub measure_turnovers: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ExpConfig {
    /// The scaled default configuration of §6.1: KV-cache workload, 50%
    /// utilization, 4% SOC, FDP on.
    pub fn paper_default() -> Self {
        ExpConfig {
            device_gib: 8,
            ru_mib: 64,
            // The paper puts PM9D3-class device OP at "7-20% of SSD
            // capacity" (§6.3); 12% reproduces its DLWA endpoints.
            op_fraction: 0.12,
            utilization: 0.5,
            soc_fraction: 0.04,
            dram_fraction: 0.045,
            fdp: true,
            ruh_type: RuhType::InitiallyIsolated,
            gc_policy: GcPolicy::Greedy,
            trim_on_evict: false,
            workload: WorkloadProfile::meta_kv_cache(),
            keyspace_multiple: 4.0,
            // Warm-up must span the first wrap of the LOC log (≈2
            // device turnovers) so measurement starts at steady state,
            // like the paper's multi-day runs.
            warmup_turnovers: 3.0,
            measure_turnovers: 3.0,
            seed: 42,
        }
    }

    /// Shrinks run length for `--quick` smoke runs.
    pub fn quick(mut self) -> Self {
        self.device_gib = self.device_gib.min(4);
        self.warmup_turnovers = 2.0;
        self.measure_turnovers = 1.0;
        self
    }

    /// The FTL configuration this experiment runs on.
    pub fn ftl_config(&self) -> FtlConfig {
        let geometry = Geometry::with_capacity(self.device_gib << 30, self.ru_mib << 20, 4096)
            .expect("experiment geometry must be constructible");
        FtlConfig {
            geometry,
            op_fraction: self.op_fraction,
            num_ruhs: 8,
            num_rgs: 1,
            ruh_type: self.ruh_type,
            gc_policy: self.gc_policy,
            gc_threshold_rus: 4,
            pe_limit: u32::MAX,
            latency: Default::default(),
            seed: self.seed,
            event_log_capacity: 1024,
        }
    }

    /// The cache configuration for a namespace of the given size.
    pub fn cache_config(&self, namespace_bytes: u64) -> CacheConfig {
        CacheConfig {
            ram_bytes: (((namespace_bytes as f64) * self.dram_fraction) as u64).max(1 << 20),
            ram_item_overhead: 31,
            nvm: NvmConfig {
                soc_fraction: self.soc_fraction,
                // 16 MiB LOC regions in every experiment.
                region_bytes: 16 << 20,
                size_threshold: 2048,
                trim_on_region_evict: self.trim_on_evict,
                io_lanes: 8,
            },
            use_fdp: self.fdp,
        }
    }

    /// Label used in tables ("FDP" / "Non-FDP").
    pub fn label(&self) -> &'static str {
        if self.fdp {
            "FDP"
        } else {
            "Non-FDP"
        }
    }

    /// The cache configuration sized for this experiment's namespace.
    pub fn cache_config_for_build(&self) -> CacheConfig {
        // Namespace size isn't known until the controller exists; the
        // DRAM fraction is applied against utilization × exported bytes,
        // which build_stack realizes identically.
        let ftl = self.ftl_config();
        let ns_bytes = ((ftl.exported_bytes() as f64) * self.utilization) as u64;
        self.cache_config(ns_bytes)
    }

    /// The replayer configuration this experiment runs: warm-up and
    /// measurement are the turnover counts times the raw device size,
    /// sampled every `1 / points` of the measurement (at least 16 MiB).
    pub fn replay_config(&self, points: u64) -> ReplayConfig {
        let device_bytes = (self.device_gib << 30) as f64;
        let measure = (device_bytes * self.measure_turnovers) as u64;
        ReplayConfig {
            warmup_host_bytes: (device_bytes * self.warmup_turnovers) as u64,
            measure_host_bytes: measure,
            interval_host_bytes: (measure / points).max(16 << 20),
            max_ops: 2_000_000_000,
            ..ReplayConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_divergence_names_the_first_differing_line() {
        let a = (7, vec![1, 2, 3]);
        let b = (7, vec![1, 5, 3, 4]);
        assert_eq!(first_divergence(&a, &b), "line 5: 2, vs 5,");
        assert_eq!(first_divergence(&a, &(7, vec![1, 2])), "line 6: 3, vs ],");
        assert_eq!(first_divergence(&b, &b), "no line of their {:#?} differs");
    }

    #[test]
    fn quick_mode_shrinks_run_length() {
        let full = ExpConfig::paper_default();
        let quick = full.clone().quick();
        assert!(quick.device_gib <= full.device_gib);
        assert!(quick.measure_turnovers < full.measure_turnovers);
        quick.ftl_config().validate().expect("quick config must validate");
    }

    #[test]
    fn cache_config_scales_with_namespace() {
        let cfg = ExpConfig::paper_default();
        let small = cfg.cache_config(1 << 30);
        let large = cfg.cache_config(4 << 30);
        assert_eq!(large.ram_bytes, 4 * small.ram_bytes);
        assert!((small.nvm.soc_fraction - cfg.soc_fraction).abs() < 1e-12);
        assert_eq!(small.use_fdp, cfg.fdp);
    }
}
