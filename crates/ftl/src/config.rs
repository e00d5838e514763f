//! FTL configuration.

use fdpcache_nand::{Geometry, LatencyModel};

/// The two RUH data-movement guarantees defined by the FDP proposal
/// (paper §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuhType {
    /// Data written via different handles starts isolated but may be
    /// intermixed by garbage collection (cheap on the controller; the
    /// paper's device implements this type, and Insight 5 argues it is
    /// sufficient for CacheLib).
    InitiallyIsolated,
    /// Data written via a handle is only ever relocated into RUs of the
    /// same handle; isolation survives garbage collection.
    PersistentlyIsolated,
}

/// Garbage-collection victim selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPolicy {
    /// Pick the full RU with the fewest valid pages (the policy assumed
    /// by the paper's theoretical model, Appendix A.2).
    Greedy,
    /// Pick the oldest full RU regardless of valid count. Kept as an
    /// ablation to show how victim selection changes DLWA.
    Fifo,
}

/// Configuration for [`crate::Ftl`].
#[derive(Debug, Clone)]
pub struct FtlConfig {
    /// NAND geometry. Reclaim units are the geometry's superblocks.
    pub geometry: Geometry,
    /// Device overprovisioning as a fraction of raw capacity in `[0, 1)`.
    /// The PM9D3-class default is 7%; the paper says device OP "ranges
    /// from 7-20% of SSD capacity" (§6.3).
    pub op_fraction: f64,
    /// Number of reclaim unit handles the device exposes (the paper's
    /// device: 8 initially isolated RUHs, 1 RG).
    pub num_ruhs: u8,
    /// Number of reclaim groups. RUs are partitioned contiguously into
    /// groups (real devices typically bound groups to channel/die sets);
    /// placement identifiers select `<RG, RUH>` and each RUH references
    /// one RU per group, exactly as the FDP proposal defines. The
    /// paper's device exposes a single group.
    pub num_rgs: u16,
    /// Isolation guarantee for all handles.
    pub ruh_type: RuhType,
    /// GC victim selection policy.
    pub gc_policy: GcPolicy,
    /// Start GC when the free-RU pool falls to this many RUs. Must be at
    /// least `num_ruhs + 2` headroom is *not* required — GC destinations
    /// are carved from the pool — but it must be ≥ 2 so a relocation
    /// destination always exists.
    pub gc_threshold_rus: u32,
    /// Rated P/E cycles per block.
    pub pe_limit: u32,
    /// NAND latency model.
    pub latency: LatencyModel,
    /// Seed for deterministic latency jitter.
    pub seed: u64,
    /// Capacity of the FDP event ring buffer.
    pub event_log_capacity: usize,
}

impl FtlConfig {
    /// The experiment-harness default: scaled 16 GiB device, 7% OP,
    /// 8 initially isolated RUHs, greedy GC.
    pub fn scaled_default() -> Self {
        FtlConfig {
            geometry: Geometry::scaled_default(),
            op_fraction: 0.07,
            num_ruhs: 8,
            num_rgs: 1,
            ruh_type: RuhType::InitiallyIsolated,
            gc_policy: GcPolicy::Greedy,
            gc_threshold_rus: 4,
            pe_limit: u32::MAX, // experiments run many device turnovers
            latency: LatencyModel::default(),
            seed: 1,
            event_log_capacity: 4096,
        }
    }

    /// Small configuration for unit tests (tiny geometry, zero latency).
    pub fn tiny_test() -> Self {
        FtlConfig {
            geometry: Geometry::tiny_test(),
            op_fraction: 0.25,
            num_ruhs: 4,
            num_rgs: 1,
            ruh_type: RuhType::InitiallyIsolated,
            gc_policy: GcPolicy::Greedy,
            gc_threshold_rus: 2,
            pe_limit: u32::MAX,
            latency: LatencyModel::zero(),
            seed: 1,
            event_log_capacity: 256,
        }
    }

    /// Number of LBAs exported to the host after reserving OP space,
    /// rounded down to a whole RU so the exported space tiles RUs evenly.
    pub fn exported_lbas(&self) -> u64 {
        let total = self.geometry.total_pages();
        let usable = (total as f64 * (1.0 - self.op_fraction)).floor() as u64;
        let per_ru = self.geometry.pages_per_superblock();
        (usable / per_ru) * per_ru
    }

    /// Reclaim units per reclaim group (contiguous partition).
    pub fn rus_per_rg(&self) -> u32 {
        self.geometry.superblocks() / self.num_rgs as u32
    }

    /// Exported capacity in bytes.
    pub fn exported_bytes(&self) -> u64 {
        self.exported_lbas() * self.geometry.page_size as u64
    }

    /// Validates internal consistency. Returns a human-readable reason on
    /// failure.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.op_fraction) {
            return Err(format!("op_fraction {} outside [0,1)", self.op_fraction));
        }
        if self.num_ruhs == 0 {
            return Err("num_ruhs must be >= 1".into());
        }
        if self.num_rgs == 0 {
            return Err("num_rgs must be >= 1".into());
        }
        if !(self.geometry.superblocks() as u64).is_multiple_of(self.num_rgs as u64) {
            return Err(format!(
                "{} reclaim units do not partition evenly into {} reclaim groups",
                self.geometry.superblocks(),
                self.num_rgs
            ));
        }
        if self.gc_threshold_rus < 2 {
            return Err("gc_threshold_rus must be >= 2 (GC needs a destination RU)".into());
        }
        if self.exported_lbas() == 0 {
            return Err("exported capacity is zero".into());
        }
        if self.exported_lbas() >= self.geometry.total_pages() {
            return Err("no device overprovisioning: exported capacity equals raw capacity".into());
        }
        // The device must have enough reclaim units that every RUH can
        // hold an active RU, GC can hold its destination(s), and at least
        // one closed RU can exist as a victim candidate. Otherwise the
        // free pool can drain with no reclaimable victim.
        let gc_dests = match self.ruh_type {
            RuhType::InitiallyIsolated => 1u64,
            RuhType::PersistentlyIsolated => self.num_ruhs as u64,
        };
        // Every reclaim group must be able to host every RUH's active RU,
        // its GC destination(s), one closed victim candidate, and the
        // free-pool threshold.
        let needed = self.num_ruhs as u64 + gc_dests + 1 + self.gc_threshold_rus as u64;
        let per_rg = self.geometry.superblocks() as u64 / self.num_rgs as u64;
        if per_rg < needed {
            return Err(format!(
                "each of {} reclaim groups has {per_rg} RUs but {} RUHs + {gc_dests} GC \
                 destinations + threshold {} need at least {needed}",
                self.num_rgs, self.num_ruhs, self.gc_threshold_rus
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_default_validates() {
        FtlConfig::scaled_default().validate().unwrap();
    }

    #[test]
    fn tiny_test_validates() {
        FtlConfig::tiny_test().validate().unwrap();
    }

    #[test]
    fn exported_lbas_is_ru_aligned() {
        let c = FtlConfig::scaled_default();
        assert_eq!(c.exported_lbas() % c.geometry.pages_per_superblock(), 0);
        assert!(c.exported_lbas() < c.geometry.total_pages());
    }

    #[test]
    fn op_fraction_out_of_range_rejected() {
        let mut c = FtlConfig::tiny_test();
        c.op_fraction = 1.0;
        assert!(c.validate().is_err());
        c.op_fraction = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_ruhs_rejected() {
        let mut c = FtlConfig::tiny_test();
        c.num_ruhs = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_op_rejected() {
        let mut c = FtlConfig::tiny_test();
        // Exporting 100% leaves no spare pages for GC to ever win.
        c.op_fraction = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn too_few_rus_for_handles_rejected() {
        let mut c = FtlConfig::tiny_test();
        c.num_ruhs = 16; // tiny geometry has 16 RUs total; 16+1+1+2 > 16.
        assert!(c.validate().is_err());
        c.ruh_type = RuhType::PersistentlyIsolated;
        c.num_ruhs = 8; // 8 + 8 + 1 + 2 > 16.
        assert!(c.validate().is_err());
    }

    #[test]
    fn low_gc_threshold_rejected() {
        let mut c = FtlConfig::tiny_test();
        c.gc_threshold_rus = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn seven_percent_op_leaves_expected_spares() {
        let c = FtlConfig::scaled_default();
        let exported_rus = c.exported_lbas() / c.geometry.pages_per_superblock();
        let spares = c.geometry.superblocks() as u64 - exported_rus;
        // 7% of 256 RUs ≈ 17.9 → 18 spare RUs.
        assert_eq!(spares, 18);
    }
}
