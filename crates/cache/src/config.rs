//! Cache configuration.

/// Flash (Navy) engine configuration. The engines follow the paper's
/// Navy set-up throughout: SOC buckets are one device block, LOC
/// regions are evicted FIFO (the theory model assumes FIFO too), and
/// every DRAM eviction is offered to flash.
#[derive(Debug, Clone)]
pub struct NvmConfig {
    /// Fraction of the namespace given to the SOC (the paper's "SOC
    /// size", default 4%). The remainder goes to the LOC.
    pub soc_fraction: f64,
    /// LOC region size in bytes (16 MiB default, erase-block aligned).
    pub region_bytes: u64,
    /// Objects strictly smaller than this go to the SOC.
    pub size_threshold: u32,
    /// Whether to TRIM a LOC region's blocks when the region is evicted
    /// (the paper's shelved "FDP specialized LOC eviction policy", §5.5
    /// lesson 1 — kept as an ablation flag, default off like CacheLib).
    pub trim_on_region_evict: bool,
    /// Device-lane parallelism for this cache's queue pair. (Queue
    /// *depth* is runtime state, not construction config: caches start
    /// synchronous at depth 1 and replay drivers raise it via
    /// `HybridCache::set_queue_depth` / `ConcurrentPool::set_queue_depth`
    /// — one knob, in the replay configuration.)
    pub io_lanes: usize,
}

impl Default for NvmConfig {
    fn default() -> Self {
        NvmConfig {
            soc_fraction: 0.04,
            region_bytes: 16 << 20,
            size_threshold: 2048,
            trim_on_region_evict: false,
            io_lanes: 8,
        }
    }
}

/// Hybrid cache configuration.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// DRAM cache budget in bytes (logical object bytes + per-item
    /// overhead).
    pub ram_bytes: u64,
    /// Per-item DRAM overhead in bytes (index + LRU metadata), modelled
    /// after CacheLib's ~31B/item handle + hashtable overhead.
    pub ram_item_overhead: u32,
    /// Flash engine configuration.
    pub nvm: NvmConfig,
    /// Whether to request FDP placement handles (the CacheLib
    /// `deviceEnableFDP` flag). With this off — or on a non-FDP device —
    /// all writes use the default handle.
    pub use_fdp: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            ram_bytes: 64 << 20,
            ram_item_overhead: 31,
            nvm: NvmConfig::default(),
            use_fdp: true,
        }
    }
}

impl CacheConfig {
    /// Validates the configuration against a device block size.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self, block_bytes: u32) -> Result<(), String> {
        // Both engines need blocks of their own: the engine pair has no
        // SOC-only or LOC-only layout.
        let f = self.nvm.soc_fraction;
        if !(f > 0.0 && f < 1.0) {
            return Err(format!("soc_fraction {f} outside (0,1)"));
        }
        if self.nvm.region_bytes == 0 || !self.nvm.region_bytes.is_multiple_of(block_bytes as u64) {
            return Err(format!(
                "region_bytes {} must be a positive multiple of the block size",
                self.nvm.region_bytes
            ));
        }
        if self.nvm.size_threshold as u64 > self.nvm.region_bytes {
            return Err("size_threshold larger than a region".into());
        }
        if self.ram_bytes == 0 {
            return Err("ram_bytes must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        CacheConfig::default().validate(4096).unwrap();
    }

    #[test]
    fn bad_region_size_rejected() {
        let mut c = CacheConfig::default();
        c.nvm.region_bytes = 5000;
        assert!(c.validate(4096).is_err());
        c.nvm.region_bytes = 0;
        assert!(c.validate(4096).is_err());
    }

    #[test]
    fn soc_fraction_bounds() {
        let mut c = CacheConfig::default();
        for bad in [-0.1, 0.0, 1.0, 1.5, f64::NAN] {
            c.nvm.soc_fraction = bad;
            assert!(c.validate(4096).is_err(), "soc_fraction {bad} must be rejected");
        }
        c.nvm.soc_fraction = 0.96;
        assert!(c.validate(4096).is_ok());
    }

    #[test]
    fn zero_ram_rejected() {
        let c = CacheConfig { ram_bytes: 0, ..CacheConfig::default() };
        assert!(c.validate(4096).is_err());
    }
}
