//! Fidelity gate: the paper's headline (Fig. 6) on the smallest device
//! that leaves the pre-wrap transient.
//!
//! Segregating SOC and LOC writes by lifetime holds device write
//! amplification at ≈ 1 up to 100 % utilisation, while the intermixed
//! Non-FDP baseline climbs past 3. What matters for reproducing that is
//! the reclaim-unit count and running past the LOC's first wrap, not
//! bytes: 128 reclaim units of 1 MiB, four device turnovers of warm-up
//! and three of measurement. Any write stream that puts short-lived
//! pages into long-lived reclaim units (as fixed 64 KiB LOC footers
//! through the LOC's handle did) turns the FDP cells red here.

use std::slice;

use fdpcache::cache::builder::{build_stack, StoreKind};
use fdpcache::cache::{CacheConfig, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::nand::Geometry;
use fdpcache::workloads::{ReplayConfig, Replayer, WorkloadProfile};

const DEVICE_BYTES: u64 = 128 << 20;
const RU_BYTES: u64 = 1 << 20;
const BLOCK_BYTES: u64 = 4096;

/// What one cell reports: DLWA over its measurement window, ALWA and
/// the footer counters over the whole run.
struct Cell {
    dlwa: f64,
    alwa: f64,
    /// Footer bytes over all bytes the LOC sent to the device.
    footer_share_of_loc: f64,
    /// Footer bytes over all bytes the cache sent to the device.
    footer_share_of_all: f64,
}

/// One Fig. 6 cell: KV-cache profile, SOC 4 %, DRAM 4.5 % of the
/// namespace, one region per reclaim unit, keyspace 4× flash, seed 42.
fn cell(fdp: bool, utilization: f64) -> Cell {
    let geometry = Geometry::with_capacity(DEVICE_BYTES, RU_BYTES, BLOCK_BYTES as u32)
        .expect("128 MiB in 1 MiB reclaim units");
    let ftl = FtlConfig { geometry, ..FtlConfig::scaled_default() };
    let ns_bytes = (ftl.exported_bytes() as f64 * utilization) as u64;
    let config = CacheConfig {
        ram_bytes: (ns_bytes as f64 * 0.045) as u64,
        nvm: NvmConfig { soc_fraction: 0.04, region_bytes: RU_BYTES, ..NvmConfig::default() },
        use_fdp: fdp,
        ..CacheConfig::default()
    };
    let (ctrl, mut cache) = build_stack(ftl, StoreKind::Null, fdp, utilization, &config).unwrap();
    let profile = WorkloadProfile::meta_kv_cache();
    let keyspace = profile.keyspace_for(cache.navy().io().capacity_bytes(), 4.0);
    let mut gen = profile.generator(keyspace, 42);
    let replayer = Replayer::new(ReplayConfig {
        warmup_host_bytes: 4 * DEVICE_BYTES,
        measure_host_bytes: 3 * DEVICE_BYTES,
        interval_host_bytes: DEVICE_BYTES,
        ..ReplayConfig::default()
    });
    let label = if fdp { "FDP" } else { "Non-FDP" };
    let (caches, gens) = (slice::from_mut(&mut cache), slice::from_mut(&mut gen));
    let result = replayer.run(label, profile.name, caches, gens, &ctrl, |_, _| {}).unwrap();
    ctrl.with_ftl(|f| f.check_invariants());
    let loc = cache.navy().loc();
    let footer_bytes = (loc.stats().footer_blocks_written * BLOCK_BYTES) as f64;
    let loc_bytes = (loc.stats().seals * loc.region_bytes() as u64) as f64 + footer_bytes;
    Cell {
        dlwa: result.dlwa,
        alwa: result.alwa,
        footer_share_of_loc: footer_bytes / loc_bytes,
        footer_share_of_all: footer_bytes / cache.navy().io().stats().bytes_written as f64,
    }
}

#[test]
fn fdp_holds_dlwa_near_one_past_the_loc_wrap_and_nonfdp_does_not() {
    let fdp90 = cell(true, 0.9);
    let fdp100 = cell(true, 1.0);
    let non100 = cell(false, 1.0);
    assert!(fdp90.dlwa <= 1.02, "FDP DLWA {:.4} at 90 % utilisation", fdp90.dlwa);
    assert!(fdp100.dlwa <= 1.25, "FDP DLWA {:.4} at 100 % utilisation", fdp100.dlwa);
    assert!(non100.dlwa >= 3.0, "Non-FDP DLWA {:.4} at 100 %: nothing to segregate?", non100.dlwa);
    // Placement changes where bytes land, never how many the cache
    // sends: FDP must not cost application-level amplification.
    assert!(fdp100.alwa <= non100.alwa, "ALWA {:.4} vs {:.4}", fdp100.alwa, non100.alwa);
    // Who pays is a counter. A region's life costs a seal footer and a
    // retire footer of one block each plus the odd scrub, against 256
    // payload blocks; a footer written as long as its 4-block slot
    // would be 4.7 % of the LOC's bytes.
    for c in [&fdp90, &fdp100, &non100] {
        assert!(
            c.footer_share_of_loc < 0.015 && c.footer_share_of_all < 0.005,
            "footers are {:.2} % of LOC bytes, {:.2} % of all device bytes",
            c.footer_share_of_loc * 100.0,
            c.footer_share_of_all * 100.0
        );
    }
}
