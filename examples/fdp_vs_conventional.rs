//! FDP vs conventional SSD, side by side: replay the same KV-cache
//! workload against the same device twice — once with FDP data
//! segregation, once with everything intermixed on the default handle —
//! and compare DLWA, GC events and tail latency.
//!
//! This is the paper's headline experiment (Figures 5/6) in miniature.
//!
//! Run with: `cargo run --release --example fdp_vs_conventional`

use std::slice;

use fdpcache::cache::builder::{build_stack, StoreKind};
use fdpcache::cache::{CacheConfig, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::nand::Geometry;
use fdpcache::workloads::{ReplayConfig, Replayer, WorkloadProfile};

fn run(fdp: bool) {
    let mut ftl = FtlConfig::scaled_default();
    ftl.geometry = Geometry::with_capacity(2 << 30, 32 << 20, 4096).expect("geometry");
    ftl.op_fraction = 0.12;
    let device_bytes = ftl.geometry.capacity_bytes();

    let cache_cfg = CacheConfig {
        ram_bytes: 64 << 20,
        ram_item_overhead: 31,
        nvm: NvmConfig { soc_fraction: 0.04, ..NvmConfig::default() },
        use_fdp: fdp,
    };
    // 100% of the exported capacity: no host overprovisioning at all —
    // the deployment the paper says is only viable with FDP.
    let (ctrl, mut cache) = build_stack(ftl, StoreKind::Null, fdp, 1.0, &cache_cfg).expect("stack");

    let profile = WorkloadProfile::meta_kv_cache();
    let keyspace = profile.keyspace_for(cache.navy().io().capacity_bytes(), 4.0);
    let mut gen = profile.generator(keyspace, 7);
    let replayer = Replayer::new(ReplayConfig {
        warmup_host_bytes: device_bytes * 3,
        measure_host_bytes: device_bytes * 2,
        interval_host_bytes: device_bytes / 8,
        max_ops: u64::MAX,
        queue_depth: 1,
    });
    let label = if fdp { "FDP" } else { "Non-FDP" };
    let (caches, gens) = (slice::from_mut(&mut cache), slice::from_mut(&mut gen));
    let r = replayer.run(label, profile.name, caches, gens, &ctrl, |_, _| {}).expect("replay");
    println!(
        "{label:>8}: DLWA {:.2}  GC events {:>5}  p99 read {:>4.0} us  p99 write {:>5.0} us  hit {:.1}%",
        r.dlwa_steady, r.gc_events, r.p99_read_us, r.p99_write_us, r.hit_ratio * 100.0
    );
}

fn main() {
    println!("KV-cache workload at 100% device utilization, 4% SOC:\n");
    run(true);
    run(false);
    println!("\nSame cache, same workload, same device — placement is the only difference.");
}
