//! Multi-tenant flash caching (paper §6.7): two independent cache
//! instances share one FDP SSD, each with its own namespace and its own
//! pair of reclaim unit handles. Without FDP this deployment was not
//! viable — host overprovisioning would have eaten half the device.
//!
//! Run with: `cargo run --release --example multi_tenant`

use fdpcache::cache::builder::{build_cache, build_device, create_namespace, StoreKind};
use fdpcache::cache::{CacheConfig, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::nand::Geometry;
use fdpcache::placement::RoundRobinPolicy;
use fdpcache::workloads::{ReplayConfig, Replayer, WorkloadProfile};

fn main() {
    let mut ftl = FtlConfig::scaled_default();
    ftl.geometry = Geometry::with_capacity(2 << 30, 32 << 20, 4096).expect("geometry");
    ftl.op_fraction = 0.12;
    let device_bytes = ftl.geometry.capacity_bytes();

    let ctrl = build_device(ftl, StoreKind::Null, true).expect("device");

    // Tenant A gets RUHs {0,1}; tenant B gets {2,3}. Each namespace is
    // half the exported capacity — the whole device is in use, no host
    // overprovisioning anywhere.
    let ns_a = create_namespace(&ctrl, 0.5, vec![0, 1]).expect("ns A");
    let ns_b = create_namespace(&ctrl, 1.0, vec![2, 3]).expect("ns B");

    let cfg = CacheConfig {
        ram_bytes: 32 << 20,
        ram_item_overhead: 31,
        nvm: NvmConfig { soc_fraction: 0.04, ..NvmConfig::default() },
        use_fdp: true,
    };
    let mut tenants = [ns_a, ns_b]
        .map(|ns| build_cache(&ctrl, ns, &cfg, Box::new(RoundRobinPolicy::new())).expect("tenant"));

    // Each tenant replays its own write-heavy stream; the replayer serves
    // them round-robin until three full device writes have landed.
    let profile = WorkloadProfile::wo_kv_cache();
    let mut gens = [1, 2].map(|seed| profile.generator(200_000, seed));
    let replayer = Replayer::new(ReplayConfig {
        warmup_host_bytes: 0,
        measure_host_bytes: device_bytes * 3,
        interval_host_bytes: device_bytes / 2,
        ..ReplayConfig::default()
    });
    let r = replayer
        .run("FDP", profile.name, &mut tenants, &mut gens, &ctrl, |_, _| {})
        .expect("replay");

    println!("two tenants, {} ops total, {} GiB host writes", r.ops, r.host_bytes >> 30);
    println!("shared-device DLWA: {:.2} (each tenant's SOC/LOC on its own RUHs)", r.dlwa);
    println!(
        "tenant A flash writes: {} MiB, tenant B flash writes: {} MiB",
        tenants[0].navy().io().stats().bytes_written >> 20,
        tenants[1].navy().io().stats().bytes_written >> 20,
    );
}
