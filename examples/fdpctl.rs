//! `fdpctl` — an `nvme-cli`-style diagnostic walk over the simulated
//! device: identify the controller, read the FDP configuration and
//! statistics log pages, attribute writes per reclaim unit handle —
//! for a cache's handles split by purpose, from the engines' own
//! counters — and drain the event log.
//!
//! The paper's evaluation drives all of its measurements through
//! exactly these interfaces ("We measure DLWA by using the nvme-cli tool
//! to query log pages (nvme get-log) from the SSD controller", §6.1);
//! this example shows every one of them working on the simulator.
//!
//! Run with: `cargo run --release --example fdpctl`

use fdpcache::cache::builder::{build_cache, build_device, create_namespace, StoreKind};
use fdpcache::cache::{CacheConfig, NvmConfig};
use fdpcache::ftl::{FdpEvent, FtlConfig};
use fdpcache::nand::Geometry;
use fdpcache::placement::RoundRobinPolicy;
use fdpcache::workloads::{serve, WorkloadProfile};

fn main() {
    // A small FDP device: 1 GiB, 32 MiB reclaim units, 8 handles.
    let mut ftl = FtlConfig::scaled_default();
    ftl.geometry = Geometry::with_capacity(1 << 30, 32 << 20, 4096).expect("valid geometry");
    let ctrl = build_device(ftl, StoreKind::Null, true).expect("device");

    // -- identify (nvme id-ctrl) --------------------------------------
    {
        let c = &ctrl;
        let id = c.identify();
        println!("controller : {}", id.model);
        println!("capacity   : {} MiB", id.capacity_bytes >> 20);
        println!("lba size   : {} B", id.lba_bytes);
        println!("fdp        : supported={} enabled={}", id.fdp_supported, id.fdp_enabled);
    }

    // -- FDP configuration log ----------------------------------------
    {
        let c = &ctrl;
        let cfg_log = c.fdp_config_log();
        let cfg = cfg_log.active_config();
        println!(
            "\nfdp config : {} RUHs, {} RG(s), {:?}, RU = {} MiB",
            cfg.nruh,
            cfg.nrg,
            cfg.ruh_type,
            cfg.ru_bytes >> 20
        );
    }

    // -- generate some placed traffic ----------------------------------
    // Namespace over 80% of the device with all 8 handles mapped; a hot
    // random stream through handle 1 and a cold sequential stream
    // through handle 2 — CacheLib's SOC/LOC pattern in miniature.
    let nsid = create_namespace(&ctrl, 0.8, (0..8).collect()).expect("namespace");
    let blocks = ctrl.namespace(nsid).expect("ns exists").lba_count;
    let data = vec![0u8; 4096];
    let hot_span = blocks / 10;
    let mut x = 0xC0FFEEu64;
    let mut cold = hot_span;
    for i in 0..blocks * 3 {
        if i % 2 == 0 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ctrl.write(nsid, x % hot_span, &data, Some(1)).expect("hot write");
        } else {
            ctrl.write(nsid, cold, &data, Some(2)).expect("cold write");
            cold += 1;
            if cold >= blocks {
                cold = hot_span;
            }
        }
    }

    // -- a cache beside it ----------------------------------------------
    // Half of what is left (the other half stays host overprovisioning).
    // Handles 3, 4 and 5 become its SOC, LOC and LOC-footer streams; a
    // KV-cache mix runs until the LOC has wrapped.
    let cache_ns = create_namespace(&ctrl, 0.5, vec![3, 4, 5]).expect("cache namespace");
    let cache_bytes = ctrl.namespace(cache_ns).expect("ns exists").capacity_bytes(4096);
    let config = CacheConfig {
        ram_bytes: cache_bytes / 20,
        nvm: NvmConfig { region_bytes: 4 << 20, ..NvmConfig::default() },
        ..CacheConfig::default()
    };
    let mut cache = build_cache(&ctrl, cache_ns, &config, Box::new(RoundRobinPolicy::new()))
        .expect("cache fits the namespace");
    let profile = WorkloadProfile::meta_kv_cache();
    let mut gen = profile.generator(profile.keyspace_for(cache_bytes, 4.0), 42);
    while cache.navy().io().stats().bytes_written < 3 * cache_bytes {
        let req = gen.next_request();
        serve(&mut cache, req).unwrap_or_else(|e| panic!("{req:?}: {e}"));
    }

    // -- FDP statistics log (nvme get-log: HBMW / MBMW) ----------------
    {
        let c = &ctrl;
        let stats = c.fdp_stats_log();
        println!("\nstatistics log:");
        println!("  host bytes written  : {} MiB", stats.host_bytes_written >> 20);
        println!("  media bytes written : {} MiB", stats.media_bytes_written >> 20);
        println!("  media relocations   : {}", stats.media_relocated_events);
        println!("  DLWA                : {:.3}", stats.dlwa());
    }

    // -- RUH usage log ---------------------------------------------------
    {
        let c = &ctrl;
        let usage = c.ruh_usage_log();
        println!("\nRUH usage (non-idle handles):");
        for d in usage.descriptors.iter().filter(|d| d.host_pages_written > 0) {
            println!(
                "  ruh {} : {:>8} host pages ({:>4.1}%), {} RU switches, {} pages free in active RU",
                d.ruh,
                d.host_pages_written,
                usage.share(d.ruh) * 100.0,
                d.ru_switches,
                d.available_pages
            );
        }
    }

    // -- who wrote what: the cache's handles by purpose ------------------
    {
        let usage = ctrl.ruh_usage_log();
        let ns = ctrl.namespace(cache_ns).expect("ns exists");
        let (soc, loc) = (cache.navy().soc(), cache.navy().loc());
        let region_blocks = loc.region_bytes() as u64 / 4096;
        let rows = [
            ("soc buckets", soc.handle(), soc.stats().page_writes),
            ("loc payload", loc.handle(), loc.stats().seals * region_blocks),
            ("loc footers", loc.meta_handle(), loc.stats().footer_blocks_written),
        ];
        println!("\ncache on namespace {cache_ns} (engine counters vs the handle's host pages):");
        for (purpose, handle, blocks) in rows {
            let ruh = ns.resolve_pid(handle.dspec().expect("fdp handle")).expect("valid pid");
            let pages = usage.descriptors[ruh as usize].host_pages_written;
            println!("  ruh {ruh} : {purpose} {blocks:>8} blocks, {pages:>8} host pages");
        }
    }

    // -- event log -------------------------------------------------------
    {
        let c = &ctrl;
        let events = c.drain_fdp_events();
        let relocated =
            events.iter().filter(|e| matches!(e, FdpEvent::MediaRelocated { .. })).count();
        let switched = events.iter().filter(|e| matches!(e, FdpEvent::RuSwitched { .. })).count();
        println!(
            "\nevent log: {} buffered ({relocated} MediaRelocated, {switched} RuSwitched)",
            events.len()
        );
        for e in events.iter().take(5) {
            println!("  {e:?}");
        }
    }

    // -- wear ------------------------------------------------------------
    {
        let c = &ctrl;
        let wear = c.with_ftl(|f| f.wear());
        println!(
            "\nwear: P/E min {} / mean {:.1} / max {}, bad superblocks {}",
            wear.min_pe, wear.mean_pe, wear.max_pe, wear.bad_superblocks
        );
    }
}
