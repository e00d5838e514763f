//! Trace capture and replay: record a workload to a binary trace file,
//! load it back, and replay it against a cache — the "run captured
//! traces" half of the paper's CacheBench methodology (§6.1).
//!
//! Run with: `cargo run --release --example trace_replay`

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::slice;

use fdpcache::cache::builder::{build_stack, StoreKind};
use fdpcache::cache::{CacheConfig, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::workloads::tracefile::{self, FileReplay};
use fdpcache::workloads::{ReplayConfig, Replayer, WorkloadProfile};

fn main() {
    let path = std::env::temp_dir().join("fdpcache_twitter_c12.trace");

    // 1. Capture: record 200k requests of the Twitter cluster12 profile
    //    to a binary trace file (13 bytes per record).
    let profile = WorkloadProfile::twitter_cluster12();
    let mut gen = profile.generator(200_000, 42);
    {
        let file = File::create(&path).expect("create trace file");
        let n = tracefile::record(&mut gen, 200_000, BufWriter::new(file)).expect("record trace");
        let bytes = std::fs::metadata(&path).expect("stat").len();
        println!("captured {n} requests -> {} ({} KiB)", path.display(), bytes >> 10);
    }

    // 2. Load the capture. FileReplay loops at end-of-trace, so a short
    //    capture can still drive a long experiment, just like replaying
    //    a 5-day production trace for a 60-hour run.
    let file = File::open(&path).expect("open trace file");
    let mut replay = FileReplay::load(BufReader::new(file)).expect("load trace");
    println!("loaded {} records", replay.len());

    // 3. Replay against a small FDP stack.
    let mut ftl = FtlConfig::scaled_default();
    ftl.geometry =
        fdpcache::nand::Geometry::with_capacity(1 << 30, 32 << 20, 4096).expect("valid geometry");
    let cache_cfg = CacheConfig {
        ram_bytes: 4 << 20,
        ram_item_overhead: 31,
        nvm: NvmConfig { soc_fraction: 0.04, ..NvmConfig::default() },
        use_fdp: true,
    };
    let (ctrl, mut cache) =
        build_stack(ftl, StoreKind::Null, true, 0.9, &cache_cfg).expect("stack");
    let replayer = Replayer::new(ReplayConfig {
        warmup_host_bytes: 256 << 20,
        measure_host_bytes: 1 << 30,
        interval_host_bytes: 128 << 20,
        max_ops: u64::MAX,
        queue_depth: 1,
    });
    let (caches, sources) = (slice::from_mut(&mut cache), slice::from_mut(&mut replay));
    let result = replayer
        .run("FDP", "twitter-c12 (recorded)", caches, sources, &ctrl, |_, _| {})
        .expect("replay");

    println!(
        "\nreplayed {} ops ({} trace loops): DLWA {:.2}, hit {:.1}%, ALWA {:.2}",
        result.ops,
        replay.loops,
        result.dlwa,
        result.hit_ratio * 100.0,
        result.alwa
    );

    let _ = std::fs::remove_file(&path);
}
