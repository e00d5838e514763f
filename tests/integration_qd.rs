//! Queue-depth replay regression: the batched submission pipeline must
//! keep QD-1 bit-identical to the legacy synchronous path, stay
//! deterministic at every depth, and actually buy virtual-time
//! throughput at QD ≥ 4 on the region-seal-heavy workload.

use std::slice;

use fdpcache::cache::builder::{build_stack, StoreKind};
use fdpcache::cache::{CacheConfig, HybridCache, NvmConfig};
use fdpcache::ftl::FtlConfig;
use fdpcache::nand::LatencyModel;
use fdpcache::placement::SharedController;
use fdpcache::workloads::{ExperimentResult, ReplayConfig, Replayer, WorkloadProfile};

fn stack() -> (SharedController, HybridCache) {
    let ftl = FtlConfig {
        latency: LatencyModel::default(), // tiny_test is zero-latency
        ..FtlConfig::tiny_test()
    };
    let config = CacheConfig {
        ram_bytes: 64 << 10,
        ram_item_overhead: 0,
        nvm: NvmConfig { soc_fraction: 0.1, region_bytes: 16 * 4096, ..NvmConfig::default() },
        use_fdp: true,
    };
    build_stack(ftl, StoreKind::Null, true, 0.9, &config).unwrap()
}

fn replay(queue_depth: usize) -> ExperimentResult {
    let (ctrl, mut cache) = stack();
    let profile = WorkloadProfile::loc_seal_heavy();
    let mut gen = profile.generator(5_000, 7);
    let replayer = Replayer::new(ReplayConfig {
        warmup_host_bytes: 1 << 20,
        measure_host_bytes: 12 << 20,
        interval_host_bytes: 4 << 20,
        max_ops: 100_000,
        queue_depth,
    });
    let (caches, gens) = (slice::from_mut(&mut cache), slice::from_mut(&mut gen));
    replayer.run("qd", profile.name, caches, gens, &ctrl, |_, _| {}).unwrap()
}

#[test]
fn qd1_replay_is_bit_identical_across_runs() {
    let a = replay(1);
    let b = replay(1);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.host_bytes, b.host_bytes);
    assert_eq!(a.media_bytes, b.media_bytes);
    assert_eq!(a.kops.to_bits(), b.kops.to_bits(), "virtual throughput must be bit-identical");
    assert_eq!(a.p99_write_us.to_bits(), b.p99_write_us.to_bits());
    assert_eq!(a.dlwa.to_bits(), b.dlwa.to_bits());
}

#[test]
fn qd1_batched_seal_matches_legacy_synchronous_write_path() {
    // The legacy path sealed a region as N sequential synchronous
    // 64 KiB writes. Reproduce it against the batched seal on an
    // identical second stack: same chunks, same order, one write call
    // each — every observable must match the batch exactly.
    use fdpcache::nvme::FillSource;
    use fdpcache::placement::{IoBatch, IoManager, PlacementHandle};
    use std::sync::Arc;

    let build_io = || {
        let ftl = FtlConfig { latency: LatencyModel::default(), ..FtlConfig::tiny_test() };
        let ctrl = std::sync::Arc::new(
            fdpcache::nvme::Controller::new(ftl, Box::new(fdpcache::nvme::MemStore::new()))
                .unwrap(),
        );
        let nsid = ctrl.create_namespace(128, vec![0, 1]).unwrap();
        IoManager::new(ctrl, nsid, 4).unwrap()
    };
    let mut batched = build_io();
    let mut sequential = build_io();
    let handle = PlacementHandle::with_dspec(1);
    // A 256 KiB "region" written as 16-block chunks, several times over
    // (overwrites force GC accounting through both paths identically).
    // The batch shares one source of the region from each chunk's
    // offset on; each sequential write gets a source of its own chunk.
    let region = |from: usize| -> FillSource {
        Arc::new(move |at, out: &mut [u8]| {
            for (i, b) in out.iter_mut().enumerate() {
                *b = ((from + at + i) % 251) as u8;
            }
        })
    };
    let (chunks, chunk_blocks) = (4usize, 16u64);
    let chunk_bytes = chunk_blocks as usize * 4096;
    let whole = region(0);
    for _round in 0..4 {
        let mut batch = IoBatch::new();
        for c in 0..chunks {
            let block = c as u64 * chunk_blocks;
            batch.write_with(block, chunk_blocks, &whole, c * chunk_bytes, handle);
        }
        let batch_lat = batched.submit_batch(batch).unwrap();
        let seq_lat: Vec<u64> = (0..chunks)
            .map(|c| {
                let block = c as u64 * chunk_blocks;
                sequential
                    .write_with(block, chunk_blocks, &region(c * chunk_bytes), 0, handle)
                    .unwrap()
            })
            .collect();
        assert_eq!(batch_lat, seq_lat, "per-chunk latencies must match");
    }
    assert_eq!(batched.now_ns(), sequential.now_ns(), "virtual clocks must match");
    assert_eq!(batched.stats(), sequential.stats());
    assert_eq!(batched.write_latency().p50(), sequential.write_latency().p50());
    assert_eq!(batched.write_latency().p99(), sequential.write_latency().p99());
    assert_eq!(
        batched.controller().fdp_stats_log(),
        sequential.controller().fdp_stats_log(),
        "device-side accounting must match"
    );
    let mut expect = vec![0u8; chunks * chunk_bytes];
    whole(0, &mut expect);
    for io in [&mut batched, &mut sequential] {
        let mut out = vec![0u8; expect.len()];
        io.read(0, &mut out).unwrap();
        assert!(out == expect, "both paths store the region's bytes");
    }
}

#[test]
fn higher_queue_depth_raises_virtual_throughput() {
    let qd1 = replay(1);
    let qd4 = replay(4);
    // Same trace, same cache logic: identical logical work...
    assert_eq!(qd1.ops, qd4.ops);
    assert_eq!(qd1.host_bytes, qd4.host_bytes);
    // ...but the pipelined device finishes sooner in virtual time.
    assert!(
        qd4.kops >= 1.3 * qd1.kops,
        "QD4 virtual throughput must beat QD1 by >=1.3x: {} vs {}",
        qd4.kops,
        qd1.kops
    );
}

#[test]
fn queue_depth_replay_is_deterministic() {
    let a = replay(4);
    let b = replay(4);
    assert_eq!(a.kops.to_bits(), b.kops.to_bits());
    assert_eq!(a.host_bytes, b.host_bytes);
    assert_eq!(a.media_bytes, b.media_bytes);
}
