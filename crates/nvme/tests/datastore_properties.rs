//! Property tests for the slab-backed payload store: under any
//! interleaving of per-block and vectored writes, reads, and discards,
//! [`MemStore`] must be observationally equivalent to the obvious
//! hash-map model (one `Vec<u8>` per written LBA, zeros elsewhere) —
//! single-threaded op-for-op, and multi-threaded over disjoint
//! per-thread LBA stripes that deliberately interleave *within* slab
//! segments so shard locks are contended.
//!
//! The LBA range spans several slab segments, so vectored operations
//! regularly cross segment boundaries (the multi-lock-pass path).
//!
//! Deferred writes ([`DataStore::write_source`]) are checked twice
//! over: through `MemStore`'s override (a source recorded per slot and
//! called at read time) and through the trait's eager default (one
//! temporary buffer, then `write_blocks`), which [`EagerDefault`] keeps
//! by forwarding everything else.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use fdpcache_nvme::{DataStore, FillSource, MemStore};

/// Small blocks keep cases fast while preserving the slot arithmetic.
const BLOCK: usize = 16;
/// Spans 19 segment boundaries (segments are 256 blocks).
const LBAS: u64 = 5_000;

/// The reference model: sparse map of written blocks.
#[derive(Debug, Default)]
struct Model {
    blocks: HashMap<u64, Vec<u8>>,
}

impl Model {
    fn write(&mut self, lba: u64, data: &[u8]) {
        let mut v = data.to_vec();
        v.resize(BLOCK, 0);
        self.blocks.insert(lba, v);
    }

    fn read(&self, lba: u64) -> Vec<u8> {
        self.blocks.get(&lba).cloned().unwrap_or_else(|| vec![0u8; BLOCK])
    }

    fn discard(&mut self, lba: u64) {
        self.blocks.remove(&lba);
    }

    /// Block `lba + i` of a command `(lba, nlb, base)` holds the
    /// source's bytes from `base + i * BLOCK` on.
    fn write_deferred(&mut self, seed: u8, cmds: &[(u64, u8, u16)]) {
        for &(lba, nlb, base) in cmds {
            for i in 0..nlb as u64 {
                let at = base as usize + i as usize * BLOCK;
                let block: Vec<u8> = (at..at + BLOCK).map(|p| source_byte(seed, p)).collect();
                self.write(lba + i, &block);
            }
        }
    }
}

/// One datastore operation. Payload bytes derive from a fill byte plus
/// the block index, so every block of a vectored write is distinct.
#[derive(Debug, Clone)]
enum StoreOp {
    /// Per-block write `(lba, fill)`.
    Write(u64, u8),
    /// Vectored write `(lba, nlb, fill)`.
    WriteBlocks(u64, u8, u8),
    /// Vectored read-and-compare `(lba, nlb)`.
    ReadBlocks(u64, u8),
    /// Vectored discard `(lba, nlb)`.
    Discard(u64, u8),
    /// Deferred writes `(seed, commands)`: one source made from `seed`,
    /// stored by every command `(lba, nlb, base)` in turn — a batch
    /// whose commands may overlap and may start anywhere in the source.
    Deferred(u8, Vec<(u64, u8, u16)>),
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (0..LBAS, any::<u8>()).prop_map(|(l, f)| StoreOp::Write(l, f)),
        (0..LBAS - 16, 1..16u8, any::<u8>()).prop_map(|(l, n, f)| StoreOp::WriteBlocks(l, n, f)),
        (0..LBAS - 16, 1..16u8).prop_map(|(l, n)| StoreOp::ReadBlocks(l, n)),
        (0..LBAS - 16, 1..16u8).prop_map(|(l, n)| StoreOp::Discard(l, n)),
        (any::<u8>(), deferred_batch()).prop_map(|(seed, cmds)| StoreOp::Deferred(seed, cmds)),
    ]
}

/// The commands of one deferred batch, all within 40 blocks of one
/// start, so they often overlap or abut at unrelated source offsets.
/// Half the starts sit within 16 blocks before a segment boundary
/// (segments are 256 blocks), so many commands straddle it.
fn deferred_batch() -> impl Strategy<Value = Vec<(u64, u8, u16)>> {
    let start =
        prop_oneof![0..LBAS - 48, (1..LBAS / 256, 1..=16u64).prop_map(|(s, b)| s * 256 - b)];
    let cmds = proptest::collection::vec((0..24u64, 1..16u8, any::<u16>()), 1..6);
    (start, cmds).prop_map(|(start, cmds)| {
        cmds.into_iter().map(|(off, nlb, base)| (start + off, nlb, base)).collect()
    })
}

/// Byte `p` of the source made from `seed`.
fn source_byte(seed: u8, p: usize) -> u8 {
    ((p as u64 ^ (seed as u64) << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

fn source(seed: u8) -> FillSource {
    Arc::new(move |at, out: &mut [u8]| {
        for (i, b) in out.iter_mut().enumerate() {
            *b = source_byte(seed, at + i);
        }
    })
}

fn block_payload(fill: u8, i: u64) -> Vec<u8> {
    let mut b = vec![fill; BLOCK];
    b[0] = i as u8;
    b
}

/// A [`MemStore`] behind the trait's default `write_source`: every
/// source's bytes are made at once.
struct EagerDefault(MemStore);

impl DataStore for EagerDefault {
    fn write_block(&self, lba: u64, data: &[u8]) {
        self.0.write_block(lba, data);
    }
    fn read_block(&self, lba: u64, out: &mut [u8]) -> bool {
        self.0.read_block(lba, out)
    }
    fn discard(&self, lba: u64) {
        self.0.discard(lba);
    }
    fn retains_data(&self) -> bool {
        true
    }
    fn write_blocks(&self, lba: u64, data: &[u8], block_bytes: usize) {
        self.0.write_blocks(lba, data, block_bytes);
    }
    fn read_blocks(&self, lba: u64, out: &mut [u8], block_bytes: usize) {
        self.0.read_blocks(lba, out, block_bytes);
    }
    fn discard_blocks(&self, lba: u64, count: u64) {
        self.0.discard_blocks(lba, count);
    }
}

/// Applies one op to both store and model, comparing reads on the way.
fn apply(store: &impl DataStore, model: &mut Model, op: &StoreOp) {
    match *op {
        StoreOp::Write(lba, fill) => {
            let b = block_payload(fill, lba);
            store.write_block(lba, &b);
            model.write(lba, &b);
        }
        StoreOp::WriteBlocks(lba, nlb, fill) => {
            let mut data = Vec::with_capacity(nlb as usize * BLOCK);
            for i in 0..nlb as u64 {
                data.extend_from_slice(&block_payload(fill, lba + i));
            }
            store.write_blocks(lba, &data, BLOCK);
            for i in 0..nlb as u64 {
                model.write(lba + i, &data[i as usize * BLOCK..(i as usize + 1) * BLOCK]);
            }
        }
        StoreOp::ReadBlocks(lba, nlb) => {
            let mut out = vec![0xEEu8; nlb as usize * BLOCK];
            store.read_blocks(lba, &mut out, BLOCK);
            let mut expect = Vec::with_capacity(out.len());
            for i in 0..nlb as u64 {
                expect.extend_from_slice(&model.read(lba + i));
            }
            assert_eq!(out, expect, "vectored read diverged at lba {lba} x{nlb}");
        }
        StoreOp::Discard(lba, nlb) => {
            store.discard_blocks(lba, nlb as u64);
            for i in 0..nlb as u64 {
                model.discard(lba + i);
            }
        }
        StoreOp::Deferred(seed, ref cmds) => {
            let src = source(seed);
            for &(lba, nlb, base) in cmds {
                store.write_source(lba, nlb as u64, BLOCK, &src, base as usize);
            }
            model.write_deferred(seed, cmds);
        }
    }
}

/// Verifies every LBA of the range agrees between store and model,
/// through the per-block read path and one vectored read of it all.
fn assert_full_equivalence(store: &MemStore, model: &Model) {
    let mut all = vec![0xEEu8; LBAS as usize * BLOCK];
    store.read_blocks(0, &mut all, BLOCK);
    for (lba, block) in all.chunks(BLOCK).enumerate() {
        assert_eq!(block, model.read(lba as u64), "vectored read diverged at lba {lba}");
    }
    for lba in 0..LBAS {
        let mut out = vec![0xEEu8; BLOCK];
        let present = store.read_block(lba, &mut out);
        assert_eq!(present, model.blocks.contains_key(&lba), "presence diverged at lba {lba}");
        if present {
            assert_eq!(out, model.read(lba), "payload diverged at lba {lba}");
        }
    }
    assert_eq!(store.len(), model.blocks.len(), "live-block count diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-threaded: any interleaved sequence of per-block writes,
    /// vectored writes, vectored reads and discards leaves the slab
    /// observationally equal to the hash-map model.
    #[test]
    fn slab_equals_hashmap_model(ops in proptest::collection::vec(store_op(), 1..120)) {
        let store = MemStore::with_capacity(LBAS, BLOCK as u32);
        let mut model = Model::default();
        for op in &ops {
            apply(&store, &mut model, op);
        }
        assert_full_equivalence(&store, &model);
    }

    /// The same, with every deferred write going through the trait's
    /// eager default instead of the slab's override.
    #[test]
    fn eager_default_equals_hashmap_model(ops in proptest::collection::vec(store_op(), 1..120)) {
        let store = EagerDefault(MemStore::with_capacity(LBAS, BLOCK as u32));
        let mut model = Model::default();
        for op in &ops {
            apply(&store, &mut model, op);
        }
        assert_full_equivalence(&store.0, &model);
    }

    /// Multi-threaded: four threads run independent op streams over
    /// disjoint LBA stripes that interleave *within* segments (stripe =
    /// `(lba / 4) % 4`), so every shard lock is contended while no two
    /// threads ever touch the same block. The result must equal the
    /// four streams applied sequentially to the model — i.e. the slab
    /// loses nothing and bleeds nothing across stripes under real
    /// parallelism.
    #[test]
    fn slab_is_linearizable_over_disjoint_stripes(
        streams in proptest::collection::vec(
            proptest::collection::vec(store_op(), 1..40), 4..5)
    ) {
        // Remap each thread's ops into its own interleaved stripe:
        // stripe t owns 4-block runs at (run % 4) == t, so vectored ops
        // stay within one run (nlb clamped to 4).
        let restripe = |op: &StoreOp, t: u64| -> StoreOp {
            let place = |lba: u64, nlb: u8| {
                let run = (lba / 4) % (LBAS / 16);
                let base = run * 16 + t * 4;
                (base, nlb.min(4).min((BLOCK) as u8))
            };
            match *op {
                StoreOp::Write(l, f) => {
                    let (b, _) = place(l, 1);
                    StoreOp::Write(b, f)
                }
                StoreOp::WriteBlocks(l, n, f) => {
                    let (b, n) = place(l, n);
                    StoreOp::WriteBlocks(b, n, f)
                }
                StoreOp::ReadBlocks(l, n) => {
                    let (b, n) = place(l, n);
                    StoreOp::ReadBlocks(b, n)
                }
                StoreOp::Discard(l, n) => {
                    let (b, n) = place(l, n);
                    StoreOp::Discard(b, n)
                }
                StoreOp::Deferred(seed, ref cmds) => StoreOp::Deferred(
                    seed,
                    cmds.iter()
                        .map(|&(l, n, base)| {
                            let (b, n) = place(l, n);
                            (b, n, base)
                        })
                        .collect(),
                ),
            }
        };
        let striped: Vec<Vec<StoreOp>> = streams
            .iter()
            .enumerate()
            .map(|(t, ops)| ops.iter().map(|op| restripe(op, t as u64)).collect())
            .collect();

        let store = MemStore::with_capacity(LBAS, BLOCK as u32);
        std::thread::scope(|scope| {
            for ops in &striped {
                let store = &store;
                scope.spawn(move || {
                    // Reads race nothing in their own stripe, so the
                    // model comparison inside `apply` stays valid
                    // per-thread.
                    let mut model = Model::default();
                    for op in ops {
                        apply(store, &mut model, op);
                    }
                });
            }
        });

        // Sequential re-application of all four streams (disjoint
        // stripes, so ordering between threads cannot matter).
        let mut model = Model::default();
        for ops in &striped {
            for op in ops {
                match op {
                    StoreOp::ReadBlocks(..) => {}
                    StoreOp::Write(lba, fill) => model.write(*lba, &block_payload(*fill, *lba)),
                    StoreOp::WriteBlocks(lba, nlb, fill) => {
                        for i in 0..*nlb as u64 {
                            model.write(lba + i, &block_payload(*fill, lba + i));
                        }
                    }
                    StoreOp::Discard(lba, nlb) => {
                        for i in 0..*nlb as u64 {
                            model.discard(lba + i);
                        }
                    }
                    StoreOp::Deferred(seed, cmds) => model.write_deferred(*seed, cmds),
                }
            }
        }
        assert_full_equivalence(&store, &model);
    }
}

/// A source the store keeps is let go run by run: each command holds
/// one share of it per segment it overlaps, and once every slot of that
/// run is overwritten (by bytes or by another source) or discarded, the
/// store holds no share of it — it cannot pin the values a source
/// captures for longer than their blocks live.
#[test]
fn store_drops_a_source_once_every_slot_it_backed_is_gone() {
    let store = MemStore::with_capacity(LBAS, BLOCK as u32);
    let kept = source(7);
    // 40 blocks across the 256-block segment boundary, in two commands:
    // run A is slots 236..256 of segment 0, run B slots 0..20 of
    // segment 1.
    store.write_source(236, 20, BLOCK, &kept, 0);
    store.write_source(256, 20, BLOCK, &kept, 20 * BLOCK);
    assert_eq!(Arc::strong_count(&kept), 3, "one share per run");
    let mut out = vec![0u8; 40 * BLOCK];
    store.read_blocks(236, &mut out, BLOCK);
    assert!(out.iter().enumerate().all(|(p, &b)| b == source_byte(7, p)));
    assert_eq!(Arc::strong_count(&kept), 3, "a read leaves the source in place");

    store.write_blocks(236, &[1u8; 10 * BLOCK], BLOCK);
    assert_eq!(Arc::strong_count(&kept), 3, "run A keeps 10 of its 20 slots");
    store.write_block(246, &[2u8; BLOCK]);
    assert_eq!(Arc::strong_count(&kept), 3, "run A keeps 9");
    store.discard_blocks(247, 15);
    assert_eq!(Arc::strong_count(&kept), 2, "run A is gone, run B keeps 14 of 20");
    store.write_source(262, 14, BLOCK, &source(8), 0);
    assert_eq!(Arc::strong_count(&kept), 1, "no slot still holds the source");
    store.read_blocks(236, &mut out, BLOCK);
    assert!(out[..10 * BLOCK].iter().all(|&b| b == 1));
    assert!(out[10 * BLOCK..11 * BLOCK].iter().all(|&b| b == 2));
    assert!(out[11 * BLOCK..26 * BLOCK].iter().all(|&b| b == 0), "discarded blocks read zero");
    assert!(out[26 * BLOCK..].iter().enumerate().all(|(p, &b)| b == source_byte(8, p)));
}

/// A byte write into the middle of a run splits it in two stretches
/// that still name it, and a read across the head, the written block,
/// the tail and a second run of the same source — at an offset that
/// does not continue the first run — gets each block's own bytes: the
/// read never joins the two runs into one source call.
#[test]
fn a_read_across_a_split_run_and_a_second_run_gets_each_blocks_bytes() {
    let store = MemStore::with_capacity(LBAS, BLOCK as u32);
    let shared = source(3);
    // Run 1: slots 10..18 from byte 0. Run 2 continues the slots, not
    // the bytes: slots 18..22 from byte 100 blocks on.
    store.write_source(10, 8, BLOCK, &shared, 0);
    store.write_source(18, 4, BLOCK, &shared, 100 * BLOCK);
    store.write_block(13, &[0xAB; BLOCK]);
    assert_eq!(Arc::strong_count(&shared), 3, "the split run keeps its share");

    let mut out = vec![0u8; 12 * BLOCK];
    store.read_blocks(10, &mut out, BLOCK);
    let block = |i: usize| &out[i * BLOCK..(i + 1) * BLOCK];
    let from = |at: usize| (0..BLOCK).map(move |p| source_byte(3, at + p));
    for i in [0, 1, 2, 4, 5, 6, 7] {
        assert!(block(i).iter().copied().eq(from(i * BLOCK)), "run 1, block {i}");
    }
    assert!(block(3).iter().all(|&b| b == 0xAB), "the written block");
    for i in 8..12 {
        assert!(block(i).iter().copied().eq(from((100 + i - 8) * BLOCK)), "run 2, block {i}");
    }

    // Writing over the head and the tail frees run 1; run 2 stays.
    store.write_blocks(10, &[1u8; 3 * BLOCK], BLOCK);
    assert_eq!(Arc::strong_count(&shared), 3, "the tail still names run 1");
    store.discard_blocks(14, 4);
    assert_eq!(Arc::strong_count(&shared), 2, "run 1 is gone");
    let mut tail = vec![0u8; 4 * BLOCK];
    store.read_blocks(18, &mut tail, BLOCK);
    assert!(tail.iter().enumerate().all(|(p, &b)| b == source_byte(3, 100 * BLOCK + p)));
}
