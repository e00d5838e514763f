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
//! Filled writes ([`DataStore::fill_blocks`]) are checked twice over:
//! through `MemStore`'s in-place override and through the trait's
//! default (one temporary buffer, then `write_blocks`), which
//! [`DefaultFill`] keeps by forwarding everything else.

use std::collections::HashMap;

use proptest::prelude::*;

use fdpcache_nvme::{DataStore, MemStore};

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
}

/// One datastore operation. Payload bytes derive from a fill byte plus
/// the block index, so every block of a vectored write is distinct.
#[derive(Debug, Clone)]
enum StoreOp {
    /// Per-block write `(lba, fill)`.
    Write(u64, u8),
    /// Vectored write `(lba, nlb, fill)`.
    WriteBlocks(u64, u8, u8),
    /// Filled write `(lba, nlb, fill)`: the same bytes as `WriteBlocks`,
    /// produced by the store's fill callback.
    FillBlocks(u64, u8, u8),
    /// Vectored read-and-compare `(lba, nlb)`.
    ReadBlocks(u64, u8),
    /// Vectored discard `(lba, nlb)`.
    Discard(u64, u8),
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (0..LBAS, any::<u8>()).prop_map(|(l, f)| StoreOp::Write(l, f)),
        (0..LBAS - 16, 1..16u8, any::<u8>()).prop_map(|(l, n, f)| StoreOp::WriteBlocks(l, n, f)),
        (0..LBAS - 16, 1..16u8, any::<u8>()).prop_map(|(l, n, f)| StoreOp::FillBlocks(l, n, f)),
        (0..LBAS - 16, 1..16u8).prop_map(|(l, n)| StoreOp::ReadBlocks(l, n)),
        (0..LBAS - 16, 1..16u8).prop_map(|(l, n)| StoreOp::Discard(l, n)),
    ]
}

fn block_payload(fill: u8, i: u64) -> Vec<u8> {
    let mut b = vec![fill; BLOCK];
    b[0] = i as u8;
    b
}

/// A [`MemStore`] behind the trait's default `fill_blocks`.
struct DefaultFill(MemStore);

impl DataStore for DefaultFill {
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
        StoreOp::FillBlocks(lba, nlb, fill) => {
            // Byte `p` of the command is byte `p % BLOCK` of its block.
            let produce = |at: usize, out: &mut [u8]| {
                for (i, b) in out.iter_mut().enumerate() {
                    let p = at + i;
                    *b = block_payload(fill, lba + (p / BLOCK) as u64)[p % BLOCK];
                }
            };
            store.fill_blocks(lba, nlb as u64, BLOCK, &produce);
            for i in 0..nlb as u64 {
                model.write(lba + i, &block_payload(fill, lba + i));
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
    }
}

/// Verifies every LBA of the range agrees between store and model,
/// through the per-block read path.
fn assert_full_equivalence(store: &MemStore, model: &Model) {
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

    /// The same, with every filled write going through the trait's
    /// default `fill_blocks` instead of the slab's in-place override.
    #[test]
    fn default_fill_equals_hashmap_model(ops in proptest::collection::vec(store_op(), 1..120)) {
        let store = DefaultFill(MemStore::with_capacity(LBAS, BLOCK as u32));
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
                StoreOp::FillBlocks(l, n, f) => {
                    let (b, n) = place(l, n);
                    StoreOp::FillBlocks(b, n, f)
                }
                StoreOp::ReadBlocks(l, n) => {
                    let (b, n) = place(l, n);
                    StoreOp::ReadBlocks(b, n)
                }
                StoreOp::Discard(l, n) => {
                    let (b, n) = place(l, n);
                    StoreOp::Discard(b, n)
                }
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
                    StoreOp::WriteBlocks(lba, nlb, fill) | StoreOp::FillBlocks(lba, nlb, fill) => {
                        for i in 0..*nlb as u64 {
                            model.write(lba + i, &block_payload(*fill, lba + i));
                        }
                    }
                    StoreOp::Discard(lba, nlb) => {
                        for i in 0..*nlb as u64 {
                            model.discard(lba + i);
                        }
                    }
                }
            }
        }
        assert_full_equivalence(&store, &model);
    }
}
