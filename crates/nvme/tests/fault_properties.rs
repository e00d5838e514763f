//! Property tests for the deterministic fault-injection layer:
//!
//! * **Invariants under faults** — for arbitrary seeded fault schedules
//!   and op sequences, the FTL's exhaustive `check_invariants` holds.
//! * **No acknowledged write lost or torn** — every write the
//!   controller completed successfully reads back byte-exact
//!   afterwards (faults are transient, so bounded retries see the
//!   data); failed writes — including mid-batch faults — leave the
//!   previous contents untouched (all-or-nothing batches).
//! * **Transparency** — an empty fault plan behaves bit-identically to
//!   no decorator at all (same results, same device log).
//! * **Replayability** — the same seed injects the identical fault
//!   schedule across reruns.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use fdpcache_ftl::FtlConfig;
use fdpcache_nvme::{
    BatchWrite, Controller, DeallocRange, FaultConfig, FaultStore, MemStore, NvmeError,
    WriteCompletion, WritePayload,
};

const NS_BLOCKS: u64 = 64;
const PAGE: usize = 4096;

#[derive(Debug, Clone)]
enum DevOp {
    /// One write of `nlb` blocks filled with `fill` at `slba`.
    Write { slba: u64, nlb: u64, fill: u8 },
    /// A vectored batch of single-block writes at distinct LBAs.
    Batch { slbas: Vec<u64>, fill: u8 },
    /// Read `nlb` blocks at `slba`.
    Read { slba: u64, nlb: u64 },
    /// Deallocate `nlb` blocks at `slba`.
    Trim { slba: u64, nlb: u64 },
}

fn dev_op() -> impl Strategy<Value = DevOp> {
    prop_oneof![
        (0..NS_BLOCKS - 4, 1..4u64, 0..255u8).prop_map(|(slba, nlb, fill)| DevOp::Write {
            slba,
            nlb,
            fill
        }),
        (proptest::collection::vec(0..NS_BLOCKS, 1..6), 0..255u8).prop_map(|(mut slbas, fill)| {
            slbas.sort_unstable();
            slbas.dedup();
            DevOp::Batch { slbas, fill }
        }),
        (0..NS_BLOCKS - 4, 1..4u64).prop_map(|(slba, nlb)| DevOp::Read { slba, nlb }),
        (0..NS_BLOCKS - 4, 1..4u64).prop_map(|(slba, nlb)| DevOp::Trim { slba, nlb }),
    ]
}

fn fault_config() -> impl Strategy<Value = FaultConfig> {
    (0u64..1 << 32, 0..50_000u32, 0..50_000u32, 0..50_000u32, 0..20_000u32, 0..50_000u32).prop_map(
        |(seed, r, w, d, c, b)| FaultConfig {
            seed,
            read_err_ppm: r,
            write_err_ppm: w,
            discard_err_ppm: d,
            corruption_ppm: c,
            busy_ppm: b,
            busy_penalty_ns: 1_000,
            scripted: Vec::new(),
        },
    )
}

fn build(fault: Option<FaultConfig>) -> Arc<Controller> {
    let store: Box<dyn fdpcache_nvme::DataStore> = match fault {
        Some(cfg) => Box::new(FaultStore::new(Box::new(MemStore::new()), cfg)),
        None => Box::new(MemStore::new()),
    };
    let c = Controller::new(FtlConfig::tiny_test(), store).expect("controller");
    c.create_namespace(NS_BLOCKS, vec![0, 1]).expect("namespace");
    Arc::new(c)
}

fn page(fill: u8) -> Vec<u8> {
    vec![fill; PAGE]
}

/// Applies one op; updates `model` only on success (acknowledged
/// effects). Injected faults are allowed; any other error is a bug.
fn apply(c: &Controller, op: &DevOp, model: &mut BTreeMap<u64, u8>) {
    match op {
        DevOp::Write { slba, nlb, fill } => {
            let data = vec![*fill; *nlb as usize * PAGE];
            match c.write(1, *slba, &data, None) {
                Ok(_) => {
                    for b in *slba..slba + nlb {
                        model.insert(b, *fill);
                    }
                }
                Err(e) => assert!(e.is_injected_fault(), "unexpected write error: {e}"),
            }
        }
        DevOp::Batch { slbas, fill } => {
            let data = page(*fill);
            let writes: Vec<BatchWrite<'_>> = slbas
                .iter()
                .map(|&slba| BatchWrite { slba, data: WritePayload::Bytes(&data), dspec: None })
                .collect();
            let state = c.open_namespace(1).expect("ns 1");
            let mut done = vec![WriteCompletion::default(); writes.len()];
            match c.write_batch_ns(&state, &writes, &mut done) {
                Ok(()) => {
                    for &b in slbas {
                        model.insert(b, *fill);
                    }
                }
                // All-or-nothing: a failed batch changes nothing.
                Err(e) => assert!(e.is_injected_fault(), "unexpected batch error: {e}"),
            }
        }
        DevOp::Read { slba, nlb } => {
            let mut out = vec![0u8; *nlb as usize * PAGE];
            match c.read(1, *slba, &mut out) {
                Ok(_) => {
                    // Every block in a successful read was mapped; its
                    // bytes must match the acknowledged model.
                    for (i, b) in (*slba..slba + nlb).enumerate() {
                        let fill = model.get(&b).copied().expect("successful read of mapped data");
                        assert!(
                            out[i * PAGE..(i + 1) * PAGE].iter().all(|&x| x == fill),
                            "torn read at block {b}"
                        );
                    }
                }
                Err(NvmeError::Unwritten(_)) => {
                    assert!(
                        (*slba..slba + nlb).any(|b| !model.contains_key(&b)),
                        "Unwritten for fully acknowledged range"
                    );
                }
                Err(e) => assert!(e.is_injected_fault(), "unexpected read error: {e}"),
            }
        }
        DevOp::Trim { slba, nlb } => {
            match c.deallocate(1, &[DeallocRange { slba: *slba, nlb: *nlb }]) {
                Ok(()) => {
                    for b in *slba..slba + nlb {
                        model.remove(&b);
                    }
                }
                Err(e) => assert!(e.is_injected_fault(), "unexpected trim error: {e}"),
            }
        }
    }
}

/// Reads one block with bounded retries (faults are transient).
fn read_with_retries(c: &Controller, slba: u64) -> Result<Vec<u8>, NvmeError> {
    let mut out = page(0);
    let mut last = None;
    for _ in 0..12 {
        match c.read(1, slba, &mut out) {
            Ok(_) => return Ok(out),
            Err(e) if e.is_injected_fault() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("retried only on faults"))
}

proptest! {
    /// Arbitrary fault schedules: FTL invariants hold throughout, and
    /// at the end every acknowledged write reads back byte-exact.
    #[test]
    fn no_acknowledged_write_is_lost_or_torn(
        fault in fault_config(),
        ops in proptest::collection::vec(dev_op(), 1..50),
    ) {
        let c = build(Some(fault));
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&c, op, &mut model);
        }
        c.with_ftl(|f| f.check_invariants());
        for (&b, &fill) in &model {
            match read_with_retries(&c, b) {
                Ok(out) => prop_assert!(
                    out.iter().all(|&x| x == fill),
                    "block {b}: torn acknowledged write"
                ),
                // A persistently faulting read cannot *disprove* the
                // data is there; at these ppm caps 12 retries failing
                // is (deterministically) absent in practice.
                Err(e) => prop_assert!(e.is_injected_fault(), "block {b}: lost write ({e})"),
            }
        }
    }

    /// A fault-free plan is bit-identical to no decorator at all: the
    /// same op sequence produces the same per-op outcomes, the same
    /// payload bytes and the same device log.
    #[test]
    fn empty_plan_is_bit_identical_to_no_decorator(
        ops in proptest::collection::vec(dev_op(), 1..50),
    ) {
        let plain = build(None);
        let wrapped = build(Some(FaultConfig::default()));
        let mut m1 = BTreeMap::new();
        let mut m2 = BTreeMap::new();
        for op in &ops {
            apply(&plain, op, &mut m1);
            apply(&wrapped, op, &mut m2);
        }
        prop_assert_eq!(m1, m2);
        prop_assert_eq!(plain.fdp_stats_log(), wrapped.fdp_stats_log());
        prop_assert_eq!(plain.device_io_stats(), wrapped.device_io_stats());
        prop_assert_eq!(wrapped.fault_totals().total(), 0);
        wrapped.with_ftl(|f| f.check_invariants());
    }

    /// Same seed, same schedule: reruns inject identical faults and
    /// leave identical device state.
    #[test]
    fn same_seed_replays_the_same_schedule(
        fault in fault_config(),
        ops in proptest::collection::vec(dev_op(), 1..40),
    ) {
        let run = |cfg: FaultConfig| {
            let c = build(Some(cfg));
            let mut model = BTreeMap::new();
            for op in &ops {
                apply(&c, op, &mut model);
            }
            (model, c.fault_totals(), c.fdp_stats_log(), c.device_io_stats())
        };
        let a = run(fault.clone());
        let b = run(fault);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, b.3);
    }
}
