//! Property tests for the SQ/CQ queue model behind the batched
//! submission pipeline:
//!
//! * **Conservation** — every submitted command is completed exactly
//!   once, under arbitrary submit/reap/advance interleavings.
//! * **Monotonic virtual time** — the clock never runs backwards, no
//!   matter how submissions and reaps interleave.
//! * **Depth-1 ≡ legacy** — `submit` at depth 1 is bit-identical to
//!   the pre-batching one-command-at-a-time model for any command
//!   sequence.
//! * **Completion order** — reaps come back sorted by completion time.

use proptest::prelude::*;

use fdpcache_nvme::QueuePair;

#[derive(Debug, Clone)]
enum QpOp {
    /// Submit asynchronously (service_ns).
    SubmitAsync(u64),
    /// Submit, honouring the depth.
    Submit(u64),
    /// Reap one completion.
    Complete,
    /// Reap everything.
    Drain,
    /// Host think time.
    Advance(u64),
    /// Device-wide GC burst.
    OccupyAll(u64),
}

fn qp_op() -> impl Strategy<Value = QpOp> {
    prop_oneof![
        (0..5_000u64).prop_map(QpOp::SubmitAsync),
        (0..5_000u64).prop_map(QpOp::Submit),
        Just(QpOp::Complete),
        Just(QpOp::Drain),
        (0..10_000u64).prop_map(QpOp::Advance),
        (0..3_000u64).prop_map(QpOp::OccupyAll),
    ]
}

proptest! {
    /// Conservation: across any interleaving of asynchronous submits
    /// and reaps, every submitted command is reaped exactly once after
    /// the final drain, and the in-flight count is always bounded by
    /// the configured depth. (A depth-1 `submit` reaps its own command
    /// internally, so the observable exactly-once property is stated
    /// over the async interface; the mixed-mode counters are covered by
    /// `virtual_time_is_monotonic`.)
    #[test]
    fn every_submitted_command_completes_exactly_once(
        lanes in 1usize..6,
        depth in 1usize..10,
        ops in proptest::collection::vec(qp_op(), 1..120),
    ) {
        let mut q = QueuePair::with_depth(lanes, depth);
        let mut ids = std::collections::HashSet::new();
        let mut reaped = Vec::new();
        // Reference model of the in-flight set: (completion_ns, id).
        // A full-queue submit retires the earliest completion first
        // (deterministic tie-break by id), exactly like `complete()`.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let pop_min = |model: &mut Vec<(u64, u64)>| -> Option<u64> {
            let i = model.iter().enumerate().min_by_key(|(_, &e)| e).map(|(i, _)| i)?;
            Some(model.swap_remove(i).1)
        };
        for op in &ops {
            match *op {
                QpOp::SubmitAsync(s) | QpOp::Submit(s) => {
                    while model.len() >= depth {
                        reaped.push(pop_min(&mut model).expect("full queue has entries"));
                    }
                    let c = q.submit_async(s);
                    prop_assert!(ids.insert(c.id), "duplicate command id {}", c.id);
                    model.push((c.completion_ns, c.id));
                }
                QpOp::Complete => {
                    if let Some(c) = q.complete() {
                        let expect = pop_min(&mut model);
                        prop_assert_eq!(Some(c.id), expect, "reap order diverged from model");
                        reaped.push(c.id);
                    } else {
                        prop_assert!(model.is_empty());
                    }
                }
                QpOp::Drain => {
                    for c in q.drain() {
                        let expect = pop_min(&mut model);
                        prop_assert_eq!(Some(c.id), expect, "drain order diverged from model");
                        reaped.push(c.id);
                    }
                    prop_assert!(model.is_empty());
                }
                QpOp::Advance(ns) => q.advance(ns),
                QpOp::OccupyAll(ns) => q.occupy_all(ns),
            }
            prop_assert!(q.in_flight() <= depth, "in-flight exceeds depth");
            prop_assert_eq!(q.in_flight(), model.len(), "in-flight count diverged");
        }
        for c in q.drain() {
            reaped.push(c.id);
            let expect = pop_min(&mut model);
            prop_assert_eq!(Some(c.id), expect);
        }
        prop_assert_eq!(q.submitted(), q.completed(), "conservation");
        prop_assert_eq!(q.in_flight(), 0);
        let mut seen = std::collections::HashSet::new();
        for id in &reaped {
            prop_assert!(seen.insert(*id), "command {} completed twice", id);
        }
        for id in &ids {
            prop_assert!(seen.contains(id), "command {} never completed", id);
        }
    }

    /// Virtual time is monotonic under arbitrary interleavings, and
    /// every reaped completion's latency is consistent with its
    /// completion time.
    #[test]
    fn virtual_time_is_monotonic(
        lanes in 1usize..6,
        depth in 1usize..10,
        ops in proptest::collection::vec(qp_op(), 1..120),
    ) {
        let mut q = QueuePair::with_depth(lanes, depth);
        let mut last_now = 0u64;
        let mut last_completion = 0u64;
        for op in &ops {
            match *op {
                QpOp::SubmitAsync(s) => { q.submit_async(s); }
                QpOp::Submit(s) => { q.submit(s); }
                QpOp::Complete => {
                    if let Some(c) = q.complete() {
                        prop_assert!(c.completion_ns >= last_completion, "completion order");
                        last_completion = c.completion_ns;
                        prop_assert!(q.now_ns() >= c.completion_ns);
                    }
                }
                QpOp::Drain => {
                    let done = q.drain();
                    for w in done.windows(2) {
                        prop_assert!(w[0].completion_ns <= w[1].completion_ns);
                    }
                    if let Some(c) = done.last() {
                        prop_assert!(c.completion_ns >= last_completion);
                        last_completion = c.completion_ns;
                    }
                }
                QpOp::Advance(ns) => q.advance(ns),
                QpOp::OccupyAll(ns) => q.occupy_all(ns),
            }
            prop_assert!(q.now_ns() >= last_now, "clock ran backwards");
            last_now = q.now_ns();
        }
    }

    /// `submit` at depth 1 is bit-identical to the legacy
    /// one-command-at-a-time model for any command sequence: same per-command latencies, same
    /// clock, same lane schedule (observed through latencies).
    #[test]
    fn depth_one_is_bit_identical_to_legacy_model(
        lanes in 1usize..6,
        cmds in proptest::collection::vec(0..100_000u64, 1..80),
    ) {
        let mut q = QueuePair::new(lanes);
        // Reference: the exact arithmetic of the pre-SQ/CQ model.
        let mut ref_lanes = vec![0u64; lanes.max(1)];
        let mut ref_now = 0u64;
        for &service in &cmds {
            let lane = ref_lanes
                .iter()
                .enumerate()
                .min_by_key(|(_, &busy)| busy)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let start = ref_now.max(ref_lanes[lane]);
            let completion = start + service;
            ref_lanes[lane] = completion;
            let ref_latency = completion - ref_now;
            ref_now = completion;
            let latency = q.submit(service);
            prop_assert_eq!(latency, ref_latency, "latency diverged");
            prop_assert_eq!(q.now_ns(), ref_now, "clock diverged");
        }
    }

    /// A queue-depth-QD replay of the same commands never finishes
    /// *later* than the synchronous replay, and both do the same work.
    #[test]
    fn pipelining_never_slows_the_clock(
        lanes in 1usize..6,
        depth in 2usize..10,
        cmds in proptest::collection::vec(1..10_000u64, 1..80),
    ) {
        let mut sync = QueuePair::new(lanes);
        let mut piped = QueuePair::with_depth(lanes, depth);
        for &s in &cmds {
            sync.submit(s);
            piped.submit(s);
        }
        piped.drain();
        prop_assert!(piped.now_ns() <= sync.now_ns(), "pipelining must not slow completion");
        prop_assert_eq!(piped.submitted(), sync.submitted());
        prop_assert_eq!(piped.completed(), sync.completed());
    }
}
