//! Submission/completion queue pairs with a virtual-time latency model.
//!
//! The paper submits FDP I/O through one io_uring queue pair per worker
//! thread (§5.4), keeping a real queue depth of commands in flight. We
//! reproduce the shape of that arrangement: each worker owns a
//! [`QueuePair`] — a submission queue bounded by a configurable depth
//! and a completion queue reaped in completion order — whose virtual
//! clock advances as commands complete. The device's internal
//! parallelism is modelled as `lanes` independent servers (think NAND
//! channels); a command picks the least-busy lane at submission.
//!
//! [`QueuePair::submit`] schedules one command and returns its latency,
//! which the deterministic model fixes at submission. At depth 1 it
//! also reaps the command, so the clock advances to its completion (a
//! completion-polled loop); at higher depths the command stays in
//! flight. Either way, submitting into a full queue first reaps the
//! oldest completion — the submitter blocks on CQ space, exactly like
//! a polled io_uring loop at full depth. [`QueuePair::submit_async`]
//! schedules the same way, leaves the command in flight at any depth
//! and returns its whole [`Completion`] entry; [`QueuePair::complete`]
//! and [`QueuePair::drain`] reap completions in completion order.
//!
//! The queue pair charges no garbage collection of its own. The I/O
//! manager (`fdpcache_core::IoManager`) keeps the GC time the
//! controller reports as a backlog and, before each host write or
//! read, drains a slice of it through [`QueuePair::occupy_all`], which holds
//! every lane. That is how DLWA becomes visible as p99 read/write
//! latency inflation in Figures 6 and 13, and why FDP improves tails
//! at high utilization without changing the cache logic at all.

/// Identifier of a submitted command, unique within its queue pair.
pub type CommandId = u64;

/// A completion queue entry, fixed when its command is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The command this entry completes.
    pub id: CommandId,
    /// Observed command latency (queueing + service), ns.
    pub latency_ns: u64,
    /// Absolute virtual completion time, ns.
    pub completion_ns: u64,
}

/// A per-worker queue pair with simulated timing.
#[derive(Debug, Clone)]
pub struct QueuePair {
    lanes: Vec<u64>,
    now_ns: u64,
    depth: usize,
    next_id: CommandId,
    /// In-flight commands, unordered; reaped by minimum
    /// `(completion_ns, id)` so completion order is deterministic.
    inflight: Vec<Completion>,
    submitted: u64,
    completed: u64,
}

impl QueuePair {
    /// Creates a queue pair over `lanes` parallel device lanes with
    /// queue depth 1 (the synchronous, completion-polled shape every
    /// pre-batching caller expects).
    pub fn new(lanes: usize) -> Self {
        QueuePair::with_depth(lanes, 1)
    }

    /// Creates a queue pair over `lanes` parallel device lanes allowing
    /// up to `depth` commands in flight.
    pub fn with_depth(lanes: usize, depth: usize) -> Self {
        QueuePair {
            lanes: vec![0; lanes.max(1)],
            now_ns: 0,
            depth: depth.max(1),
            next_id: 0,
            inflight: Vec::new(),
            submitted: 0,
            completed: 0,
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The configured queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Commands currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Total commands submitted over the pair's lifetime.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Total completions reaped over the pair's lifetime.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Reconfigures the queue depth. Shrinking below the current
    /// in-flight count reaps oldest completions (advancing the clock)
    /// until the new bound holds, so no command is ever dropped.
    pub fn set_depth(&mut self, depth: usize) {
        self.depth = depth.max(1);
        while self.inflight.len() > self.depth {
            self.complete();
        }
    }

    /// Advances the submitter's clock (host think time between ops).
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Index of the in-flight entry with the earliest completion
    /// (ties broken by submission order via the id).
    fn earliest(&self) -> Option<usize> {
        self.inflight
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.completion_ns, c.id))
            .map(|(i, _)| i)
    }

    /// Schedules a command of the given media service time and returns
    /// its completion entry, leaving it in flight at any depth. The
    /// latency is fixed here (the model is deterministic); the clock
    /// does **not** advance unless the queue is full, in which case the
    /// oldest completion is reaped first — the submitter stalls on a
    /// full SQ like a real queue-pair loop.
    pub fn submit_async(&mut self, service_ns: u64) -> Completion {
        while self.inflight.len() >= self.depth {
            self.complete();
        }
        // Least-busy lane.
        let lane = self
            .lanes
            .iter()
            .enumerate()
            .min_by_key(|(_, &busy)| busy)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let start = self.now_ns.max(self.lanes[lane]);
        let completion = start + service_ns;
        self.lanes[lane] = completion;
        let entry = Completion {
            id: self.next_id,
            latency_ns: completion - self.now_ns,
            completion_ns: completion,
        };
        self.next_id += 1;
        self.submitted += 1;
        self.inflight.push(entry);
        entry
    }

    /// Reaps the next completion in completion order, advancing the
    /// clock to (at least) its completion time. Returns `None` when
    /// nothing is in flight.
    pub fn complete(&mut self) -> Option<Completion> {
        let idx = self.earliest()?;
        let entry = self.inflight.swap_remove(idx);
        self.now_ns = self.now_ns.max(entry.completion_ns);
        self.completed += 1;
        Some(entry)
    }

    /// Reaps every outstanding completion in completion order,
    /// advancing the clock past the last one.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::with_capacity(self.inflight.len());
        while let Some(c) = self.complete() {
            out.push(c);
        }
        out
    }

    /// Submits a command with the given media service time and returns
    /// its latency (queueing + service), honouring the queue depth.
    ///
    /// At depth 1 the submitter's clock advances to the command's
    /// completion, modelling a completion-polled submission loop like
    /// CacheBench's worker threads. At higher depths the command stays
    /// in flight and the clock advances only when the queue is full or
    /// the caller reaps ([`QueuePair::complete`], [`QueuePair::drain`]).
    pub fn submit(&mut self, service_ns: u64) -> u64 {
        let entry = self.submit_async(service_ns);
        if self.depth == 1 {
            while self.complete().is_some_and(|c| c.id != entry.id) {}
        }
        entry.latency_ns
    }

    /// Occupies **every** lane for `ns` starting no earlier than now.
    /// Models device-internal work that uses all channels at once —
    /// garbage-collection relocation bursts touch every die, which is
    /// exactly how DLWA surfaces as tail-latency interference. Commands
    /// already in flight keep their scheduled completion (they were
    /// issued before the burst); only later submissions queue behind it.
    pub fn occupy_all(&mut self, ns: u64) {
        if ns == 0 {
            return;
        }
        for lane in &mut self.lanes {
            let start = self.now_ns.max(*lane);
            *lane = start + ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_latency_equals_service_time() {
        let mut q = QueuePair::new(4);
        assert_eq!(q.submit(100), 100);
        assert_eq!(q.now_ns(), 100);
    }

    #[test]
    fn advance_moves_clock_past_busy_lanes() {
        let mut q = QueuePair::new(1);
        q.submit(100);
        q.occupy_all(500);
        q.advance(10_000); // host idles past the GC busy window.
        assert_eq!(q.submit(100), 100);
    }

    #[test]
    fn zero_lane_request_is_clamped() {
        let mut q = QueuePair::new(0);
        assert_eq!(q.submit(10), 10);
    }

    #[test]
    fn occupy_all_delays_every_lane() {
        let mut q = QueuePair::new(4);
        q.occupy_all(1_000);
        // Any subsequent command queues behind the burst.
        assert_eq!(q.submit(100), 1_100);
    }

    #[test]
    fn occupy_all_zero_is_noop() {
        let mut q = QueuePair::new(2);
        q.occupy_all(0);
        assert_eq!(q.submit(100), 100);
    }

    #[test]
    fn async_submission_does_not_advance_clock_until_reaped() {
        let mut q = QueuePair::with_depth(4, 4);
        let a = q.submit_async(100).id;
        let b = q.submit_async(200).id;
        assert_eq!(q.now_ns(), 0);
        assert_eq!(q.in_flight(), 2);
        let first = q.complete().unwrap();
        assert_eq!(first.id, a);
        assert_eq!(q.now_ns(), 100);
        let second = q.complete().unwrap();
        assert_eq!(second.id, b);
        assert_eq!(q.now_ns(), 200);
        assert!(q.complete().is_none());
    }

    #[test]
    fn full_queue_reaps_oldest_before_submitting() {
        let mut q = QueuePair::with_depth(1, 2);
        q.submit_async(100); // lane busy until 100
        q.submit_async(100); // queued behind: completes at 200
        assert_eq!(q.in_flight(), 2);
        // Depth reached: the third submission reaps the oldest first.
        q.submit_async(100);
        assert_eq!(q.in_flight(), 2);
        assert_eq!(q.now_ns(), 100);
    }

    #[test]
    fn pipelined_commands_overlap_across_lanes() {
        // 4 lanes, depth 4: four 100ns commands complete together at 100.
        let mut q = QueuePair::with_depth(4, 4);
        for _ in 0..4 {
            q.submit_async(100);
        }
        let done = q.drain();
        assert_eq!(done.len(), 4);
        assert_eq!(q.now_ns(), 100, "four lanes absorb four concurrent commands");
        // The synchronous path would have taken 400ns on one clock.
    }

    #[test]
    fn drain_reaps_in_completion_order() {
        let mut q = QueuePair::with_depth(2, 8);
        // Lane A: 300, lane B: 100, lane A(queued): 300+50.
        let slow = q.submit_async(300).id;
        let fast = q.submit_async(100).id;
        let queued = q.submit_async(50).id; // least-busy lane is B (free at 100): completes 150.
        let done = q.drain();
        let ids: Vec<CommandId> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![fast, queued, slow]);
        let times: Vec<u64> = done.iter().map(|c| c.completion_ns).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "completion order");
    }

    #[test]
    fn depth_one_submit_matches_legacy_model() {
        // The legacy model: start = max(now, lane); completion = start +
        // service; lane = completion; latency = completion - now; now =
        // completion. Replay a sequence both ways.
        let cmds = [100u64, 250, 10, 0, 999];
        let mut q = QueuePair::new(2);
        let mut lanes = [0u64; 2];
        let mut now = 0u64;
        for &service in &cmds {
            let lane = if lanes[0] <= lanes[1] { 0 } else { 1 };
            let start = now.max(lanes[lane]);
            let completion = start + service;
            lanes[lane] = completion;
            let expect = completion - now;
            now = completion;
            assert_eq!(q.submit(service), expect);
            assert_eq!(q.now_ns(), now);
        }
    }

    #[test]
    fn deeper_submit_leaves_the_command_in_flight() {
        let mut q = QueuePair::with_depth(1, 2);
        assert_eq!(q.submit(100), 100);
        assert_eq!(q.submit(100), 200, "queued behind the first on the one lane");
        assert_eq!((q.now_ns(), q.in_flight()), (0, 2));
        // Full queue: the third submission reaps the oldest first.
        assert_eq!(q.submit(100), 200);
        assert_eq!((q.now_ns(), q.in_flight()), (100, 2));
        q.drain();
        assert_eq!(q.now_ns(), 300);
    }

    #[test]
    fn set_depth_shrink_reaps_excess() {
        let mut q = QueuePair::with_depth(1, 4);
        for _ in 0..4 {
            q.submit_async(100);
        }
        q.set_depth(1);
        assert_eq!(q.in_flight(), 1);
        assert_eq!(q.now_ns(), 300, "three oldest completions reaped");
        assert_eq!(q.completed(), 3);
    }

    #[test]
    fn conservation_counters_track_lifecycle() {
        let mut q = QueuePair::with_depth(2, 3);
        for _ in 0..10 {
            q.submit_async(10);
        }
        q.drain();
        assert_eq!(q.submitted(), 10);
        assert_eq!(q.completed(), 10);
        assert_eq!(q.in_flight(), 0);
    }
}
