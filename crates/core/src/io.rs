//! FDP-aware I/O management (paper §5.4).
//!
//! Translates placement handles into NVMe placement directives and
//! submits commands through a per-worker [`QueuePair`], recording
//! latency histograms.
//!
//! Every device command takes one route. [`IoManager::write`] and
//! [`IoManager::write_with`] are one-command write batches and
//! [`IoManager::submit_batch`] flushes an
//! [`IoBatch`] of writes; both map through
//! [`Controller::write_batch_ns`], which validates and maps every
//! command of the batch under **one** media-lock acquisition.
//! [`IoManager::read`] and [`IoManager::discard`] issue one command
//! each. Whatever the command, one private per-command step then
//! charges its slice of the GC backlog, submits it through the queue
//! pair, feeds the health monitor and records its latency and
//! [`IoStats`]. A batch therefore times each of its commands exactly
//! as the same writes issued one by one would be timed.
//!
//! With the default queue depth of 1 each command is synchronous (the
//! clock advances to its completion); at higher depths
//! ([`IoManager::set_queue_depth`]) up to QD commands stay in flight
//! and the clock only advances when the queue fills or
//! [`IoManager::flush`] reaps it.
//!
//! Payloads stay vectored all the way down. The cache's writes — SOC
//! bucket pages, sealed LOC regions and LOC footers — reach the payload
//! store through `DataStore::write_source`: a shared source of the
//! bytes, which the slab records and calls only when the blocks are
//! read. No page of the cache is staged, copied or inserted one 4 KiB
//! block at a time, nor made at all until somebody reads it (DESIGN.md
//! §5.3). [`IoManager::write`] still takes borrowed bytes (tests, tools
//! and the benchmark's replays); they reach the store through
//! `DataStore::write_blocks`, which the slab keeps as an owned copy.
//!
//! Concurrency topology: the controller is a plain `Arc` —
//! [`SharedController`] — with interior fine-grained locking (media
//! lock, sharded payload store, per-namespace atomic stats; see
//! `fdpcache_nvme::controller`). Each [`IoManager`] holds its
//! namespace's [`NamespaceState`] opened once at construction, so the
//! per-command path touches **no** device-wide lock other than the
//! brief FTL mapping section: the simulator analog of multiple io_uring
//! queue pairs feeding one device, with commands from N workers
//! genuinely in flight at once.

use std::sync::Arc;

use fdpcache_metrics::Histogram;
use fdpcache_nvme::{
    BatchWrite, Controller, DeallocRange, FillSource, HealthMonitor, NamespaceId, NamespaceState,
    NvmeError, QueuePair, WriteCompletion, WritePayload,
};
pub use fdpcache_nvme::{HealthConfig, HealthIoStats, HealthState, HealthTransition};

use crate::handle::PlacementHandle;

/// A controller shared by every I/O manager (and tenant) on the device.
/// No external mutex: all controller methods take `&self` and
/// synchronize internally at per-resource granularity.
pub type SharedController = Arc<Controller>;

/// Cap, in multiples of a *write* command's own service time, on the
/// slice of outstanding GC backlog charged across the lanes ahead of
/// that write. Writes must wait for GC to free pages, so they absorb a
/// large slice — this is the knob that reproduces the paper's ~10×
/// write-tail inflation under intermixing (Figures 6 and 13).
pub const GC_WRITE_INTERFERENCE_CAP: u64 = 8;

/// Cap, in multiples of a *read* command's own service time, on the GC
/// backlog slice charged ahead of that read. Real controllers suspend
/// program/erase to prioritize reads, so reads absorb only a small
/// slice — the paper's read tails inflate ~1.75×, not ~10×. The
/// modeled write:read interference ratio is
/// `GC_WRITE_INTERFERENCE_CAP / GC_READ_INTERFERENCE_CAP` = 8.
pub const GC_READ_INTERFERENCE_CAP: u64 = 1;

/// Modeled fixed service time of a DSM deallocate command (ns): a
/// metadata-only round trip through the controller, far cheaper than a
/// NAND program (~600 µs) but not free — discards previously cost zero
/// virtual time, which hid trim-heavy eviction policies from the
/// latency readouts.
pub const DISCARD_BASE_SERVICE_NS: u64 = 20_000;

/// Modeled incremental deallocate cost per logical block (ns): L2P
/// entries are invalidated one by one under the media lock.
pub const DISCARD_PER_BLOCK_NS: u64 = 32;

/// Modeled service time of a command that completes with an injected
/// media-error status (ns): the device spent retries/ECC time before
/// giving up, longer than a clean metadata round trip but far below a
/// GC stall. Fixed, so fault replays stay bit-reproducible.
pub const FAULT_SERVICE_NS: u64 = 150_000;

/// Snapshot of an I/O manager's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Write commands submitted.
    pub writes: u64,
    /// Read commands submitted.
    pub reads: u64,
    /// Discard (deallocate) commands submitted.
    pub discards: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes deallocated by discard commands.
    pub bytes_discarded: u64,
    /// Commands that completed with an injected failure status
    /// (media error / busy rejection). Not counted in
    /// `writes`/`reads`/`discards`, which track successes only.
    pub faults: u64,
    /// Device-health view from this manager's windowed monitor
    /// (virtual-time, so deterministic; merged snapshots take the
    /// worst `state` across shards).
    pub health: HealthIoStats,
}

impl IoStats {
    /// Field-wise sum with another snapshot (aggregating the queue
    /// pairs of a sharded pool or a multi-tenant deployment).
    pub fn merge(&self, other: &IoStats) -> IoStats {
        IoStats {
            writes: self.writes + other.writes,
            reads: self.reads + other.reads,
            discards: self.discards + other.discards,
            bytes_written: self.bytes_written + other.bytes_written,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_discarded: self.bytes_discarded + other.bytes_discarded,
            faults: self.faults + other.faults,
            health: self.health.merge(&other.health),
        }
    }
}

/// A builder of vectored write submissions: queue writes against one
/// [`IoManager`], then flush them all with [`IoManager::submit_batch`].
/// Batch assembly is copy-free: every write hands the payload store a
/// shared source of its bytes ([`IoBatch::write_with`]; the LOC seals
/// regions and their footers this way, and the slab makes the bytes
/// only when they are read).
#[derive(Debug, Default)]
pub struct IoBatch {
    writes: Vec<BatchWrite<'static>>,
}

impl IoBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        IoBatch { writes: Vec::new() }
    }

    /// Creates an empty batch with room for `n` writes.
    pub fn with_capacity(n: usize) -> Self {
        IoBatch { writes: Vec::with_capacity(n) }
    }

    /// Queues a write of `nlb` blocks at `block` holding `source`'s
    /// bytes from byte `base` on (`source(offset, out)` writes every
    /// byte of `out`, the payload's bytes from `offset` on). The
    /// payload store keeps the source and makes the bytes when they
    /// are read, so the commands of one region share one source.
    pub fn write_with(
        &mut self,
        block: u64,
        nlb: u64,
        source: FillSource,
        base: usize,
        handle: PlacementHandle,
    ) -> &mut Self {
        self.writes.push(BatchWrite {
            slba: block,
            data: WritePayload::Fill { nlb, source, base },
            dspec: handle.dspec(),
        });
        self
    }
}

/// The kind of a completed command: selects its GC-charge cap, its
/// latency histogram and its [`IoStats`] counters.
#[derive(Debug, Clone, Copy)]
enum Command {
    Write,
    Read,
    Discard,
}

/// Per-worker FDP-aware I/O path.
///
/// All blocks are namespace-relative; sizes are whole logical blocks.
pub struct IoManager {
    ctrl: SharedController,
    ns: Arc<NamespaceState>,
    qp: QueuePair,
    read_hist: Histogram,
    write_hist: Histogram,
    discard_hist: Histogram,
    stats: IoStats,
    block_bytes: u32,
    blocks: u64,
    retains_data: bool,
    lanes: usize,
    /// Outstanding GC media work (ns) not yet charged to the lanes.
    /// Real controllers interleave relocation with host commands; we
    /// drain this backlog a slice at a time alongside each submission,
    /// which is what makes sustained GC visible in p99 latency.
    gc_backlog_ns: u64,
    /// Per-shard device-health monitor: fed from every completed
    /// command (successes and injected failures) with virtual-time
    /// stamps, so its classification replays bit-identically across
    /// worker counts and reruns.
    health: HealthMonitor,
}

impl std::fmt::Debug for IoManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoManager")
            .field("nsid", &self.ns.nsid())
            .field("queue_depth", &self.qp.depth())
            .field("stats", &self.stats)
            .finish()
    }
}

impl IoManager {
    /// Creates an I/O manager over `ctrl`'s namespace `nsid` with the
    /// given device-lane parallelism for its queue pair (queue depth 1;
    /// raise it with [`IoManager::set_queue_depth`]). Opens the
    /// namespace once; subsequent commands bypass the admin lock.
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidNamespace`] if the namespace does not exist.
    pub fn new(ctrl: SharedController, nsid: NamespaceId, lanes: usize) -> Result<Self, NvmeError> {
        let ns = ctrl.open_namespace(nsid).ok_or(NvmeError::InvalidNamespace(nsid))?;
        let block_bytes = ctrl.lba_bytes();
        let blocks = ns.info().lba_count;
        let retains_data = ctrl.store_retains_data();
        let lanes = lanes.max(1);
        Ok(IoManager {
            ctrl,
            ns,
            qp: QueuePair::new(lanes),
            lanes,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
            discard_hist: Histogram::new(),
            stats: IoStats::default(),
            block_bytes,
            blocks,
            retains_data,
            gc_backlog_ns: 0,
            health: HealthMonitor::default(),
        })
    }

    /// Charges a slice of outstanding GC work across all lanes before a
    /// host command of the given service time. `cap` bounds the slice
    /// to `cap ×` the command's own service time
    /// ([`GC_WRITE_INTERFERENCE_CAP`] for writes,
    /// [`GC_READ_INTERFERENCE_CAP`] for reads). This asymmetry is what
    /// reproduces the paper's p99 pattern (write tails suffer ~10x
    /// under intermixing, read tails ~1.75x).
    fn charge_gc_interference(&mut self, service_ns: u64, cap: u64) {
        if self.gc_backlog_ns == 0 {
            return;
        }
        let per_lane = (self.gc_backlog_ns / self.lanes as u64).min(service_ns.max(1) * cap);
        if per_lane > 0 {
            self.qp.occupy_all(per_lane);
            self.gc_backlog_ns = self.gc_backlog_ns.saturating_sub(per_lane * self.lanes as u64);
        } else {
            // Backlog smaller than one per-lane slice: retire it.
            self.gc_backlog_ns = 0;
        }
    }

    /// The per-command step every successful command takes: charges
    /// its slice of the GC backlog (writes and reads), submits it
    /// through the queue pair at the configured depth, feeds the health
    /// monitor and records its latency and `bytes` in the histograms
    /// and [`IoStats`]. Returns the command's latency.
    fn finish_command(&mut self, command: Command, service_ns: u64, bytes: u64) -> u64 {
        match command {
            Command::Write => self.charge_gc_interference(service_ns, GC_WRITE_INTERFERENCE_CAP),
            Command::Read => self.charge_gc_interference(service_ns, GC_READ_INTERFERENCE_CAP),
            Command::Discard => {}
        }
        let lat = self.qp.submit(service_ns);
        self.health.record_ok(self.qp.now_ns());
        let s = &mut self.stats;
        let (hist, count, total) = match command {
            Command::Write => (&mut self.write_hist, &mut s.writes, &mut s.bytes_written),
            Command::Read => (&mut self.read_hist, &mut s.reads, &mut s.bytes_read),
            Command::Discard => (&mut self.discard_hist, &mut s.discards, &mut s.bytes_discarded),
        };
        hist.record(lat);
        *count += 1;
        *total += bytes;
        lat
    }

    /// The one write route: maps `writes` through
    /// [`Controller::write_batch_ns`] into the `done` slots, then
    /// completes each command in order through the per-command step,
    /// storing its latency in `latencies`. A controller error maps
    /// nothing and charges one failed completion.
    fn write_batch(
        &mut self,
        writes: &[BatchWrite<'_>],
        done: &mut [WriteCompletion],
        latencies: &mut [u64],
    ) -> Result<(), NvmeError> {
        if let Err(e) = self.ctrl.write_batch_ns(&self.ns, writes, done) {
            return Err(self.fail_command(e));
        }
        for ((w, c), lat) in writes.iter().zip(done.iter()).zip(latencies) {
            let bytes = w.data.byte_len(self.block_bytes as usize) as u64;
            // Multi-block writes stripe across device lanes: effective
            // service time divides by the parallelism actually usable.
            let parallelism = (bytes / self.block_bytes as u64).clamp(1, self.lanes as u64);
            self.gc_backlog_ns += c.gc_ns;
            *lat = self.finish_command(Command::Write, c.service_ns / parallelism, bytes);
        }
        Ok(())
    }

    /// Completes an injected device fault deterministically: charges
    /// the failed command's virtual-time cost through the queue pair
    /// ([`FAULT_SERVICE_NS`] for media errors, the reported penalty for
    /// busy rejections), counts it, and hands the error back for the
    /// cache tier's recovery logic. Errors that are not injected faults
    /// (validation bugs) pass through with no timing side effect.
    fn fail_command(&mut self, e: NvmeError) -> NvmeError {
        let service = match &e {
            NvmeError::MediaError { .. } => FAULT_SERVICE_NS,
            NvmeError::Busy { penalty_ns } => *penalty_ns,
            _ => return e,
        };
        self.qp.submit(service);
        self.stats.faults += 1;
        let now = self.qp.now_ns();
        match &e {
            NvmeError::Busy { .. } => self.health.record_busy(now),
            _ => self.health.record_error(now),
        }
        e
    }

    /// Namespace capacity in logical blocks.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Logical block size in bytes.
    pub fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Namespace capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.blocks * self.block_bytes as u64
    }

    /// Whether the device's backing store retains payload bytes.
    /// Engines may skip payload serialization when it does not.
    pub fn retains_data(&self) -> bool {
        self.retains_data
    }

    /// The shared controller (for instrumentation).
    pub fn controller(&self) -> &SharedController {
        &self.ctrl
    }

    /// The opened namespace state (per-namespace stats live here).
    pub fn namespace(&self) -> &Arc<NamespaceState> {
        &self.ns
    }

    /// Cumulative I/O statistics (with the health monitor's current
    /// snapshot folded in).
    pub fn stats(&self) -> IoStats {
        let mut s = self.stats;
        s.health = self.health.io_stats();
        s
    }

    /// Current device-health classification from this shard's monitor.
    pub fn health(&self) -> HealthState {
        self.health.state()
    }

    /// Health-state transition trace (virtual-time stamped).
    #[cfg(test)]
    pub fn health_transitions(&self) -> &[HealthTransition] {
        self.health.transitions()
    }

    /// Credits an observed recovery (e.g. a successful circuit-breaker
    /// probe after injected faults cleared): steps the health state
    /// down one level immediately and restarts the observation window.
    pub fn credit_health_recovery(&mut self) {
        let now = self.qp.now_ns();
        self.health.credit_recovery(now);
    }

    /// Observed write-latency histogram.
    pub fn write_latency(&self) -> &Histogram {
        &self.write_hist
    }

    /// Observed read-latency histogram.
    pub fn read_latency(&self) -> &Histogram {
        &self.read_hist
    }

    /// Observed discard-latency histogram.
    pub fn discard_latency(&self) -> &Histogram {
        &self.discard_hist
    }

    /// Empties the read, write and discard latency histograms, so
    /// percentiles cover only the commands that follow (a replay's
    /// measurement window, not its warm-up).
    pub fn reset_latency(&mut self) {
        self.read_hist.reset();
        self.write_hist.reset();
        self.discard_hist.reset();
    }

    /// Virtual time elapsed on this worker's queue pair (ns). Call
    /// [`IoManager::flush`] first when commands may still be in flight
    /// (queue depth > 1) — in-flight completions have not advanced the
    /// clock yet.
    pub fn now_ns(&self) -> u64 {
        self.qp.now_ns()
    }

    /// Advances the worker's virtual clock (host think time).
    pub fn advance(&mut self, ns: u64) {
        self.qp.advance(ns);
    }

    /// The configured queue depth (commands kept in flight).
    pub fn queue_depth(&self) -> usize {
        self.qp.depth()
    }

    /// Reconfigures the queue depth. Depth 1 (the default) is the
    /// synchronous per-command model every legacy caller observes;
    /// higher depths pipeline commands across device lanes in virtual
    /// time, like an io_uring loop keeping QD submissions outstanding.
    /// Shrinking reaps excess completions (advancing the clock).
    pub fn set_queue_depth(&mut self, depth: usize) {
        self.qp.set_depth(depth);
    }

    /// Reaps every outstanding completion, advancing the virtual clock
    /// past the last one. A no-op at queue depth 1.
    pub fn flush(&mut self) {
        self.qp.drain();
    }

    /// Commands currently in flight on this worker's queue pair.
    pub fn in_flight(&self) -> usize {
        self.qp.in_flight()
    }

    /// Writes `data` at `block` with the consumer's placement handle,
    /// returning observed command latency (ns): a one-command write
    /// batch.
    ///
    /// # Errors
    ///
    /// Propagates controller validation/FTL errors.
    pub fn write(
        &mut self,
        block: u64,
        data: &[u8],
        handle: PlacementHandle,
    ) -> Result<u64, NvmeError> {
        self.write_one(BatchWrite {
            slba: block,
            data: WritePayload::Bytes(data),
            dspec: handle.dspec(),
        })
    }

    /// Writes `nlb` blocks at `block` holding `source`'s bytes from
    /// byte 0 on, returning observed command latency (ns): the
    /// one-command form of [`IoBatch::write_with`]. The payload store
    /// keeps the source and makes the bytes when they are read.
    ///
    /// # Errors
    ///
    /// Propagates controller validation/FTL errors.
    pub fn write_with(
        &mut self,
        block: u64,
        nlb: u64,
        source: FillSource,
        handle: PlacementHandle,
    ) -> Result<u64, NvmeError> {
        self.write_one(BatchWrite {
            slba: block,
            data: WritePayload::Fill { nlb, source, base: 0 },
            dspec: handle.dspec(),
        })
    }

    /// Submits `write` as a one-command write batch.
    fn write_one(&mut self, write: BatchWrite<'_>) -> Result<u64, NvmeError> {
        let mut latency = [0];
        self.write_batch(
            std::slice::from_ref(&write),
            &mut [WriteCompletion::default()],
            &mut latency,
        )?;
        Ok(latency[0])
    }

    /// Reads into `out` from `block`, returning observed latency (ns).
    ///
    /// # Errors
    ///
    /// Propagates controller validation/FTL errors.
    pub fn read(&mut self, block: u64, out: &mut [u8]) -> Result<u64, NvmeError> {
        let res = self.ctrl.read_ns(&self.ns, block, out);
        self.complete_read(res, out.len())
    }

    /// A charged read of `len` bytes at `block`: everything
    /// [`IoManager::read`] does — fault gate, media accounting, GC
    /// interference, queue completion, histograms, [`IoStats`]
    /// (`bytes_read` included) and health — except the payload
    /// transfer ([`Controller::read_charged_ns`]). For reads whose bytes
    /// nobody inspects, such as a cache hit served from the in-memory
    /// index. Returns the observed latency (ns).
    ///
    /// # Errors
    ///
    /// Exactly those of [`IoManager::read`] over a `len`-byte buffer.
    pub fn read_charged(&mut self, block: u64, len: usize) -> Result<u64, NvmeError> {
        let res = self.ctrl.read_charged_ns(&self.ns, block, len);
        self.complete_read(res, len)
    }

    /// Completes a read of `len` bytes through the per-command step, or
    /// its failure through [`IoManager::fail_command`].
    fn complete_read(&mut self, res: Result<u64, NvmeError>, len: usize) -> Result<u64, NvmeError> {
        match res {
            Ok(service_ns) => Ok(self.finish_command(Command::Read, service_ns, len as u64)),
            Err(e) => Err(self.fail_command(e)),
        }
    }

    /// Deallocates `count` blocks starting at `block`, submitting the
    /// DSM command through the queue pair with a modeled service time
    /// ([`DISCARD_BASE_SERVICE_NS`] + [`DISCARD_PER_BLOCK_NS`] per
    /// block) and returning the observed latency (ns).
    ///
    /// # Errors
    ///
    /// Propagates controller validation/FTL errors.
    pub fn discard(&mut self, block: u64, count: u64) -> Result<u64, NvmeError> {
        let range = DeallocRange { slba: block, nlb: count };
        if let Err(e) = self.ctrl.deallocate_ns(&self.ns, &[range]) {
            return Err(self.fail_command(e));
        }
        let service = DISCARD_BASE_SERVICE_NS + count * DISCARD_PER_BLOCK_NS;
        Ok(self.finish_command(Command::Discard, service, count * self.block_bytes as u64))
    }

    /// Flushes a batch of writes as one vectored submission, returning
    /// each write's observed latency in queue order.
    ///
    /// Every queued write validates and maps through
    /// [`Controller::write_batch_ns`] — **one** media-lock acquisition
    /// for the whole batch — and then completes through the same
    /// per-command step as [`IoManager::write`]: GC interference
    /// charging, lane striping, latency recording and statistics are
    /// per command, so a batch is bit-identical to the same writes
    /// issued one by one at any queue depth.
    ///
    /// # Errors
    ///
    /// Validation errors surface before any timing side effect: a
    /// failed batch leaves this manager's clock, histograms and
    /// `IoStats` untouched. Injected faults (media error / busy) are
    /// different: the batch fails **all-or-nothing on the device** (the
    /// controller's fault gate and FTL rollback guarantee no mapping of
    /// the batch survives) and this manager charges one deterministic
    /// failed completion of [`FAULT_SERVICE_NS`] (or the busy penalty)
    /// while counting it in [`IoStats::faults`], so fault replays stay
    /// bit-reproducible while the cache tier retries or requeues. The
    /// LOC region seal treats any batch error as "nothing of this
    /// region landed".
    pub fn submit_batch(&mut self, batch: IoBatch) -> Result<Vec<u64>, NvmeError> {
        let n = batch.writes.len();
        let mut latencies = vec![0; n];
        self.write_batch(&batch.writes, &mut vec![WriteCompletion::default(); n], &mut latencies)?;
        Ok(latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdpcache_ftl::FtlConfig;
    use fdpcache_nvme::MemStore;
    use proptest::prelude::*;

    fn setup() -> (SharedController, NamespaceId) {
        let ctrl = Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap();
        let nsid = ctrl.create_namespace(256, vec![0, 1, 2]).unwrap();
        (Arc::new(ctrl), nsid)
    }

    /// Like [`setup`] but with real NAND latencies, for tests that
    /// observe the virtual clock (tiny_test uses a zero-latency model).
    fn timed_setup() -> (SharedController, NamespaceId) {
        let cfg =
            FtlConfig { latency: fdpcache_nand::LatencyModel::default(), ..FtlConfig::tiny_test() };
        let ctrl = Controller::new(cfg, Box::new(MemStore::new())).unwrap();
        let nsid = ctrl.create_namespace(256, vec![0, 1, 2]).unwrap();
        (Arc::new(ctrl), nsid)
    }

    #[test]
    fn write_read_round_trip_with_handles() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl, nsid, 4).unwrap();
        let data = vec![0x5A; 4096];
        io.write(10, &data, PlacementHandle::with_dspec(1)).unwrap();
        let mut out = vec![0; 4096];
        io.read(10, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(io.stats().writes, 1);
        assert_eq!(io.stats().reads, 1);
        assert_eq!(io.read_latency().count(), 1);
        assert_eq!(io.write_latency().count(), 1);
    }

    #[test]
    fn source_writes_match_byte_writes_in_everything_but_when_bytes_are_made() {
        // Twin timed devices: one writes each page's bytes, the other a
        // source of the same bytes. Churning 96 blocks of 256 runs GC.
        let (ctrl_b, nsid_b) = timed_setup();
        let (ctrl_s, nsid_s) = timed_setup();
        let mut bytes = IoManager::new(ctrl_b.clone(), nsid_b, 2).unwrap();
        let mut sourced = IoManager::new(ctrl_s.clone(), nsid_s, 2).unwrap();
        let page = |i: u64| {
            move |at: usize, out: &mut [u8]| {
                for (j, b) in out.iter_mut().enumerate() {
                    *b = (i as usize + at + j) as u8;
                }
            }
        };
        for i in 0..2000u64 {
            let (block, nlb) = ((i * 37) % 96, 1 + i % 2);
            let mut data = vec![0u8; nlb as usize * 4096];
            page(i)(0, &mut data);
            let handle = PlacementHandle::with_dspec((i % 2) as u16);
            let w_b = bytes.write(block, &data, handle);
            let w_s = sourced.write_with(block, nlb, Arc::new(page(i)), handle);
            assert_eq!(w_b, w_s, "write {i}");
            assert_eq!(bytes.now_ns(), sourced.now_ns(), "queue clock after write {i}");
        }
        assert_eq!(bytes.stats(), sourced.stats());
        assert_eq!(ctrl_b.with_ftl(|f| f.stats()), ctrl_s.with_ftl(|f| f.stats()));
        assert!(ctrl_b.with_ftl(|f| f.stats()).gc_runs > 0, "the churn must run GC");
        let (mut out_b, mut out_s) = (vec![0u8; 97 * 4096], vec![0u8; 97 * 4096]);
        bytes.read(0, &mut out_b).unwrap();
        sourced.read(0, &mut out_s).unwrap();
        assert!(out_b == out_s, "a source reads back as the bytes it stands for");
    }

    #[test]
    fn reset_latency_empties_the_histograms_only() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl, nsid, 4).unwrap();
        io.write(0, &vec![1u8; 4096], PlacementHandle::DEFAULT).unwrap();
        io.read(0, &mut vec![0u8; 4096]).unwrap();
        io.discard(0, 1).unwrap();
        io.reset_latency();
        assert_eq!(io.write_latency().count(), 0);
        assert_eq!(io.read_latency().count(), 0);
        assert_eq!(io.discard_latency().count(), 0);
        assert_eq!((io.stats().writes, io.stats().reads, io.stats().discards), (1, 1, 1));
    }

    #[test]
    fn default_handle_writes_without_directive() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl.clone(), nsid, 4).unwrap();
        io.write(0, &vec![1u8; 4096], PlacementHandle::DEFAULT).unwrap();
        // Namespace default handle is RUH 0.
        assert_eq!(ctrl.with_ftl(|f| f.ruh_host_pages()[0]), 1);
    }

    #[test]
    fn discard_unmaps_and_costs_virtual_time() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl, nsid, 4).unwrap();
        io.write(5, &vec![1u8; 4096], PlacementHandle::DEFAULT).unwrap();
        let t0 = io.now_ns();
        let lat = io.discard(5, 1).unwrap();
        assert_eq!(lat, DISCARD_BASE_SERVICE_NS + DISCARD_PER_BLOCK_NS);
        assert_eq!(io.now_ns(), t0 + lat, "discard must advance the clock");
        assert_eq!(io.discard_latency().count(), 1);
        let mut out = vec![0u8; 4096];
        assert!(matches!(io.read(5, &mut out), Err(NvmeError::Unwritten(_))));
        assert_eq!(io.stats().discards, 1);
        assert_eq!(io.stats().bytes_discarded, 4096);
    }

    #[test]
    fn gc_interference_caps_pin_the_modeled_ratio() {
        // The write:read interference asymmetry is a modeling constant
        // (paper: ~10x write-tail vs ~1.75x read-tail inflation); pin
        // the ratio so a refactor cannot silently change the model.
        assert_eq!(GC_WRITE_INTERFERENCE_CAP / GC_READ_INTERFERENCE_CAP, 8);
        assert_eq!(GC_READ_INTERFERENCE_CAP, 1);
    }

    #[test]
    fn gc_backlog_charges_caps_by_command_kind() {
        // Two managers on one lane each, equal huge GC backlogs: the
        // next write may absorb up to GC_WRITE_INTERFERENCE_CAP x its
        // own service time, the next read only
        // GC_READ_INTERFERENCE_CAP x — so with service time s the
        // observed latency is (cap + 1) x s and exactly cap x s of
        // backlog drains.
        let (ctrl, nsid) = timed_setup();
        let mut wio = IoManager::new(ctrl.clone(), nsid, 1).unwrap();
        let nsid2 = ctrl.create_namespace(64, vec![0]).unwrap();
        let mut rio = IoManager::new(ctrl.clone(), nsid2, 1).unwrap();
        let data = vec![7u8; 4096];
        wio.write(0, &data, PlacementHandle::DEFAULT).unwrap();
        rio.write(0, &data, PlacementHandle::DEFAULT).unwrap();
        let backlog = 1u64 << 40;
        wio.gc_backlog_ns = backlog;
        rio.gc_backlog_ns = backlog;
        let wlat = wio.write(1, &data, PlacementHandle::DEFAULT).unwrap();
        let mut out = vec![0u8; 4096];
        let rlat = rio.read(0, &mut out).unwrap();
        // latency = (cap + 1) * service, drained = cap * service.
        let wdrained = backlog - wio.gc_backlog_ns;
        let rdrained = backlog - rio.gc_backlog_ns;
        assert_eq!(
            wlat,
            wdrained / GC_WRITE_INTERFERENCE_CAP * (GC_WRITE_INTERFERENCE_CAP + 1),
            "write latency must be (cap+1)x its service time"
        );
        assert_eq!(
            rlat,
            rdrained / GC_READ_INTERFERENCE_CAP * (GC_READ_INTERFERENCE_CAP + 1),
            "read latency must be (cap+1)x its service time"
        );
    }

    #[test]
    fn two_managers_share_one_device() {
        let (ctrl, nsid) = setup();
        let mut a = IoManager::new(ctrl.clone(), nsid, 2).unwrap();
        let mut b = IoManager::new(ctrl.clone(), nsid, 2).unwrap();
        a.write(0, &vec![0xAA; 4096], PlacementHandle::DEFAULT).unwrap();
        let mut out = vec![0u8; 4096];
        b.read(0, &mut out).unwrap();
        assert_eq!(out[0], 0xAA);
    }

    #[test]
    fn invalid_namespace_rejected_at_construction() {
        let (ctrl, _) = setup();
        assert!(matches!(IoManager::new(ctrl, 99, 2), Err(NvmeError::InvalidNamespace(99))));
    }

    #[test]
    fn capacity_accessors() {
        let (ctrl, nsid) = setup();
        let io = IoManager::new(ctrl, nsid, 2).unwrap();
        assert_eq!(io.blocks(), 256);
        assert_eq!(io.block_bytes(), 4096);
        assert_eq!(io.capacity_bytes(), 256 * 4096);
    }

    #[test]
    fn manager_stats_mirror_namespace_counters() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl, nsid, 2).unwrap();
        io.write(0, &vec![1u8; 4096], PlacementHandle::DEFAULT).unwrap();
        let mut out = vec![0u8; 4096];
        io.read(0, &mut out).unwrap();
        let ns_stats = io.namespace().stats();
        assert_eq!(ns_stats.writes, io.stats().writes);
        assert_eq!(ns_stats.reads, io.stats().reads);
        assert_eq!(ns_stats.bytes_written, io.stats().bytes_written);
    }

    #[test]
    fn batch_submission_is_bit_identical_to_sequential_at_depth_one() {
        let (ctrl_a, ns_a) = setup();
        let (ctrl_b, ns_b) = setup();
        let mut batched = IoManager::new(ctrl_a, ns_a, 4).unwrap();
        let mut sequential = IoManager::new(ctrl_b, ns_b, 4).unwrap();
        let sources: Vec<FillSource> =
            (0..12u8).map(|i| Arc::new(move |_, out: &mut [u8]| out.fill(i)) as _).collect();
        let handle = PlacementHandle::with_dspec(1);

        // Sequential reference.
        let mut seq_lat = Vec::new();
        for (i, s) in sources.iter().enumerate() {
            seq_lat.push(sequential.write_with(i as u64 * 4, 4, s.clone(), handle).unwrap());
        }

        // One batch, same commands in the same order.
        let mut batch = IoBatch::with_capacity(sources.len());
        for (i, s) in sources.iter().enumerate() {
            batch.write_with(i as u64 * 4, 4, s.clone(), 0, handle);
        }
        let lat = batched.submit_batch(batch).unwrap();

        assert_eq!(lat, seq_lat, "per-command latencies must match");
        assert_eq!(batched.now_ns(), sequential.now_ns(), "virtual clock must match");
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(batched.write_latency().p99(), sequential.write_latency().p99());
    }

    /// One generated I/O manager command; blocks stay inside the
    /// 64-block namespace of [`generated_traffic_keeps_counters_in_step`].
    #[derive(Debug, Clone)]
    enum GenOp {
        Write { block: u64, nlb: u64 },
        Read { block: u64, nlb: u64 },
        Discard { block: u64, count: u64 },
        Batch(Vec<(u64, u64)>),
    }

    fn gen_op() -> impl Strategy<Value = GenOp> {
        let extent = || (0..61u64, 1..4u64);
        prop_oneof![
            extent().prop_map(|(block, nlb)| GenOp::Write { block, nlb }),
            extent().prop_map(|(block, nlb)| GenOp::Read { block, nlb }),
            extent().prop_map(|(block, count)| GenOp::Discard { block, count }),
            prop::collection::vec(extent(), 2..6).prop_map(GenOp::Batch),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The manager's success counters equal the namespace's and its
        /// fault count equals the fault plan's, under a generated mix
        /// of single commands and multi-write batches at QD 1-4 over a
        /// faulty store; the clock never runs backwards.
        #[test]
        fn generated_traffic_keeps_counters_in_step(
            depth in 1usize..=4,
            seed in any::<u64>(),
            ops in prop::collection::vec(gen_op(), 1..60),
        ) {
            use fdpcache_nvme::{FaultConfig, FaultStore};
            let fault_cfg = FaultConfig {
                seed,
                read_err_ppm: 20_000,
                write_err_ppm: 20_000,
                discard_err_ppm: 20_000,
                corruption_ppm: 20_000,
                busy_ppm: 20_000,
                ..Default::default()
            };
            let cfg = FtlConfig {
                latency: fdpcache_nand::LatencyModel::default(),
                ..FtlConfig::tiny_test()
            };
            let store = FaultStore::new(Box::new(MemStore::new()), fault_cfg);
            let ctrl = Arc::new(Controller::new(cfg, Box::new(store)).unwrap());
            let nsid = ctrl.create_namespace(64, vec![0, 1]).unwrap();
            let mut io = IoManager::new(ctrl.clone(), nsid, 2).unwrap();
            io.set_queue_depth(depth);
            let bb = io.block_bytes() as usize;
            let page = vec![0x5Au8; 4 * bb];
            let fill: FillSource = Arc::new(|_, out| out.fill(0x5A));
            let mut out = vec![0u8; 4 * bb];
            let mut last = io.now_ns();
            for op in &ops {
                let result = match op {
                    GenOp::Write { block, nlb } => {
                        io.write(*block, &page[..*nlb as usize * bb], PlacementHandle::DEFAULT)
                            .map(drop)
                    }
                    GenOp::Read { block, nlb } => {
                        io.read(*block, &mut out[..*nlb as usize * bb]).map(drop)
                    }
                    GenOp::Discard { block, count } => io.discard(*block, *count).map(drop),
                    GenOp::Batch(extents) => {
                        let mut batch = IoBatch::with_capacity(extents.len());
                        for &(block, nlb) in extents {
                            batch.write_with(block, nlb, fill.clone(), 0, PlacementHandle::DEFAULT);
                        }
                        io.submit_batch(batch).map(drop)
                    }
                };
                if let Err(e) = result {
                    prop_assert!(
                        e.is_injected_fault() || matches!(e, NvmeError::Unwritten(_)),
                        "unexpected error {e}"
                    );
                }
                prop_assert!(io.now_ns() >= last, "clock ran backwards");
                last = io.now_ns();
            }
            io.flush();
            prop_assert!(io.now_ns() >= last, "clock ran backwards");
            let (mine, device) = (io.stats(), io.namespace().stats());
            prop_assert_eq!(
                (mine.writes, mine.reads, mine.discards, mine.bytes_written, mine.bytes_read),
                (device.writes, device.reads, device.discards, device.bytes_written, device.bytes_read)
            );
            prop_assert_eq!(mine.faults, ctrl.fault_totals().total());
        }
    }

    #[test]
    fn failed_batch_leaves_timing_untouched() {
        let (ctrl, nsid) = setup();
        let mut io = IoManager::new(ctrl, nsid, 4).unwrap();
        let ones: FillSource = Arc::new(|_, out| out.fill(1));
        let t0 = io.now_ns();
        let mut batch = IoBatch::new();
        batch.write_with(0, 1, ones.clone(), 0, PlacementHandle::DEFAULT);
        batch.write_with(io.blocks(), 1, ones, 0, PlacementHandle::DEFAULT); // past the end
        assert!(io.submit_batch(batch).is_err());
        assert_eq!(io.now_ns(), t0);
        assert_eq!(io.stats(), IoStats::default());
        assert_eq!(io.write_latency().count(), 0);
    }

    #[test]
    fn queue_depth_pipelines_commands_in_virtual_time() {
        let (ctrl_a, ns_a) = timed_setup();
        let (ctrl_b, ns_b) = timed_setup();
        let mut qd1 = IoManager::new(ctrl_a, ns_a, 4).unwrap();
        let mut qd4 = IoManager::new(ctrl_b, ns_b, 4).unwrap();
        qd4.set_queue_depth(4);
        assert_eq!(qd4.queue_depth(), 4);
        let data = vec![3u8; 4096];
        for i in 0..16u64 {
            qd1.write(i, &data, PlacementHandle::DEFAULT).unwrap();
            qd4.write(i, &data, PlacementHandle::DEFAULT).unwrap();
        }
        qd1.flush();
        qd4.flush();
        assert_eq!(qd4.in_flight(), 0);
        assert!(
            qd4.now_ns() < qd1.now_ns(),
            "QD4 must finish sooner in virtual time: {} vs {}",
            qd4.now_ns(),
            qd1.now_ns()
        );
        // Same device work either way.
        assert_eq!(qd1.stats().writes, qd4.stats().writes);
    }

    #[test]
    fn iostats_merge_covers_every_field() {
        let a = IoStats {
            writes: 1,
            reads: 2,
            discards: 3,
            bytes_written: 4,
            bytes_read: 5,
            bytes_discarded: 6,
            faults: 7,
            health: HealthIoStats {
                state: HealthState::Degraded,
                errors: 13,
                busys: 14,
                windows: 15,
                degradations: 16,
                recoveries: 17,
            },
        };
        let b = a.merge(&a);
        assert_eq!(
            b,
            IoStats {
                writes: 2,
                reads: 4,
                discards: 6,
                bytes_written: 8,
                bytes_read: 10,
                bytes_discarded: 12,
                faults: 14,
                health: HealthIoStats {
                    state: HealthState::Degraded,
                    errors: 26,
                    busys: 28,
                    windows: 30,
                    degradations: 32,
                    recoveries: 34,
                },
            }
        );
    }

    #[test]
    fn injected_faults_complete_failed_with_deterministic_timing() {
        use fdpcache_nvme::{FaultConfig, FaultKind, FaultStore, ScriptedFault};
        let cfg = FtlConfig::tiny_test();
        let scripted = |kind, lba| ScriptedFault { kind, lba, at_access: 0, repeats: 1 };
        let fault_cfg = FaultConfig {
            scripted: vec![
                scripted(FaultKind::WriteError, 0),
                scripted(FaultKind::ReadError, 1),
                ScriptedFault { kind: FaultKind::Busy, lba: 2, at_access: 1, repeats: 1 },
            ],
            busy_penalty_ns: 900_000,
            ..Default::default()
        };
        let store = FaultStore::new(Box::new(MemStore::new()), fault_cfg);
        let ctrl = Arc::new(Controller::new(cfg, Box::new(store)).unwrap());
        let nsid = ctrl.create_namespace(64, vec![0, 1]).unwrap();
        let mut io = IoManager::new(ctrl.clone(), nsid, 1).unwrap();
        let data = vec![1u8; 4096];

        // Scripted write fault: error completion, FAULT_SERVICE_NS.
        let t0 = io.now_ns();
        let err = io.write(0, &data, PlacementHandle::DEFAULT).unwrap_err();
        assert!(matches!(err, NvmeError::MediaError { lba: 0, .. }));
        assert_eq!(io.now_ns(), t0 + FAULT_SERVICE_NS);
        // The retry (access 1) succeeds: the old mapping never existed,
        // no side effect leaked from the failed attempt.
        io.write(0, &data, PlacementHandle::DEFAULT).unwrap();
        io.write(1, &data, PlacementHandle::DEFAULT).unwrap();
        io.write(2, &data, PlacementHandle::DEFAULT).unwrap();

        // Scripted read fault, then clean retry returns the payload.
        let mut out = vec![0u8; 4096];
        assert!(io.read(1, &mut out).unwrap_err().is_injected_fault());
        io.read(1, &mut out).unwrap();
        assert_eq!(out, data);

        // Busy charges its penalty and succeeds on retry.
        let t1 = io.now_ns();
        let err = io.read(2, &mut out).unwrap_err();
        assert!(matches!(err, NvmeError::Busy { penalty_ns: 900_000 }));
        assert_eq!(io.now_ns(), t1 + 900_000);
        io.read(2, &mut out).unwrap();

        assert_eq!(io.stats().faults, 3);
        assert_eq!(ctrl.fault_totals().total(), 3);
        // Successful-command counters exclude the failures.
        assert_eq!(io.stats().writes, 3);
        assert_eq!(io.stats().reads, 2);
        // The health monitor saw every completion, split by kind, but
        // too few events in too little time to close a window.
        assert_eq!(io.stats().health.errors, 2);
        assert_eq!(io.stats().health.busys, 1);
        assert_eq!(io.health(), HealthState::Healthy);
        ctrl.with_ftl(|f| f.check_invariants());
    }

    #[test]
    fn charged_reads_match_transferring_reads_in_everything_but_the_bytes() {
        use fdpcache_nvme::{FaultConfig, FaultStore};
        // Two identical devices with every read-side fault kind live:
        // one twin transfers each read's payload, the other only
        // charges it. Writes churn a 96-block window of a 256-block
        // namespace so GC runs and leaves backlog for the reads to
        // absorb; blocks 224.. are never written.
        let twin = || {
            let faults = FaultConfig {
                seed: 7,
                read_err_ppm: 40_000,
                corruption_ppm: 100_000,
                busy_ppm: 50_000,
                ..Default::default()
            };
            let cfg = FtlConfig {
                latency: fdpcache_nand::LatencyModel::default(),
                ..FtlConfig::tiny_test()
            };
            let store = FaultStore::new(Box::new(MemStore::new()), faults);
            let ctrl = Arc::new(Controller::new(cfg, Box::new(store)).unwrap());
            let nsid = ctrl.create_namespace(256, vec![0, 1]).unwrap();
            let mut io = IoManager::new(ctrl.clone(), nsid, 2).unwrap();
            io.set_queue_depth(2);
            (ctrl, io)
        };
        let (ctrl_t, mut transfer) = twin();
        let (ctrl_c, mut charged) = twin();
        let data = vec![0xA5u8; 2 * 4096];
        let mut out = vec![0u8; 4 * 4096];
        let mut outcomes = [0u64; 3];
        for i in 0..2000u64 {
            let block = (i * 37) % 96;
            let w_t = transfer.write(block, &data, PlacementHandle::with_dspec(1));
            let w_c = charged.write(block, &data, PlacementHandle::with_dspec(1));
            assert_eq!(w_t, w_c, "write {i}");
            // Reads of 1..=4 blocks across the written window, the
            // never-written tail and the namespace end, plus a
            // misaligned length every so often.
            let (block, len) = match i % 10 {
                7 => (224 + i % 32, 4096),
                8 => (254, 3 * 4096),
                9 => (i % 96, 100),
                _ => ((i * 13) % 96, (1 + i as usize % 4) * 4096),
            };
            let r_t = transfer.read(block, &mut out[..len]);
            let r_c = charged.read_charged(block, len);
            assert_eq!(r_t, r_c, "read {i} of {len} bytes at {block}");
            outcomes[match &r_t {
                Ok(_) => 0,
                Err(e) if e.is_injected_fault() => 1,
                Err(_) => 2,
            }] += 1;
            assert_eq!(transfer.now_ns(), charged.now_ns(), "queue clock after read {i}");
        }
        assert!(outcomes.iter().all(|&n| n > 0), "every outcome kind exercised: {outcomes:?}");
        transfer.flush();
        charged.flush();
        assert_eq!(transfer.now_ns(), charged.now_ns());
        assert_eq!(transfer.stats(), charged.stats());
        assert!(transfer.stats().bytes_read > 0);
        let (h_t, h_c) = (transfer.read_latency(), charged.read_latency());
        assert_eq!((h_t.count(), h_t.sum(), h_t.max()), (h_c.count(), h_c.sum(), h_c.max()));
        assert_eq!((h_t.p50(), h_t.p99()), (h_c.p50(), h_c.p99()));
        assert_eq!(transfer.namespace().stats(), charged.namespace().stats());
        assert_eq!(ctrl_t.with_ftl(|f| f.stats()), ctrl_c.with_ftl(|f| f.stats()));
        assert!(ctrl_t.with_ftl(|f| f.stats()).gc_runs > 0, "the churn must run GC");
        let nand_reads = |c: &Controller| c.with_ftl(|f| f.nand_stats().pages_read);
        assert_eq!(nand_reads(&ctrl_t), nand_reads(&ctrl_c));
        assert_eq!(ctrl_t.fault_totals(), ctrl_c.fault_totals());
        let totals = ctrl_t.fault_totals();
        assert!(
            totals.busy_events > 0 && totals.read_errors > 0 && totals.corruption_errors > 0,
            "every read-side fault kind fired: {totals:?}"
        );
    }

    #[test]
    fn io_path_walks_health_down_and_back() {
        use fdpcache_nvme::{FaultConfig, FaultKind, FaultStore, ScriptedFault};
        // A permanent bad block: every write to LBA 0 fails, each one
        // charging FAULT_SERVICE_NS, so observation windows fill with
        // pure-error traffic and the classifier escalates one level
        // per window.
        let fault_cfg = FaultConfig {
            scripted: vec![ScriptedFault {
                kind: FaultKind::WriteError,
                lba: 0,
                at_access: 0,
                repeats: u64::MAX,
            }],
            ..Default::default()
        };
        let store = FaultStore::new(Box::new(MemStore::new()), fault_cfg);
        let ctrl = Arc::new(Controller::new(FtlConfig::tiny_test(), Box::new(store)).unwrap());
        let nsid = ctrl.create_namespace(64, vec![0, 1]).unwrap();
        let mut io = IoManager::new(ctrl, nsid, 1).unwrap();
        let data = vec![1u8; 4096];
        while io.health() != HealthState::Failing {
            io.write(0, &data, PlacementHandle::DEFAULT).unwrap_err();
            assert!(io.stats().faults < 5_000, "health never reached Failing");
        }
        assert_eq!(io.stats().health.degradations, 2);
        // A successful breaker probe credits one level back...
        io.credit_health_recovery();
        assert_eq!(io.health(), HealthState::Degraded);
        // ...and sustained clean traffic (host think time spacing the
        // ops out so windows elapse) walks the rest of the way down.
        let mut clean = 0u64;
        while io.health() != HealthState::Healthy {
            io.advance(2_000_000);
            io.write(1, &data, PlacementHandle::DEFAULT).unwrap();
            clean += 1;
            assert!(clean < 5_000, "health never recovered");
        }
        assert_eq!(io.stats().health.recoveries, 2);
        // Transition trace is virtual-time stamped and monotone.
        let trace = io.health_transitions();
        assert_eq!(trace.len(), 4);
        assert!(trace.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn parallel_managers_do_not_serialize_on_a_device_lock() {
        // Regression guard for the tentpole: four workers on four
        // namespaces submit concurrently; every op must land and the
        // device must stay consistent.
        let ctrl =
            Arc::new(Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap());
        let per = ctrl.unallocated_lbas() / 4;
        let mut managers: Vec<IoManager> = (0..4)
            .map(|_| {
                let nsid = ctrl.create_namespace(per, vec![0, 1]).unwrap();
                IoManager::new(ctrl.clone(), nsid, 2).unwrap()
            })
            .collect();
        std::thread::scope(|scope| {
            for io in &mut managers {
                scope.spawn(move || {
                    let data = vec![io.namespace().nsid() as u8; 4096];
                    for i in 0..64 {
                        io.write(i % io.blocks(), &data, PlacementHandle::with_dspec(1)).unwrap();
                    }
                });
            }
        });
        let total = ctrl.device_io_stats();
        assert_eq!(total.writes, 4 * 64, "no lost writes across workers");
        ctrl.with_ftl(|f| f.check_invariants());
    }
}
