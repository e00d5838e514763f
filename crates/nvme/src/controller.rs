//! The simulated NVMe controller, structured for fine-grained
//! concurrency.
//!
//! Locking topology (see DESIGN.md §"Locking model"):
//!
//! * **Media lock** — one [`Mutex<Ftl>`] guards the mapping table and
//!   GC engine. It is held per command only for the FTL portion of the
//!   work (mapping updates, placement, GC accounting), never across
//!   payload copies.
//! * **Payload store** — [`DataStore`] implementations synchronize
//!   internally ([`crate::MemStore`] locks per 1 MiB segment), and the
//!   controller touches them strictly *outside* the media lock, so
//!   payload memcpy traffic from N workers overlaps both with other
//!   copies and with FTL work.
//! * **Admin lock** — an `RwLock` over the namespace table, write-locked
//!   only by admin commands (`create_namespace`); the data path never
//!   takes it when callers hold a [`NamespaceState`] from
//!   [`Controller::open_namespace`].
//! * **Stats** — per-namespace atomic counters, aggregated on read by
//!   [`Controller::device_io_stats`]. In the one-worker-per-namespace
//!   topology every counter cache line has a single writer; workers
//!   that share a namespace share its counters (contended but correct).
//! * **FDP toggle** — an `AtomicBool`, so the A/B switch never blocks
//!   in-flight I/O.
//!
//! The result: all methods take `&self`, `SharedController` is a plain
//! `Arc<Controller>`, and N workers on N namespaces proceed in parallel
//! on the data path, matching the paper's one-io_uring-queue-pair-per-
//! worker topology (§5.4) far more faithfully than the previous
//! `Arc<Mutex<Controller>>` arrangement, which serialized entire
//! commands — payload copies included — through one global lock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fdpcache_ftl::{FdpEvent, Ftl, FtlConfig, RuhId, DEFAULT_RUH};
use parking_lot::{Mutex, RwLock};

use crate::datastore::{DataStore, FillSource};
use crate::error::NvmeError;
use crate::fault::{FaultOp, FaultRates, FaultTotals};
use crate::health::{HealthConfig, HealthReport};
use crate::identify::{ControllerIdentity, FdpConfigDescriptor};
use crate::logpage::{FdpConfigLog, RuhUsageDescriptor, RuhUsageLog};
use crate::namespace::{Namespace, NamespaceId};

/// Completion information for a write command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteCompletion {
    /// Media service time of the host programs (ns).
    pub service_ns: u64,
    /// GC time this command triggered synchronously (ns). Queue models
    /// treat this as lane-occupying background work.
    pub gc_ns: u64,
}

/// The bytes of one batched write command.
#[derive(Clone)]
pub enum WritePayload<'a> {
    /// Borrowed bytes: a whole number of logical blocks.
    Bytes(&'a [u8]),
    /// `nlb` blocks holding `source`'s bytes from byte `base` on,
    /// stored through [`DataStore::write_source`]: a LOC seal hands
    /// every command of a region one shared source this way, and a
    /// [`crate::MemStore`] makes the bytes only when they are read.
    Fill {
        /// Logical blocks the command covers.
        nlb: u64,
        /// Writes the payload's bytes from a byte offset on.
        source: FillSource,
        /// The command's first byte within `source`.
        base: usize,
    },
}

impl WritePayload<'_> {
    /// Payload length in bytes at `block_bytes`-byte blocks.
    pub fn byte_len(&self, block_bytes: usize) -> usize {
        match self {
            WritePayload::Bytes(data) => data.len(),
            WritePayload::Fill { nlb, .. } => *nlb as usize * block_bytes,
        }
    }
}

impl std::fmt::Debug for WritePayload<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WritePayload::Bytes(data) => write!(f, "Bytes({} bytes)", data.len()),
            WritePayload::Fill { nlb, .. } => write!(f, "Fill({nlb} blocks)"),
        }
    }
}

/// One write of a vectored batch submission: a whole number of blocks
/// at `slba` carrying its own placement directive. Payloads are
/// borrowed bytes or a shared source, so batch assembly is copy-free.
#[derive(Debug, Clone)]
pub struct BatchWrite<'a> {
    /// Namespace-relative start LBA.
    pub slba: u64,
    /// Payload: a whole number of logical blocks.
    pub data: WritePayload<'a>,
    /// Placement directive (`None` = namespace default handle).
    pub dspec: Option<u16>,
}

/// The FDP statistics log page (paper §3.3 / §6.1): the host-visible
/// byte counters from which interval DLWA is computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FdpStatsLog {
    /// Host bytes with metadata written (HBMW).
    pub host_bytes_written: u64,
    /// Media bytes with metadata written (MBMW).
    pub media_bytes_written: u64,
    /// Media bytes erased.
    pub media_bytes_erased: u64,
    /// Media Relocated events since reset (GC operations).
    pub media_relocated_events: u64,
    /// Events lost to event-log ring overflow. GC-energy accounting that
    /// counts drained *Media Relocated* events under-counts by (up to)
    /// this much.
    pub log_events_dropped: u64,
}

impl FdpStatsLog {
    /// DLWA over the whole log interval (Equation 1).
    pub fn dlwa(&self) -> f64 {
        if self.host_bytes_written == 0 {
            1.0
        } else {
            self.media_bytes_written as f64 / self.host_bytes_written as f64
        }
    }

    /// Per-field difference `self - earlier` for interval DLWA.
    pub fn delta(&self, earlier: &FdpStatsLog) -> FdpStatsLog {
        FdpStatsLog {
            host_bytes_written: self.host_bytes_written.saturating_sub(earlier.host_bytes_written),
            media_bytes_written: self
                .media_bytes_written
                .saturating_sub(earlier.media_bytes_written),
            media_bytes_erased: self.media_bytes_erased.saturating_sub(earlier.media_bytes_erased),
            media_relocated_events: self
                .media_relocated_events
                .saturating_sub(earlier.media_relocated_events),
            log_events_dropped: self.log_events_dropped.saturating_sub(earlier.log_events_dropped),
        }
    }
}

/// Snapshot of one namespace's I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NamespaceStats {
    /// Write commands completed.
    pub writes: u64,
    /// Read commands completed.
    pub reads: u64,
    /// Deallocate (DSM) commands completed.
    pub discards: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Payload bytes read.
    pub bytes_read: u64,
}

impl NamespaceStats {
    /// Element-wise sum, used when aggregating the device view.
    pub fn merge(&self, other: &NamespaceStats) -> NamespaceStats {
        NamespaceStats {
            writes: self.writes + other.writes,
            reads: self.reads + other.reads,
            discards: self.discards + other.discards,
            bytes_written: self.bytes_written + other.bytes_written,
            bytes_read: self.bytes_read + other.bytes_read,
        }
    }
}

/// Per-namespace atomic counters — the sharded half of the device's
/// statistics. Incremented lock-free on the data path, aggregated on
/// read.
#[derive(Debug, Default)]
struct NsCounters {
    writes: AtomicU64,
    reads: AtomicU64,
    discards: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl NsCounters {
    fn snapshot(&self) -> NamespaceStats {
        NamespaceStats {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            discards: self.discards.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

/// A namespace plus its submission-side state: the per-namespace half
/// of the controller, handed to each worker by
/// [`Controller::open_namespace`] so the data path never touches the
/// admin lock.
#[derive(Debug)]
pub struct NamespaceState {
    ns: Namespace,
    counters: NsCounters,
}

impl NamespaceState {
    /// The namespace's identity and geometry.
    pub fn info(&self) -> &Namespace {
        &self.ns
    }

    /// The namespace ID.
    pub fn nsid(&self) -> NamespaceId {
        self.ns.nsid
    }

    /// Snapshot of this namespace's I/O counters.
    pub fn stats(&self) -> NamespaceStats {
        self.counters.snapshot()
    }
}

/// Namespace table + capacity accounting, guarded by the admin lock.
#[derive(Debug, Default)]
struct AdminState {
    namespaces: Vec<Arc<NamespaceState>>,
    next_nsid: NamespaceId,
    allocated_lbas: u64,
}

/// The simulated NVMe controller: namespaces + FDP toggle + log pages
/// over an [`Ftl`] and a payload [`DataStore`], with the fine-grained
/// locking topology described in the module docs.
pub struct Controller {
    /// Media lock: mapping table, placement, GC.
    ftl: Mutex<Ftl>,
    /// Payload store; internally synchronized, accessed outside `ftl`.
    store: Box<dyn DataStore>,
    /// Admin lock: namespace table and capacity accounting.
    admin: RwLock<AdminState>,
    fdp_enabled: AtomicBool,
    /// Immutable copies of device geometry, so identity/validation never
    /// take the media lock.
    config: FtlConfig,
    lba_bytes: u32,
    exported_lbas: u64,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let admin = self.admin.read();
        f.debug_struct("Controller")
            .field("namespaces", &admin.namespaces.len())
            .field("fdp_enabled", &self.fdp_enabled.load(Ordering::Relaxed))
            .field("allocated_lbas", &admin.allocated_lbas)
            .finish()
    }
}

impl Controller {
    /// Creates a controller over fresh media. FDP starts enabled when the
    /// configuration exposes more than one handle.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures as strings.
    pub fn new(config: FtlConfig, store: Box<dyn DataStore>) -> Result<Self, String> {
        let fdp = config.num_ruhs > 1;
        let ftl = Ftl::new(config.clone())?;
        let lba_bytes = ftl.lba_bytes();
        let exported_lbas = ftl.exported_lbas();
        // Capacity-aware stores (the page slab) pre-size to the device
        // here, before any I/O can reach them.
        store.attach(exported_lbas, lba_bytes);
        Ok(Controller {
            ftl: Mutex::new(ftl),
            store,
            admin: RwLock::new(AdminState {
                namespaces: Vec::new(),
                next_nsid: 1,
                allocated_lbas: 0,
            }),
            fdp_enabled: AtomicBool::new(fdp),
            config,
            lba_bytes,
            exported_lbas,
        })
    }

    /// Controller identity (capacity, LBA size, FDP capability).
    pub fn identify(&self) -> ControllerIdentity {
        ControllerIdentity {
            model: "fdpcache simulated PM9D3-class FDP SSD".into(),
            capacity_bytes: self.exported_lbas * self.lba_bytes as u64,
            lba_bytes: self.lba_bytes,
            fdp_supported: self.config.num_ruhs > 1,
            fdp_enabled: self.fdp_enabled(),
            fdp_config: Some(FdpConfigDescriptor {
                nruh: self.config.num_ruhs,
                nrg: self.config.num_rgs,
                ruh_type: self.config.ruh_type,
                ru_bytes: self.config.geometry.superblock_bytes(),
            }),
        }
    }

    /// Enables or disables FDP placement, like the paper's
    /// `nvme-cli`-driven A/B switch. With FDP disabled every write lands
    /// on the device default handle regardless of directives. Lock-free;
    /// concurrent in-flight commands observe the toggle atomically.
    pub fn set_fdp_enabled(&self, enabled: bool) {
        self.fdp_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether FDP placement is currently honoured.
    pub fn fdp_enabled(&self) -> bool {
        self.fdp_enabled.load(Ordering::Relaxed)
    }

    /// Runs `f` with the FTL under the media lock, for experiment
    /// instrumentation (RUH usage, wear, invariant checks).
    pub fn with_ftl<R>(&self, f: impl FnOnce(&Ftl) -> R) -> R {
        f(&self.ftl.lock())
    }

    /// Device LBA size in bytes.
    pub fn lba_bytes(&self) -> u32 {
        self.lba_bytes
    }

    /// The device configuration (immutable after construction).
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Whether the attached backing store retains payload bytes. Callers
    /// may skip payload materialization when it does not (metadata-only
    /// experiment mode).
    pub fn store_retains_data(&self) -> bool {
        self.store.retains_data()
    }

    /// Snapshot of the store's injected-fault totals (all zero without
    /// a [`crate::FaultStore`] decorator).
    pub fn fault_totals(&self) -> FaultTotals {
        self.store.fault_totals()
    }

    /// Retunes the store's live fault-injection probabilities (chaos
    /// phase changes). Returns `false` when the store carries no fault
    /// schedule. Deterministic as long as callers retune at
    /// deterministic points in the op stream (quiesced boundaries).
    pub fn set_fault_rates(&self, rates: FaultRates) -> bool {
        self.store.set_fault_rates(rates)
    }

    /// Coarse device-wide health: the cumulative injected-fault rate
    /// over all completed commands, classified against `config`'s
    /// thresholds, with the evidence (command/fault counts and the
    /// exact rate) a fleet router wants alongside the state. A serving
    /// tier may evict devices from rotation at a tighter rate than the
    /// default degraded-mode ladder; the authoritative degraded-mode
    /// signal is the windowed per-shard monitor embedded in each I/O
    /// manager (see [`HealthMonitor`](crate::health::HealthMonitor)).
    pub fn health_report_with(&self, config: &HealthConfig) -> HealthReport {
        let io = self.device_io_stats();
        let commands = io.writes + io.reads + io.discards;
        HealthReport::from_totals(config, &self.fault_totals(), commands)
    }

    /// Unallocated LBAs remaining for namespace creation.
    pub fn unallocated_lbas(&self) -> u64 {
        self.exported_lbas - self.admin.read().allocated_lbas
    }

    /// Creates a namespace of `lba_count` blocks with the given placement
    /// handle list (empty list ⇒ `[DEFAULT_RUH]`). Admin command: takes
    /// the admin write lock, never the media lock.
    ///
    /// Namespaces are carved sequentially from exported capacity; there
    /// is no delete/resize (the experiments never need it).
    ///
    /// # Errors
    ///
    /// [`NvmeError::CapacityExceeded`] if the space is not available, or
    /// [`NvmeError::InvalidPlacementId`] if a listed RUH does not exist.
    pub fn create_namespace(
        &self,
        lba_count: u64,
        ruh_list: Vec<RuhId>,
    ) -> Result<NamespaceId, NvmeError> {
        let nruh = self.config.num_ruhs;
        for (i, &ruh) in ruh_list.iter().enumerate() {
            if ruh >= nruh {
                return Err(NvmeError::InvalidPlacementId(i as u16));
            }
        }
        let ruh_list = if ruh_list.is_empty() { vec![DEFAULT_RUH] } else { ruh_list };
        let mut admin = self.admin.write();
        if lba_count == 0 || lba_count > self.exported_lbas - admin.allocated_lbas {
            return Err(NvmeError::CapacityExceeded);
        }
        let nsid = admin.next_nsid;
        let start_lba = admin.allocated_lbas;
        admin.namespaces.push(Arc::new(NamespaceState {
            ns: Namespace { nsid, start_lba, lba_count, ruh_list },
            counters: NsCounters::default(),
        }));
        admin.allocated_lbas += lba_count;
        admin.next_nsid += 1;
        Ok(nsid)
    }

    /// Looks up a namespace's identity (a cheap clone).
    pub fn namespace(&self, nsid: NamespaceId) -> Option<Namespace> {
        self.open_namespace(nsid).map(|s| s.ns.clone())
    }

    /// Opens a namespace for I/O: returns its shared state so the caller
    /// (one [`IoManager`](../fdpcache_core) per worker) can submit
    /// without ever touching the admin lock again.
    pub fn open_namespace(&self, nsid: NamespaceId) -> Option<Arc<NamespaceState>> {
        self.admin.read().namespaces.iter().find(|s| s.ns.nsid == nsid).cloned()
    }

    fn open_checked(&self, nsid: NamespaceId) -> Result<Arc<NamespaceState>, NvmeError> {
        self.open_namespace(nsid).ok_or(NvmeError::InvalidNamespace(nsid))
    }

    /// Snapshot of one namespace's I/O counters.
    pub fn namespace_stats(&self, nsid: NamespaceId) -> Option<NamespaceStats> {
        self.open_namespace(nsid).map(|s| s.stats())
    }

    /// Device-wide I/O statistics, aggregated from the per-namespace
    /// atomics on read (the "sharded counters" half of the locking
    /// model — nothing on the data path contends to update a global).
    pub fn device_io_stats(&self) -> NamespaceStats {
        self.admin
            .read()
            .namespaces
            .iter()
            .fold(NamespaceStats::default(), |acc, s| acc.merge(&s.stats()))
    }

    /// Writes `data` (a whole number of blocks) at `slba`, honouring the
    /// placement directive when FDP is enabled. Convenience wrapper over
    /// [`Controller::write_ns`] that resolves the namespace per call.
    ///
    /// # Errors
    ///
    /// Namespace/range/buffer validation errors, or FTL failures.
    pub fn write(
        &self,
        nsid: NamespaceId,
        slba: u64,
        data: &[u8],
        dspec: Option<u16>,
    ) -> Result<WriteCompletion, NvmeError> {
        self.write_ns(&*self.open_checked(nsid)?, slba, data, dspec)
    }

    /// Writes through an opened namespace: a one-command
    /// [`Controller::write_batch_ns`].
    ///
    /// # Errors
    ///
    /// Range/buffer validation errors, or FTL failures.
    pub fn write_ns(
        &self,
        state: &NamespaceState,
        slba: u64,
        data: &[u8],
        dspec: Option<u16>,
    ) -> Result<WriteCompletion, NvmeError> {
        let write = BatchWrite { slba, data: WritePayload::Bytes(data), dspec };
        let mut done = [WriteCompletion::default()];
        self.write_batch_ns(state, std::slice::from_ref(&write), &mut done)?;
        Ok(done[0])
    }

    /// Validates one read's or write's buffer length (`len` bytes) and
    /// range, returning the device start LBA and block count.
    fn validate_io(&self, ns: &Namespace, slba: u64, len: usize) -> Result<(u64, u64), NvmeError> {
        let lba_bytes = self.lba_bytes as usize;
        if len == 0 || !len.is_multiple_of(lba_bytes) {
            return Err(NvmeError::BufferSizeMismatch {
                expected: len.next_multiple_of(lba_bytes).max(lba_bytes),
                got: len,
            });
        }
        let nlb = (len / lba_bytes) as u64;
        let (dev_start, _) = ns
            .translate_range(slba, nlb)
            .ok_or(NvmeError::LbaOutOfRange { nsid: ns.nsid, lba: slba })?;
        Ok((dev_start, nlb))
    }

    /// Resolves a placement directive to a `<RG, RUH>` pair: FDP
    /// disabled ⇒ device default handle, ignoring directives (backward
    /// compatibility, §3.2.2). An enabled directive carries a placement
    /// identifier: reclaim group in the upper byte, placement handle (an
    /// index into the namespace's RUH list) in the lower byte — the
    /// spec's `<RG, PH>` pair. A missing directive writes to the default
    /// handle of reclaim group 0.
    fn resolve_placement(
        &self,
        ns: &Namespace,
        dspec: Option<u16>,
        fdp: bool,
    ) -> Result<(u16, RuhId), NvmeError> {
        if !fdp {
            return Ok((0, DEFAULT_RUH));
        }
        match dspec {
            Some(pid) => {
                let ph = pid & 0xFF;
                let rg = pid >> 8;
                let ruh = ns.resolve_pid(ph).ok_or(NvmeError::InvalidPlacementId(pid))?;
                if rg >= self.config.num_rgs {
                    return Err(NvmeError::InvalidPlacementId(pid));
                }
                Ok((rg, ruh))
            }
            None => Ok((0, ns.default_ruh())),
        }
    }

    /// Validates one batched write and resolves its placement under the
    /// FDP setting `fdp`: its device start LBA, block count and
    /// `<RG, RUH>` pair.
    fn plan_write(
        &self,
        ns: &Namespace,
        w: &BatchWrite<'_>,
        fdp: bool,
    ) -> Result<(u64, u64, u16, RuhId), NvmeError> {
        let (dev_start, nlb) =
            self.validate_io(ns, w.slba, w.data.byte_len(self.lba_bytes as usize))?;
        let (rg, ruh) = self.resolve_placement(ns, w.dspec, fdp)?;
        Ok((dev_start, nlb, rg, ruh))
    }

    /// Writes a batch of commands through an opened namespace under
    /// **one** media-lock acquisition, storing command `i`'s completion
    /// in `completions[i]`. Every write takes this route: a single
    /// write ([`Controller::write_ns`], `IoManager::write`) is a
    /// one-command batch, and the LOC seals whole regions as one batch
    /// through `IoManager::submit_batch`. The caller owns the
    /// completion slots, so a one-command batch allocates nothing.
    ///
    /// Pipeline (batch-wide phases, same per-command order within
    /// each):
    ///
    /// 1. every command is validated and its placement resolved (one
    ///    observation of the FDP toggle covers the batch) — an invalid
    ///    command fails the whole batch before any side effect;
    /// 2. the fault plan is consulted per command, still before any
    ///    side effect;
    /// 3. all payloads land in the (sharded) store outside the media
    ///    lock, in command order, so a later command's bytes win where
    ///    commands overlap. Borrowed bytes are copied
    ///    ([`DataStore::write_blocks`]); a source is handed over
    ///    ([`DataStore::write_source`]), which a [`crate::MemStore`]
    ///    records as one run per segment the command overlaps and calls
    ///    only when a block of it is read — the cache's writes are all
    ///    sources, so they make no byte here;
    /// 4. one `Mutex<Ftl>` acquisition maps every command via
    ///    [`fdpcache_ftl::Ftl::write_placed_batch`], as one run of pages
    ///    per stretch that fits the handle's active reclaim unit.
    ///
    /// Nothing of the payload's form reaches the FTL, the fault gate or
    /// the timing, so completions and every virtual-time result are the
    /// same whether a store makes a source's bytes at once or later.
    ///
    /// Payloads land BEFORE the mapping is published so that (a) every
    /// mapped LBA has its payload even if the FTL errors mid-command,
    /// and (b) a reader racing a first write sees `Unwritten` until the
    /// mapping exists, never a mapped-but-empty zero-fill. Blocks
    /// stored that never get mapped (FTL error) are invisible: reads
    /// check the mapping first. For an *overwrite* that then fails in
    /// the FTL, the store already holds the new bytes — NVMe leaves
    /// content indeterminate after a failed write, so that is within
    /// contract. One non-goal (DESIGN.md §5): a write racing a
    /// *deallocate of the same LBA* is not linearizable — no client
    /// issues that pattern (trim traffic comes from each namespace's
    /// own single-threaded engine).
    ///
    /// # Panics
    ///
    /// If `completions` and `writes` differ in length.
    ///
    /// # Errors
    ///
    /// Validation errors and injected faults surface before any side
    /// effect. A mid-batch FTL failure rolls back every mapping this
    /// batch already applied ([`fdpcache_ftl::Ftl::rollback_range`]), so
    /// a failed batch is all-or-nothing: no command of it is mapped or
    /// counted (the rolled-back LBAs read as unwritten afterwards —
    /// NVMe's indeterminate-on-error contract), and `completions`
    /// holds nothing meaningful.
    pub fn write_batch_ns(
        &self,
        state: &NamespaceState,
        writes: &[BatchWrite<'_>],
        completions: &mut [WriteCompletion],
    ) -> Result<(), NvmeError> {
        assert_eq!(writes.len(), completions.len(), "one completion slot per write");
        let ns = &state.ns;
        let lba_bytes = self.lba_bytes as usize;
        let fdp = self.fdp_enabled();
        let mut total_bytes = 0u64;
        for w in writes {
            self.plan_write(ns, w, fdp)?;
            total_bytes += w.data.byte_len(lba_bytes) as u64;
        }
        // The passes below re-derive each command's plan, which the
        // validation pass above proved infallible, rather than keep it
        // in a per-batch allocation.
        //
        // Fault-plan gate, still before any side effect: a mid-batch
        // injected fault (command k > 0) fails the WHOLE batch here, so
        // previously acknowledged data at every LBA of the batch —
        // including commands before k — survives untouched.
        for w in writes {
            let (dev_start, nlb, ..) = self.plan_write(ns, w, fdp)?;
            if let Some(f) = self.store.fault(FaultOp::Write, dev_start, nlb) {
                return Err(f.into());
            }
        }
        for w in writes {
            self.store_payload(ns, w)?;
        }
        {
            let mut ftl = self.ftl.lock();
            for (i, w) in writes.iter().enumerate() {
                let (dev_start, nlb, rg, ruh) = self.plan_write(ns, w, fdp)?;
                let receipt = match ftl.write_placed_batch(dev_start, nlb, rg, ruh) {
                    Ok(r) => r,
                    Err(e) => {
                        // Command i's own prefix was rolled back by the
                        // FTL; unmap the commands this batch already
                        // applied so the error leaves no partial batch.
                        for done in &writes[..i] {
                            let (done_start, done_nlb, ..) = self.plan_write(ns, done, fdp)?;
                            ftl.rollback_range(done_start, done_nlb)?;
                        }
                        return Err(e.into());
                    }
                };
                completions[i] =
                    WriteCompletion { service_ns: receipt.program_ns, gc_ns: receipt.gc_ns };
            }
        }
        state.counters.writes.fetch_add(writes.len() as u64, Ordering::Relaxed);
        state.counters.bytes_written.fetch_add(total_bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Lands one validated command's payload in the store.
    fn store_payload(&self, ns: &Namespace, w: &BatchWrite<'_>) -> Result<(), NvmeError> {
        let lba_bytes = self.lba_bytes as usize;
        let (dev_start, nlb) = self.validate_io(ns, w.slba, w.data.byte_len(lba_bytes))?;
        match &w.data {
            WritePayload::Bytes(data) => self.store.write_blocks(dev_start, data, lba_bytes),
            WritePayload::Fill { source, base, .. } => {
                self.store.write_source(dev_start, nlb, lba_bytes, source, *base)
            }
        }
        Ok(())
    }

    /// Reads whole blocks into `out` starting at `slba`. Returns media
    /// service time in nanoseconds. Convenience wrapper over
    /// [`Controller::read_ns`].
    ///
    /// # Errors
    ///
    /// [`NvmeError::Unwritten`] when any block has never been written.
    pub fn read(&self, nsid: NamespaceId, slba: u64, out: &mut [u8]) -> Result<u64, NvmeError> {
        self.read_ns(&*self.open_checked(nsid)?, slba, out)
    }

    /// Reads through an opened namespace: the media step (validation,
    /// fault gate, FTL read and namespace counters — all of
    /// [`Controller::read_charged_ns`]), then the payload load into
    /// `out`. Mapping checks and timing run under the media lock; the
    /// payload load runs after it is released.
    ///
    /// If the backing store does not retain payloads ([`crate::NullStore`])
    /// the buffer is zero-filled but timing/accounting still happen.
    ///
    /// # Errors
    ///
    /// [`NvmeError::Unwritten`] when any block has never been written.
    pub fn read_ns(
        &self,
        state: &NamespaceState,
        slba: u64,
        out: &mut [u8],
    ) -> Result<u64, NvmeError> {
        let (dev_start, total_ns) = self.read_media(state, slba, out.len())?;
        // Payload loads run outside the media lock as one vectored
        // transfer; the store zero-fills unbacked blocks itself (the
        // slab fills each stretch of slots without a run in one pass). Non-goal
        // (DESIGN.md §5): a read racing a deallocate of the same LBA may
        // zero-fill — no client issues that pattern (trim traffic comes
        // from each namespace's own single-threaded engine).
        self.store.read_blocks(dev_start, out, self.lba_bytes as usize);
        Ok(total_ns)
    }

    /// A charged read of `len` bytes at `slba`: the media step of
    /// [`Controller::read_ns`] alone — the same validation, fault gate,
    /// FTL read, NAND accounting and namespace counters (`bytes_read`
    /// included) — with no payload load. For reads whose bytes nobody
    /// inspects (DESIGN.md §5.3); returns the media service time.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Controller::read_ns`] over a `len`-byte buffer.
    pub fn read_charged_ns(
        &self,
        state: &NamespaceState,
        slba: u64,
        len: usize,
    ) -> Result<u64, NvmeError> {
        self.read_media(state, slba, len).map(|(_, total_ns)| total_ns)
    }

    /// The media step every read takes: validates a `len`-byte read,
    /// passes the fault-plan gate, reads the mapping under the media
    /// lock and counts the command. Returns the device start LBA and the
    /// media service time.
    fn read_media(
        &self,
        state: &NamespaceState,
        slba: u64,
        len: usize,
    ) -> Result<(u64, u64), NvmeError> {
        let (dev_start, nlb) = self.validate_io(&state.ns, slba, len)?;
        // Fault-plan gate: an injected read failure (media error,
        // segment corruption, busy spike) completes with an error
        // status before any media accounting or payload load.
        if let Some(f) = self.store.fault(FaultOp::Read, dev_start, nlb) {
            return Err(f.into());
        }
        let total_ns = self.ftl.lock().read_contig(dev_start, nlb).map_err(|e| match e {
            fdpcache_ftl::FtlError::Unmapped(l) => NvmeError::Unwritten(l),
            other => NvmeError::Ftl(other),
        })?;
        state.counters.reads.fetch_add(1, Ordering::Relaxed);
        state.counters.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok((dev_start, total_ns))
    }

    /// Deallocates the given ranges (DSM). Unwritten LBAs are skipped.
    /// Convenience wrapper over [`Controller::deallocate_ns`].
    ///
    /// # Errors
    ///
    /// Range validation errors, reported before any range is dropped.
    pub fn deallocate(
        &self,
        nsid: NamespaceId,
        ranges: &[crate::command::DeallocRange],
    ) -> Result<(), NvmeError> {
        self.deallocate_ns(&*self.open_checked(nsid)?, ranges)
    }

    /// Deallocates through an opened namespace. The whole range vector
    /// is validated and translated up front, then unmapped under
    /// **one** media-lock acquisition ([`fdpcache_ftl::Ftl::trim_batch`]);
    /// payload discards follow outside the lock. A command whose ranges
    /// fail validation drops nothing (all-or-nothing, one CQ status for
    /// the whole DSM command — stricter than the previous per-range
    /// partial progress).
    ///
    /// # Errors
    ///
    /// Range validation errors, reported before any range is dropped.
    pub fn deallocate_ns(
        &self,
        state: &NamespaceState,
        ranges: &[crate::command::DeallocRange],
    ) -> Result<(), NvmeError> {
        let ns = &state.ns;
        let mut translated = Vec::with_capacity(ranges.len());
        for r in ranges {
            let (dev_start, count) = ns
                .translate_range(r.slba, r.nlb)
                .ok_or(NvmeError::LbaOutOfRange { nsid: ns.nsid, lba: r.slba })?;
            translated.push((dev_start, count));
        }
        // Fault-plan gate: a failed DSM drops nothing (all-or-nothing,
        // consistent with the validation behaviour above).
        for &(dev_start, count) in &translated {
            if let Some(f) = self.store.fault(FaultOp::Discard, dev_start, count) {
                return Err(f.into());
            }
        }
        self.ftl.lock().trim_batch(&translated)?;
        for &(dev_start, count) in &translated {
            self.store.discard_blocks(dev_start, count);
        }
        state.counters.discards.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Deallocates an entire namespace (the paper's pre-experiment full
    /// TRIM reset).
    ///
    /// # Errors
    ///
    /// [`NvmeError::InvalidNamespace`] if the namespace does not exist.
    pub fn format_namespace(&self, nsid: NamespaceId) -> Result<(), NvmeError> {
        let state = self.open_checked(nsid)?;
        let nlb = state.ns.lba_count;
        self.deallocate_ns(&state, &[crate::command::DeallocRange { slba: 0, nlb }])
    }

    /// Reads the FDP statistics log page.
    pub fn fdp_stats_log(&self) -> FdpStatsLog {
        let ftl = self.ftl.lock();
        let s = ftl.stats();
        let page = self.lba_bytes as u64;
        let ru_bytes = self.config.geometry.superblock_bytes();
        FdpStatsLog {
            host_bytes_written: s.host_pages_written * page,
            media_bytes_written: s.nand_pages_written * page,
            media_bytes_erased: s.rus_erased * ru_bytes,
            media_relocated_events: s.gc_runs,
            log_events_dropped: ftl.events().dropped(),
        }
    }

    /// Drains the FDP event log (host event consumption).
    pub fn drain_fdp_events(&self) -> Vec<FdpEvent> {
        self.ftl.lock().events_mut().drain()
    }

    /// Rebuilds the FTL's volatile mapping tables after a simulated
    /// crash by the full out-of-band media scan (see
    /// [`Ftl::recover_mapping`]) and returns the simulated time it cost
    /// (ns).
    pub fn recover_ftl(&self) -> u64 {
        self.ftl.lock().recover_mapping()
    }

    /// Reads the reclaim unit handle usage log page: per-handle host
    /// writes, RU switches, and available space in the currently
    /// referenced RU (paper §3.2.2's RU space query).
    pub fn ruh_usage_log(&self) -> RuhUsageLog {
        let ftl = self.ftl.lock();
        let host = ftl.ruh_host_pages().to_vec();
        let switches = ftl.ruh_switches().to_vec();
        let descriptors = (0..self.config.num_ruhs)
            .map(|ruh| RuhUsageDescriptor {
                ruh,
                host_pages_written: host[ruh as usize],
                ru_switches: switches[ruh as usize],
                available_pages: ftl.ruh_available_pages(ruh),
            })
            .collect();
        RuhUsageLog { descriptors }
    }

    /// Reads the FDP configurations log page. The simulated device, like
    /// the paper's PM9D3, exposes a single manufacturer-fixed
    /// configuration.
    pub fn fdp_config_log(&self) -> FdpConfigLog {
        FdpConfigLog {
            configs: vec![FdpConfigDescriptor {
                nruh: self.config.num_ruhs,
                nrg: self.config.num_rgs,
                ruh_type: self.config.ruh_type,
                ru_bytes: self.config.geometry.superblock_bytes(),
            }],
            active: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::DeallocRange;
    use crate::datastore::{MemStore, NullStore};

    fn ctrl() -> Controller {
        Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new())).unwrap()
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; 4096]
    }

    #[test]
    fn namespace_creation_and_capacity() {
        let c = ctrl();
        let total = c.unallocated_lbas();
        let ns1 = c.create_namespace(total / 2, vec![0, 1]).unwrap();
        assert_eq!(ns1, 1);
        let ns2 = c.create_namespace(total - total / 2, vec![2]).unwrap();
        assert_eq!(ns2, 2);
        assert_eq!(c.unallocated_lbas(), 0);
        assert!(matches!(c.create_namespace(1, vec![]), Err(NvmeError::CapacityExceeded)));
    }

    #[test]
    fn namespace_rejects_unknown_ruh() {
        let c = ctrl();
        let bad = c.config().num_ruhs;
        assert!(matches!(c.create_namespace(16, vec![bad]), Err(NvmeError::InvalidPlacementId(0))));
    }

    #[test]
    fn write_read_round_trip() {
        let c = ctrl();
        let ns = c.create_namespace(64, vec![0, 1]).unwrap();
        c.write(ns, 3, &page(0xAB), Some(1)).unwrap();
        let mut out = page(0);
        c.read(ns, 3, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn multi_block_write_reads_back() {
        let c = ctrl();
        let ns = c.create_namespace(64, vec![]).unwrap();
        let mut buf = Vec::new();
        for i in 0..4u8 {
            buf.extend_from_slice(&page(i));
        }
        c.write(ns, 8, &buf, None).unwrap();
        let mut out = vec![0u8; 4096 * 4];
        c.read(ns, 8, &mut out).unwrap();
        assert_eq!(out, buf);
    }

    #[test]
    fn read_unwritten_is_error() {
        let c = ctrl();
        let ns = c.create_namespace(16, vec![]).unwrap();
        let mut out = page(0);
        assert!(matches!(c.read(ns, 0, &mut out), Err(NvmeError::Unwritten(_))));
    }

    #[test]
    fn buffer_misalignment_rejected() {
        let c = ctrl();
        let ns = c.create_namespace(16, vec![]).unwrap();
        assert!(matches!(
            c.write(ns, 0, &[0u8; 100], None),
            Err(NvmeError::BufferSizeMismatch { .. })
        ));
        let mut small = [0u8; 512];
        assert!(matches!(c.read(ns, 0, &mut small), Err(NvmeError::BufferSizeMismatch { .. })));
    }

    #[test]
    fn out_of_range_rejected() {
        let c = ctrl();
        let ns = c.create_namespace(4, vec![]).unwrap();
        assert!(matches!(c.write(ns, 4, &page(1), None), Err(NvmeError::LbaOutOfRange { .. })));
        assert!(matches!(c.write(99, 0, &page(1), None), Err(NvmeError::InvalidNamespace(99))));
    }

    #[test]
    fn invalid_dspec_rejected_when_fdp_on() {
        let c = ctrl();
        let ns = c.create_namespace(16, vec![0, 1]).unwrap();
        assert!(matches!(c.write(ns, 0, &page(1), Some(7)), Err(NvmeError::InvalidPlacementId(7))));
    }

    #[test]
    fn fdp_disabled_ignores_directives() {
        let c = ctrl();
        let ns = c.create_namespace(16, vec![0, 1, 2]).unwrap();
        c.set_fdp_enabled(false);
        // Even an invalid DSPEC is ignored when FDP is off.
        c.write(ns, 0, &page(1), Some(42)).unwrap();
        assert_eq!(c.with_ftl(|f| f.ruh_host_pages()[fdpcache_ftl::DEFAULT_RUH as usize]), 1);
    }

    #[test]
    fn dspec_routes_to_selected_ruh() {
        let c = ctrl();
        let ns = c.create_namespace(16, vec![0, 3]).unwrap();
        c.write(ns, 0, &page(1), Some(1)).unwrap();
        assert_eq!(c.with_ftl(|f| f.ruh_host_pages()[3]), 1);
    }

    #[test]
    fn deallocate_then_read_fails() {
        let c = ctrl();
        let ns = c.create_namespace(16, vec![]).unwrap();
        c.write(ns, 2, &page(9), None).unwrap();
        c.deallocate(ns, &[DeallocRange { slba: 0, nlb: 16 }]).unwrap();
        let mut out = page(0);
        assert!(matches!(c.read(ns, 2, &mut out), Err(NvmeError::Unwritten(_))));
    }

    #[test]
    fn format_namespace_resets_payloads() {
        let c = ctrl();
        let ns = c.create_namespace(16, vec![]).unwrap();
        c.write(ns, 0, &page(1), None).unwrap();
        c.format_namespace(ns).unwrap();
        assert_eq!(c.with_ftl(|f| f.mapped_lbas()), 0);
    }

    #[test]
    fn stats_log_tracks_dlwa_inputs() {
        let c = ctrl();
        let ns = c.create_namespace(16, vec![]).unwrap();
        let t0 = c.fdp_stats_log();
        c.write(ns, 0, &page(1), None).unwrap();
        c.write(ns, 1, &page(2), None).unwrap();
        let t1 = c.fdp_stats_log();
        let d = t1.delta(&t0);
        assert_eq!(d.host_bytes_written, 2 * 4096);
        assert_eq!(d.media_bytes_written, 2 * 4096);
        assert!((d.dlwa() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn namespaces_are_disjoint() {
        let c = ctrl();
        let a = c.create_namespace(8, vec![]).unwrap();
        let b = c.create_namespace(8, vec![]).unwrap();
        c.write(a, 0, &page(0xAA), None).unwrap();
        c.write(b, 0, &page(0xBB), None).unwrap();
        let mut out = page(0);
        c.read(a, 0, &mut out).unwrap();
        assert_eq!(out[0], 0xAA);
        c.read(b, 0, &mut out).unwrap();
        assert_eq!(out[0], 0xBB);
    }

    #[test]
    fn nullstore_reads_zeros_for_written_lbas() {
        let c = Controller::new(FtlConfig::tiny_test(), Box::new(NullStore)).unwrap();
        let ns = c.create_namespace(8, vec![]).unwrap();
        c.write(ns, 0, &page(0xFF), None).unwrap();
        let mut out = page(7);
        c.read(ns, 0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn identify_reflects_fdp_state() {
        let c = ctrl();
        let id = c.identify();
        assert!(id.fdp_supported);
        assert!(id.fdp_enabled);
        assert_eq!(id.usable_handles(), c.config().num_ruhs);
        c.set_fdp_enabled(false);
        assert_eq!(c.identify().usable_handles(), 0);
    }

    #[test]
    fn gc_events_visible_via_log_and_stats() {
        let c = ctrl();
        let lbas = c.unallocated_lbas();
        let ns = c.create_namespace(lbas, vec![]).unwrap();
        let mut x = 777u64;
        let data = page(1);
        for _ in 0..lbas * 5 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.write(ns, x % lbas, &data, None).unwrap();
        }
        let log = c.fdp_stats_log();
        assert!(log.media_relocated_events > 0);
        assert!(log.dlwa() > 1.0);
        let events = c.drain_fdp_events();
        assert!(!events.is_empty());
    }

    #[test]
    fn ruh_usage_log_attributes_writes() {
        let c = ctrl();
        let ns = c.create_namespace(64, vec![0, 1, 2]).unwrap();
        let data = page(9);
        c.write(ns, 0, &data, Some(1)).unwrap();
        c.write(ns, 1, &data, Some(1)).unwrap();
        c.write(ns, 2, &data, Some(2)).unwrap();
        let usage = c.ruh_usage_log();
        assert_eq!(usage.descriptors.len(), c.config().num_ruhs as usize);
        assert_eq!(usage.handle(1).unwrap().host_pages_written, 2);
        assert_eq!(usage.handle(2).unwrap().host_pages_written, 1);
        assert!((usage.share(1) - 2.0 / 3.0).abs() < 1e-12);
        // Handles that wrote have an active RU with space remaining.
        assert!(usage.handle(1).unwrap().available_pages > 0);
        assert!(usage.handle(1).unwrap().ru_switches >= 1);
        // Idle handle: no RU, no pages.
        assert_eq!(usage.handle(3).unwrap().host_pages_written, 0);
        assert_eq!(usage.handle(3).unwrap().available_pages, 0);
    }

    #[test]
    fn rg_encoded_pid_routes_to_group() {
        let mut cfg = FtlConfig::tiny_test();
        cfg.num_rgs = 2;
        let c = Controller::new(cfg, Box::new(NullStore)).unwrap();
        let ns = c.create_namespace(64, vec![0, 1]).unwrap();
        let data = page(3);
        // PID = rg << 8 | ph: ph 1 (-> RUH 1) in reclaim group 1.
        c.write(ns, 0, &data, Some((1 << 8) | 1)).unwrap();
        let per_rg = c.config().rus_per_rg();
        // The handle's active RU in group 1 has space; group 0 has none.
        assert!(c.with_ftl(|f| f.ruh_available_pages_in(1, 1)) > 0);
        assert_eq!(c.with_ftl(|f| f.ruh_available_pages_in(0, 1)), 0);
        let _ = per_rg;
    }

    #[test]
    fn unknown_rg_in_pid_rejected() {
        let c = ctrl(); // 1 reclaim group
        let ns = c.create_namespace(64, vec![0, 1]).unwrap();
        let data = page(3);
        let err = c.write(ns, 0, &data, Some((3 << 8) | 1)).unwrap_err();
        assert!(matches!(err, NvmeError::InvalidPlacementId(_)));
    }

    #[test]
    fn identity_reports_group_count() {
        let mut cfg = FtlConfig::tiny_test();
        cfg.num_rgs = 2;
        let c = Controller::new(cfg, Box::new(NullStore)).unwrap();
        assert_eq!(c.identify().fdp_config.unwrap().nrg, 2);
        assert_eq!(c.fdp_config_log().active_config().nrg, 2);
    }

    #[test]
    fn fdp_config_log_matches_identity() {
        let c = ctrl();
        let log = c.fdp_config_log();
        assert_eq!(log.configs.len(), 1);
        let ident = c.identify();
        assert_eq!(Some(*log.active_config()), ident.fdp_config);
    }

    #[test]
    fn per_namespace_stats_are_sharded_and_aggregate() {
        let c = ctrl();
        let a = c.create_namespace(16, vec![]).unwrap();
        let b = c.create_namespace(16, vec![]).unwrap();
        c.write(a, 0, &page(1), None).unwrap();
        c.write(a, 1, &page(2), None).unwrap();
        c.write(b, 0, &page(3), None).unwrap();
        let mut out = page(0);
        c.read(b, 0, &mut out).unwrap();
        let sa = c.namespace_stats(a).unwrap();
        let sb = c.namespace_stats(b).unwrap();
        assert_eq!((sa.writes, sa.reads), (2, 0));
        assert_eq!((sb.writes, sb.reads), (1, 1));
        assert_eq!(sa.bytes_written, 2 * 4096);
        let total = c.device_io_stats();
        assert_eq!(total.writes, 3);
        assert_eq!(total.reads, 1);
        assert_eq!(total.bytes_written, 3 * 4096);
        assert_eq!(total.bytes_read, 4096);
    }

    #[test]
    fn batch_write_matches_sequential_completions() {
        let a = ctrl();
        let b = ctrl();
        let nsa = a.create_namespace(64, vec![0, 1]).unwrap();
        let nsb = b.create_namespace(64, vec![0, 1]).unwrap();
        let sa = a.open_namespace(nsa).unwrap();
        let sb = b.open_namespace(nsb).unwrap();
        let bufs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 2 * 4096]).collect();
        let writes: Vec<BatchWrite<'_>> = bufs
            .iter()
            .enumerate()
            .map(|(i, d)| BatchWrite {
                slba: i as u64 * 2,
                data: WritePayload::Bytes(d),
                dspec: Some(1),
            })
            .collect();
        let mut batched = vec![WriteCompletion::default(); writes.len()];
        a.write_batch_ns(&sa, &writes, &mut batched).unwrap();
        let sequential: Vec<WriteCompletion> = bufs
            .iter()
            .enumerate()
            .map(|(i, d)| b.write_ns(&sb, i as u64 * 2, d, Some(1)).unwrap())
            .collect();
        assert_eq!(batched, sequential);
        assert_eq!(sa.stats().writes, 8);
        assert_eq!(sa.stats().bytes_written, 8 * 2 * 4096);
        assert_eq!(a.fdp_stats_log(), b.fdp_stats_log());
        // Payloads all landed.
        let mut out = vec![0u8; 2 * 4096];
        a.read_ns(&sa, 6, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 3));
    }

    /// A seal-shaped batch over one shared source and the same writes
    /// submitted one command per batch leave identical devices, and the
    /// store makes no byte of the source until a block is read.
    #[test]
    fn deferred_seal_batch_matches_one_command_per_batch() {
        use std::sync::atomic::AtomicUsize;

        const CHUNK_BLOCKS: u64 = 16;
        const COMMANDS: u64 = 64;
        // Mid-segment start: command 15 covers blocks 248..264 and so
        // straddles the slab's 256-block segment boundary.
        const REGION_START: u64 = 8;
        let chunk_bytes = CHUNK_BLOCKS as usize * 4096;
        let region_byte = |p: usize| (p.wrapping_mul(2_654_435_761) >> 13) as u8;
        let made = Arc::new(AtomicUsize::new(0));
        let source: FillSource = {
            let made = made.clone();
            Arc::new(move |at: usize, out: &mut [u8]| {
                made.fetch_add(out.len(), Ordering::Relaxed);
                for (i, b) in out.iter_mut().enumerate() {
                    *b = region_byte(at + i);
                }
            })
        };
        let footer = page(0xF0);
        let mut writes: Vec<BatchWrite<'_>> = (0..COMMANDS as usize)
            .map(|c| BatchWrite {
                slba: REGION_START + c as u64 * CHUNK_BLOCKS,
                data: WritePayload::Fill {
                    nlb: CHUNK_BLOCKS,
                    source: source.clone(),
                    base: c * chunk_bytes,
                },
                dspec: Some(1),
            })
            .collect();
        let footer_lba = REGION_START + COMMANDS * CHUNK_BLOCKS;
        writes.push(BatchWrite {
            slba: footer_lba,
            data: WritePayload::Bytes(&footer),
            dspec: Some(2),
        });

        let device = || {
            let mut cfg = FtlConfig::tiny_test();
            cfg.latency = fdpcache_nand::LatencyModel::default();
            let c = Controller::new(cfg, Box::new(MemStore::new())).unwrap();
            let lbas = c.unallocated_lbas();
            let state = c.open_namespace(c.create_namespace(lbas, vec![0, 1, 2]).unwrap()).unwrap();
            (c, state)
        };
        let (batched_dev, batched_ns) = device();
        let (serial, serial_ns) = device();

        let mut batched = vec![WriteCompletion::default(); writes.len()];
        batched_dev.write_batch_ns(&batched_ns, &writes, &mut batched).unwrap();
        let one_by_one: Vec<WriteCompletion> = writes
            .iter()
            .map(|w| {
                let mut done = [WriteCompletion::default()];
                serial.write_batch_ns(&serial_ns, std::slice::from_ref(w), &mut done).unwrap();
                done[0]
            })
            .collect();
        assert_eq!(batched, one_by_one);
        assert_eq!(made.load(Ordering::Relaxed), 0, "storing a source makes no byte");

        let mut a = page(0);
        let mut b = page(0);
        for lba in 0..batched_ns.info().lba_count {
            let written = (REGION_START..=footer_lba).contains(&lba);
            assert_eq!(batched_dev.read_ns(&batched_ns, lba, &mut a).is_ok(), written, "LBA {lba}");
            assert_eq!(serial.read_ns(&serial_ns, lba, &mut b).is_ok(), written, "LBA {lba}");
            assert_eq!(a, b, "LBA {lba}");
            if lba == footer_lba {
                assert_eq!(a, footer);
            } else if written {
                let base = (lba - REGION_START) as usize * 4096;
                assert!(
                    a.iter().enumerate().all(|(i, &x)| x == region_byte(base + i)),
                    "LBA {lba}"
                );
            }
        }
        // Each device made every source block once, on its one read.
        assert_eq!(made.load(Ordering::Relaxed), 2 * COMMANDS as usize * chunk_bytes);
        let device_view = |c: &Controller| {
            c.with_ftl(|f| {
                let mapped: Vec<bool> = (0..c.exported_lbas).map(|l| f.is_mapped(l)).collect();
                (mapped, f.stats(), f.ruh_host_pages().to_vec())
            })
        };
        assert_eq!(device_view(&batched_dev), device_view(&serial));
        assert_eq!(batched_dev.fdp_stats_log(), serial.fdp_stats_log());
        assert_eq!(batched_ns.stats().bytes_written, serial_ns.stats().bytes_written);
    }

    /// Where the commands of one batch overlap, the later command's
    /// bytes win, as they would one command at a time — whether the
    /// earlier one carried bytes or a source.
    #[test]
    fn overlapping_batch_commands_keep_the_last_writers_bytes() {
        let c = ctrl();
        let ns = c.create_namespace(c.unallocated_lbas(), vec![]).unwrap();
        let s = c.open_namespace(ns).unwrap();
        let long = vec![1u8; 4 << 20];
        let short = page(2);
        let threes: FillSource = Arc::new(|_, out: &mut [u8]| out.fill(3));
        let source_nlb = (long.len() / 4096) as u64;
        for first in [
            WritePayload::Bytes(&long),
            WritePayload::Fill { nlb: source_nlb, source: threes.clone(), base: 0 },
        ] {
            let expect_rest = if matches!(first, WritePayload::Bytes(_)) { 1 } else { 3 };
            let writes = [
                BatchWrite { slba: 0, data: first, dspec: None },
                BatchWrite { slba: 0, data: WritePayload::Bytes(&short), dspec: None },
            ];
            let mut done = [WriteCompletion::default(); 2];
            c.write_batch_ns(&s, &writes, &mut done).unwrap();
            let mut out = vec![0u8; 4 << 20];
            c.read_ns(&s, 0, &mut out).unwrap();
            assert_eq!(out[..4096], short[..]);
            assert!(out[4096..].iter().all(|&x| x == expect_rest));
        }
    }

    #[test]
    fn batch_write_validates_whole_batch_first() {
        let c = ctrl();
        let ns = c.create_namespace(16, vec![0, 1]).unwrap();
        let s = c.open_namespace(ns).unwrap();
        let good = page(1);
        let writes = [
            BatchWrite { slba: 0, data: WritePayload::Bytes(&good), dspec: None },
            BatchWrite { slba: 15, data: WritePayload::Bytes(&good[..100]), dspec: None }, // misaligned
        ];
        let mut done = [WriteCompletion::default(); 2];
        assert!(matches!(
            c.write_batch_ns(&s, &writes, &mut done),
            Err(NvmeError::BufferSizeMismatch { .. })
        ));
        assert_eq!(s.stats().writes, 0, "failed batch must not count");
        let mut out = page(0);
        assert!(matches!(c.read_ns(&s, 0, &mut out), Err(NvmeError::Unwritten(_))));
    }

    #[test]
    fn batch_deallocate_is_all_or_nothing() {
        let c = ctrl();
        let ns = c.create_namespace(16, vec![]).unwrap();
        let s = c.open_namespace(ns).unwrap();
        c.write_ns(&s, 2, &page(9), None).unwrap();
        let err = c.deallocate_ns(
            &s,
            &[DeallocRange { slba: 0, nlb: 4 }, DeallocRange { slba: 12, nlb: 8 }],
        );
        assert!(matches!(err, Err(NvmeError::LbaOutOfRange { .. })));
        let mut out = page(0);
        c.read_ns(&s, 2, &mut out).unwrap();
        assert_eq!(out[0], 9, "invalid batch must drop nothing");
        c.deallocate_ns(&s, &[DeallocRange { slba: 0, nlb: 4 }]).unwrap();
        assert!(matches!(c.read_ns(&s, 2, &mut out), Err(NvmeError::Unwritten(_))));
    }

    #[test]
    fn open_namespace_bypasses_admin_lookup() {
        let c = ctrl();
        let nsid = c.create_namespace(32, vec![0, 1]).unwrap();
        let state = c.open_namespace(nsid).unwrap();
        c.write_ns(&state, 0, &page(5), Some(1)).unwrap();
        let mut out = page(0);
        c.read_ns(&state, 0, &mut out).unwrap();
        assert_eq!(out[0], 5);
        assert_eq!(state.stats().writes, 1);
        assert_eq!(state.stats().reads, 1);
        assert_eq!(state.nsid(), nsid);
        assert_eq!(state.info().lba_count, 32);
    }

    #[test]
    fn concurrent_writers_on_disjoint_namespaces() {
        let c = std::sync::Arc::new(ctrl());
        let total = c.unallocated_lbas();
        let workers = 4u64;
        let per = total / workers;
        let states: Vec<_> = (0..workers)
            .map(|_| {
                let nsid = c.create_namespace(per, vec![0, 1]).unwrap();
                c.open_namespace(nsid).unwrap()
            })
            .collect();
        std::thread::scope(|scope| {
            for state in &states {
                let c = c.clone();
                scope.spawn(move || {
                    let data = page(state.nsid() as u8);
                    for i in 0..per.min(64) {
                        c.write_ns(state, i, &data, Some(1)).unwrap();
                    }
                    let mut out = page(0);
                    for i in 0..per.min(64) {
                        c.read_ns(state, i, &mut out).unwrap();
                        assert_eq!(out[0], state.nsid() as u8, "cross-namespace bleed");
                    }
                });
            }
        });
        let total_stats = c.device_io_stats();
        let expect = workers * per.min(64);
        assert_eq!(total_stats.writes, expect, "no lost writes");
        assert_eq!(total_stats.reads, expect, "no lost reads");
        c.with_ftl(|f| f.check_invariants());
    }
}
