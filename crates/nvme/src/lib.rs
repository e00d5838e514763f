//! # fdpcache-nvme
//!
//! An NVMe-like device facade over the FTL simulator: the layer the
//! paper's software stack talks to through I/O Passthru and `nvme-cli`.
//!
//! What it models (and where the paper uses it):
//!
//! * **Namespaces** — LBA partitions of the exported capacity with a
//!   per-namespace *placement handle list* (the RUHs a namespace may
//!   address). The multi-tenant experiment (Figure 11) runs two caches on
//!   two partitions of one device.
//! * **Write commands with placement directives** — `DTYPE`/`DSPEC`
//!   fields select a placement identifier, which the controller resolves
//!   through the namespace's handle list to a RUH, exactly as the FDP
//!   spec defines. With FDP disabled the directive is ignored and
//!   everything lands on the default RUH — the paper's Non-FDP baseline.
//! * **DSM deallocate (trim)** — used to reset the device to a clean
//!   state before each experiment ("We reset the SSD ... by issuing a
//!   TRIM for the entire device size", §6.1).
//! * **Log pages** — FDP statistics (host/media bytes written, the DLWA
//!   inputs sampled via `nvme get-log` every 10 minutes in §6.1) and the
//!   FDP event log (Media Relocated events, used to count GC events for
//!   Figure 10b).
//! * **Queue pairs** — per-worker submission/completion queues with a
//!   virtual-time latency model over parallel device lanes and a
//!   configurable queue depth: up to that many commands stay in
//!   flight and complete in deterministic completion order, like the
//!   paper's io_uring pairs. GC work performed by the FTL occupies
//!   every lane ([`QueuePair::occupy_all`]), which is what turns write
//!   amplification into p99 latency inflation (Figures 6 and 13).
//! * **Vectored batch commands** — [`Controller::write_batch_ns`] maps
//!   a whole batch of writes under one media-lock acquisition (every
//!   write takes it; a single write is a one-command batch) and
//!   deallocate validates entire range vectors before dropping
//!   anything, the entry points behind the cache's batched region
//!   seals.
//! * **Backing store** — pluggable payload storage ([`MemStore`] for
//!   functional integrity in tests/examples, [`NullStore`] for
//!   metadata-only DLWA experiments at scale).
//! * **Fault injection** — the [`FaultStore`] decorator carries a
//!   seed-replayable [`FaultConfig`] schedule; the controller consults
//!   it before every command's side effects and completes injected
//!   failures as [`NvmeError::MediaError`]/[`NvmeError::Busy`]
//!   (DESIGN.md §6).
//! * **Device health** — a windowed, virtual-time
//!   [`HealthMonitor`] classifies error/busy rates
//!   `Healthy → Degraded → Failing`. Failed commands are retried by
//!   the cache engines, each site with a fixed attempt budget and no
//!   backoff (DESIGN.md §6.7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod command;
pub mod controller;
pub mod datastore;
pub mod error;
pub mod fault;
pub mod health;
pub mod identify;
pub mod logpage;
pub mod namespace;
pub mod queue;

pub use command::{DeallocRange, IoCommand};
pub use controller::{
    BatchWrite, Controller, FdpStatsLog, NamespaceState, NamespaceStats, WriteCompletion,
    WritePayload,
};
pub use datastore::{DataStore, FillSource, MemStore, NullStore};
pub use error::NvmeError;
pub use fault::{
    FaultConfig, FaultKind, FaultOp, FaultPlan, FaultRates, FaultStore, FaultTotals, InjectedFault,
    ScriptedFault,
};
pub use health::{
    HealthConfig, HealthIoStats, HealthMonitor, HealthReport, HealthState, HealthTransition,
};
pub use identify::{ControllerIdentity, FdpConfigDescriptor};
pub use logpage::{FdpConfigLog, RuhUsageDescriptor, RuhUsageLog};
pub use namespace::{Namespace, NamespaceId};
pub use queue::{CommandId, Completion, QueuePair};
