//! # fdpcache-ftl
//!
//! A page-mapped flash translation layer with NVMe Flexible Data
//! Placement (FDP) semantics — the substrate on which the paper's every
//! result rests.
//!
//! ## What it implements
//!
//! * **L2P mapping** — one physical page per logical block (LBA = one
//!   4 KiB page), with overwrite-invalidates-old semantics. A write
//!   command maps as runs: each stretch of it that fits the handle's
//!   active RU is programmed as one NAND run, with the same samples,
//!   GC and events as page-by-page writes.
//! * **Reclaim units (RUs)** — mapped 1:1 onto NAND superblocks, exactly
//!   like the paper's PM9D3 device (§3.2.1).
//! * **Reclaim unit handles (RUHs)** — up to 128 handles, each pointing
//!   at the RU it is currently filling. Host writes carry a placement
//!   identifier selecting the RUH; the default handle (0) reproduces
//!   conventional-SSD behaviour, which is how the paper runs its
//!   "Non-FDP" baseline ("force SOC and LOC to use a single RUH", §6.6).
//! * **Isolation types** — *initially isolated* (GC may intermix valid
//!   data from different RUHs into a shared destination) and
//!   *persistently isolated* (GC destination is per-RUH), per the spec's
//!   two RUH types.
//! * **Garbage collection** — greedy (min-valid) or FIFO victim
//!   selection, triggered when the free-RU pool dips below a threshold;
//!   relocations count toward DLWA and emit *Media Relocated* events,
//!   which is how the paper counts GC events for Figure 10(b).
//! * **Deallocate (trim)** — LBA-ranged invalidation, used to reset the
//!   device between experiments just like a full-range TRIM.
//! * **Accounting** — host vs. NAND bytes written (DLWA, Equation 1),
//!   per-RUH attribution, event log, wear.
//!
//! ## Non-goals
//!
//! Payload bytes are not stored here (see `fdpcache-nvme`'s backing
//! store). Mapping recovery *is* modeled for the warm-restart path:
//! [`Ftl::recover_mapping`] rebuilds the table from a full spare-area
//! scan and charges one out-of-band read per physical page (DESIGN.md
//! §6.6) — but there is no wear-aware data placement or real
//! power-loss-protection hardware model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod config;
pub mod error;
pub mod events;
pub mod ftl;
pub mod gc;
pub mod ru;
pub mod stats;

pub use config::{FtlConfig, GcPolicy, RuhType};
pub use error::FtlError;
pub use events::{EventLog, FdpEvent};
pub use ftl::Ftl;
pub use ru::{RuInfo, RuOwner};
pub use stats::FtlStats;

/// A logical block address. One LBA covers one page (4 KiB by default).
pub type Lba = u64;

/// A reclaim unit handle identifier (index into the device's RUH table).
pub type RuhId = u8;

/// The default RUH every namespace gets for writes that carry no
/// placement directive (FDP is backward compatible; see paper §3.2.2).
pub const DEFAULT_RUH: RuhId = 0;
