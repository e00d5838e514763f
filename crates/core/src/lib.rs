//! # fdpcache-core
//!
//! The paper's primary contribution, reimplemented as a standalone
//! layer: *FDP-based data segregation without touching the cache
//! architecture* (paper §5).
//!
//! Three pieces, mirroring Figure 4 of the paper:
//!
//! * [`PlacementHandle`] (§5.2) — an opaque token consumers attach to
//!   writes to express "keep my data apart". It deliberately hides FDP
//!   semantics so the same cache code runs on conventional SSDs
//!   (hardware extensibility).
//! * [`PlacementHandleAllocator`] (§5.3) — discovers FDP support from
//!   the device at initialization and hands out placement handles backed
//!   by `<RG, RUH>` placement identifiers. When the device has no FDP
//!   (or handles run out), consumers receive the *default handle*,
//!   meaning "no placement preference". Placement decisions are
//!   pluggable via [`PlacementPolicy`] (software extensibility).
//! * [`IoManager`] (§5.4) — FDP-aware I/O management: translates
//!   handles to NVMe placement directives (DTYPE/DSPEC), submits through
//!   a per-worker queue pair, and records read/write latency
//!   histograms.
//!
//! The flash-cache crate (`fdpcache-cache`) consumes only these
//! abstractions; swapping FDP on/off is a configuration flag, exactly as
//! upstreamed to CacheLib.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod allocator;
pub mod dynamic;
pub mod handle;
pub mod io;
pub mod policy;

pub use allocator::PlacementHandleAllocator;
pub use dynamic::{
    Assignment, DynamicPlacement, EpochFeedback, LoadBalancer, StaticPlacement, StreamId,
    TemperatureBalancer,
};
pub use handle::{PlacementHandle, PlacementId};
pub use io::{
    HealthConfig, HealthIoStats, HealthState, HealthTransition, IoBatch, IoManager, IoStats,
    SharedController, DISCARD_BASE_SERVICE_NS, DISCARD_PER_BLOCK_NS, GC_READ_INTERFERENCE_CAP,
    GC_WRITE_INTERFERENCE_CAP,
};
pub use policy::{PlacementPolicy, RoundRobinPolicy};
