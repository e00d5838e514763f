//! # fdpcache-cache
//!
//! A CacheLib-style hybrid cache built from scratch in Rust, faithful to
//! the architecture the paper describes (§2.3, Figure 1):
//!
//! ```text
//! HybridCache
//!   ├── RamCache        — DRAM LRU front; evictions flow to flash
//!   └── NavyEngine      — the SSD cache ("Navy")
//!         ├── Soc       — Small Object Cache: set-associative 4 KiB
//!         │               buckets, uniform hashing, per-bucket bloom
//!         │               filters, in-place random writes
//!         └── Loc       — Large Object Cache: log-structured 16 MiB
//!               regions, FIFO region eviction, DRAM index,
//!               sequential writes
//! ```
//!
//! Above the single instance sits [`ConcurrentPool`]: N engine pairs
//! on one device, routed by key hash ([`shard_index`]), one lock per
//! shard, `&self` from any thread (DESIGN.md §5.1).
//!
//! Placement integration is exactly the upstreamed design: at
//! initialization each engine allocates a [`fdpcache_core::PlacementHandle`]
//! and tags every write with it; nothing else about the cache knows FDP
//! exists. Disabling FDP (or running on a non-FDP device) degrades to
//! default-handle writes with zero code changes — the backward
//! compatibility the paper required to upstream the work.
//!
//! ## Simulator concession (documented in DESIGN.md)
//!
//! The SOC keeps an authoritative in-memory copy of each bucket's entry
//! list. The device I/O pattern is unchanged (read-modify-write of the
//! bucket page, full-page writes), but correctness does not depend on
//! payload bytes surviving the backing store — this is what lets DLWA
//! experiments run with a payload-discarding [`fdpcache_nvme::NullStore`]
//! at realistic scale. With a [`fdpcache_nvme::MemStore`], serialized
//! buckets round-trip bit-exactly (tested).

#![warn(missing_docs)]
pub mod bloom;
pub mod breaker;
pub mod builder;
pub mod cache;
pub mod checksum;
pub mod concurrent;
pub mod config;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod index;
mod keymap;
pub mod layout;
pub mod loc;
pub mod ram;
mod retry;
pub mod soc;
pub mod stats;
pub mod value;

pub use breaker::{BreakerState, BreakerTransition, FlashBreaker};
pub use cache::{GetOutcome, HybridCache};
pub use concurrent::{shard_index, ConcurrentPool};
pub use config::{CacheConfig, NvmConfig};
pub use engine::FlashVerify;
pub use error::CacheError;
pub use fleet::{DeviceRouteStats, FleetDevice, FleetRouter, HashRing, DEFAULT_VNODES};
pub use index::{IndexEntry, ReadIndex};
pub use stats::{CacheStats, ReadSideStats};
pub use value::Value;

/// Cache keys are 64-bit identifiers (trace keys are anonymized ids).
pub type Key = u64;
