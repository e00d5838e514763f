//! # fdpcache-nand
//!
//! A NAND flash media model: the lowest layer of the FDP SSD simulator.
//!
//! The paper's device (a Samsung PM9D3) exposes *superblock-sized reclaim
//! units*: a superblock is one erase block from every plane of every die,
//! erased and programmed together. The FTL sees each superblock as one
//! reclaim unit, and [`NandDevice`] keeps one record per superblock:
//! write pointer, valid-page count, P/E count and bad flag.
//!
//! The media enforces the real NAND rules at that granularity:
//!
//! * pages are programmed **in order** at the write pointer (no
//!   overwrite in place — the property that creates garbage collection
//!   in the first place);
//! * only pages below the write pointer can be read or invalidated;
//! * erase works on whole superblocks, refuses to destroy valid pages
//!   unless forced, and consumes a program/erase (P/E) cycle;
//!   superblocks past their rated endurance go bad.
//!
//! Which pages below the write pointer are still valid is the FTL's
//! business: its reverse map is the only per-page state, and it names
//! the page it invalidates. Payload bytes are *not* stored here either —
//! logical data lives in the NVMe layer's backing store. The NAND layer
//! tracks placement, valid counts, wear and latency, which is what
//! device-level write amplification (DLWA), the paper's primary metric,
//! is made of.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod device;
pub mod error;
pub mod geometry;
pub mod latency;
pub mod page;
pub mod stats;

pub use device::NandDevice;
pub use error::NandError;
pub use geometry::Geometry;
pub use latency::LatencyModel;
pub use page::Ppa;
pub use stats::NandStats;
