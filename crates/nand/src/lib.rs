//! # fdpcache-nand
//!
//! A NAND flash media model: the lowest layer of the FDP SSD simulator.
//!
//! The paper's device (a Samsung PM9D3) exposes *superblock-sized reclaim
//! units*: a superblock is one erase block from every plane of every die,
//! erased and programmed together. This crate models exactly that
//! hierarchy:
//!
//! ```text
//! NandDevice
//!   └── Superblock (erase/program unit seen by the FTL; == reclaim unit)
//!         └── EraseBlock (per-plane block; pages programmed in order)
//!               └── Page (Free → Valid → Invalid → erased back to Free)
//! ```
//!
//! The media enforces the real NAND state machine:
//!
//! * pages must be programmed **in order** within an erase block
//!   (no overwrite in place — the property that creates garbage
//!   collection in the first place);
//! * a page can only be programmed when `Free` and only invalidated when
//!   `Valid`;
//! * erase works on whole superblocks and consumes program/erase (P/E)
//!   cycles; blocks past their rated endurance go bad.
//!
//! Payload bytes are *not* stored here — logical data lives in the NVMe
//! layer's backing store. The NAND layer tracks placement, validity, wear,
//! latency and energy, which is what device-level write amplification
//! (DLWA), the paper's primary metric, is made of.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod block;
pub mod device;
pub mod energy;
pub mod error;
pub mod geometry;
pub mod latency;
pub mod page;
pub mod stats;
pub mod superblock;

pub use device::NandDevice;
pub use energy::EnergyModel;
pub use error::NandError;
pub use geometry::Geometry;
pub use latency::LatencyModel;
pub use page::{PageState, Ppa};
pub use stats::NandStats;
