//! # fdpcache — umbrella crate
//!
//! Re-exports every crate in the workspace so examples and integration
//! tests can use a single dependency. See the README for an architecture
//! overview and DESIGN.md for the per-experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub use fdpcache_cache as cache;
pub use fdpcache_core as placement;
pub use fdpcache_ftl as ftl;
pub use fdpcache_metrics as metrics;
pub use fdpcache_model as model;
pub use fdpcache_nand as nand;
pub use fdpcache_nvme as nvme;
pub use fdpcache_workloads as workloads;
