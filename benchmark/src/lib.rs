//! The repo benchmark: five steady-state workloads over the full
//! cache → device stack, ten end-to-end metrics from an untraced run
//! and a per-layer breakdown from a traced one. See `README.md`.

#![warn(missing_docs)]
pub mod cli;
pub mod compare;
pub mod host;
pub mod json;
pub mod replay;
pub mod run;
pub mod spec;
pub mod stack;
pub mod stats;
pub mod store;
