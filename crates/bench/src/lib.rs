//! # fdpcache-bench
//!
//! Experiment harness: every paper figure, table, ablation and extension
//! as one row of the [`figures`] table, run by the one `repro` binary
//! (DESIGN.md §4), plus the scenario drivers of the engineering gates
//! ([`faults`], [`recovery`], [`chaos`], [`fleet`]), each checked by the
//! `gate` test in its own module. Rows print the paper's rows/series and
//! emit CSV for re-plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod chaos;
pub mod faults;
pub mod figures;
pub mod fleet;
pub mod harness;
pub mod recovery;
mod turn_ring;
