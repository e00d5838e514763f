//! # fdpcache-bench
//!
//! Experiment harness: every paper figure, table, ablation and extension
//! as one row of the [`figures`] table, run by the one `repro` binary
//! (DESIGN.md §4), plus the engineering gates. Each gate is the `gate`
//! test of one test-only scenario module (`faults`, `recovery`, `chaos`,
//! `fleet`); every one records what clients were promised in one
//! [`fdpcache_workloads::Oracle`] and reports a rerun that diverges by
//! its first differing line ([`harness::first_divergence`]). Rows print
//! the paper's rows/series and emit CSV for re-plotting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#[cfg(test)]
mod chaos;
#[cfg(test)]
mod faults;
pub mod figures;
#[cfg(test)]
mod fleet;
pub mod harness;
#[cfg(test)]
mod recovery;
#[cfg(test)]
mod turn_ring;
