//! # fdpcache-metrics
//!
//! Measurement substrate for the fdpcache workspace.
//!
//! This crate provides the small, dependency-free building blocks every
//! experiment in the paper reproduction needs:
//!
//! * [`Histogram`] — a log-linear bucketed latency histogram with
//!   percentile queries (p50/p90/p99/p999), used to reproduce the p99
//!   read/write latency series of Figures 6 and 13.
//! * [`TimeSeries`] — an append-only `(x, y)` series with interval-delta
//!   helpers, used for the interval-DLWA timelines of Figures 5, 7, 8
//!   and 11.
//! * [`Table`] — an ASCII table renderer so each figure row can print
//!   the same rows the paper reports.
//! * [`csv`] — CSV emission for machine-readable experiment outputs.
//!
//! Everything here is deliberately simple and allocation-light; the
//! simulator hot paths only touch fixed-size arrays and integer math.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod csv;
pub mod histogram;
pub mod table;
pub mod timeseries;

pub use histogram::Histogram;
pub use table::Table;
pub use timeseries::TimeSeries;
