//! # fdpcache-workloads
//!
//! Synthetic equivalents of the paper's production traces, plus a
//! CacheBench-style replayer.
//!
//! The paper replays two public traces (§6.1):
//!
//! * **Meta KV Cache** — 5-day sampled trace from Meta's key-value cache
//!   cluster; *read-intensive*, GETs outnumber SETs 4:1; billions of
//!   small-object accesses.
//! * **Twitter cluster12** — 7-day trace; *write-intensive*, SETs
//!   outnumber GETs 4:1 (Yang et al., OSDI '20).
//! * **WO KV Cache** — the paper's derived write-only variant of the KV
//!   trace (GETs removed) to stress DLWA faster.
//!
//! We cannot ship those traces, so [`profiles`] provides generators
//! matched to their published characteristics: op mix, Zipfian popularity
//! (small hot working set with churn), and small-object-dominant size
//! mixtures. Each row of the bench crate's figure table records the
//! parameters its figure uses.
//!
//! [`replay::Replayer`], the one warm-up → measure → roll-up loop, plays
//! a generator per tenant against caches (or pools) sharing one device,
//! sampling its FDP statistics log to produce the interval-DLWA series
//! of Figures 5, 7, 8 and 11, plus throughput/hit-ratio/latency rollups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod concurrent;
pub mod faults;
pub mod oracle;
pub mod profiles;
pub mod replay;
pub mod sizes;
pub mod trace;
pub mod tracefile;
pub mod zipf;

pub use concurrent::{run_pool_round, PoolWorkerReport};
pub use faults::{ChaosPhase, ChaosStorm, FaultScenario};
pub use oracle::Oracle;
pub use profiles::WorkloadProfile;
pub use replay::{serve, ExperimentResult, ReplayConfig, Replayer, Tenant};
pub use sizes::SizeDist;
pub use trace::{Op, Request, TraceGen};
pub use tracefile::{FileReplay, RequestSource, TraceReader, TraceWriter};
pub use zipf::Zipf;
