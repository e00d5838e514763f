//! # fdpcache-model
//!
//! The paper's analytical models (§4.2 and Appendix A):
//!
//! * [`lambertw`] — a numerical Lambert-W solver (principal branch),
//!   needed by Theorem 1's closed form.
//! * [`dlwa`] — **Theorem 1**: DLWA of FDP-enabled CacheLib as a
//!   function of SOC size and the physical space (including device OP)
//!   available to SOC data.
//! * [`carbon`] — **Theorem 2** (embodied carbon from SSD replacement
//!   over a system lifecycle) and **Theorem 3** (operational energy
//!   proportional to total device operations), plus the EPA
//!   greenhouse-equivalence conversion the paper cites (its reference 9).
//!
//! Figure 12 (Appendix A.3) validates Theorem 1 against measurement;
//! `repro --fig 12` (the bench crate's figure table) reproduces that
//! comparison against our simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod carbon;
pub mod dlwa;
pub mod lambertw;

pub use carbon::{co2e_from_energy_kg, embodied_co2e_kg, operational_energy_joules, CarbonParams};
pub use dlwa::{dlwa_theorem1, soc_delta};
pub use lambertw::lambert_w0;
