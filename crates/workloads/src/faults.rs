//! Named fault scenarios: the workload-level face of the NVMe layer's
//! deterministic fault injection (DESIGN.md §6).
//!
//! A [`FaultScenario`] pairs a stable name with a
//! [`fdpcache_nvme::FaultConfig`], so any existing trace profile can be
//! replayed "under `media_mixed`" the same way it is replayed "at QD 4":
//! build the device with
//! [`fdpcache_cache::builder::build_device_faulted`] and drive the same
//! generator; the result's fault/retry/repair/requeue counters report
//! what the schedule did, and a caller that wants the scenario in the
//! result label passes it in the label. The bench crate's
//! fault gate sweeps every built-in scenario and checks determinism
//! plus zero-lost-acknowledged-writes on each.
//!
//! Probabilities are deliberately small: fault decisions roll **per
//! block access**, so a 256-block region seal at 200 ppm already faults
//! about 5% of its submissions — enough to exercise every recovery
//! path thousands of times per replay without tipping healthy
//! workloads into permanent-failure territory.

use fdpcache_nvme::{FaultConfig, FaultKind, FaultRates, ScriptedFault};

/// A named, seed-replayable fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScenario {
    /// Stable scenario name (`none`, `read_flaky`, ...).
    pub name: &'static str,
    /// The schedule handed to the device's `FaultStore`.
    pub config: FaultConfig,
}

impl FaultScenario {
    /// The fault-free scenario: an empty plan, bit-identical to an
    /// undecorated device (the transparency gate relies on this).
    pub fn none() -> Self {
        FaultScenario { name: "none", config: FaultConfig::default() }
    }

    /// Sporadic unrecoverable read errors: exercises demote-to-miss
    /// plus targeted repair-writes in both engines.
    pub fn read_flaky() -> Self {
        FaultScenario {
            name: "read_flaky",
            config: FaultConfig { seed: 0xFA01, read_err_ppm: 1_500, ..Default::default() },
        }
    }

    /// Sporadic program failures: exercises SOC bucket-rewrite retries
    /// and LOC seal retries (mid-batch faults are all-or-nothing; a
    /// 256-block region seal at this rate faults roughly a quarter of
    /// its submissions, and the rare all-retries-fail seal exercises
    /// quarantine + requeue).
    pub fn write_flaky() -> Self {
        FaultScenario {
            name: "write_flaky",
            config: FaultConfig { seed: 0xFA02, write_err_ppm: 1_200, ..Default::default() },
        }
    }

    /// Everything at once: read + write + discard media errors plus
    /// per-segment corruption detection.
    pub fn media_mixed() -> Self {
        FaultScenario {
            name: "media_mixed",
            config: FaultConfig {
                seed: 0xFA03,
                read_err_ppm: 800,
                write_err_ppm: 800,
                discard_err_ppm: 50_000,
                corruption_ppm: 1_000,
                ..Default::default()
            },
        }
    }

    /// Transient device-busy spikes with a heavy latency penalty:
    /// exercises every retry loop without any data-affecting fault.
    pub fn busy_bursts() -> Self {
        FaultScenario {
            name: "busy_bursts",
            config: FaultConfig {
                seed: 0xFA04,
                busy_ppm: 8_000,
                busy_penalty_ns: 800_000,
                ..Default::default()
            },
        }
    }

    /// Permanently bad blocks: one in SOC bucket space that goes bad
    /// after two clean writes (persistent insert rollback), plus
    /// born-bad blocks inside two LOC regions, whose very first seals
    /// exhaust every retry and force quarantine + requeue — all on top
    /// of a light random write-error rate.
    pub fn bad_blocks() -> Self {
        let bad = |lba, at_access| ScriptedFault {
            kind: FaultKind::WriteError,
            lba,
            at_access,
            repeats: u64::MAX,
        };
        FaultScenario {
            name: "bad_blocks",
            config: FaultConfig {
                seed: 0xFA05,
                write_err_ppm: 200,
                // LBA 700 sits in SOC bucket space of the gate stack;
                // 1500 and 2300 inside its first LOC regions (born bad,
                // so their first region seal quarantines).
                scripted: vec![bad(700, 2), bad(1_500, 0), bad(2_300, 0)],
                ..Default::default()
            },
        }
    }

    /// A deterministic crash point and nothing else: one scripted
    /// [`FaultKind::Kill`] that fires the first time block `lba` is
    /// accessed for the `at_access`-th time, stops the in-flight
    /// command before any side effect, and never fires again
    /// (`repeats: 1` — the recovered process must not be re-killed by
    /// its own plan). Replaying the same workload with the same crash
    /// point is bit-identical, which is what makes crash-recovery
    /// testable (DESIGN.md §6.6).
    ///
    /// Not part of [`FaultScenario::all_builtin`]: the fault-sweep gate
    /// replays to completion, while a kill by definition does not
    /// complete.
    pub fn crash_at(lba: u64, at_access: u64) -> Self {
        FaultScenario {
            name: "crash",
            config: FaultConfig {
                seed: 0xFA06,
                scripted: vec![ScriptedFault { kind: FaultKind::Kill, lba, at_access, repeats: 1 }],
                ..Default::default()
            },
        }
    }

    /// Every built-in scenario, `none` first (the transparency
    /// baseline), in stable gate order.
    pub fn all_builtin() -> Vec<FaultScenario> {
        vec![
            FaultScenario::none(),
            FaultScenario::read_flaky(),
            FaultScenario::write_flaky(),
            FaultScenario::media_mixed(),
            FaultScenario::busy_bursts(),
            FaultScenario::bad_blocks(),
        ]
    }
}

/// One phase of a chaos storm: the live fault rates to apply for a
/// share of the replay's operation budget. Retuning happens at
/// deterministic op-count boundaries, so the same storm replays the
/// same faults ([`fdpcache_nvme::FaultPlan::set_rates`] keeps the seed
/// and access counters; only the probabilities move).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPhase {
    /// Stable phase name (`warmup`, `storm`, ...).
    pub name: &'static str,
    /// Relative share of the total operation budget this phase runs
    /// for (the driver divides ops proportionally).
    pub weight: u32,
    /// The probability knobs in force during the phase.
    pub rates: FaultRates,
}

/// A named multi-phase fault storm for chaos-soak replays: the chaos
/// counterpart of [`FaultScenario`] (which fixes one rate set for a
/// whole replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosStorm {
    /// Stable storm name (`storm_recover`, ...).
    pub name: &'static str,
    /// Seed for the device fault plan backing the storm.
    pub seed: u64,
    /// Scripted faults present for the storm's whole lifetime (the
    /// rates only gate the probabilistic kinds).
    pub scripted: Vec<ScriptedFault>,
    /// The phase schedule, in replay order.
    pub phases: Vec<ChaosPhase>,
}

impl ChaosStorm {
    /// The device fault plan to build the storm's stack with: the
    /// storm seed and scripted faults, with every probability at zero
    /// (phase one's rates are applied by the driver at op 0).
    pub fn base_config(&self) -> FaultConfig {
        FaultConfig { seed: self.seed, scripted: self.scripted.clone(), ..Default::default() }
    }

    /// Media-error escalation to a failing device, then a clean
    /// recovery window: drives the full breaker arc — degrade, open,
    /// DRAM-only serving, half-open probe, reclose, drain.
    pub fn storm_recover() -> Self {
        ChaosStorm {
            name: "storm_recover",
            seed: 0xC4A0_0001,
            scripted: Vec::new(),
            phases: vec![
                ChaosPhase { name: "warmup", weight: 2, rates: FaultRates::default() },
                ChaosPhase {
                    name: "escalate",
                    weight: 1,
                    rates: FaultRates {
                        write_err_ppm: 20_000,
                        read_err_ppm: 5_000,
                        ..Default::default()
                    },
                },
                ChaosPhase {
                    name: "storm",
                    weight: 2,
                    rates: FaultRates {
                        write_err_ppm: 900_000,
                        read_err_ppm: 300_000,
                        busy_ppm: 50_000,
                        ..Default::default()
                    },
                },
                ChaosPhase { name: "clear", weight: 3, rates: FaultRates::default() },
            ],
        }
    }

    /// A pure availability brownout: heavy transient busy rejections
    /// with no data-affecting fault. Busys count as bad events in the
    /// health vote, so a deep brownout opens the breaker exactly like
    /// media errors — and recloses without a single repair. The clear
    /// phase is the longest: an open shard's queue-pair clock advances
    /// only by the host cost of its locked ops (lock-free DRAM hits
    /// charge a side counter), so it must run long enough for the
    /// capped probe backoff to expire on a shard whose last probe
    /// failed as the brownout ended.
    pub fn busy_brownout() -> Self {
        ChaosStorm {
            name: "busy_brownout",
            seed: 0xC4A0_0002,
            scripted: Vec::new(),
            phases: vec![
                ChaosPhase { name: "warmup", weight: 2, rates: FaultRates::default() },
                ChaosPhase {
                    name: "brownout",
                    weight: 3,
                    rates: FaultRates { busy_ppm: 600_000, ..Default::default() },
                },
                ChaosPhase { name: "clear", weight: 5, rates: FaultRates::default() },
            ],
        }
    }

    /// Silent corruption accumulating while rates stay low: the storm
    /// the scrubber exists for. Patrol reads must find and repair the
    /// corrupted pages during the quiet phases, before the final
    /// read-back verifies every acknowledged key.
    pub fn latent_corruption() -> Self {
        ChaosStorm {
            name: "latent_corruption",
            seed: 0xC4A0_0003,
            scripted: Vec::new(),
            phases: vec![
                ChaosPhase { name: "warmup", weight: 2, rates: FaultRates::default() },
                ChaosPhase {
                    name: "tarnish",
                    weight: 2,
                    rates: FaultRates { corruption_ppm: 60_000, ..Default::default() },
                },
                ChaosPhase { name: "clear", weight: 4, rates: FaultRates::default() },
            ],
        }
    }

    /// Every built-in storm, in stable gate order.
    pub fn all_builtin() -> Vec<ChaosStorm> {
        vec![
            ChaosStorm::storm_recover(),
            ChaosStorm::busy_brownout(),
            ChaosStorm::latent_corruption(),
        ]
    }

    /// The op-count boundaries at which each phase's rates take effect
    /// for a `total_ops` replay: `(start_op, phase)` pairs in order.
    /// Weights are normalized; the final phase absorbs rounding.
    pub fn boundaries(&self, total_ops: u64) -> Vec<(u64, ChaosPhase)> {
        let total_weight: u64 = self.phases.iter().map(|p| u64::from(p.weight)).sum();
        let mut out = Vec::with_capacity(self.phases.len());
        let mut start = 0u64;
        for p in &self.phases {
            out.push((start, *p));
            start += total_ops * u64::from(p.weight) / total_weight.max(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_boundaries_are_ordered_and_start_at_zero() {
        for storm in ChaosStorm::all_builtin() {
            let b = storm.boundaries(10_000);
            assert_eq!(b[0].0, 0, "{}: first phase must start at op 0", storm.name);
            for w in b.windows(2) {
                assert!(w[0].0 < w[1].0, "{}: phases must not collapse", storm.name);
            }
            assert!(storm.base_config().rates() == FaultRates::default());
        }
    }

    #[test]
    fn storms_end_in_a_clear_phase() {
        for storm in ChaosStorm::all_builtin() {
            let last = storm.phases.last().unwrap();
            assert!(
                !last.rates.any(),
                "{}: final phase must clear faults so recovery is reachable",
                storm.name
            );
        }
    }

    #[test]
    fn builtin_names_are_unique() {
        let all = FaultScenario::all_builtin();
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
    }

    #[test]
    fn crash_points_are_one_shot() {
        let c = FaultScenario::crash_at(42, 3);
        assert_eq!(c.config.scripted.len(), 1);
        assert_eq!(c.config.scripted[0].kind, FaultKind::Kill);
        assert_eq!(c.config.scripted[0].repeats, 1, "kill must not re-fire after recovery");
    }

    #[test]
    fn none_is_empty_and_others_are_not() {
        assert!(FaultScenario::none().config.is_empty());
        for s in FaultScenario::all_builtin() {
            if s.name != "none" {
                assert!(!s.config.is_empty(), "{} must inject something", s.name);
            }
        }
    }
}
