//! Property tests for the device-health state machine:
//!
//! * **Monotone one-level transitions** — under arbitrary observation
//!   schedules (ok / error / busy / recovery-credit at arbitrary
//!   virtual times) every recorded transition moves exactly one level
//!   and timestamps never run backwards.
//! * **Replay determinism** — the same schedule fed to a fresh monitor
//!   reproduces the identical transition trace and counters.
//! * **Fault-free plans stay `Healthy`** — a monitor that only ever
//!   sees successful completions never leaves `Healthy`, so the cache
//!   tier's circuit breaker (which opens on `Failing` only) can never
//!   open on a fault-free plan.
//! * **`HealthReport::from_totals` monotonicity** — more cumulative
//!   errors at the same traffic never classify as healthier.

use proptest::prelude::*;

use fdpcache_nvme::health::rate_ppm;
use fdpcache_nvme::{FaultTotals, HealthConfig, HealthMonitor, HealthReport, HealthState};

/// One health observation: what happened and how much virtual time
/// passed since the previous observation.
#[derive(Debug, Clone, Copy)]
enum Obs {
    Ok(u64),
    Error(u64),
    Busy(u64),
    CreditRecovery(u64),
}

fn obs() -> impl Strategy<Value = Obs> {
    // The vendored proptest has no weighted arms; repeating the ok arm
    // biases schedules toward mixed-rate windows rather than pure
    // storms.
    let dt = 0..5_000_000u64; // up to 5 ms between observations
    prop_oneof![
        dt.clone().prop_map(Obs::Ok),
        dt.clone().prop_map(Obs::Ok),
        dt.clone().prop_map(Obs::Error),
        dt.clone().prop_map(Obs::Busy),
        dt.prop_map(Obs::CreditRecovery),
    ]
}

/// A small-window config so arbitrary schedules actually close windows.
fn health_config() -> impl Strategy<Value = HealthConfig> {
    (1..4_000_000u64, 2..12u64, 1..3u32).prop_map(|(window_ns, min_events, recover_windows)| {
        HealthConfig {
            window_ns,
            min_events,
            degraded_ppm: 50_000,
            failing_ppm: 200_000,
            recover_windows,
        }
    })
}

/// Feeds a schedule to a monitor, returning the final virtual clock.
fn run_schedule(m: &mut HealthMonitor, schedule: &[Obs]) -> u64 {
    let mut now = 0u64;
    for o in schedule {
        match *o {
            Obs::Ok(dt) => {
                now += dt;
                m.record_ok(now);
            }
            Obs::Error(dt) => {
                now += dt;
                m.record_error(now);
            }
            Obs::Busy(dt) => {
                now += dt;
                m.record_busy(now);
            }
            Obs::CreditRecovery(dt) => {
                now += dt;
                m.credit_recovery(now);
            }
        }
    }
    now
}

fn one_level_apart(a: HealthState, b: HealthState) -> bool {
    matches!(
        (a, b),
        (HealthState::Healthy, HealthState::Degraded)
            | (HealthState::Degraded, HealthState::Healthy)
            | (HealthState::Degraded, HealthState::Failing)
            | (HealthState::Failing, HealthState::Degraded)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary schedules: every transition moves exactly one level,
    /// timestamps are monotone, the counters agree with the trace, and
    /// the final state is the fold of the transitions.
    #[test]
    fn transitions_move_one_level_with_monotone_stamps(
        cfg in health_config(),
        schedule in prop::collection::vec(obs(), 1..400),
    ) {
        let mut m = HealthMonitor::new(cfg);
        run_schedule(&mut m, &schedule);
        let mut prev = HealthState::Healthy;
        let mut prev_ns = 0u64;
        let mut ups = 0u64;
        let mut downs = 0u64;
        for tr in m.transitions() {
            prop_assert!(
                one_level_apart(prev, tr.state),
                "transition {:?} -> {:?} skipped a level", prev, tr.state
            );
            prop_assert!(tr.at_ns >= prev_ns, "timestamps ran backwards");
            if tr.state > prev { ups += 1 } else { downs += 1 }
            prev = tr.state;
            prev_ns = tr.at_ns;
        }
        prop_assert_eq!(m.state(), prev, "state must be the fold of the transitions");
        let stats = m.io_stats();
        prop_assert_eq!(stats.degradations, ups);
        prop_assert_eq!(stats.recoveries, downs);
        prop_assert_eq!(stats.state, m.state());
    }

    /// The same schedule fed to a fresh monitor replays bit-identically:
    /// same transitions at the same virtual times, same counters.
    #[test]
    fn same_schedule_replays_identically(
        cfg in health_config(),
        schedule in prop::collection::vec(obs(), 1..400),
    ) {
        let mut a = HealthMonitor::new(cfg);
        let mut b = HealthMonitor::new(cfg);
        run_schedule(&mut a, &schedule);
        run_schedule(&mut b, &schedule);
        prop_assert_eq!(a.transitions(), b.transitions());
        prop_assert_eq!(a.io_stats(), b.io_stats());
        prop_assert_eq!(a.state(), b.state());
    }

    /// A fault-free plan never leaves `Healthy` — no matter the pacing
    /// — so a breaker keyed on `Failing` can never open on one.
    #[test]
    fn fault_free_plan_never_leaves_healthy(
        cfg in health_config(),
        dts in prop::collection::vec(0..50_000_000u64, 1..500),
    ) {
        let mut m = HealthMonitor::new(cfg);
        let mut now = 0u64;
        for dt in dts {
            now += dt;
            m.record_ok(now);
        }
        prop_assert_eq!(m.state(), HealthState::Healthy);
        prop_assert!(m.transitions().is_empty(), "clean traffic must record no transitions");
        let stats = m.io_stats();
        prop_assert_eq!((stats.errors, stats.busys, stats.degradations), (0, 0, 0));
    }

    /// More cumulative errors at the same successful-command count
    /// never classify as healthier.
    #[test]
    fn from_totals_is_monotone_in_errors(
        commands in 0..10_000u64,
        errors_a in 0..5_000u64,
        extra in 0..5_000u64,
    ) {
        let cfg = HealthConfig::default();
        let t = |n: u64| FaultTotals { read_errors: n, ..FaultTotals::default() };
        let lo = HealthReport::from_totals(&cfg, &t(errors_a), commands).state;
        let hi = HealthReport::from_totals(&cfg, &t(errors_a + extra), commands).state;
        prop_assert!(hi >= lo, "more errors classified healthier ({lo:?} -> {hi:?})");
    }

    /// The ppm rate is exact (no saturating-multiply truncation) for
    /// arbitrarily large windows: it always equals the 128-bit
    /// reference quotient, and a window of all-bad events always rates
    /// exactly 1e6 ppm no matter the count.
    #[test]
    fn rate_ppm_is_exact_at_any_scale(
        bad in any::<u64>(),
        good in any::<u64>(),
    ) {
        let events = bad.saturating_add(good);
        let expect = if events == 0 {
            0
        } else {
            u64::try_from((bad as u128) * 1_000_000 / events as u128).unwrap_or(u64::MAX)
        };
        prop_assert_eq!(rate_ppm(bad, events), expect);
        if bad > 0 && bad.checked_add(good).is_some() {
            prop_assert!(rate_ppm(bad, events) <= 1_000_000);
        }
        prop_assert_eq!(rate_ppm(bad, bad), if bad == 0 { 0 } else { 1_000_000 });
    }

    /// Threshold boundaries are pinned to `>=`: a window whose rate
    /// lands *exactly* on a threshold votes for the worse level, one
    /// event under it votes below. Exercised through `from_totals`
    /// by constructing totals that hit the boundary exactly.
    #[test]
    fn from_totals_pins_exact_threshold_boundaries(scale in 1..2_000u64) {
        // bad/events == failing_ppm/1e6 exactly: pick events as a
        // multiple of 1e6/gcd and bad accordingly. Use thresholds that
        // divide 1e6 cleanly so exact boundaries exist at every scale.
        let cfg = HealthConfig {
            degraded_ppm: 50_000,  // 1/20
            failing_ppm: 200_000,  // 1/5
            min_events: 1,
            ..HealthConfig::default()
        };
        let t = |n: u64| FaultTotals { busy_events: n, ..FaultTotals::default() };
        // Exactly at failing: bad = scale, events = 5*scale.
        let bad = scale;
        let commands = 4 * scale; // events = commands + bad = 5*scale
        prop_assert_eq!(
            HealthReport::from_totals(&cfg, &t(bad), commands).state,
            HealthState::Failing,
            "exact failing boundary must classify Failing"
        );
        // One good event past the boundary drops strictly below it.
        prop_assert_eq!(
            HealthReport::from_totals(&cfg, &t(bad), commands + 1).state,
            HealthState::Degraded,
            "one event under the failing boundary must not classify Failing"
        );
        // Exactly at degraded: bad = scale, events = 20*scale.
        let commands = 19 * scale;
        prop_assert_eq!(
            HealthReport::from_totals(&cfg, &t(bad), commands).state,
            HealthState::Degraded,
            "exact degraded boundary must classify Degraded"
        );
        prop_assert_eq!(
            HealthReport::from_totals(&cfg, &t(bad), commands + 1).state,
            HealthState::Healthy,
            "one event under the degraded boundary must not classify Degraded"
        );
    }

    /// Huge cumulative totals never overflow or misclassify: the
    /// report's rate matches the reference quotient and the state
    /// matches a direct threshold comparison, even at `u64::MAX`.
    #[test]
    fn health_report_survives_huge_totals(
        bad_pick in 0..6usize,
        commands_pick in 0..5usize,
    ) {
        let bad = [0u64, 1, u32::MAX as u64, u64::MAX / 2, u64::MAX - 1, u64::MAX][bad_pick];
        let commands = [0u64, 1, 1_000_000, u64::MAX / 2, u64::MAX][commands_pick];
        let cfg = HealthConfig::default();
        let totals = FaultTotals { write_errors: bad, ..FaultTotals::default() };
        let report = HealthReport::from_totals(&cfg, &totals, commands);
        let events = commands.saturating_add(bad);
        let expect_rate = if events == 0 {
            0
        } else {
            u64::try_from((bad as u128) * 1_000_000 / events as u128).unwrap_or(u64::MAX)
        };
        prop_assert_eq!(report.rate_ppm, expect_rate);
        prop_assert_eq!(report.faults, bad);
        prop_assert_eq!(report.commands, commands);
        let expect_state = if events < cfg.min_events {
            HealthState::Healthy
        } else if expect_rate >= u64::from(cfg.failing_ppm) {
            HealthState::Failing
        } else if expect_rate >= u64::from(cfg.degraded_ppm) {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
        prop_assert_eq!(report.state, expect_state);
    }
}
