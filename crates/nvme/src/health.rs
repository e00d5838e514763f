//! Device-health classification from windowed, virtual-time error
//! rates.
//!
//! The fault layer (PR 5) made individual failures deterministic and
//! recoverable; this module turns their *rate* into a state machine a
//! serving tier can act on. A [`HealthMonitor`] consumes one
//! observation per completed device command — ok, media error, or busy
//! rejection — each stamped with the observer's **virtual** clock, and
//! classifies the stream `Healthy → Degraded → Failing`:
//!
//! * Observations accumulate into tumbling windows that close once both
//!   [`HealthConfig::window_ns`] virtual nanoseconds have elapsed *and*
//!   [`HealthConfig::min_events`] observations have arrived (short
//!   windows never classify, so a single early fault cannot condemn a
//!   device).
//! * A closed window votes for a target level by its error rate:
//!   `Failing` at or above [`HealthConfig::failing_ppm`], `Degraded` at
//!   or above [`HealthConfig::degraded_ppm`], `Healthy` below.
//! * The state moves **one level per window** toward the vote. Moving
//!   down (recovery) additionally requires
//!   [`HealthConfig::recover_windows`] consecutive downward votes —
//!   hysteresis, so a storm's trailing edge does not flap the state.
//!
//! Because every input is virtual-time and per-observer, a monitor
//! embedded in a shard's I/O manager transitions at bit-identical
//! virtual times across worker counts and reruns — the property the
//! cache tier's circuit breaker (and the bench crate's chaos gate) relies
//! on. Transitions are recorded with their virtual timestamps for
//! exactly that comparison.
//!
//! [`Controller::health_report_with`](crate::Controller::health_report_with)
//! offers a coarser device-wide view computed from cumulative injection
//! totals via [`HealthReport::from_totals`] — useful for fleet
//! dashboards, while the windowed per-shard monitors remain the
//! authoritative degraded-mode signal.

use crate::fault::FaultTotals;

/// Health classification of a device (or one observer's view of it).
///
/// Ordered by severity so merged views can take the worst state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HealthState {
    /// Error rate below every threshold; full service.
    #[default]
    Healthy,
    /// Elevated error rate; service continues but callers should shed
    /// optional work (scrubbing pauses, admission tightens).
    Degraded,
    /// Error rate above the failing threshold; the flash tier should
    /// be circuit-broken until probes succeed.
    Failing,
}

impl HealthState {
    /// Short label for tables and trajectory records.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Failing => "failing",
        }
    }

    /// One level worse (saturating).
    fn step_up(self) -> HealthState {
        match self {
            HealthState::Healthy => HealthState::Degraded,
            _ => HealthState::Failing,
        }
    }

    /// One level better (saturating).
    fn step_down(self) -> HealthState {
        match self {
            HealthState::Failing => HealthState::Degraded,
            _ => HealthState::Healthy,
        }
    }
}

/// Thresholds and window sizing for a [`HealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Minimum virtual nanoseconds a window spans before it can close.
    pub window_ns: u64,
    /// Minimum observations a window needs before it can close.
    pub min_events: u64,
    /// Window error rate (ppm of observations) voting `Degraded`.
    pub degraded_ppm: u32,
    /// Window error rate (ppm of observations) voting `Failing`.
    pub failing_ppm: u32,
    /// Consecutive downward votes required per recovery step.
    pub recover_windows: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        // 20 ms of virtual time holds tens of commands under load
        // (fault service alone is 150 µs), and 16 events means a lone
        // early fault is at most a 1/16 ≈ 6% blip — above the floor a
        // single error can reach only when real trouble clusters.
        HealthConfig {
            window_ns: 20_000_000,
            min_events: 16,
            degraded_ppm: 50_000,
            failing_ppm: 200_000,
            recover_windows: 2,
        }
    }
}

/// Exact error rate in parts per million: `bad / events` scaled by
/// 1e6, computed in 128-bit arithmetic so arbitrarily large windows
/// (or all-time cumulative totals) cannot overflow the scaling
/// multiply, and saturating to `u64::MAX` in the degenerate case the
/// quotient itself exceeds 64 bits (`bad` astronomically larger than
/// `events`). Returns 0 for an empty window.
pub fn rate_ppm(bad: u64, events: u64) -> u64 {
    if events == 0 {
        return 0;
    }
    u64::try_from((bad as u128).saturating_mul(1_000_000) / events as u128).unwrap_or(u64::MAX)
}

/// Classifies an error rate against the config thresholds: `Failing`
/// at or above `failing_ppm`, `Degraded` at or above `degraded_ppm`,
/// `Healthy` below. Thresholds widen to `u64` before comparison so
/// the ladder is exact at the boundaries for any `u32` threshold.
fn classify_rate(config: &HealthConfig, bad: u64, events: u64) -> HealthState {
    let rate = rate_ppm(bad, events);
    if rate >= u64::from(config.failing_ppm) {
        HealthState::Failing
    } else if rate >= u64::from(config.degraded_ppm) {
        HealthState::Degraded
    } else {
        HealthState::Healthy
    }
}

/// Snapshot of the cumulative device-wide health view — the numbers a
/// fleet router keys placement and failover off
/// ([`Controller::health_report_with`](crate::Controller::health_report_with)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Classification of the cumulative rate.
    pub state: HealthState,
    /// Commands that completed successfully.
    pub commands: u64,
    /// Injected failures (errors + busy rejections) across all time.
    pub faults: u64,
    /// Cumulative error rate in ppm of all completions.
    pub rate_ppm: u64,
}

impl HealthReport {
    /// Builds the cumulative report from injection totals and the
    /// successful-command count, against `config`'s thresholds. Fewer
    /// than [`HealthConfig::min_events`] completions classify
    /// `Healthy` — a young device is innocent until it has produced
    /// enough evidence.
    pub fn from_totals(config: &HealthConfig, totals: &FaultTotals, commands: u64) -> Self {
        let bad = totals.total();
        let events = commands.saturating_add(bad);
        let state = if events < config.min_events {
            HealthState::Healthy
        } else {
            classify_rate(config, bad, events)
        };
        HealthReport { state, commands, faults: bad, rate_ppm: rate_ppm(bad, events) }
    }
}

/// One recorded state change, stamped with the observer's virtual
/// clock at the window close that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Virtual time of the window close.
    pub at_ns: u64,
    /// The state entered.
    pub state: HealthState,
}

/// Health counters folded into `IoStats` and merged field-wise across
/// shards (`state` merges as the worst observed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthIoStats {
    /// Current classification (worst across merged shards).
    pub state: HealthState,
    /// Media/corruption errors observed.
    pub errors: u64,
    /// Busy rejections observed.
    pub busys: u64,
    /// Windows closed (classification votes cast).
    pub windows: u64,
    /// Upward (worsening) transitions taken.
    pub degradations: u64,
    /// Downward (recovery) transitions taken.
    pub recoveries: u64,
}

impl HealthIoStats {
    /// Field-wise sum; `state` takes the worst of the two views.
    pub fn merge(&self, other: &HealthIoStats) -> HealthIoStats {
        HealthIoStats {
            state: self.state.max(other.state),
            errors: self.errors + other.errors,
            busys: self.busys + other.busys,
            windows: self.windows + other.windows,
            degradations: self.degradations + other.degradations,
            recoveries: self.recoveries + other.recoveries,
        }
    }
}

/// Windowed `Healthy → Degraded → Failing` classifier over one
/// observer's command-completion stream. See the module docs for the
/// window and hysteresis rules.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: HealthConfig,
    state: HealthState,
    window_start_ns: u64,
    ok_in_window: u64,
    errors_in_window: u64,
    busys_in_window: u64,
    /// Consecutive downward votes seen at the current level.
    down_votes: u32,
    stats: HealthIoStats,
    transitions: Vec<HealthTransition>,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor::new(HealthConfig::default())
    }
}

impl HealthMonitor {
    /// Creates a monitor in the `Healthy` state.
    pub fn new(config: HealthConfig) -> Self {
        HealthMonitor {
            config,
            state: HealthState::Healthy,
            window_start_ns: 0,
            ok_in_window: 0,
            errors_in_window: 0,
            busys_in_window: 0,
            down_votes: 0,
            stats: HealthIoStats::default(),
            transitions: Vec::new(),
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Current classification.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Every transition taken so far, in order, with virtual
    /// timestamps. Adjacent entries always differ by exactly one level
    /// (the one-step rule), which the property tests assert.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// Counter snapshot for `IoStats` folding.
    pub fn io_stats(&self) -> HealthIoStats {
        let mut s = self.stats;
        s.state = self.state;
        s
    }

    /// Records a successfully completed command at virtual time `now_ns`.
    pub fn record_ok(&mut self, now_ns: u64) {
        self.roll(now_ns);
        self.ok_in_window += 1;
    }

    /// Records a media/corruption error completion at `now_ns`.
    pub fn record_error(&mut self, now_ns: u64) {
        self.roll(now_ns);
        self.errors_in_window += 1;
        self.stats.errors += 1;
    }

    /// Records a busy rejection at `now_ns`.
    pub fn record_busy(&mut self, now_ns: u64) {
        self.roll(now_ns);
        self.busys_in_window += 1;
        self.stats.busys += 1;
    }

    /// External recovery signal: steps the state down one level and
    /// restarts the window. The cache tier calls this when a breaker
    /// probe succeeds — the monitor saw only failures while the
    /// breaker was open, so without this nudge a recovered device
    /// could never climb out of `Failing` (no traffic, no windows).
    pub fn credit_recovery(&mut self, now_ns: u64) {
        if self.state != HealthState::Healthy {
            self.transition(now_ns, self.state.step_down());
        }
        self.reset_window(now_ns);
    }

    /// Closes the current window if it has run its course, voting on a
    /// state move. Called before each observation is added, so the
    /// triggering observation lands in the fresh window.
    fn roll(&mut self, now_ns: u64) {
        let events = self.ok_in_window + self.errors_in_window + self.busys_in_window;
        if events < self.config.min_events
            || now_ns < self.window_start_ns.saturating_add(self.config.window_ns)
        {
            return;
        }
        let bad = self.errors_in_window + self.busys_in_window;
        let vote = classify_rate(&self.config, bad, events);
        self.stats.windows += 1;
        if vote > self.state {
            self.down_votes = 0;
            self.transition(now_ns, self.state.step_up());
        } else if vote < self.state {
            self.down_votes += 1;
            if self.down_votes >= self.config.recover_windows {
                self.down_votes = 0;
                self.transition(now_ns, self.state.step_down());
            }
        } else {
            self.down_votes = 0;
        }
        self.reset_window(now_ns);
    }

    fn reset_window(&mut self, now_ns: u64) {
        self.window_start_ns = now_ns;
        self.ok_in_window = 0;
        self.errors_in_window = 0;
        self.busys_in_window = 0;
    }

    fn transition(&mut self, now_ns: u64, to: HealthState) {
        if to > self.state {
            self.stats.degradations += 1;
        } else {
            self.stats.recoveries += 1;
        }
        self.state = to;
        self.transitions.push(HealthTransition { at_ns: now_ns, state: to });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// Feeds 1 ms-spaced observations until the monitor reaches
    /// `target` (or a generous time budget runs out), returning the
    /// clock. `bad` selects errors over oks.
    fn drive_to(m: &mut HealthMonitor, mut t: u64, bad: bool, target: HealthState) -> u64 {
        let deadline = t + 2_000 * MS;
        while m.state() != target && t < deadline {
            if bad {
                m.record_error(t);
            } else {
                m.record_ok(t);
            }
            t += MS;
        }
        assert_eq!(m.state(), target, "monitor must reach {target:?} within the budget");
        t
    }

    #[test]
    fn healthy_stream_never_leaves_healthy() {
        let mut m = HealthMonitor::default();
        for i in 0..500u64 {
            m.record_ok(i * MS);
        }
        assert_eq!(m.state(), HealthState::Healthy);
        assert!(m.transitions().is_empty());
        assert!(m.io_stats().windows > 0, "windows must close under traffic");
    }

    #[test]
    fn storm_walks_up_one_level_per_window() {
        let mut m = HealthMonitor::default();
        drive_to(&mut m, 0, true, HealthState::Failing);
        let states: Vec<_> = m.transitions().iter().map(|tr| tr.state).collect();
        assert_eq!(
            states,
            vec![HealthState::Degraded, HealthState::Failing],
            "the walk up is one level per window close"
        );
        assert_eq!(m.io_stats().degradations, 2);
    }

    #[test]
    fn recovery_requires_consecutive_clean_windows() {
        let mut m = HealthMonitor::default();
        let t = drive_to(&mut m, 0, true, HealthState::Failing);
        let clean_start = t;
        let t = drive_to(&mut m, t, false, HealthState::Healthy);
        // Two steps down at recover_windows = 2 apiece: recovery must
        // span at least four closed windows of clean traffic.
        assert!(
            t - clean_start >= 4 * m.config().window_ns,
            "hysteresis must slow the walk down ({} ns elapsed)",
            t - clean_start
        );
        assert_eq!(m.io_stats().recoveries, 2);
    }

    #[test]
    fn short_windows_never_classify() {
        let mut m = HealthMonitor::default();
        // Far fewer events than min_events, spread over lots of time:
        // no window may close, no matter how bad the rate.
        for i in 0..10u64 {
            m.record_error(i * 100 * MS);
        }
        assert_eq!(m.state(), HealthState::Healthy);
        assert_eq!(m.io_stats().windows, 0);
    }

    #[test]
    fn credit_recovery_steps_down_and_restarts_window() {
        let mut m = HealthMonitor::default();
        let t = drive_to(&mut m, 0, true, HealthState::Failing);
        let recoveries_before = m.io_stats().recoveries;
        m.credit_recovery(t);
        assert_eq!(m.state(), HealthState::Degraded);
        assert_eq!(m.io_stats().recoveries, recoveries_before + 1);
        m.credit_recovery(t + MS);
        assert_eq!(m.state(), HealthState::Healthy);
        m.credit_recovery(t + 2 * MS);
        assert_eq!(m.state(), HealthState::Healthy, "healthy is the floor");
    }

    #[test]
    fn transitions_are_stamped_and_adjacent() {
        let mut m = HealthMonitor::default();
        let t = drive_to(&mut m, 0, true, HealthState::Failing);
        drive_to(&mut m, t, false, HealthState::Healthy);
        let trs = m.transitions();
        assert_eq!(trs.len(), 4, "two up, two down");
        let mut prev = HealthState::Healthy;
        let mut prev_ns = 0;
        for tr in trs {
            let up = tr.state == prev.step_up();
            let down = tr.state == prev.step_down();
            assert!(up ^ down, "each transition moves exactly one level");
            assert!(tr.at_ns >= prev_ns, "timestamps are monotone");
            prev = tr.state;
            prev_ns = tr.at_ns;
        }
    }

    #[test]
    fn io_stats_merge_takes_worst_state_and_sums() {
        let a = HealthIoStats {
            state: HealthState::Degraded,
            errors: 1,
            busys: 2,
            windows: 3,
            degradations: 4,
            recoveries: 5,
        };
        let b = HealthIoStats {
            state: HealthState::Failing,
            errors: 10,
            busys: 20,
            windows: 30,
            degradations: 40,
            recoveries: 50,
        };
        let m = a.merge(&b);
        assert_eq!(m.state, HealthState::Failing);
        assert_eq!(
            (m.errors, m.busys, m.windows, m.degradations, m.recoveries),
            (11, 22, 33, 44, 55)
        );
    }

    #[test]
    fn from_totals_is_a_pure_rate_threshold() {
        let cfg = HealthConfig::default();
        let state = |totals: &FaultTotals, commands| {
            HealthReport::from_totals(&cfg, totals, commands).state
        };
        let quiet = FaultTotals::default();
        assert_eq!(state(&quiet, 1_000), HealthState::Healthy);
        let noisy = FaultTotals { read_errors: 100, ..Default::default() };
        assert_eq!(state(&noisy, 1_000), HealthState::Degraded);
        assert_eq!(state(&noisy, 300), HealthState::Failing);
        // Below min_events everything is healthy (not enough signal).
        assert_eq!(state(&quiet, 3), HealthState::Healthy);
    }
}
