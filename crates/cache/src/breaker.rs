//! Per-shard flash circuit breaker (DESIGN.md §6.7).
//!
//! When a shard's [`HealthMonitor`](fdpcache_core::HealthState)
//! classification crosses `Failing`, the breaker opens and the shard
//! degrades to DRAM-only serving: flash lookups answer as misses, RAM
//! evictions are shed instead of written, and objects rescued from
//! failed seals stay parked in the requeue channel. Deletes bypass the
//! breaker — a removal must always take effect, or the cache would
//! serve stale data once the device recovers.
//!
//! Recovery is probed, not assumed: after a virtual-time backoff the
//! breaker goes half-open and the next flash-bound operation runs as a
//! probe. A probe that completes without a single injected-fault
//! completion closes the breaker (and credits the health monitor one
//! recovery step); a faulting probe re-opens it with a doubled backoff.
//!
//! Everything here is driven by the shard's **virtual** clock and
//! deterministic health classification, so breaker traces replay
//! bit-identically across reruns and worker counts — the property
//! the bench crate's chaos gate checks.

use fdpcache_core::HealthState;

/// Default virtual-time delay before the first half-open probe after
/// the breaker opens (50 ms of simulated time). Gates that replay
/// short op budgets tune this down with
/// [`FlashBreaker::with_backoff`] — an open shard serves DRAM-only at
/// host-op cost, so its virtual clock crawls relative to a healthy
/// shard's device-bound ops.
pub const PROBE_BACKOFF_NS: u64 = 50_000_000;

/// Default cap on the doubled per-reopen probe backoff (400 ms
/// simulated).
pub const MAX_PROBE_BACKOFF_NS: u64 = 400_000_000;

/// The breaker's serving state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Flash serving normally.
    Closed,
    /// Flash bypassed — DRAM-only serving until the probe timer fires.
    Open,
    /// Probe window: the next flash-bound operation runs against the
    /// device and its outcome decides between re-closing and
    /// re-opening.
    HalfOpen,
}

impl BreakerState {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// One breaker transition, virtual-time stamped. Chaos gates compare
/// these traces across worker counts and reruns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Shard virtual time of the transition (ns).
    pub at_ns: u64,
    /// State entered.
    pub state: BreakerState,
}

/// The per-shard circuit breaker state machine. Pure host-side state:
/// it performs no I/O itself — the owning [`crate::HybridCache`]
/// polls it around flash-bound operations and reports probe outcomes
/// back.
#[derive(Debug)]
pub struct FlashBreaker {
    state: BreakerState,
    /// Virtual time at which an open breaker transitions to half-open.
    probe_at_ns: u64,
    /// Current probe backoff; doubles on every failed probe, capped at
    /// `max_backoff_ns`, and resets to `initial_backoff_ns` on a
    /// successful close.
    backoff_ns: u64,
    initial_backoff_ns: u64,
    max_backoff_ns: u64,
    opens: u64,
    closes: u64,
    transitions: Vec<BreakerTransition>,
}

impl Default for FlashBreaker {
    fn default() -> Self {
        FlashBreaker::with_backoff(PROBE_BACKOFF_NS, MAX_PROBE_BACKOFF_NS)
    }
}

impl FlashBreaker {
    /// Creates a closed breaker with the default probe backoff.
    pub fn new() -> Self {
        FlashBreaker::default()
    }

    /// Creates a closed breaker with a custom probe-backoff schedule:
    /// first probe after `initial_ns` of virtual time, doubling per
    /// failed probe up to `max_ns`.
    pub fn with_backoff(initial_ns: u64, max_ns: u64) -> Self {
        let initial = initial_ns.max(1);
        FlashBreaker {
            state: BreakerState::Closed,
            probe_at_ns: 0,
            backoff_ns: initial,
            initial_backoff_ns: initial,
            max_backoff_ns: max_ns.max(initial),
            opens: 0,
            closes: 0,
            transitions: Vec::new(),
        }
    }

    /// Retunes the probe-backoff schedule in place (takes full effect
    /// from the next open; a closed breaker's pending backoff resets
    /// immediately).
    pub fn set_backoff(&mut self, initial_ns: u64, max_ns: u64) {
        self.initial_backoff_ns = initial_ns.max(1);
        self.max_backoff_ns = max_ns.max(self.initial_backoff_ns);
        if self.state == BreakerState::Closed {
            self.backoff_ns = self.initial_backoff_ns;
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Closed → Open transitions taken so far.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Probe-success closes so far.
    pub fn closes(&self) -> u64 {
        self.closes
    }

    /// The full virtual-time-stamped transition trace.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Level-triggered poll before a flash-bound operation: opens on a
    /// `Failing` device, moves an open breaker to half-open once the
    /// probe timer expires, and returns the state the caller should
    /// act on.
    pub fn poll(&mut self, health: HealthState, now_ns: u64) -> BreakerState {
        match self.state {
            BreakerState::Closed if health == HealthState::Failing => {
                self.opens += 1;
                self.enter(BreakerState::Open, now_ns);
                self.probe_at_ns = now_ns + self.backoff_ns;
            }
            BreakerState::Open if now_ns >= self.probe_at_ns => {
                self.enter(BreakerState::HalfOpen, now_ns);
            }
            _ => {}
        }
        self.state
    }

    /// Reports a fault-free half-open probe: the breaker closes and the
    /// probe backoff resets.
    pub fn probe_succeeded(&mut self, now_ns: u64) {
        if self.state != BreakerState::HalfOpen {
            return;
        }
        self.closes += 1;
        self.backoff_ns = self.initial_backoff_ns;
        self.enter(BreakerState::Closed, now_ns);
    }

    /// Reports a faulting half-open probe: the breaker re-opens with a
    /// doubled (capped) backoff.
    pub fn probe_failed(&mut self, now_ns: u64) {
        if self.state != BreakerState::HalfOpen {
            return;
        }
        self.backoff_ns = (self.backoff_ns * 2).min(self.max_backoff_ns);
        self.enter(BreakerState::Open, now_ns);
        self.probe_at_ns = now_ns + self.backoff_ns;
    }

    fn enter(&mut self, state: BreakerState, now_ns: u64) {
        self.state = state;
        self.transitions.push(BreakerTransition { at_ns: now_ns, state });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_closed_while_device_is_not_failing() {
        let mut b = FlashBreaker::new();
        for now in (0..10).map(|i| i * 1_000_000) {
            assert_eq!(b.poll(HealthState::Healthy, now), BreakerState::Closed);
            assert_eq!(b.poll(HealthState::Degraded, now), BreakerState::Closed);
        }
        assert_eq!(b.opens(), 0);
        assert!(b.transitions().is_empty());
    }

    #[test]
    fn opens_on_failing_and_probes_after_backoff() {
        let mut b = FlashBreaker::new();
        assert_eq!(b.poll(HealthState::Failing, 1_000), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        // Before the timer: still open, regardless of health.
        assert_eq!(b.poll(HealthState::Healthy, 1_000 + PROBE_BACKOFF_NS - 1), BreakerState::Open);
        // At the timer: half-open probe window.
        assert_eq!(b.poll(HealthState::Healthy, 1_000 + PROBE_BACKOFF_NS), BreakerState::HalfOpen);
    }

    #[test]
    fn failed_probes_double_the_backoff_up_to_the_cap() {
        let mut b = FlashBreaker::new();
        b.poll(HealthState::Failing, 0);
        let mut now = PROBE_BACKOFF_NS;
        let mut expected = PROBE_BACKOFF_NS;
        for _ in 0..5 {
            assert_eq!(b.poll(HealthState::Failing, now), BreakerState::HalfOpen);
            b.probe_failed(now);
            expected = (expected * 2).min(MAX_PROBE_BACKOFF_NS);
            assert_eq!(b.poll(HealthState::Failing, now + expected - 1), BreakerState::Open);
            now += expected;
        }
        assert_eq!(expected, MAX_PROBE_BACKOFF_NS);
        assert_eq!(b.closes(), 0);
    }

    #[test]
    fn successful_probe_closes_and_resets_backoff() {
        let mut b = FlashBreaker::new();
        b.poll(HealthState::Failing, 0);
        b.poll(HealthState::Degraded, PROBE_BACKOFF_NS);
        b.probe_succeeded(PROBE_BACKOFF_NS + 10);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closes(), 1);
        // A later open uses the reset backoff again.
        b.poll(HealthState::Failing, 1_000_000_000);
        assert_eq!(
            b.poll(HealthState::Failing, 1_000_000_000 + PROBE_BACKOFF_NS),
            BreakerState::HalfOpen
        );
    }

    #[test]
    fn custom_backoff_schedule_drives_probe_timing() {
        let mut b = FlashBreaker::with_backoff(1_000, 3_000);
        b.poll(HealthState::Failing, 0);
        assert_eq!(b.poll(HealthState::Failing, 999), BreakerState::Open);
        assert_eq!(b.poll(HealthState::Failing, 1_000), BreakerState::HalfOpen);
        b.probe_failed(1_000); // backoff 2_000
        b.poll(HealthState::Failing, 3_000);
        b.probe_failed(3_000); // capped at 3_000
        assert_eq!(b.poll(HealthState::Failing, 5_999), BreakerState::Open);
        assert_eq!(b.poll(HealthState::Failing, 6_000), BreakerState::HalfOpen);
        b.probe_succeeded(6_000);
        // Reset to the custom initial backoff, not the default.
        b.poll(HealthState::Failing, 10_000);
        assert_eq!(b.poll(HealthState::Failing, 11_000), BreakerState::HalfOpen);
    }

    #[test]
    fn probe_reports_outside_half_open_are_ignored() {
        let mut b = FlashBreaker::new();
        b.probe_succeeded(5);
        b.probe_failed(6);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.transitions().is_empty());
        assert_eq!((b.opens(), b.closes()), (0, 0));
    }

    #[test]
    fn transition_trace_is_stamped_and_ordered() {
        let mut b = FlashBreaker::new();
        b.poll(HealthState::Failing, 100);
        b.poll(HealthState::Failing, 100 + PROBE_BACKOFF_NS);
        b.probe_failed(200 + PROBE_BACKOFF_NS);
        let trace = b.transitions();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].state, BreakerState::Open);
        assert_eq!(trace[1].state, BreakerState::HalfOpen);
        assert_eq!(trace[2].state, BreakerState::Open);
        assert!(trace.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }
}
