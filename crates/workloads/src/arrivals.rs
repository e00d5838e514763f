//! Deterministic open-loop arrival schedules in virtual time.
//!
//! Every replay driver before this module was **closed-loop**: the
//! next request is issued the moment the previous one completes, so
//! offered load self-paces to whatever the stack can absorb and
//! queueing delay is unmeasurable by construction. An
//! [`ArrivalProcess`] decouples *offered* load from *service*: it
//! emits a seed-stable sequence of virtual-nanosecond arrival stamps
//! (Poisson by default, optionally modulated by scripted burst
//! windows), and the driver charges each request the
//! queueing delay between its arrival and the moment the server got to
//! it. Overload then shows up the way the paper's Figure 13 frames it
//! — as p99 sojourn inflation — instead of silently flattening
//! throughput.
//!
//! Determinism: inter-arrival draws come from a counter-based
//! splitmix64 stream (one counter per draw, no shared RNG state), so
//! arrival `i` depends only on `(seed, draw history)` and the rate
//! shape. Time-varying rates are sampled by Lewis–Shedler thinning at
//! the peak rate, which keeps the process exact (not a stepwise
//! approximation) while staying bit-reproducible: the candidate/accept
//! draw sequence is a pure function of the seed. Stamps are quantized
//! to whole nanoseconds and strictly increase.

/// Golden-ratio increment for the splitmix64 counter stream.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer over a seed/counter pair — the same mixer the
/// cache's shard router uses, so quality is already property-tested.
fn mix(seed: u64, counter: u64) -> u64 {
    let mut z = seed.wrapping_add(counter.wrapping_mul(GOLDEN)).wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in the half-open unit interval `(0, 1]` — never zero,
/// so `ln` below is always finite.
fn unit(seed: u64, counter: u64) -> f64 {
    ((mix(seed, counter) >> 11) as f64 + 1.0) * (1.0 / (1u64 << 53) as f64)
}

/// One scripted overload window: the base rate is multiplied by
/// `multiplier` for arrivals landing in `[start_ns, end_ns)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstWindow {
    /// Window start (virtual ns, inclusive).
    pub start_ns: u64,
    /// Window end (virtual ns, exclusive).
    pub end_ns: u64,
    /// Rate multiplier inside the window (≥ 0; > 1 is an overload
    /// burst, < 1 a trough).
    pub multiplier: f64,
}

impl BurstWindow {
    /// Whether `t_ns` falls inside the window.
    pub fn contains(&self, t_ns: u64) -> bool {
        t_ns >= self.start_ns && t_ns < self.end_ns
    }
}

/// How the instantaneous arrival rate varies over virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum RateShape {
    /// Homogeneous Poisson at the base rate.
    Steady,
    /// Scripted burst windows over an otherwise steady base rate. The
    /// first window containing `t` wins; time outside every window
    /// runs at the base rate.
    Bursts(Vec<BurstWindow>),
}

impl RateShape {
    /// Rate multiplier at virtual time `t_ns`.
    pub fn multiplier_at(&self, t_ns: u64) -> f64 {
        match self {
            RateShape::Steady => 1.0,
            RateShape::Bursts(windows) => {
                windows.iter().find(|w| w.contains(t_ns)).map(|w| w.multiplier).unwrap_or(1.0)
            }
        }
    }

    /// The largest multiplier the shape can ever produce — the
    /// thinning envelope.
    pub fn peak_multiplier(&self) -> f64 {
        match self {
            RateShape::Steady => 1.0,
            RateShape::Bursts(windows) => {
                windows.iter().map(|w| w.multiplier).fold(1.0f64, f64::max)
            }
        }
    }
}

/// A deterministic open-loop arrival sequence in virtual time.
///
/// Pull arrivals with [`ArrivalProcess::next_ns`]; the stream is
/// infinite and strictly increasing. Two processes constructed with
/// identical parameters yield bit-identical stamp sequences.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    /// Mean base rate in operations per virtual second.
    base_rate: f64,
    shape: RateShape,
    seed: u64,
    /// Monotone draw counter — the entire RNG state.
    draws: u64,
    /// Last emitted stamp (candidate clock between emissions).
    now_ns: u64,
}

impl ArrivalProcess {
    /// Creates a process emitting `base_rate_ops_per_sec` arrivals per
    /// virtual second (shaped by `shape`), seeded for bit-stable
    /// replay. Rates at or below zero are clamped to a floor of one
    /// op per virtual second.
    pub fn new(base_rate_ops_per_sec: f64, shape: RateShape, seed: u64) -> Self {
        ArrivalProcess {
            base_rate: base_rate_ops_per_sec.max(1.0),
            shape,
            seed,
            draws: 0,
            now_ns: 0,
        }
    }

    /// Instantaneous rate (ops per virtual second) at `t_ns`.
    pub fn rate_at(&self, t_ns: u64) -> f64 {
        self.base_rate * self.shape.multiplier_at(t_ns)
    }

    /// The rate shape.
    pub fn shape(&self) -> &RateShape {
        &self.shape
    }

    fn draw(&mut self) -> f64 {
        let u = unit(self.seed, self.draws);
        self.draws += 1;
        u
    }

    /// Next arrival stamp in virtual nanoseconds (strictly greater
    /// than the previous one).
    ///
    /// Nonhomogeneous shapes are sampled by thinning: candidates are
    /// generated at the peak rate and accepted with probability
    /// `rate(t) / peak`, which realizes the exact target process.
    pub fn next_ns(&mut self) -> u64 {
        let peak = (self.base_rate * self.shape.peak_multiplier()).max(1e-9);
        loop {
            let dt_sec = -self.draw().ln() / peak;
            let dt_ns = ((dt_sec * 1e9).ceil() as u64).max(1);
            self.now_ns = self.now_ns.saturating_add(dt_ns);
            let accept = self.draw();
            if accept * peak <= self.rate_at(self.now_ns) {
                return self.now_ns;
            }
        }
    }

    /// All arrivals up to (excluding) `horizon_ns`, collected eagerly.
    pub fn take_until(&mut self, horizon_ns: u64) -> Vec<u64> {
        let mut out = Vec::new();
        loop {
            let t = self.next_ns();
            if t >= horizon_ns {
                return out;
            }
            out.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seed_stable_and_strictly_increasing() {
        let mut a = ArrivalProcess::new(50_000.0, RateShape::Steady, 42);
        let mut b = ArrivalProcess::new(50_000.0, RateShape::Steady, 42);
        let mut prev = 0u64;
        for _ in 0..5_000 {
            let (x, y) = (a.next_ns(), b.next_ns());
            assert_eq!(x, y, "same seed must replay the same stamps");
            assert!(x > prev, "stamps must strictly increase");
            prev = x;
        }
        let mut c = ArrivalProcess::new(50_000.0, RateShape::Steady, 43);
        assert_ne!(c.next_ns(), ArrivalProcess::new(50_000.0, RateShape::Steady, 42).next_ns());
    }

    #[test]
    fn poisson_mean_rate_matches_configuration() {
        let rate = 100_000.0; // 10 µs mean spacing
        let mut p = ArrivalProcess::new(rate, RateShape::Steady, 7);
        let n = 50_000u64;
        let mut last = 0;
        for _ in 0..n {
            last = p.next_ns();
        }
        let measured = n as f64 / (last as f64 / 1e9);
        let err = (measured - rate).abs() / rate;
        assert!(err < 0.05, "measured rate {measured:.0} deviates {err:.3} from {rate:.0}");
    }

    #[test]
    fn burst_window_densifies_arrivals() {
        let burst = BurstWindow { start_ns: 100_000_000, end_ns: 200_000_000, multiplier: 10.0 };
        let mut p = ArrivalProcess::new(20_000.0, RateShape::Bursts(vec![burst]), 9);
        let stamps = p.take_until(300_000_000);
        let inside = stamps.iter().filter(|&&t| burst.contains(t)).count();
        let before = stamps.iter().filter(|&&t| t < burst.start_ns).count();
        // The window covers the same span as the calm prefix but at
        // 10× rate; allow generous statistical slack.
        assert!(
            inside as f64 > 5.0 * before as f64,
            "burst window must densify arrivals ({inside} in-burst vs {before} calm)"
        );
    }
}
