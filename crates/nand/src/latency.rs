//! NAND operation latency model.
//!
//! Latencies are simulated (no wall-clock sleeping): each operation
//! returns a duration in nanoseconds that upper layers accumulate onto a
//! virtual device clock. Defaults are representative TLC NAND timings
//! (tR ≈ 50 µs, tProg ≈ 600 µs, tBERS ≈ 3 ms). A small deterministic
//! jitter decorrelates percentile readouts without needing an external
//! RNG dependency.

/// Per-operation latency parameters in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Page read (tR).
    pub read_ns: u64,
    /// Page program (tProg).
    pub program_ns: u64,
    /// Erase-block erase (tBERS).
    pub erase_ns: u64,
    /// Jitter amplitude in percent of the base latency (0 disables).
    pub jitter_pct: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel { read_ns: 50_000, program_ns: 600_000, erase_ns: 3_000_000, jitter_pct: 10 }
    }
}

impl LatencyModel {
    /// A zero-latency model for functional tests.
    pub fn zero() -> Self {
        LatencyModel { read_ns: 0, program_ns: 0, erase_ns: 0, jitter_pct: 0 }
    }
}

/// Deterministic latency sampler (xorshift64*, seeded).
#[derive(Debug)]
pub struct LatencySampler {
    model: LatencyModel,
    state: u64,
}

impl LatencySampler {
    /// Creates a sampler over `model` with the given seed. A zero seed is
    /// remapped so the xorshift state never sticks at zero.
    pub fn new(model: LatencyModel, seed: u64) -> Self {
        LatencySampler { model, state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// The underlying model.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xorshift64* — adequate quality for jitter, fully deterministic.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[inline]
    fn jittered(&mut self, base: u64) -> u64 {
        if self.model.jitter_pct == 0 || base == 0 {
            return base;
        }
        let amp = base * self.model.jitter_pct as u64 / 100;
        if amp == 0 {
            return base;
        }
        // Uniform in [base - amp/2, base + amp/2].
        let r = self.next_u64() % (amp + 1);
        base - amp / 2 + r
    }

    /// Samples a page-read latency.
    pub fn read(&mut self) -> u64 {
        let base = self.model.read_ns;
        self.jittered(base)
    }

    /// Samples a page-program latency.
    pub fn program(&mut self) -> u64 {
        let base = self.model.program_ns;
        self.jittered(base)
    }

    /// Samples an erase-block erase latency.
    pub fn erase(&mut self) -> u64 {
        let base = self.model.erase_ns;
        self.jittered(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_silent() {
        let mut s = LatencySampler::new(LatencyModel::zero(), 1);
        assert_eq!(s.read(), 0);
        assert_eq!(s.program(), 0);
        assert_eq!(s.erase(), 0);
    }

    #[test]
    fn jitter_stays_within_band() {
        let m = LatencyModel::default();
        let mut s = LatencySampler::new(m, 42);
        for _ in 0..10_000 {
            let v = s.program();
            let amp = m.program_ns * m.jitter_pct as u64 / 100;
            assert!(v >= m.program_ns - amp / 2 && v <= m.program_ns + amp / 2 + 1, "v={v}");
        }
    }

    #[test]
    fn sampler_is_deterministic_for_same_seed() {
        let m = LatencyModel::default();
        let mut a = LatencySampler::new(m, 7);
        let mut b = LatencySampler::new(m, 7);
        for _ in 0..100 {
            assert_eq!(a.read(), b.read());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut s = LatencySampler::new(LatencyModel::default(), 0);
        // Must not degenerate to constant output.
        let a = s.read();
        let b = s.read();
        let c = s.read();
        assert!(a != b || b != c);
    }

    #[test]
    fn ordering_of_op_costs_is_physical() {
        let m = LatencyModel::default();
        assert!(m.read_ns < m.program_ns);
        assert!(m.program_ns < m.erase_ns);
    }
}
