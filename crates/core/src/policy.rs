//! Pluggable placement policies.
//!
//! The paper's lesson (§5.5): simple static assignment beats dynamic
//! adaptive schemes for CacheLib's workloads. The allocator therefore
//! defaults to round-robin static assignment, but the policy is a trait
//! so experiments can plug in alternatives (the `rgroups` row picks
//! handles inside one reclaim group). Non-FDP baselines turn FDP off
//! rather than plug in a policy.

/// Chooses which available placement identifier a consumer receives.
pub trait PlacementPolicy: Send {
    /// Picks a DSPEC for the named consumer from `available` (the
    /// namespace's placement-identifier indices). Returning `None` gives
    /// the consumer the default handle.
    fn pick(&mut self, consumer: &str, available: &[u16]) -> Option<u16>;
}

/// Static round-robin: each consumer gets the next unused identifier;
/// when identifiers run out, later consumers get the default handle.
///
/// This is the paper's shipped policy: SOC and LOC of each engine pair
/// receive distinct handles at initialization and keep them forever.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    next: usize,
}

impl RoundRobinPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PlacementPolicy for RoundRobinPolicy {
    fn pick(&mut self, _consumer: &str, available: &[u16]) -> Option<u16> {
        let pick = available.get(self.next).copied();
        if pick.is_some() {
            self.next += 1;
        }
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_hands_out_distinct_then_default() {
        let mut p = RoundRobinPolicy::new();
        let avail = [0u16, 1, 2];
        assert_eq!(p.pick("soc-0", &avail), Some(0));
        assert_eq!(p.pick("loc-0", &avail), Some(1));
        assert_eq!(p.pick("soc-1", &avail), Some(2));
        assert_eq!(p.pick("loc-1", &avail), None);
        assert_eq!(p.pick("meta", &avail), None);
    }

    #[test]
    fn empty_available_gives_default() {
        let mut rr = RoundRobinPolicy::new();
        assert_eq!(rr.pick("x", &[]), None);
    }
}
