//! Dynamic, feedback-driven data placement (paper §5.5, lesson 2).
//!
//! The paper's team prototyped adaptive placement policies that consume
//! the FDP event log ("the host can inform itself of garbage collection
//! operations in the SSD ... and adapt accordingly") using load
//! balancing and data-temperature techniques — and found that "dynamic
//! and adaptive data placement is outperformed by simple static
//! solutions" for CacheLib's small-object dominant hybrid workloads.
//!
//! This module implements that shelved machinery so the claim can be
//! reproduced as an ablation (`repro --fig dynamic` in the bench crate):
//!
//! * [`EpochFeedback`] — a per-epoch digest of device behaviour built
//!   from drained FDP events plus per-handle host-write attribution.
//! * [`DynamicPlacement`] — a policy trait deciding, at each epoch
//!   boundary, which placement handle every registered stream should use
//!   next.
//! * [`LoadBalancer`] — evens out host bytes across handles by moving
//!   the heaviest stream away from the most-relocating handle.
//! * [`TemperatureBalancer`] — classifies streams hot/cold by their
//!   per-byte relocation pressure and clusters equal-temperature streams.
//! * [`StaticPlacement`] — the shipped behaviour (never re-maps), the
//!   control arm of the ablation.
//!
//! The cache exposes handle re-binding (`NavyEngine::set_handles` in the
//! cache crate); an experiment drives the loop: drain events → build
//! [`EpochFeedback`] → ask the policy → re-bind.

use std::collections::HashMap;

use crate::handle::PlacementHandle;

/// A stream that participates in dynamic placement (e.g. `"soc-0"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamId(pub String);

/// Per-epoch device feedback attributed to placement handles.
///
/// Indexed by DSPEC (namespace placement-identifier index), the only
/// name consumers have for a handle.
#[derive(Debug, Clone, Default)]
pub struct EpochFeedback {
    /// Host pages written through each DSPEC this epoch.
    pub host_pages: HashMap<u16, u64>,
    /// Pages relocated by GC out of RUs owned by each DSPEC this epoch.
    /// Relocations from shared (intermixed) GC destinations are recorded
    /// under `None`.
    pub relocated_pages: HashMap<Option<u16>, u64>,
}

impl EpochFeedback {
    /// Total pages relocated this epoch (any owner).
    pub fn total_relocated(&self) -> u64 {
        self.relocated_pages.values().sum()
    }

    /// Relocation pressure of a handle: relocated pages per host page
    /// written through it this epoch (0 when it wrote nothing).
    pub fn pressure(&self, dspec: u16) -> f64 {
        let host = self.host_pages.get(&dspec).copied().unwrap_or(0);
        if host == 0 {
            return 0.0;
        }
        let rel = self.relocated_pages.get(&Some(dspec)).copied().unwrap_or(0);
        rel as f64 / host as f64
    }
}

/// Assignment of streams to handles for the next epoch.
pub type Assignment = HashMap<StreamId, PlacementHandle>;

/// A dynamic placement policy: re-decides stream→handle mapping at epoch
/// boundaries based on device feedback.
pub trait DynamicPlacement: Send {
    /// Called once per epoch. `current` is the present assignment;
    /// `available` the namespace's placement identifiers. Returns the
    /// assignment for the next epoch (possibly identical).
    fn rebalance(
        &mut self,
        current: &Assignment,
        available: &[u16],
        feedback: &EpochFeedback,
    ) -> Assignment;

    /// Short policy name for experiment labels.
    fn name(&self) -> &'static str;
}

/// The shipped policy: static assignment, never re-maps (paper §5.5 —
/// "a static predefined placement handle for segregating SOC and LOC
/// data" won).
#[derive(Debug, Default)]
pub struct StaticPlacement;

impl DynamicPlacement for StaticPlacement {
    fn rebalance(
        &mut self,
        current: &Assignment,
        _available: &[u16],
        _feedback: &EpochFeedback,
    ) -> Assignment {
        current.clone()
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// Load balancing: move the stream writing the most host bytes onto the
/// handle observing the least relocation, so no single reclaim-unit
/// stream monopolizes GC.
#[derive(Debug, Default)]
pub struct LoadBalancer {
    epochs: u64,
}

impl DynamicPlacement for LoadBalancer {
    fn rebalance(
        &mut self,
        current: &Assignment,
        available: &[u16],
        feedback: &EpochFeedback,
    ) -> Assignment {
        self.epochs += 1;
        let mut next = current.clone();
        if available.len() < 2 {
            return next;
        }
        // Heaviest writer among the streams; of equals (two streams on one
        // handle), the first by name — `current` iterates in random order.
        let heaviest = current
            .iter()
            .filter_map(|(stream, handle)| {
                let d = handle.dspec()?;
                Some((stream.clone(), feedback.host_pages.get(&d).copied().unwrap_or(0)))
            })
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0 .0.cmp(&a.0 .0)));
        let Some((stream, pages)) = heaviest else {
            return next;
        };
        if pages == 0 {
            return next;
        }
        // Quietest handle by relocation pressure.
        let calmest = available
            .iter()
            .copied()
            .min_by(|&a, &b| {
                feedback
                    .pressure(a)
                    .partial_cmp(&feedback.pressure(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("available is non-empty");
        next.insert(stream, PlacementHandle::with_dspec(calmest));
        next
    }

    fn name(&self) -> &'static str {
        "load-balancing"
    }
}

/// Temperature-based clustering: streams whose handles relocate more
/// than the epoch median are *hot* and get the lowest-numbered handles;
/// cold streams share the remaining handles. The intent (grouping data
/// by death time) matches the FDP design goal; the lesson is that for
/// CacheLib the static SOC/LOC split already is the right temperature
/// split.
#[derive(Debug, Default)]
pub struct TemperatureBalancer {
    epochs: u64,
}

impl DynamicPlacement for TemperatureBalancer {
    fn rebalance(
        &mut self,
        current: &Assignment,
        available: &[u16],
        feedback: &EpochFeedback,
    ) -> Assignment {
        self.epochs += 1;
        if available.len() < 2 || current.is_empty() {
            return current.clone();
        }
        // Order streams by relocation pressure, hottest first, equals by
        // name (`current` iterates in random order).
        let mut ranked: Vec<(StreamId, f64)> = current
            .iter()
            .map(|(stream, handle)| {
                let p = handle.dspec().map(|d| feedback.pressure(d)).unwrap_or(0.0);
                (stream.clone(), p)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0 .0.cmp(&b.0 .0))
        });
        // Hot streams get dedicated handles while they last; the rest
        // cluster on the final handle.
        let mut next = Assignment::new();
        for (i, (stream, _)) in ranked.into_iter().enumerate() {
            let dspec = available[i.min(available.len() - 1)];
            next.insert(stream, PlacementHandle::with_dspec(dspec));
        }
        next
    }

    fn name(&self) -> &'static str {
        "temperature"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(pairs: &[(&str, u16)]) -> Assignment {
        pairs
            .iter()
            .map(|&(s, d)| (StreamId(s.to_string()), PlacementHandle::with_dspec(d)))
            .collect()
    }

    fn feedback(host: &[(u16, u64)], relocated: &[(Option<u16>, u64)]) -> EpochFeedback {
        EpochFeedback {
            host_pages: host.iter().copied().collect(),
            relocated_pages: relocated.iter().copied().collect(),
        }
    }

    #[test]
    fn pressure_is_relocations_per_host_page() {
        let f = feedback(&[(0, 100), (1, 50)], &[(Some(0), 25), (Some(1), 0)]);
        assert!((f.pressure(0) - 0.25).abs() < 1e-12);
        assert_eq!(f.pressure(1), 0.0);
        assert_eq!(f.pressure(7), 0.0, "unknown handle has zero pressure");
        assert_eq!(f.total_relocated(), 25);
    }

    #[test]
    fn static_placement_never_moves() {
        let cur = assignment(&[("soc-0", 0), ("loc-0", 1)]);
        let f = feedback(&[(0, 1000)], &[(Some(0), 900)]);
        let mut p = StaticPlacement;
        assert_eq!(p.rebalance(&cur, &[0, 1, 2], &f), cur);
        assert_eq!(p.name(), "static");
    }

    #[test]
    fn load_balancer_moves_heaviest_to_calmest() {
        let cur = assignment(&[("soc-0", 0), ("loc-0", 1)]);
        // SOC writes the most and its handle relocates heavily; handle 2
        // is quiet, so the SOC stream should move there.
        let f = feedback(&[(0, 1000), (1, 10)], &[(Some(0), 500)]);
        let mut p = LoadBalancer::default();
        let next = p.rebalance(&cur, &[0, 1, 2], &f);
        let soc = next.get(&StreamId("soc-0".into())).unwrap();
        assert_ne!(soc.dspec(), Some(0), "heaviest stream should leave the hot handle");
        // The untouched stream keeps its handle.
        assert_eq!(next.get(&StreamId("loc-0".into())).unwrap().dspec(), Some(1));
    }

    #[test]
    fn load_balancer_is_a_noop_without_traffic_or_handles() {
        let cur = assignment(&[("soc-0", 0)]);
        let mut p = LoadBalancer::default();
        let idle = feedback(&[], &[]);
        assert_eq!(p.rebalance(&cur, &[0, 1], &idle), cur);
        let busy = feedback(&[(0, 10)], &[]);
        assert_eq!(p.rebalance(&cur, &[0], &busy), cur, "single handle: nowhere to move");
    }

    #[test]
    fn temperature_gives_hot_streams_dedicated_handles() {
        let cur = assignment(&[("a", 0), ("b", 0), ("c", 0)]);
        // Stream a's handle relocates hard; all share handle 0 now.
        let f = feedback(&[(0, 100)], &[(Some(0), 80)]);
        let mut p = TemperatureBalancer::default();
        let next = p.rebalance(&cur, &[0, 1], &f);
        // Three streams, two handles: hottest gets 0, the others share 1.
        let dspecs: Vec<Option<u16>> =
            ["a", "b", "c"].iter().map(|s| next[&StreamId(s.to_string())].dspec()).collect();
        assert!(dspecs.iter().all(|d| d.is_some()));
        assert!(dspecs.contains(&Some(0)));
        assert!(dspecs.contains(&Some(1)));
    }

    #[test]
    fn ties_break_by_stream_name_whatever_the_map_order() {
        // Equal pressure, equal pages; each fresh map iterates in its own order.
        let f = feedback(&[(0, 100)], &[(Some(0), 80)]);
        for _ in 0..32 {
            let cur = assignment(&[("soc-0", 0), ("loc-0", 0)]);
            let loc = |next: Assignment| next[&StreamId("loc-0".into())].dspec();
            assert_eq!(loc(TemperatureBalancer::default().rebalance(&cur, &[0, 1], &f)), Some(0));
            assert_eq!(loc(LoadBalancer::default().rebalance(&cur, &[0, 1], &f)), Some(1));
        }
    }

    #[test]
    fn temperature_noop_with_one_handle() {
        let cur = assignment(&[("a", 0), ("b", 0)]);
        let f = feedback(&[(0, 10)], &[(Some(0), 5)]);
        let mut p = TemperatureBalancer::default();
        assert_eq!(p.rebalance(&cur, &[0], &f), cur);
    }
}
