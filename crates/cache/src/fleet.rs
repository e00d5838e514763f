//! Multi-device serving tier: consistent-hash routing across several
//! controllers, keyed off each device's cumulative health.
//!
//! A [`FleetRouter`] owns N [`FleetDevice`]s — each an independent
//! `Arc<Controller>` with its own [`ConcurrentPool`] — and routes keys
//! over a [`HashRing`] of virtual nodes (the classic consistent-hash
//! construction: `vnodes` ring points per device, a key walks
//! clockwise from its hash to the first point of a *serving* device).
//! Two properties fall out of the ring structure and are pinned by the
//! `fleet_properties` proptest battery:
//!
//! * **Balance** — with enough vnodes per device, contiguous key
//!   blocks spread near-uniformly across devices (chi-square bound,
//!   mirroring the pool's `shard_index` test).
//! * **Minimal remapping** — removing (or failing) one device moves
//!   *only* the keys that routed to it; every other key keeps its
//!   device. New-device-per-rehash churn cannot happen.
//!
//! Failover reuses PR 9's failure detection rather than inventing its
//! own: a device is skipped while
//! [`Controller::health_report_with`](fdpcache_nvme::Controller)
//! classifies it `Failing` under the router's [`HealthConfig`]
//! thresholds (a serving tier typically evicts at a tighter rate than
//! the degraded-mode ladder).
//! Health queries read cumulative counters only — routing is a pure
//! function of (key, ring, device health), so replays that serialize
//! device commands deterministically route deterministically.

use std::sync::atomic::{AtomicU64, Ordering};

use fdpcache_core::SharedController;
use fdpcache_nvme::{HealthConfig, HealthReport, HealthState};

use crate::concurrent::ConcurrentPool;
use crate::error::CacheError;
use crate::Key;

/// splitmix64 finalizer over a pre-mixed point id (same family as the
/// pool's shard router; ring points and key hashes share one metric
/// space).
fn ring_hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring: `vnodes` points per device on a `u64`
/// circle. Pure data — availability is passed into [`HashRing::route`]
/// as a predicate so the structure can be property-tested without
/// building devices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, device)` sorted by point.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds the ring for `devices` devices with `vnodes` points
    /// each. Device identity is positional and stable: point placement
    /// depends only on `(device index, vnode index)`, so growing the
    /// fleet appends points without moving existing ones.
    ///
    /// # Panics
    ///
    /// Panics on zero devices or zero vnodes (an empty ring routes
    /// nothing).
    pub fn new(devices: usize, vnodes: usize) -> Self {
        assert!(devices > 0, "a fleet needs at least one device");
        assert!(vnodes > 0, "a ring needs at least one point per device");
        // Points are hashed twice so the point domain is disjoint from
        // raw key space: a single round would place device d's vnode v
        // at ring_hash((d<<32)|v), and any key numerically equal to
        // that input (e.g. small contiguous keys vs device 0's vnodes)
        // would land exactly on the point — a systematic skew, not a
        // one-in-2^64 coincidence.
        let mut points: Vec<(u64, usize)> = (0..devices)
            .flat_map(|d| {
                (0..vnodes).map(move |v| (ring_hash(ring_hash(((d as u64) << 32) | v as u64)), d))
            })
            .collect();
        points.sort_unstable();
        HashRing { points }
    }

    /// The device `key` routes to when every device serves.
    pub fn preferred(&self, key: Key) -> usize {
        self.route(key, |_| true).expect("a fully-available ring always routes")
    }

    /// Walks clockwise from the key's hash to the first ring point
    /// whose device satisfies `serving`. Returns `None` only when no
    /// device serves.
    pub fn route(&self, key: Key, serving: impl Fn(usize) -> bool) -> Option<usize> {
        let h = ring_hash(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        for i in 0..n {
            let (_, d) = self.points[(start + i) % n];
            if serving(d) {
                return Some(d);
            }
        }
        None
    }
}

/// One member of the fleet: a controller and the cache pool serving
/// it.
#[derive(Debug)]
pub struct FleetDevice {
    /// Display name (`dev0`, `rack2-ssd7`, …).
    pub name: String,
    /// The device.
    pub ctrl: SharedController,
    /// The sharded cache pool on the device.
    pub pool: ConcurrentPool,
}

/// Per-device routing counters, snapshotted by
/// [`FleetRouter::device_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceRouteStats {
    /// Ops routed to the device.
    pub routed: u64,
    /// Ops that *preferred* this device but were routed elsewhere
    /// because it was classified `Failing`.
    pub failed_over: u64,
}

#[derive(Debug, Default)]
struct DeviceCounters {
    routed: AtomicU64,
    failed_over: AtomicU64,
}

/// Consistent-hash router over a fleet of devices, with health-keyed
/// failover and per-device stats. All methods take `&self`; routing
/// state is atomic, device pools synchronize internally.
#[derive(Debug)]
pub struct FleetRouter {
    devices: Vec<FleetDevice>,
    ring: HashRing,
    health: HealthConfig,
    counters: Vec<DeviceCounters>,
}

/// Default virtual nodes per device. Per-device share spread scales as
/// `1/√vnodes`; 512 points keep it a few percent at fleet sizes the
/// simulator runs (see the chi-square property test), and ring build
/// is still a one-time sort of `devices × 512` points.
pub const DEFAULT_VNODES: usize = 512;

impl FleetRouter {
    /// Builds a router over `devices` with `vnodes` ring points each,
    /// evicting devices from rotation while their cumulative health
    /// classifies `Failing` under `health`.
    ///
    /// # Errors
    ///
    /// [`CacheError::Config`] for an empty fleet or zero vnodes.
    pub fn new(
        devices: Vec<FleetDevice>,
        vnodes: usize,
        health: HealthConfig,
    ) -> Result<Self, CacheError> {
        if devices.is_empty() {
            return Err(CacheError::Config("a fleet needs at least one device".into()));
        }
        if vnodes == 0 {
            return Err(CacheError::Config("a ring needs at least one vnode per device".into()));
        }
        let ring = HashRing::new(devices.len(), vnodes);
        let counters = devices.iter().map(|_| DeviceCounters::default()).collect();
        Ok(FleetRouter { devices, ring, health, counters })
    }

    /// The device at `idx`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn device(&self, idx: usize) -> &FleetDevice {
        &self.devices[idx]
    }

    /// The device's cumulative health under the router's thresholds.
    pub fn health_of(&self, idx: usize) -> HealthReport {
        self.devices[idx].ctrl.health_report_with(&self.health)
    }

    /// Whether the device currently serves: not classified `Failing`.
    pub fn serving(&self, idx: usize) -> bool {
        self.health_of(idx).state != HealthState::Failing
    }

    /// Routes `key` to its serving device, recording per-device stats
    /// (a routed count on the target; a failover on the preferred
    /// device when it was skipped). Returns `None` when no device
    /// serves.
    pub fn route(&self, key: Key) -> Option<usize> {
        let preferred = self.ring.preferred(key);
        let chosen = self.ring.route(key, |d| self.serving(d))?;
        self.counters[chosen].routed.fetch_add(1, Ordering::Relaxed);
        if chosen != preferred {
            self.counters[preferred].failed_over.fetch_add(1, Ordering::Relaxed);
        }
        Some(chosen)
    }

    /// Snapshot of one device's routing counters.
    pub fn device_stats(&self, idx: usize) -> DeviceRouteStats {
        DeviceRouteStats {
            routed: self.counters[idx].routed.load(Ordering::Relaxed),
            failed_over: self.counters[idx].failed_over.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_every_key_and_remaps_minimally() {
        let ring = HashRing::new(4, DEFAULT_VNODES);
        let mut moved = 0u64;
        for key in 0..10_000u64 {
            let full = ring.preferred(key);
            assert!(full < 4);
            let degraded = ring.route(key, |d| d != 2).expect("three devices still serve");
            if full == 2 {
                assert_ne!(degraded, 2, "failed device must not be routed to");
                moved += 1;
            } else {
                assert_eq!(degraded, full, "keys off the failed device must not move");
            }
        }
        assert!(moved > 0, "some keys must have lived on the failed device");
    }

    #[test]
    fn ring_rejects_empty_configurations() {
        assert!(std::panic::catch_unwind(|| HashRing::new(0, 8)).is_err());
        assert!(std::panic::catch_unwind(|| HashRing::new(3, 0)).is_err());
    }

    #[test]
    fn route_returns_none_only_when_nothing_serves() {
        let ring = HashRing::new(3, 16);
        assert_eq!(ring.route(7, |_| false), None);
        for key in 0..100u64 {
            assert!(ring.route(key, |d| d == 1) == Some(1), "sole survivor takes every key");
        }
    }
}
