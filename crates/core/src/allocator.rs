//! The placement handle allocator (paper §5.3, Figure 4 ①).

use fdpcache_nvme::{ControllerIdentity, Namespace};

use crate::handle::PlacementHandle;
use crate::policy::PlacementPolicy;

/// Allocates placement handles to I/O consumers at initialization.
///
/// Discovery is automatic: the allocator inspects the controller
/// identity and the namespace's placement-handle list. If FDP is
/// unsupported or disabled, every consumer receives the default handle
/// ("no placement preference") and the rest of the stack runs unchanged —
/// the paper's backward-compatibility requirement.
pub struct PlacementHandleAllocator {
    available: Vec<u16>,
    policy: Box<dyn PlacementPolicy>,
    allocations: Vec<(String, PlacementHandle)>,
    /// Picks the policy still owes the members after this one
    /// ([`Self::discover_member`]); spent before the metadata pick.
    later_picks: usize,
}

impl std::fmt::Debug for PlacementHandleAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementHandleAllocator")
            .field("available", &self.available)
            .field("allocations", &self.allocations)
            .finish()
    }
}

impl PlacementHandleAllocator {
    /// Discovers placement capability from the device identity and the
    /// namespace the consumer stack will use.
    ///
    /// The usable placement identifiers are the indices of the
    /// namespace's RUH list — but only when the controller reports FDP
    /// enabled. A single-entry list yields no isolation benefit, so it is
    /// still exposed (index 0) to keep semantics uniform.
    pub fn discover(
        identity: &ControllerIdentity,
        namespace: &Namespace,
        policy: Box<dyn PlacementPolicy>,
    ) -> Self {
        let available = if identity.fdp_enabled && identity.usable_handles() > 0 {
            (0..namespace.ruh_list.len() as u16).collect()
        } else {
            Vec::new()
        };
        PlacementHandleAllocator { available, policy, allocations: Vec::new(), later_picks: 0 }
    }

    /// Discovery for member `index` of `count` consumer groups that
    /// were each handed the same placement-identifier list and each
    /// make `picks` data allocations — the engine pairs of a pool, one
    /// namespace per pair over one RUH list. The policy's picks are
    /// replayed in member order: the earlier members' before this
    /// member's own, the later members' before its metadata pick
    /// ([`Self::allocate_metadata`]). With a stateful policy every
    /// member's data consumers therefore get identifiers of their own
    /// and all members agree on the metadata identifier — the first one
    /// the data consumers leave free.
    pub fn discover_member(
        identity: &ControllerIdentity,
        namespace: &Namespace,
        policy: Box<dyn PlacementPolicy>,
        index: usize,
        count: usize,
        picks: usize,
    ) -> Self {
        assert!(index < count, "member {index} of {count}");
        let mut allocator = Self::discover(identity, namespace, policy);
        allocator.skip(index * picks);
        allocator.later_picks = (count - 1 - index) * picks;
        allocator
    }

    /// Spends `picks` policy picks on consumers that live elsewhere.
    fn skip(&mut self, picks: usize) {
        for _ in 0..picks {
            let _ = self.policy.pick("sibling", &self.available);
        }
    }

    /// An allocator for devices without placement support; every
    /// allocation returns the default handle.
    pub fn no_placement() -> Self {
        PlacementHandleAllocator {
            available: Vec::new(),
            policy: Box::new(crate::policy::RoundRobinPolicy::new()),
            allocations: Vec::new(),
            later_picks: 0,
        }
    }

    /// Whether placement is available at all.
    pub fn placement_available(&self) -> bool {
        !self.available.is_empty()
    }

    /// Allocates a handle for the named data consumer (e.g. `"soc-0"`,
    /// `"loc-0"`); the default handle once the policy has none left.
    pub fn allocate(&mut self, consumer: &str) -> PlacementHandle {
        self.pick(consumer, PlacementHandle::DEFAULT)
    }

    /// Allocates the namespace's metadata handle, after its data
    /// consumers took theirs: the policy's next pick once every member
    /// sharing the identifier list has had its own, shared by whatever
    /// writes short-lived metadata there. When the policy has none left
    /// the metadata writer gets `fallback` — its owner's data handle —
    /// and never the default handle: on an FDP device "no preference"
    /// resolves to the namespace's first RUH, which is some data
    /// stream's reclaim unit.
    pub fn allocate_metadata(&mut self, fallback: PlacementHandle) -> PlacementHandle {
        let later_picks = std::mem::take(&mut self.later_picks);
        self.skip(later_picks);
        self.pick("meta", fallback)
    }

    /// The policy's next pick for `consumer`, or `fallback` when it has
    /// none; recorded either way.
    fn pick(&mut self, consumer: &str, fallback: PlacementHandle) -> PlacementHandle {
        let handle = self
            .policy
            .pick(consumer, &self.available)
            .map_or(fallback, PlacementHandle::with_dspec);
        self.allocations.push((consumer.to_string(), handle));
        handle
    }

    /// All allocations made so far, in order (for diagnostics and tests).
    pub fn allocations(&self) -> &[(String, PlacementHandle)] {
        &self.allocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PlacementPolicy, RoundRobinPolicy};
    use fdpcache_ftl::RuhType;
    use fdpcache_nvme::FdpConfigDescriptor;

    fn identity(enabled: bool) -> ControllerIdentity {
        ControllerIdentity {
            model: "sim".into(),
            capacity_bytes: 1 << 30,
            lba_bytes: 4096,
            fdp_supported: true,
            fdp_enabled: enabled,
            fdp_config: Some(FdpConfigDescriptor {
                nruh: 8,
                nrg: 1,
                ruh_type: RuhType::InitiallyIsolated,
                ru_bytes: 64 << 20,
            }),
        }
    }

    /// Every consumer on the first identifier: all streams intermixed.
    struct FirstHandle;

    impl PlacementPolicy for FirstHandle {
        fn pick(&mut self, _consumer: &str, available: &[u16]) -> Option<u16> {
            available.first().copied()
        }
    }

    fn ns(handles: usize) -> Namespace {
        Namespace { nsid: 1, start_lba: 0, lba_count: 1024, ruh_list: (0..handles as u8).collect() }
    }

    #[test]
    fn discovery_with_fdp_exposes_namespace_pids() {
        let mut a = PlacementHandleAllocator::discover(
            &identity(true),
            &ns(3),
            Box::new(RoundRobinPolicy::new()),
        );
        assert!(a.placement_available());
        let soc = a.allocate("soc-0");
        let loc = a.allocate("loc-0");
        assert_ne!(soc, loc);
        assert!(!soc.is_default());
        assert!(!loc.is_default());
        // Exhaustion falls back to default.
        a.allocate("x");
        let extra = a.allocate("y");
        assert!(extra.is_default());
    }

    #[test]
    fn discovery_without_fdp_gives_default_handles() {
        let mut a = PlacementHandleAllocator::discover(
            &identity(false),
            &ns(3),
            Box::new(RoundRobinPolicy::new()),
        );
        assert!(!a.placement_available());
        assert!(a.allocate("soc-0").is_default());
        assert!(a.allocate("loc-0").is_default());
    }

    #[test]
    fn single_handle_policy_intermixes() {
        let mut a =
            PlacementHandleAllocator::discover(&identity(true), &ns(4), Box::new(FirstHandle));
        let soc = a.allocate("soc-0");
        let loc = a.allocate("loc-0");
        assert_eq!(soc, loc, "single-handle policy must map all consumers together");
    }

    #[test]
    fn metadata_takes_the_first_id_data_leaves_free_or_falls_back() {
        let rr = || Box::new(RoundRobinPolicy::new());
        let mut a = PlacementHandleAllocator::discover(&identity(true), &ns(3), rr());
        let (_soc, loc) = (a.allocate("soc"), a.allocate("loc"));
        assert_eq!(a.allocate_metadata(loc), PlacementHandle::with_dspec(2));
        // Two ids, both taken by data: the fallback, never DEFAULT.
        let mut a = PlacementHandleAllocator::discover(&identity(true), &ns(2), rr());
        let (_soc, loc) = (a.allocate("soc"), a.allocate("loc"));
        assert_eq!(a.allocate_metadata(loc), loc);
        // A policy that intermixes everything intermixes metadata too.
        let mut a =
            PlacementHandleAllocator::discover(&identity(true), &ns(4), Box::new(FirstHandle));
        let loc = a.allocate("loc");
        assert_eq!(a.allocate_metadata(loc), loc);
        // FDP off: everything is the default handle.
        let mut a = PlacementHandleAllocator::discover(&identity(false), &ns(3), rr());
        let loc = a.allocate("loc");
        assert!(a.allocate_metadata(loc).is_default());
    }

    #[test]
    fn members_get_their_own_data_ids_and_one_shared_metadata_id() {
        let handles = |count: usize, ids: usize| -> Vec<[PlacementHandle; 3]> {
            (0..count)
                .map(|index| {
                    let mut a = PlacementHandleAllocator::discover_member(
                        &identity(true),
                        &ns(ids),
                        Box::new(RoundRobinPolicy::new()),
                        index,
                        count,
                        2,
                    );
                    let (soc, loc) = (a.allocate("soc"), a.allocate("loc"));
                    [soc, loc, a.allocate_metadata(loc)]
                })
                .collect()
        };
        // 3 pairs on 8 ids: data on 0..6, every footer on 6.
        for (i, [soc, loc, meta]) in handles(3, 8).into_iter().enumerate() {
            assert_eq!(soc, PlacementHandle::with_dspec(2 * i as u16));
            assert_eq!(loc, PlacementHandle::with_dspec(2 * i as u16 + 1));
            assert_eq!(meta, PlacementHandle::with_dspec(6));
        }
        // 4 pairs on 8 ids leave none free: each LOC keeps its footers.
        for [_, loc, meta] in handles(4, 8) {
            assert!(!loc.is_default());
            assert_eq!(meta, loc);
        }
    }

    #[test]
    fn allocations_are_recorded() {
        let mut a = PlacementHandleAllocator::no_placement();
        a.allocate("soc-0");
        a.allocate("loc-0");
        let names: Vec<_> = a.allocations().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["soc-0", "loc-0"]);
    }
}
