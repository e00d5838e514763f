//! Namespaces: LBA partitions with placement-handle lists.

use fdpcache_ftl::RuhId;

/// Namespace identifier (NSID). Valid NSIDs start at 1, as in NVMe.
pub type NamespaceId = u32;

/// A namespace: a contiguous slice of the device's exported LBA space
/// plus the list of reclaim unit handles it may address.
///
/// Per the FDP spec (paper §3.2.2), the host selects a list of RUHs at
/// namespace creation; a write's `DSPEC` is an *index into that list*
/// (the placement identifier), not a raw RUH number. Writes without a
/// directive use entry 0, the namespace's default handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Namespace {
    /// The namespace ID.
    pub nsid: NamespaceId,
    /// First device LBA of this namespace.
    pub start_lba: u64,
    /// Number of LBAs.
    pub lba_count: u64,
    /// Placement handle list: maps placement identifiers (indices) to
    /// device RUHs. Never empty — entry 0 is the default handle.
    pub ruh_list: Vec<RuhId>,
}

impl Namespace {
    /// Translates a namespace-relative range, or `None` if any part is
    /// out of range.
    pub fn translate_range(&self, lba: u64, count: u64) -> Option<(u64, u64)> {
        let end = lba.checked_add(count)?;
        if end <= self.lba_count {
            Some((self.start_lba + lba, count))
        } else {
            None
        }
    }

    /// Resolves a placement identifier (DSPEC) to a device RUH.
    pub fn resolve_pid(&self, pid: u16) -> Option<RuhId> {
        self.ruh_list.get(pid as usize).copied()
    }

    /// The namespace's default RUH (placement identifier 0).
    pub fn default_ruh(&self) -> RuhId {
        self.ruh_list.first().copied().unwrap_or(fdpcache_ftl::DEFAULT_RUH)
    }

    /// Capacity in bytes given the device LBA size.
    pub fn capacity_bytes(&self, lba_bytes: u32) -> u64 {
        self.lba_count * lba_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns() -> Namespace {
        Namespace { nsid: 1, start_lba: 100, lba_count: 50, ruh_list: vec![0, 3, 5] }
    }

    #[test]
    fn translate_range_checks_end() {
        let n = ns();
        assert_eq!(n.translate_range(10, 40), Some((110, 40)));
        assert_eq!(n.translate_range(10, 41), None);
        assert_eq!(n.translate_range(u64::MAX, 2), None);
    }

    #[test]
    fn pid_resolution_indexes_handle_list() {
        let n = ns();
        assert_eq!(n.resolve_pid(0), Some(0));
        assert_eq!(n.resolve_pid(2), Some(5));
        assert_eq!(n.resolve_pid(3), None);
        assert_eq!(n.default_ruh(), 0);
    }

    #[test]
    fn capacity_in_bytes() {
        assert_eq!(ns().capacity_bytes(4096), 50 * 4096);
    }
}
