//! Physical page addressing.

/// A physical page address: a superblock index plus the page offset
/// inside that superblock.
///
/// The FTL addresses media exclusively through `Ppa`s; a superblock's
/// pages are programmed in offset order (see [`crate::device`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppa {
    /// Superblock (reclaim-unit) index.
    pub superblock: u32,
    /// Page offset within the superblock, `0..pages_per_superblock`.
    pub page: u32,
}

impl Ppa {
    /// Creates a new physical page address.
    pub fn new(superblock: u32, page: u32) -> Self {
        Ppa { superblock, page }
    }

    /// Packs the address into a single `u64` (superblock in the high 32
    /// bits). Used by the FTL's L2P table to store one word per LBA.
    pub fn pack(self) -> u64 {
        ((self.superblock as u64) << 32) | self.page as u64
    }

    /// Unpacks an address produced by [`Ppa::pack`].
    pub fn unpack(raw: u64) -> Self {
        Ppa { superblock: (raw >> 32) as u32, page: raw as u32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips() {
        for (sb, page) in [(0u32, 0u32), (1, 2), (u32::MAX, u32::MAX), (7, 123_456)] {
            let p = Ppa::new(sb, page);
            assert_eq!(Ppa::unpack(p.pack()), p);
        }
    }

    #[test]
    fn pack_orders_by_superblock_then_page() {
        let a = Ppa::new(1, 999).pack();
        let b = Ppa::new(2, 0).pack();
        assert!(a < b);
    }
}
