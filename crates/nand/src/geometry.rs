//! Physical geometry of the simulated NAND device.

/// Describes the physical organisation of the NAND media.
///
/// A *superblock* is one erase block from every plane of every die,
/// erased together — the paper's device uses superblock-sized reclaim
/// units ("If an SSD has 8 dies each with 2 planes and 2 erase blocks per
/// plane, the superblock will consist of 32 erase blocks", §3.2.1).
///
/// The number of superblocks equals `blocks_per_plane`; superblock `i` is
/// composed of block slot `i` of every plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Independent NAND channels. Only the superblock size depends on
    /// the topology; media state is tracked per superblock.
    pub channels: u32,
    /// Dies per channel.
    pub dies_per_channel: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Erase blocks per plane. This is also the superblock count.
    pub blocks_per_plane: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Page size in bytes (typically 4096 in this workspace so that one
    /// SOC bucket equals one page, matching the paper's configuration).
    pub page_size: u32,
}

impl Geometry {
    /// The scaled default device used by the experiment harness:
    /// 16 GiB physical capacity, 64 MiB superblocks, 4 KiB pages.
    ///
    /// The paper's PM9D3 is 1.88 TB with ~6 GB reclaim units; running
    /// multi-turnover experiments at that size is wall-clock prohibitive,
    /// so the harness scales capacity and RU size down by the same factor
    /// (~117x), preserving the ratios that drive DLWA (SOC share, OP
    /// share, RU count).
    pub fn scaled_default() -> Self {
        Geometry {
            channels: 8,
            dies_per_channel: 2,
            planes_per_die: 2,
            // 16 GiB / 64 MiB superblocks = 256 superblocks.
            blocks_per_plane: 256,
            // 64 MiB / 32 blocks / 4 KiB = 512 pages per block.
            pages_per_block: 512,
            page_size: 4096,
        }
    }

    /// A tiny geometry for unit tests: 16 superblocks of 8 blocks x 16
    /// pages (512 KiB superblocks, 8 MiB device).
    pub fn tiny_test() -> Self {
        Geometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 16,
            pages_per_block: 16,
            page_size: 4096,
        }
    }

    /// Builds a geometry with the requested total capacity and superblock
    /// size, keeping the default die/plane topology.
    ///
    /// `capacity_bytes` is rounded down to a whole number of superblocks.
    /// Returns `None` if the arguments cannot form at least one superblock
    /// or are not page-aligned.
    pub fn with_capacity(
        capacity_bytes: u64,
        superblock_bytes: u64,
        page_size: u32,
    ) -> Option<Self> {
        let channels = 8u32;
        let dies_per_channel = 2u32;
        let planes_per_die = 2u32;
        let blocks_per_sb = (channels * dies_per_channel * planes_per_die) as u64;
        if superblock_bytes == 0
            || page_size == 0
            || !superblock_bytes.is_multiple_of(blocks_per_sb * page_size as u64)
        {
            return None;
        }
        let pages_per_block = (superblock_bytes / blocks_per_sb / page_size as u64) as u32;
        let sb_count = capacity_bytes / superblock_bytes;
        if sb_count == 0 || pages_per_block == 0 {
            return None;
        }
        Some(Geometry {
            channels,
            dies_per_channel,
            planes_per_die,
            blocks_per_plane: sb_count as u32,
            pages_per_block,
            page_size,
        })
    }

    /// Total dies in the device.
    pub fn dies(&self) -> u32 {
        self.channels * self.dies_per_channel
    }

    /// Total planes in the device (= erase blocks per superblock).
    pub fn planes(&self) -> u32 {
        self.dies() * self.planes_per_die
    }

    /// Erase blocks per superblock (one per plane).
    pub fn blocks_per_superblock(&self) -> u32 {
        self.planes()
    }

    /// Number of superblocks in the device.
    pub fn superblocks(&self) -> u32 {
        self.blocks_per_plane
    }

    /// Total erase blocks in the device.
    pub fn total_blocks(&self) -> u64 {
        self.planes() as u64 * self.blocks_per_plane as u64
    }

    /// Pages per superblock.
    pub fn pages_per_superblock(&self) -> u64 {
        self.blocks_per_superblock() as u64 * self.pages_per_block as u64
    }

    /// Superblock size in bytes.
    pub fn superblock_bytes(&self) -> u64 {
        self.pages_per_superblock() * self.page_size as u64
    }

    /// Total device capacity in bytes (raw physical capacity).
    pub fn capacity_bytes(&self) -> u64 {
        self.superblock_bytes() * self.superblocks() as u64
    }

    /// Total pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.pages_per_superblock() * self.superblocks() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_default_is_16gib_with_64mib_superblocks() {
        let g = Geometry::scaled_default();
        assert_eq!(g.capacity_bytes(), 16 << 30);
        assert_eq!(g.superblock_bytes(), 64 << 20);
        assert_eq!(g.superblocks(), 256);
        assert_eq!(g.blocks_per_superblock(), 32);
    }

    #[test]
    fn tiny_test_is_consistent() {
        let g = Geometry::tiny_test();
        assert_eq!(g.blocks_per_superblock(), 8);
        assert_eq!(g.pages_per_superblock(), 8 * 16);
        assert_eq!(g.capacity_bytes(), g.total_pages() * 4096);
    }

    #[test]
    fn with_capacity_round_trips() {
        let g = Geometry::with_capacity(1 << 30, 32 << 20, 4096).unwrap();
        assert_eq!(g.capacity_bytes(), 1 << 30);
        assert_eq!(g.superblock_bytes(), 32 << 20);
    }

    #[test]
    fn with_capacity_rejects_degenerate_inputs() {
        assert!(Geometry::with_capacity(0, 32 << 20, 4096).is_none());
        assert!(Geometry::with_capacity(1 << 30, 0, 4096).is_none());
        // Superblock smaller than one page per block.
        assert!(Geometry::with_capacity(1 << 30, 4096, 4096).is_none());
        // Unaligned superblock size.
        assert!(Geometry::with_capacity(1 << 30, (32 << 20) + 1, 4096).is_none());
    }

    #[test]
    fn example_from_paper_section_3_2_1() {
        // "8 dies each with 2 planes and 2 erase blocks per plane ⇒ the
        // superblock consists of 32 erase blocks" — but note: with 2
        // blocks per plane there are 2 superblocks of 16 blocks each in
        // our model (one block slot per plane per superblock). The paper
        // counts both block slots; either way the planes product is what
        // matters. Verify planes math.
        let g = Geometry {
            channels: 4,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 2,
            pages_per_block: 4,
            page_size: 4096,
        };
        assert_eq!(g.dies(), 8);
        assert_eq!(g.planes(), 16);
        assert_eq!(g.superblocks(), 2);
        assert_eq!(g.total_blocks(), 32);
    }
}
