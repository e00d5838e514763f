//! Operation counters for the NAND media.

/// Monotonic counters of media operations.
///
/// `pages_programmed` here counts *every* program, whether initiated by a
/// host write or a GC relocation — i.e. it is the numerator of DLWA
/// ("Total NAND Writes" in the paper's Equation 1). The FTL tracks host
/// writes separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NandStats {
    /// Pages programmed (host + relocation).
    pub pages_programmed: u64,
    /// Pages read (host + relocation reads).
    pub pages_read: u64,
    /// Superblock erase operations.
    pub superblock_erases: u64,
}

impl NandStats {
    /// Per-field difference `self - earlier`, saturating at zero.
    pub fn delta(&self, earlier: &NandStats) -> NandStats {
        NandStats {
            pages_programmed: self.pages_programmed.saturating_sub(earlier.pages_programmed),
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            superblock_erases: self.superblock_erases.saturating_sub(earlier.superblock_erases),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_saturates() {
        let a = NandStats { pages_programmed: 5, ..Default::default() };
        let b = NandStats { pages_programmed: 9, ..Default::default() };
        assert_eq!(b.delta(&a).pages_programmed, 4);
        assert_eq!(a.delta(&b).pages_programmed, 0);
    }
}
