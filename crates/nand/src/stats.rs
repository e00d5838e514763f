//! Operation counters for the NAND media.

fdpcache_metrics::counters! {
    /// Monotonic counters of media operations.
    ///
    /// `pages_programmed` here counts *every* program, whether initiated by a
    /// host write or a GC relocation — i.e. it is the numerator of DLWA
    /// ("Total NAND Writes" in the paper's Equation 1). The FTL tracks host
    /// writes separately.
    pub struct NandStats {
        /// Pages programmed (host + relocation).
        pub pages_programmed: u64,
        /// Pages read (host + relocation reads).
        pub pages_read: u64,
        /// Superblock erase operations.
        pub superblock_erases: u64,
    }
}
