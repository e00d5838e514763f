//! The deallocate range a dataset-management command carries.

/// A deallocate range (one entry of a DSM command).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeallocRange {
    /// Starting namespace-relative LBA.
    pub slba: u64,
    /// Number of logical blocks.
    pub nlb: u64,
}
