//! Error type for NAND media operations.

use crate::page::Ppa;

/// Errors returned by the NAND media state machine.
///
/// Each variant corresponds to an operation that real NAND silicon either
/// physically cannot perform or that would corrupt data if the controller
/// issued it. The FTL above must never trigger these; surfacing them as
/// errors (rather than panicking) lets property tests drive the media with
/// arbitrary operation sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NandError {
    /// The physical page address does not exist in this geometry.
    OutOfRange(Ppa),
    /// A superblock index does not exist in this geometry.
    SuperblockOutOfRange(u32),
    /// Attempted to program a page other than the superblock's write
    /// pointer. NAND requires strictly sequential page programming.
    ProgramOutOfOrder {
        /// The page that was requested.
        requested: Ppa,
        /// The next in-order page the superblock expected.
        expected_page: u32,
    },
    /// Attempted to invalidate a page that holds no valid data: one at or
    /// past the write pointer, in a superblock with no valid pages, or
    /// (detected by the FTL's reverse map) one already invalidated.
    InvalidateNonValidPage(Ppa),
    /// Attempted to read a free page (at or past the write pointer).
    ReadFreePage(Ppa),
    /// The superblock exceeded its rated P/E cycles and is now bad.
    BlockWornOut {
        /// Superblock containing the worn block.
        superblock: u32,
        /// P/E cycles consumed.
        pe_cycles: u32,
    },
    /// Attempted to erase a superblock that still contains `Valid` pages.
    /// The media itself would allow this (losing data); the simulator
    /// treats it as a controller bug unless `force` is used.
    EraseWithValidPages {
        /// The superblock requested for erase.
        superblock: u32,
        /// Number of still-valid pages in it.
        valid_pages: u64,
    },
}

impl std::fmt::Display for NandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NandError::OutOfRange(ppa) => write!(f, "physical page {ppa:?} out of range"),
            NandError::SuperblockOutOfRange(sb) => write!(f, "superblock {sb} out of range"),
            NandError::ProgramOutOfOrder { requested, expected_page } => write!(
                f,
                "out-of-order program to {requested:?}; superblock expects page {expected_page}"
            ),
            NandError::InvalidateNonValidPage(ppa) => {
                write!(f, "invalidate issued to non-valid page {ppa:?}")
            }
            NandError::ReadFreePage(ppa) => write!(f, "read issued to free page {ppa:?}"),
            NandError::BlockWornOut { superblock, pe_cycles } => {
                write!(f, "block in superblock {superblock} worn out after {pe_cycles} P/E cycles")
            }
            NandError::EraseWithValidPages { superblock, valid_pages } => write!(
                f,
                "erase of superblock {superblock} would destroy {valid_pages} valid pages"
            ),
        }
    }
}

impl std::error::Error for NandError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NandError::ProgramOutOfOrder {
            requested: Ppa { superblock: 3, page: 17 },
            expected_page: 12,
        };
        let s = e.to_string();
        assert!(s.contains("out-of-order"));
        assert!(s.contains("12"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = NandError::SuperblockOutOfRange(5);
        let b = NandError::SuperblockOutOfRange(5);
        assert_eq!(a, b);
    }
}
