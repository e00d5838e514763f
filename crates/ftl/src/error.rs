//! Error type for FTL operations.

use fdpcache_nand::NandError;

use crate::{Lba, RuhId};

/// Errors surfaced by the FTL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtlError {
    /// The LBA is beyond the exported capacity.
    LbaOutOfRange(Lba),
    /// The placement identifier references a RUH the device does not
    /// expose. Real FDP devices complete such writes with an error status
    /// and log an event; we surface the error directly.
    InvalidRuh(RuhId),
    /// The placement identifier references a reclaim group the device
    /// does not expose.
    InvalidRg(u16),
    /// Reading an LBA that has never been written (or was deallocated).
    Unmapped(Lba),
    /// No free reclaim unit could be produced even after garbage
    /// collection. Indicates the device is pathologically full — with
    /// correct OP sizing this cannot happen.
    OutOfSpace,
    /// An underlying media operation failed; always a simulator-internal
    /// invariant violation if it escapes.
    Nand(NandError),
}

impl From<NandError> for FtlError {
    fn from(e: NandError) -> Self {
        FtlError::Nand(e)
    }
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::LbaOutOfRange(lba) => write!(f, "LBA {lba} out of exported range"),
            FtlError::InvalidRuh(ruh) => {
                write!(f, "placement identifier references unknown RUH {ruh}")
            }
            FtlError::InvalidRg(rg) => {
                write!(f, "placement identifier references unknown reclaim group {rg}")
            }
            FtlError::Unmapped(lba) => write!(f, "LBA {lba} is unmapped"),
            FtlError::OutOfSpace => write!(f, "no free reclaim units available after GC"),
            FtlError::Nand(e) => write!(f, "NAND error: {e}"),
        }
    }
}

impl std::error::Error for FtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FtlError::Nand(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nand_errors_convert() {
        let e: FtlError = NandError::SuperblockOutOfRange(9).into();
        assert!(matches!(e, FtlError::Nand(_)));
        assert!(e.to_string().contains("NAND"));
    }

    #[test]
    fn display_mentions_lba() {
        assert!(FtlError::LbaOutOfRange(123).to_string().contains("123"));
        assert!(FtlError::Unmapped(7).to_string().contains('7'));
    }
}
