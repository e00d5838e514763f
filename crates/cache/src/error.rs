//! Cache error type.

use fdpcache_nvme::NvmeError;

/// Errors surfaced by the hybrid cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// Configuration rejected at construction.
    Config(String),
    /// An object exceeds what any engine can store (larger than a LOC
    /// region).
    ObjectTooLarge {
        /// Size of the offending object.
        size: usize,
        /// Maximum storable size.
        max: usize,
    },
    /// A device I/O failed.
    Io(NvmeError),
    /// A runtime device-failure state the recovery paths could not
    /// resolve (e.g. objects rescued from a failed region seal whose
    /// requeue also failed persistently). Distinct from `Config`:
    /// nothing about the setup was wrong, the device gave out.
    Unrecoverable(String),
}

impl From<NvmeError> for CacheError {
    fn from(e: NvmeError) -> Self {
        CacheError::Io(e)
    }
}

impl CacheError {
    /// Whether the error is a device fault injected by the fault plan
    /// (media error / busy rejection) — the class the cache's recovery
    /// paths retry, requeue or repair rather than propagate.
    pub fn is_injected_fault(&self) -> bool {
        matches!(self, CacheError::Io(e) if e.is_injected_fault())
    }

    /// Whether a scripted kill point fired beneath this operation: the
    /// simulated process is dead and the only legal next step is to
    /// drop every in-memory structure and run recovery. No cache-level
    /// retry/repair path handles this (it is deliberately **not** an
    /// injected fault; see [`NvmeError::is_kill`]).
    pub fn is_kill(&self) -> bool {
        matches!(self, CacheError::Io(e) if e.is_kill())
    }
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Config(msg) => write!(f, "configuration: {msg}"),
            CacheError::ObjectTooLarge { size, max } => {
                write!(f, "object of {size} bytes exceeds maximum {max}")
            }
            CacheError::Io(e) => write!(f, "device I/O: {e}"),
            CacheError::Unrecoverable(msg) => write!(f, "unrecoverable device failure: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CacheError::Config("x".into()).to_string().contains('x'));
        let e = CacheError::ObjectTooLarge { size: 10, max: 5 };
        assert!(e.to_string().contains("10"));
    }
}
