//! The flash engines' one retry policy (DESIGN.md §6): how often a
//! SOC or LOC device command is issued again after an injected fault.
//! Each site keeps its own counters, through `retried`, and its own
//! fallback for a fault its [`Retry`] budget could not outlast.

use fdpcache_core::IoManager;
use fdpcache_nvme::NvmeError;

use crate::error::CacheError;

/// A command's attempt budget under injected faults.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Retry {
    /// A persisting write — bucket page, region seal, footer: 4 attempts.
    Write,
    /// The read-modify-write read, a recovery read, a TRIM: 2 attempts.
    Once,
    /// A lookup read: a second attempt only after [`NvmeError::Busy`].
    Busy,
}

impl Retry {
    /// Whether a command whose `attempt`-th issue (from 1) failed with
    /// `fault` is issued again.
    fn again(self, attempt: u32, fault: &NvmeError) -> bool {
        match self {
            Retry::Write => attempt < 4,
            Retry::Once => attempt < 2,
            Retry::Busy => attempt < 2 && fault.is_busy(),
        }
    }
}

/// Issues `command` until it succeeds or `policy` gives up on its
/// injected faults, calling `retried` before each further issue.
/// `Ok(Err(fault))` is the fault the policy could not outlast.
///
/// # Errors
///
/// Any error that is not an injected fault, a kill included, at once.
pub(crate) fn issue<T>(
    policy: Retry,
    mut retried: impl FnMut(),
    mut command: impl FnMut() -> Result<T, NvmeError>,
) -> Result<Result<T, NvmeError>, CacheError> {
    let mut attempt = 1;
    loop {
        match command() {
            Err(e) if !e.is_injected_fault() => return Err(e.into()),
            Err(fault) if policy.again(attempt, &fault) => {
                attempt += 1;
                retried();
            }
            done => return Ok(done),
        }
    }
}

/// A recovery read of `buf.len()` bytes at `start` under
/// [`Retry::Once`], counting its first fault in `read_faults`.
/// `Ok(false)`: the blocks stay unreadable or were never written.
///
/// # Errors
///
/// Non-injected I/O failures other than a never-written block.
pub(crate) fn recovery_read(
    io: &mut IoManager,
    start: u64,
    buf: &mut [u8],
    read_faults: &mut u64,
) -> Result<bool, CacheError> {
    match issue(Retry::Once, || *read_faults += 1, || io.read(start, buf)) {
        Ok(res) => Ok(res.is_ok()),
        Err(CacheError::Io(NvmeError::Unwritten(_))) => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdpcache_nvme::FaultKind;

    /// One scripted completion of a command.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Outcome {
        Ok,
        MediaError,
        Busy,
        Killed,
        Unwritten,
    }

    const OUTCOMES: [Outcome; 5] =
        [Outcome::Ok, Outcome::MediaError, Outcome::Busy, Outcome::Killed, Outcome::Unwritten];

    impl Outcome {
        fn result(self) -> Result<(), NvmeError> {
            match self {
                Outcome::Ok => Ok(()),
                Outcome::MediaError => {
                    Err(NvmeError::MediaError { lba: 7, kind: FaultKind::ReadError })
                }
                Outcome::Busy => Err(NvmeError::Busy { penalty_ns: 1 }),
                Outcome::Killed => Err(NvmeError::Killed { lba: 7 }),
                Outcome::Unwritten => Err(NvmeError::Unwritten(7)),
            }
        }
    }

    /// How an [`issue`] call ended.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Class {
        /// `Ok(Ok(_))`: the command succeeded.
        Done,
        /// `Ok(Err(_))`: an injected fault outlasted the policy.
        GaveUp,
        /// `Err(_)`: a non-injected error, returned as issued.
        Error,
    }

    /// The policy as DESIGN.md §6 states it, one row per policy:
    /// attempts in all, and whether a media error earns another one
    /// (a busy rejection always does, within the attempts).
    const POLICY: [(Retry, usize, bool); 3] =
        [(Retry::Write, 4, true), (Retry::Once, 2, true), (Retry::Busy, 2, false)];

    /// What the table says `script` must produce: `(issues, retried,
    /// class)`. The device answers `Ok` past the end of the script.
    fn expected(attempts: usize, retry_media: bool, script: &[Outcome]) -> (usize, usize, Class) {
        for issued in 1..=attempts {
            let class = match script.get(issued - 1).copied().unwrap_or(Outcome::Ok) {
                Outcome::Ok => Class::Done,
                Outcome::Killed | Outcome::Unwritten => Class::Error,
                Outcome::MediaError if !retry_media => Class::GaveUp,
                Outcome::MediaError | Outcome::Busy if issued == attempts => Class::GaveUp,
                Outcome::MediaError | Outcome::Busy => continue,
            };
            return (issued, issued - 1, class);
        }
        unreachable!("the last attempt always ends the call")
    }

    /// Every script of length 0..=4 over [`OUTCOMES`], in order.
    fn scripts() -> Vec<Vec<Outcome>> {
        let mut all = vec![Vec::new()];
        let mut last = vec![Vec::new()];
        for _ in 0..4 {
            last = last
                .iter()
                .flat_map(|s: &Vec<Outcome>| {
                    OUTCOMES.iter().map(move |&o| s.iter().copied().chain([o]).collect())
                })
                .collect();
            all.extend(last.iter().cloned());
        }
        all
    }

    #[test]
    fn every_policy_matches_its_table_on_every_short_script() {
        let scripts = scripts();
        assert_eq!(scripts.len(), 1 + 5 + 25 + 125 + 625);
        for (policy, attempts, retry_media) in POLICY {
            for script in &scripts {
                let (mut issued, mut retried) = (0, 0);
                let got = issue(
                    policy,
                    || retried += 1,
                    || {
                        issued += 1;
                        script.get(issued - 1).copied().unwrap_or(Outcome::Ok).result()
                    },
                );
                let class = match &got {
                    Ok(Ok(())) => Class::Done,
                    Ok(Err(fault)) => {
                        assert!(fault.is_injected_fault(), "{policy:?} {script:?}");
                        Class::GaveUp
                    }
                    Err(e) => {
                        assert!(!e.is_injected_fault(), "{policy:?} {script:?}");
                        Class::Error
                    }
                };
                assert_eq!(
                    (issued, retried, class),
                    expected(attempts, retry_media, script),
                    "{policy:?} on {script:?}"
                );
                // A kill ends the call on the issue that returned it.
                if let Some(at) = script.iter().position(|&o| o == Outcome::Killed) {
                    if issued > at {
                        assert_eq!(issued, at + 1, "{policy:?} retried a kill: {script:?}");
                        assert!(got.is_err_and(|e| e.is_kill()), "{policy:?} {script:?}");
                    }
                }
            }
        }
    }
}
