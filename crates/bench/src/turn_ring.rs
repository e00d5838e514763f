//! The deterministic turn ring the chaos and fleet gates schedule on:
//! stream position `p` executes only after every earlier position has
//! completed, whichever worker owns it, so a shared device sees
//! commands in exact stream order at any worker count.

use std::sync::atomic::{AtomicU64, Ordering};

/// Ring sentinel a panicking worker publishes so waiting owners bail
/// out instead of spinning forever on a turn that can never come; the
/// scope join then propagates the original panic.
const POISON: u64 = u64::MAX;

/// The next stream position allowed to execute.
#[derive(Debug)]
pub(crate) struct TurnRing {
    turn: AtomicU64,
}

/// Publishes [`POISON`] if its worker unwinds mid-ring.
pub(crate) struct PoisonOnPanic<'a>(&'a TurnRing);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.turn.store(POISON, Ordering::Release);
        }
    }
}

impl TurnRing {
    /// A ring whose first turn is position 0.
    pub(crate) fn new() -> Self {
        TurnRing { turn: AtomicU64::new(0) }
    }

    /// Guard every worker holds for as long as it takes turns.
    pub(crate) fn poison_on_panic(&self) -> PoisonOnPanic<'_> {
        PoisonOnPanic(self)
    }

    /// Waits until every position before `pos` has completed. Returns
    /// `false` if another worker panicked: the caller must stop.
    pub(crate) fn wait_for(&self, pos: u64) -> bool {
        let mut spins = 0u32;
        loop {
            match self.turn.load(Ordering::Acquire) {
                t if t == pos => return true,
                POISON => return false,
                _ => {
                    spins += 1;
                    if spins > 1_000 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Hands the turn to position `pos + 1`.
    pub(crate) fn done(&self, pos: u64) {
        self.turn.store(pos + 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn workers_taking_turns_observe_exact_stream_order() {
        const WORKERS: u64 = 4;
        const POSITIONS: u64 = 2_000;
        let ring = TurnRing::new();
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for widx in 0..WORKERS {
                let (ring, seen) = (&ring, &seen);
                scope.spawn(move || {
                    let _poison = ring.poison_on_panic();
                    // Uneven ownership: runs of positions per worker.
                    for pos in (0..POSITIONS).filter(|p| (p / 3) % WORKERS == widx) {
                        assert!(ring.wait_for(pos));
                        seen.lock().unwrap().push(pos);
                        ring.done(pos);
                    }
                });
            }
        });
        assert_eq!(seen.into_inner().unwrap(), (0..POSITIONS).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_owner_releases_every_waiter() {
        let ring = TurnRing::new();
        std::thread::scope(|scope| {
            // Positions 1..=3 can only run after position 0, whose
            // owner panics while holding the turn.
            let waiters: Vec<_> = (1..=3u64)
                .map(|pos| {
                    let ring = &ring;
                    scope.spawn(move || {
                        let _poison = ring.poison_on_panic();
                        ring.wait_for(pos)
                    })
                })
                .collect();
            let owner = scope.spawn(|| {
                let _poison = ring.poison_on_panic();
                assert!(ring.wait_for(0));
                panic!("owner dies holding the turn");
            });
            assert!(owner.join().is_err());
            for w in waiters {
                assert!(!w.join().expect("waiter must return, not hang or panic"));
            }
        });
    }
}
