//! The deterministic turn ring the chaos gate schedules on:
//! stream position `p` executes only after every earlier position has
//! completed, whichever worker owns it, so a shared device sees
//! commands in exact stream order at any worker count.
//!
//! The free-running partitioned pool driver
//! (`fdpcache_workloads::run_pool_round`) keeps per-shard *counters*
//! invariant but not the per-shard clock frontier: the shared FTL charges GC and reclaim-unit switches to
//! whichever shard's command trips them, which depends on thread
//! interleaving. The chaos gate pins breaker transitions to exact
//! virtual times across reruns and worker counts, so it schedules
//! deterministically and measures no wall-clock scaling.

use std::sync::atomic::{AtomicU64, Ordering};

/// Ring sentinel a panicking worker publishes so waiting owners bail
/// out instead of spinning forever on a turn that can never come; the
/// scope join then propagates the original panic.
const POISON: u64 = u64::MAX;

/// Runs `items` on `workers` threads in slice order: item `p` runs on
/// worker `owner(item) % workers`, and only once items `0..p` have run.
///
/// # Panics
///
/// Propagates a worker's panic.
pub(crate) fn run_in_order<T: Sync>(
    items: &[T],
    workers: usize,
    owner: impl Fn(&T) -> usize + Sync,
    step: impl Fn(&T) + Sync,
) {
    let ring = TurnRing::new();
    std::thread::scope(|scope| {
        for widx in 0..workers {
            let (ring, owner, step) = (&ring, &owner, &step);
            scope.spawn(move || {
                let _poison = ring.poison_on_panic();
                for (pos, item) in (0u64..).zip(items) {
                    if owner(item) % workers != widx {
                        continue;
                    }
                    if !ring.wait_for(pos) {
                        break;
                    }
                    step(item);
                    ring.done(pos);
                }
            });
        }
    });
}

/// The next stream position allowed to execute.
#[derive(Debug)]
struct TurnRing {
    turn: AtomicU64,
}

/// Publishes [`POISON`] if its worker unwinds mid-ring.
struct PoisonOnPanic<'a>(&'a TurnRing);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.turn.store(POISON, Ordering::Release);
        }
    }
}

impl TurnRing {
    /// A ring whose first turn is position 0.
    fn new() -> Self {
        TurnRing { turn: AtomicU64::new(0) }
    }

    /// Guard every worker holds for as long as it takes turns.
    fn poison_on_panic(&self) -> PoisonOnPanic<'_> {
        PoisonOnPanic(self)
    }

    /// Waits until every position before `pos` has completed. Returns
    /// `false` if another worker panicked: the caller must stop.
    fn wait_for(&self, pos: u64) -> bool {
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
    fn done(&self, pos: u64) {
        self.turn.store(pos + 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn workers_taking_turns_observe_exact_stream_order() {
        let positions: Vec<u64> = (0..2_000).collect();
        let seen = Mutex::new(Vec::new());
        // Uneven ownership: runs of positions per worker.
        run_in_order(&positions, 4, |&p| (p / 3) as usize, |&p| seen.lock().unwrap().push(p));
        assert_eq!(seen.into_inner().unwrap(), positions);
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
