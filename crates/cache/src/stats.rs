//! Cache-level statistics: the CacheBench-reported metrics of the paper
//! (hit ratios, throughput inputs, ALWA).
//!
//! Two accounting domains exist since the lock-free read path landed
//! (DESIGN.md §5.1a): the plain [`CacheStats`] struct is mutated under
//! the shard lock as before, while hits served without the lock land in
//! the shard's [`ReadSideStats`] — one hit counter striped by thread —
//! and are folded into every snapshot on read. Each stripe is only
//! incremented (never reset), so any interleaving of concurrent readers
//! produces monotonically non-decreasing merged snapshots — the mid-run
//! coherence property the lock-free battery asserts.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::cache::HOST_OP_NS;

/// Monotonic hybrid-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// GET operations.
    pub gets: u64,
    /// GETs served from DRAM.
    pub ram_hits: u64,
    /// GETs that missed DRAM and were looked up in flash.
    pub nvm_lookups: u64,
    /// Flash hits served by the SOC.
    pub soc_hits: u64,
    /// Flash hits served by the LOC.
    pub loc_hits: u64,
    /// PUT (SET) operations.
    pub puts: u64,
    /// DELETE operations.
    pub deletes: u64,
    /// RAM evictions offered to flash.
    pub nvm_insert_attempts: u64,
    /// RAM evictions actually written to flash (a SOC insert rolled
    /// back under persistent write faults is not).
    pub nvm_inserts: u64,
    /// Application bytes handed to the flash engines.
    pub nvm_app_bytes: u64,
    /// Device commands that completed with an injected failure status
    /// (media error / busy) observed by this cache's I/O path.
    pub faults: u64,
    /// Command re-issues after an injected fault in the flash engines,
    /// every retry their one retry policy grants: seal re-submits,
    /// bucket and footer rewrite re-attempts, re-reads (busy lookups,
    /// the read-modify-write read, recovery reads) and TRIM re-issues.
    pub retries: u64,
    /// Targeted repair-writes after read faults (object re-written so
    /// future lookups hit again).
    pub repairs: u64,
    /// Objects re-queued out of a region whose seal persistently failed
    /// (never silently dropped).
    pub requeues: u64,
    /// Flash circuit-breaker openings (device crossed `Failing`;
    /// serving degraded to DRAM-only).
    pub breaker_opens: u64,
    /// Breaker re-closes after a fault-free half-open probe.
    pub breaker_closes: u64,
    /// Flash lookups answered as misses because the breaker was open.
    pub degraded_misses: u64,
    /// RAM evictions shed (not written to flash) while the breaker was
    /// open. Evictions are a lossy-cache contract, never acknowledged
    /// persistence, so shedding loses nothing the cache promised.
    pub shed_evictions: u64,
    /// Device pages patrol-read by the background scrubber.
    pub scrubbed_pages: u64,
    /// Corrupt/unreadable entries the scrubber repaired before any
    /// client read observed them.
    pub scrub_repairs: u64,
}

impl CacheStats {
    /// Overall hit ratio: (RAM + flash hits) / GETs.
    pub fn hit_ratio(&self) -> f64 {
        if self.gets == 0 {
            return 0.0;
        }
        (self.ram_hits + self.soc_hits + self.loc_hits) as f64 / self.gets as f64
    }

    /// DRAM hit ratio over all GETs.
    pub fn ram_hit_ratio(&self) -> f64 {
        if self.gets == 0 {
            return 0.0;
        }
        self.ram_hits as f64 / self.gets as f64
    }

    /// Flash (NVM) hit ratio over flash lookups, the paper's "NVM Hit
    /// Ratio" column in Table 2.
    pub fn nvm_hit_ratio(&self) -> f64 {
        if self.nvm_lookups == 0 {
            return 0.0;
        }
        (self.soc_hits + self.loc_hits) as f64 / self.nvm_lookups as f64
    }

    /// Field-wise sum with another snapshot (aggregating engine pools
    /// and multi-tenant deployments).
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            gets: self.gets + other.gets,
            ram_hits: self.ram_hits + other.ram_hits,
            nvm_lookups: self.nvm_lookups + other.nvm_lookups,
            soc_hits: self.soc_hits + other.soc_hits,
            loc_hits: self.loc_hits + other.loc_hits,
            puts: self.puts + other.puts,
            deletes: self.deletes + other.deletes,
            nvm_insert_attempts: self.nvm_insert_attempts + other.nvm_insert_attempts,
            nvm_inserts: self.nvm_inserts + other.nvm_inserts,
            nvm_app_bytes: self.nvm_app_bytes + other.nvm_app_bytes,
            faults: self.faults + other.faults,
            retries: self.retries + other.retries,
            repairs: self.repairs + other.repairs,
            requeues: self.requeues + other.requeues,
            breaker_opens: self.breaker_opens + other.breaker_opens,
            breaker_closes: self.breaker_closes + other.breaker_closes,
            degraded_misses: self.degraded_misses + other.degraded_misses,
            shed_evictions: self.shed_evictions + other.shed_evictions,
            scrubbed_pages: self.scrubbed_pages + other.scrubbed_pages,
            scrub_repairs: self.scrub_repairs + other.scrub_repairs,
        }
    }

    /// Per-field difference `self - earlier`, saturating at zero.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            gets: self.gets.saturating_sub(earlier.gets),
            ram_hits: self.ram_hits.saturating_sub(earlier.ram_hits),
            nvm_lookups: self.nvm_lookups.saturating_sub(earlier.nvm_lookups),
            soc_hits: self.soc_hits.saturating_sub(earlier.soc_hits),
            loc_hits: self.loc_hits.saturating_sub(earlier.loc_hits),
            puts: self.puts.saturating_sub(earlier.puts),
            deletes: self.deletes.saturating_sub(earlier.deletes),
            nvm_insert_attempts: self
                .nvm_insert_attempts
                .saturating_sub(earlier.nvm_insert_attempts),
            nvm_inserts: self.nvm_inserts.saturating_sub(earlier.nvm_inserts),
            nvm_app_bytes: self.nvm_app_bytes.saturating_sub(earlier.nvm_app_bytes),
            faults: self.faults.saturating_sub(earlier.faults),
            retries: self.retries.saturating_sub(earlier.retries),
            repairs: self.repairs.saturating_sub(earlier.repairs),
            requeues: self.requeues.saturating_sub(earlier.requeues),
            breaker_opens: self.breaker_opens.saturating_sub(earlier.breaker_opens),
            breaker_closes: self.breaker_closes.saturating_sub(earlier.breaker_closes),
            degraded_misses: self.degraded_misses.saturating_sub(earlier.degraded_misses),
            shed_evictions: self.shed_evictions.saturating_sub(earlier.shed_evictions),
            scrubbed_pages: self.scrubbed_pages.saturating_sub(earlier.scrubbed_pages),
            scrub_repairs: self.scrub_repairs.saturating_sub(earlier.scrub_repairs),
        }
    }
}

/// One stripe: a hit counter alone on a 128-byte line (two 64-byte
/// lines, which the adjacent-line prefetcher moves as a pair).
#[derive(Debug, Default)]
#[repr(align(128))]
struct HitStripe {
    hits: AtomicU64,
}

/// The stripe this thread bumps, in every [`ReadSideStats`].
fn stripe_of_this_thread() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % ReadSideStats::STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// The count of GETs served off the lock-free DRAM read path.
///
/// One instance per shard, shared between the shard's `HybridCache`
/// (which folds it into [`CacheStats`] snapshots and its clock) and the
/// pool's lock-free `get`. A hit is the only thing that path completes
/// on, and each costs [`HOST_OP_NS`] of virtual host time, so one
/// counter carries `gets`, `ram_hits` and `host_ns`. It is striped by
/// thread: a hit bumps the stripe of the calling thread, a line no other
/// reader writes, and readers of the statistics sum the stripes.
///
/// `Relaxed` throughout: the counters are statistics and publish no
/// other data. A sum is exact because `fetch_add` loses no update, and
/// successive sums by one observer never decrease because no stripe
/// does.
#[derive(Debug, Default)]
pub struct ReadSideStats {
    stripes: [HitStripe; ReadSideStats::STRIPES],
}

const _: () = {
    assert!(align_of::<HitStripe>() == 128 && size_of::<HitStripe>() == 128);
    assert!(align_of::<ReadSideStats>() == 128);
    assert!(size_of::<ReadSideStats>() == ReadSideStats::STRIPES * 128);
};

impl ReadSideStats {
    /// Stripes per instance. Threads take stripes round-robin in the
    /// order they first record a hit, so up to this many concurrent
    /// readers each own one; beyond that, stripes are shared and stay
    /// exact (the bump is a `fetch_add`), only no longer private.
    pub const STRIPES: usize = 16;

    /// Records one DRAM hit served without the shard lock.
    pub fn record_ram_hit(&self) {
        self.stripes[stripe_of_this_thread()].hits.fetch_add(1, Ordering::Relaxed);
    }

    /// GETs served on the lock-free path so far.
    pub fn gets(&self) -> u64 {
        self.stripes.iter().map(|s| s.hits.load(Ordering::Relaxed)).sum()
    }

    /// DRAM hits served on the lock-free path so far: every GET that
    /// path completes is one.
    pub fn ram_hits(&self) -> u64 {
        self.gets()
    }

    /// Virtual host nanoseconds accrued by lock-free hits; folded into
    /// the shard clock by `HybridCache::now_ns`.
    pub fn host_ns(&self) -> u64 {
        self.gets() * HOST_OP_NS
    }

    /// Adds this side's counters into a locked-path snapshot.
    pub fn fold_into(&self, stats: &mut CacheStats) {
        let hits = self.gets();
        stats.gets += hits;
        stats.ram_hits += hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_of_empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.nvm_hit_ratio(), 0.0);
        assert_eq!(s.ram_hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_combines_layers() {
        let s = CacheStats {
            gets: 100,
            ram_hits: 50,
            nvm_lookups: 50,
            soc_hits: 20,
            loc_hits: 10,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.8).abs() < 1e-12);
        assert!((s.nvm_hit_ratio() - 0.6).abs() < 1e-12);
        assert!((s.ram_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_is_fieldwise() {
        let a = CacheStats { gets: 10, ..Default::default() };
        let b = CacheStats { gets: 25, ..Default::default() };
        assert_eq!(b.delta(&a).gets, 15);
    }

    #[test]
    fn merge_is_fieldwise_sum() {
        let a = CacheStats { gets: 10, soc_hits: 2, ..Default::default() };
        let b = CacheStats { gets: 5, loc_hits: 3, ..Default::default() };
        let m = a.merge(&b);
        assert_eq!(m.gets, 15);
        assert_eq!(m.soc_hits, 2);
        assert_eq!(m.loc_hits, 3);
    }

    #[test]
    fn fault_counters_merge_and_delta() {
        let a = CacheStats { faults: 4, retries: 3, repairs: 2, requeues: 1, ..Default::default() };
        let m = a.merge(&a);
        assert_eq!((m.faults, m.retries, m.repairs, m.requeues), (8, 6, 4, 2));
        let d = m.delta(&a);
        assert_eq!((d.faults, d.retries, d.repairs, d.requeues), (4, 3, 2, 1));
    }

    #[test]
    fn degraded_mode_counters_merge_and_delta() {
        let a = CacheStats {
            breaker_opens: 1,
            breaker_closes: 2,
            degraded_misses: 3,
            shed_evictions: 4,
            scrubbed_pages: 5,
            scrub_repairs: 6,
            ..Default::default()
        };
        let m = a.merge(&a);
        assert_eq!(
            (
                m.breaker_opens,
                m.breaker_closes,
                m.degraded_misses,
                m.shed_evictions,
                m.scrubbed_pages,
                m.scrub_repairs
            ),
            (2, 4, 6, 8, 10, 12)
        );
        let d = m.delta(&a);
        assert_eq!(d, a);
    }

    #[test]
    fn read_side_stats_fold_into_snapshots() {
        let r = ReadSideStats::default();
        r.record_ram_hit();
        r.record_ram_hit();
        assert_eq!((r.gets(), r.ram_hits(), r.host_ns()), (2, 2, 2 * HOST_OP_NS));
        let mut s = CacheStats { gets: 10, ram_hits: 1, ..Default::default() };
        r.fold_into(&mut s);
        assert_eq!((s.gets, s.ram_hits), (12, 3));
    }

    #[test]
    fn read_side_counts_are_exact_when_threads_share_stripes() {
        let r = ReadSideStats::default();
        const THREADS: u64 = ReadSideStats::STRIPES as u64 + 5;
        const PER_THREAD: u64 = 5_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        r.record_ram_hit();
                    }
                });
            }
        });
        assert_eq!(r.gets(), THREADS * PER_THREAD, "lost increments");
        assert_eq!(r.host_ns(), THREADS * PER_THREAD * HOST_OP_NS);
    }
}
