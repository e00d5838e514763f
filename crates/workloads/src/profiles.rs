//! Workload profiles matched to the paper's traces.
//!
//! Parameters are synthetic but shaped by published characteristics:
//!
//! | Profile | Op mix | Sizes | Source |
//! |---|---|---|---|
//! | `meta_kv_cache` | GET:SET = 4:1 | small-dominant, thin large tail | paper §6.1; CacheLib OSDI '20 |
//! | `twitter_cluster12` | SET:GET = 4:1 | smaller objects still | paper §6.1; Yang et al. OSDI '20 |
//! | `wo_kv_cache` | SET only | as `meta_kv_cache` | paper §6.1 (derived) |
//!
//! Popularity is Zipf(0.9) with mild keyspace churn for all profiles —
//! the paper's workloads are characterized by "large working set sizes
//! and key churn" (§4.1).

use crate::sizes::{SizeBand, SizeDist};
use crate::trace::TraceGen;

/// A named workload profile that can instantiate generators at any
/// keyspace scale.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Display name used in experiment output.
    pub name: &'static str,
    /// Zipf skew.
    pub theta: f64,
    /// Fraction of GET operations.
    pub get_ratio: f64,
    /// Fraction of DELETE operations.
    pub delete_ratio: f64,
    /// Keyspace churn probability per operation.
    pub churn_per_op: f64,
    /// Object size mixture.
    pub sizes: SizeDist,
}

impl WorkloadProfile {
    /// Meta KV-cache: read-intensive, GETs outnumber SETs 4:1.
    pub fn meta_kv_cache() -> Self {
        WorkloadProfile {
            name: "kv-cache",
            theta: 0.9,
            get_ratio: 0.8,
            delete_ratio: 0.0,
            churn_per_op: 0.001,
            sizes: SizeDist::new(vec![
                // Dominantly small objects by *count* ("billions of
                // frequently accessed small items")…
                SizeBand { lo: 50, hi: 300, weight: 0.731 },
                SizeBand { lo: 301, hi: 1000, weight: 0.203 },
                SizeBand { lo: 1001, hi: 2000, weight: 0.061 },
                // …with a thin large tail ("millions of infrequently
                // accessed large items") feeding the LOC. Each tiny
                // object costs a whole 4 KiB SOC bucket rewrite, so the
                // *device* write stream is SOC-dominant (~80% of bytes
                // here) even though the tail dominates logical capacity —
                // the same imbalance Kangaroo reports for Meta's
                // workloads. The 0.5% weight was calibrated so the
                // simulator reproduces the paper's DLWA anchors under
                // greedy GC (Non-FDP ≈ 1.3 at 50% utilization and ≈ 3.5-4
                // at 100%; FDP ≈ 1.03 throughout): intermixing amplifies
                // at 50% utilization exactly when the LOC's death horizon
                // (LOC span / LOC byte share) slightly exceeds the
                // physical slack. `tests/integration_fidelity.rs` pins the
                // 100% anchors (DESIGN.md §8).
                SizeBand { lo: 4001, hi: 400_000, weight: 0.005 },
            ]),
        }
    }

    /// Twitter cluster12: write-intensive, SETs outnumber GETs 4:1.
    pub fn twitter_cluster12() -> Self {
        WorkloadProfile {
            name: "twitter-c12",
            theta: 0.9,
            get_ratio: 0.2,
            delete_ratio: 0.0,
            churn_per_op: 0.001,
            sizes: SizeDist::new(vec![
                SizeBand { lo: 20, hi: 200, weight: 0.617 },
                SizeBand { lo: 201, hi: 1000, weight: 0.249 },
                SizeBand { lo: 1001, hi: 2000, weight: 0.1 },
                // Tail weight scaled like the KV-cache profile's (see
                // that profile's comment): cluster12 is even more
                // small-object heavy, so its device write stream is
                // SOC-dominant too.
                SizeBand { lo: 4001, hi: 262_144, weight: 0.0075 },
            ]),
        }
    }

    /// Write-only KV cache: the paper's GET-stripped stressor.
    pub fn wo_kv_cache() -> Self {
        WorkloadProfile { name: "wo-kv-cache", get_ratio: 0.0, ..Self::meta_kv_cache() }
    }

    /// Read-mostly contended profile: 95/5 GET/SET on a hard Zipf head
    /// of small objects, no churn. Paired with a keyspace small enough
    /// to sit in DRAM, nearly every GET is a DRAM hit on a handful of
    /// head keys — the workload behind the benchmark's `dram_hot_reads`,
    /// where lock-free index hits should scale with reader threads
    /// instead of serializing on shard locks.
    pub fn read_mostly_hot() -> Self {
        WorkloadProfile {
            name: "read-mostly-hot",
            theta: 1.1,
            get_ratio: 0.95,
            delete_ratio: 0.0,
            churn_per_op: 0.0,
            sizes: SizeDist::new(vec![
                SizeBand { lo: 50, hi: 300, weight: 0.85 },
                SizeBand { lo: 301, hi: 1200, weight: 0.15 },
            ]),
        }
    }

    /// Large-object write stream: every SET is LOC-bound (≥ 8 KiB), so
    /// device traffic is dominated by region seals — the workload
    /// behind the queue-depth scaling test (`tests/integration_qd.rs`),
    /// where batched seal submissions must beat the per-command path.
    pub fn loc_seal_heavy() -> Self {
        WorkloadProfile {
            name: "loc-seal-heavy",
            theta: 0.9,
            get_ratio: 0.1,
            delete_ratio: 0.0,
            churn_per_op: 0.001,
            sizes: SizeDist::new(vec![SizeBand { lo: 8_192, hi: 65_536, weight: 1.0 }]),
        }
    }

    /// Instantiates a generator over `keyspace` keys.
    pub fn generator(&self, keyspace: u64, seed: u64) -> TraceGen {
        TraceGen::new(
            keyspace,
            self.theta,
            self.get_ratio,
            self.delete_ratio,
            self.churn_per_op,
            self.sizes.clone(),
            seed,
        )
    }

    /// A keyspace sized so the logical working set is `multiple`× the
    /// given cache capacity — guaranteeing flash-cache churn like the
    /// production traces.
    pub fn keyspace_for(&self, cache_bytes: u64, multiple: f64) -> u64 {
        let mean = self.sizes.mean().max(1.0);
        (((cache_bytes as f64) * multiple) / mean).max(1024.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Op;

    #[test]
    fn kv_cache_is_read_heavy() {
        let p = WorkloadProfile::meta_kv_cache();
        let mut g = p.generator(10_000, 1);
        let gets = (0..50_000).filter(|_| g.next_request().op == Op::Get).count();
        let ratio = gets as f64 / 50_000.0;
        assert!((0.78..0.82).contains(&ratio), "GET ratio {ratio}");
    }

    #[test]
    fn twitter_is_write_heavy() {
        let p = WorkloadProfile::twitter_cluster12();
        let mut g = p.generator(10_000, 1);
        let sets = (0..50_000).filter(|_| g.next_request().op == Op::Set).count();
        let ratio = sets as f64 / 50_000.0;
        assert!((0.78..0.82).contains(&ratio), "SET ratio {ratio}");
    }

    #[test]
    fn wo_kv_has_no_reads() {
        let p = WorkloadProfile::wo_kv_cache();
        let mut g = p.generator(10_000, 1);
        assert!((0..10_000).all(|_| g.next_request().op == Op::Set));
    }

    #[test]
    fn profiles_are_small_object_dominant() {
        for p in [
            WorkloadProfile::meta_kv_cache(),
            WorkloadProfile::twitter_cluster12(),
            WorkloadProfile::wo_kv_cache(),
        ] {
            assert!(
                p.sizes.fraction_below(2048) > 0.85,
                "{} must be small-object dominant",
                p.name
            );
        }
    }

    #[test]
    fn read_mostly_hot_is_get_dominant_on_a_zipf_head() {
        let p = WorkloadProfile::read_mostly_hot();
        let mut g = p.generator(2_000, 1);
        let mut gets = 0usize;
        let mut head_hits = 0usize;
        const N: usize = 50_000;
        for _ in 0..N {
            let r = g.next_request();
            if r.op == Op::Get {
                gets += 1;
            }
            if r.key < 50 {
                head_hits += 1;
            }
        }
        let get_ratio = gets as f64 / N as f64;
        assert!((0.93..0.97).contains(&get_ratio), "GET ratio {get_ratio}");
        // Zipf(1.1): the 50 hottest of 2000 keys draw the majority of
        // accesses — the contention hot-spot the read gate relies on.
        assert!(head_hits * 2 > N, "head keys draw only {head_hits}/{N}");
        assert!(p.sizes.fraction_below(2048) >= 1.0, "must be DRAM-resident small objects");
    }

    #[test]
    fn loc_seal_heavy_is_large_object_only() {
        let p = WorkloadProfile::loc_seal_heavy();
        assert_eq!(p.sizes.fraction_below(8192), 0.0, "no SOC-bound objects");
        let mut g = p.generator(10_000, 1);
        let sets = (0..10_000).filter(|_| g.next_request().op == Op::Set).count();
        assert!(sets > 8_500, "SET-dominant: {sets}");
    }

    #[test]
    fn keyspace_scales_with_cache_size() {
        let p = WorkloadProfile::meta_kv_cache();
        let small = p.keyspace_for(1 << 30, 2.0);
        let big = p.keyspace_for(1 << 40, 2.0);
        assert!(big > small * 500, "big={big} small={small}");
        // Tiny caches clamp to a minimum keyspace.
        assert!(p.keyspace_for(1, 1.0) >= 1024);
    }
}
