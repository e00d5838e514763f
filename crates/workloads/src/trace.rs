//! Trace requests and the generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sizes::SizeDist;
use crate::zipf::Zipf;

/// A cache operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read a key.
    Get,
    /// Write a key with a value size.
    Set,
    /// Remove a key.
    Delete,
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// The (anonymized) key.
    pub key: u64,
    /// Object size in bytes (meaningful for `Set`).
    pub size: u32,
}

/// A synthetic trace generator.
///
/// Keys are drawn Zipf-over-rank and mapped through a keyspace *epoch*
/// so the working set churns over time, like production traces where new
/// keys continuously appear (paper §2.3: "churn in keys"). Object sizes
/// are remembered per key so GETs and re-SETs of a key agree with its
/// original size (size stability is what lets the SOC replace rather
/// than grow entries).
#[derive(Debug)]
pub struct TraceGen {
    zipf: Zipf,
    sizes: SizeDist,
    get_ratio: f64,
    delete_ratio: f64,
    rng: StdRng,
    /// Per-rank size memory (lazy).
    rank_sizes: Vec<u32>,
    /// Churn: fraction of ops that rotate the keyspace by one rank.
    churn_per_op: f64,
    epoch: u64,
    generated: u64,
}

impl TraceGen {
    /// Creates a generator over `keyspace` keys with skew `theta`,
    /// `get_ratio` GETs (0.0–1.0), `delete_ratio` DELETEs, sizes from
    /// `sizes`, deterministic under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if ratios are outside `[0, 1]` or sum above 1.
    pub fn new(
        keyspace: u64,
        theta: f64,
        get_ratio: f64,
        delete_ratio: f64,
        churn_per_op: f64,
        sizes: SizeDist,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&get_ratio), "get_ratio out of range");
        assert!((0.0..=1.0).contains(&delete_ratio), "delete_ratio out of range");
        assert!(get_ratio + delete_ratio <= 1.0, "ratios exceed 1");
        TraceGen {
            zipf: Zipf::new(keyspace, theta),
            sizes,
            get_ratio,
            delete_ratio,
            rng: StdRng::seed_from_u64(seed),
            rank_sizes: vec![0; keyspace as usize],
            churn_per_op,
            epoch: 0,
            generated: 0,
        }
    }

    /// Number of requests generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    fn size_of_rank(&mut self, rank: u64) -> u32 {
        let slot = &mut self.rank_sizes[rank as usize];
        if *slot == 0 {
            *slot = self.sizes.sample(&mut self.rng).max(1);
        }
        *slot
    }

    /// Generates the next request.
    pub fn next_request(&mut self) -> Request {
        self.generated += 1;
        // Keyspace churn: occasionally shift the rank→key mapping so old
        // keys fall out of the hot set and fresh keys appear.
        if self.churn_per_op > 0.0 && self.rng.gen_bool(self.churn_per_op.min(1.0)) {
            self.epoch += 1;
            // Invalidate the size memory of the rank that rotated out.
            let idx = (self.epoch % self.rank_sizes.len() as u64) as usize;
            self.rank_sizes[idx] = 0;
        }
        let rank = self.zipf.sample(&mut self.rng);
        let key = rank.wrapping_add(self.epoch);
        let size = self.size_of_rank(rank);
        let r: f64 = self.rng.gen();
        let op = if r < self.get_ratio {
            Op::Get
        } else if r < self.get_ratio + self.delete_ratio {
            Op::Delete
        } else {
            Op::Set
        };
        Request { op, key, size }
    }
}

impl Iterator for TraceGen {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(self.next_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(get_ratio: f64) -> TraceGen {
        TraceGen::new(1000, 0.99, get_ratio, 0.0, 0.0, SizeDist::fixed(100), 7)
    }

    #[test]
    fn op_mix_matches_ratio() {
        let mut g = gen(0.8);
        let gets = (0..100_000).filter(|_| g.next_request().op == Op::Get).count();
        assert!((78_000..82_000).contains(&gets), "gets={gets}");
    }

    #[test]
    fn write_only_profile_has_no_gets() {
        let mut g = gen(0.0);
        for _ in 0..1000 {
            assert_eq!(g.next_request().op, Op::Set);
        }
    }

    #[test]
    fn sizes_are_stable_per_key() {
        let mut g = TraceGen::new(
            100,
            0.9,
            0.5,
            0.0,
            0.0,
            SizeDist::new(vec![crate::sizes::SizeBand { lo: 10, hi: 1000, weight: 1.0 }]),
            9,
        );
        use std::collections::HashMap;
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for _ in 0..10_000 {
            let r = g.next_request();
            let prev = seen.insert(r.key, r.size);
            if let Some(p) = prev {
                assert_eq!(p, r.size, "size changed for key {}", r.key);
            }
        }
    }

    #[test]
    fn churn_rotates_keyspace() {
        let mut g = TraceGen::new(100, 0.9, 0.0, 0.0, 0.05, SizeDist::fixed(10), 11);
        let early: std::collections::HashSet<u64> =
            (0..1000).map(|_| g.next_request().key).collect();
        for _ in 0..100_000 {
            g.next_request();
        }
        let late: std::collections::HashSet<u64> =
            (0..1000).map(|_| g.next_request().key).collect();
        let overlap = early.intersection(&late).count();
        assert!(
            overlap < early.len() / 2,
            "churn should rotate most of the hot set (overlap {overlap})"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = gen(0.5);
        let mut b = gen(0.5);
        for _ in 0..1000 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn delete_ratio_produces_deletes() {
        let mut g = TraceGen::new(100, 0.9, 0.5, 0.1, 0.0, SizeDist::fixed(10), 3);
        let deletes = (0..10_000).filter(|_| g.next_request().op == Op::Delete).count();
        assert!((800..1200).contains(&deletes), "deletes={deletes}");
    }

    #[test]
    #[should_panic(expected = "ratios exceed 1")]
    fn overfull_ratios_panic() {
        let _ = TraceGen::new(10, 0.9, 0.8, 0.3, 0.0, SizeDist::fixed(10), 1);
    }
}
