//! Property tests for the workload generators.

use fdpcache_workloads::sizes::SizeBand;
use fdpcache_workloads::{Op, SizeDist, TraceGen, WorkloadProfile, Zipf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Zipf samples never leave the domain, for any skew.
    #[test]
    fn zipf_in_range(n in 1u64..1_000_000, theta in 0.0f64..1.5, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Size samples always fall inside one of the configured bands.
    #[test]
    fn sizes_in_bands(
        lo1 in 1u32..100, w1 in 0.1f64..5.0,
        lo2 in 1000u32..5000, w2 in 0.1f64..5.0,
        seed in any::<u64>(),
    ) {
        let d = SizeDist::new(vec![
            SizeBand { lo: lo1, hi: lo1 + 50, weight: w1 },
            SizeBand { lo: lo2, hi: lo2 + 500, weight: w2 },
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let s = d.sample(&mut rng);
            prop_assert!(
                (lo1..=lo1 + 50).contains(&s) || (lo2..=lo2 + 500).contains(&s),
                "sample {s} outside bands"
            );
        }
    }

    /// Generators are deterministic functions of their seed, and the
    /// GET ratio is honoured statistically.
    #[test]
    fn tracegen_deterministic_and_ratio(seed in any::<u64>(), get_ratio in 0.0f64..1.0) {
        let mk = || TraceGen::new(1000, 0.9, get_ratio, 0.0, 0.0, SizeDist::fixed(64), seed);
        let (mut a, mut b) = (mk(), mk());
        let mut gets = 0u32;
        for _ in 0..2_000 {
            let ra = a.next_request();
            let rb = b.next_request();
            prop_assert_eq!(ra, rb, "generator not deterministic");
            if ra.op == Op::Get {
                gets += 1;
            }
        }
        let rate = gets as f64 / 2_000.0;
        prop_assert!((rate - get_ratio).abs() < 0.06, "rate {rate} vs ratio {get_ratio}");
    }

    /// Every built-in profile generates sizes its own engines can store
    /// (positive, bounded by the profile's declared maximum band).
    #[test]
    fn profiles_generate_storable_sizes(which in 0..3usize, seed in any::<u64>()) {
        let p = match which {
            0 => WorkloadProfile::meta_kv_cache(),
            1 => WorkloadProfile::twitter_cluster12(),
            _ => WorkloadProfile::wo_kv_cache(),
        };
        let mut g = p.generator(10_000, seed);
        for _ in 0..500 {
            let r = g.next_request();
            prop_assert!(r.size >= 1);
            prop_assert!(r.size <= 600_000, "size {} out of profile range", r.size);
        }
    }
}

mod zipf_distribution_props {
    use fdpcache_workloads::Zipf;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Samplers are pure functions of their seed: two samplers with
        /// the same parameters and RNG stream emit identical ranks.
        #[test]
        fn zipf_sampling_is_deterministic(
            n in 1u64..100_000,
            theta in 0.0f64..1.5,
            seed in any::<u64>(),
        ) {
            let z = Zipf::new(n, theta);
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..100 {
                prop_assert_eq!(z.sample(&mut a), z.sample(&mut b));
            }
        }

        /// Distribution sanity for cache-trace skews: for any seed and
        /// any production-like θ, the hottest 1% of ranks must absorb
        /// far more traffic *per rank* than the coldest half — the
        /// rank-frequency shape every experiment's hit ratio rides on.
        #[test]
        fn zipf_head_outweighs_tail_per_rank(theta in 0.6f64..1.3, seed in any::<u64>()) {
            const N: u64 = 1_000;
            const SAMPLES: u64 = 6_000;
            let z = Zipf::new(N, theta);
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut head, mut tail) = (0u64, 0u64);
            for _ in 0..SAMPLES {
                let r = z.sample(&mut rng);
                if r < N / 100 {
                    head += 1;
                } else if r >= N / 2 {
                    tail += 1;
                }
            }
            let head_per_rank = head as f64 / (N / 100) as f64;
            let tail_per_rank = tail as f64 / (N / 2) as f64;
            prop_assert!(
                head_per_rank > 5.0 * tail_per_rank,
                "head {head_per_rank:.2}/rank vs tail {tail_per_rank:.2}/rank at theta {theta}"
            );
        }

        /// θ = 0 degenerates to uniform: shard-style chi-square bound
        /// over 10 bins.
        #[test]
        fn zipf_theta_zero_is_uniform(seed in any::<u64>()) {
            const N: u64 = 10;
            const SAMPLES: u64 = 10_000;
            let z = Zipf::new(N, 0.0);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut counts = [0u64; N as usize];
            for _ in 0..SAMPLES {
                counts[z.sample(&mut rng) as usize] += 1;
            }
            let expected = SAMPLES as f64 / N as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| {
                    let d = c as f64 - expected;
                    d * d / expected
                })
                .sum();
            // 99.999th percentile of χ²(9) ≈ 33.7; allow margin.
            prop_assert!(chi2 < 45.0, "chi2 {chi2:.1}: {counts:?}");
        }
    }
}

mod tracefile_props {
    use fdpcache_workloads::trace::{Op, Request};
    use fdpcache_workloads::tracefile::{FileReplay, RequestSource, TraceReader, TraceWriter};
    use proptest::prelude::*;

    fn request() -> impl Strategy<Value = Request> {
        (prop_oneof![Just(Op::Get), Just(Op::Set), Just(Op::Delete)], any::<u64>(), any::<u32>())
            .prop_map(|(op, key, size)| Request { op, key, size })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary request sequences survive the binary codec exactly.
        #[test]
        fn binary_codec_round_trips(reqs in prop::collection::vec(request(), 1..500)) {
            let mut buf = Vec::new();
            let mut w = TraceWriter::new(&mut buf).unwrap();
            for r in &reqs {
                w.write(r).unwrap();
            }
            let (n, _) = w.finish().unwrap();
            prop_assert_eq!(n as usize, reqs.len());
            let mut reader = TraceReader::new(&buf[..]).unwrap();
            prop_assert_eq!(reader.read_all().unwrap(), reqs);
        }

        /// Looping replay reproduces the capture verbatim on every pass.
        #[test]
        fn replay_loops_verbatim(reqs in prop::collection::vec(request(), 1..100), passes in 1..4usize) {
            let mut replay = FileReplay::from_records(reqs.clone());
            for pass in 0..passes {
                for (i, expected) in reqs.iter().enumerate() {
                    let got = replay.next_request();
                    prop_assert_eq!(&got, expected, "pass {} index {}", pass, i);
                }
            }
            prop_assert_eq!(replay.loops as usize, passes);
        }
    }
}
