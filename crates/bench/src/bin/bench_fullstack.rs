//! Full-stack cache-tier scaling on one shared concurrent pool — the
//! gate for the sharded cache tier.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_fullstack [-- --check] [--ops N] [--trials N] [--json PATH]
//! cargo run --release --bin bench_fullstack -- --read [--check] [--ops N] [--trials N] [--json PATH]
//! ```
//!
//! Sweeps 1, 2, 4 and 8 worker threads, all calling **one**
//! `ConcurrentPool` (8 shards on one device) through `&self`, and
//! prints aggregate wall-clock cache ops/sec plus speedup vs one
//! worker. Each sweep point takes the best of `--trials` runs (default
//! 3). `--json PATH` writes the `BENCH_throughput.json` trajectory
//! record (documented in the README) so future PRs can track the
//! scaling curve.
//!
//! With `--check`, the run becomes a regression gate that keeps the
//! cache tier off a pool-wide lock. The required speedup adapts to the
//! host's parallelism, mirroring `bench_throughput --check`:
//!
//! * ≥ 4 cores — 4 workers must reach ≥ 2.0× the 1-worker aggregate;
//! * 2–3 cores — 4 workers must reach ≥ 1.4×;
//! * 1 core — the gate degrades to a no-regression bound (< 60% cost
//!   vs single-worker). Unlike the device bench, every cache op holds
//!   its shard lock end to end, so 4 threads time-slicing one core
//!   pay real lock-parking overhead (~40% measured); on one core a
//!   pool-wide lock is indistinguishable by speedup anyway —
//!   everything serializes — so the real assertion runs wherever CI
//!   has cores.
//!
//! With `--read`, the binary instead runs the contended-read scaling
//! gate: the `read-mostly-hot` profile (95/5 GET/SET on a Zipf(1.1)
//! head, keyspace fully DRAM-resident) against one shared pool, GETs
//! going through the lock-free epoch-protected index. The sweep prints
//! a locked 1-thread baseline (`get_locked`) plus lock-free points at
//! 1/2/4/8 readers; `--check` gates:
//!
//! * lock-free @ 1 reader ≥ 0.9× the locked baseline (the index probe
//!   must not tax the uncontended path);
//! * near-linear read scaling, core-adaptive: ≥ 8 cores — 8 readers ≥
//!   6.0× the 1-reader lock-free point; 4–7 cores — ≥ 2.5×; 2–3 cores
//!   — ≥ 1.3×; 1 core — scaling unobservable: the gate is reported as
//!   `SKIPPED`, never `OK`, and the no-regression bound above is all
//!   that ran;
//! * DRAM hit ratio ≥ 0.5 on every point (otherwise the run measured
//!   flash misses, not read-path synchronization).

use fdpcache_bench::{
    sweep_fullstack, sweep_read, verdict, Args, Flag, FullstackConfig, Gates, ReadScalingConfig,
    TrajectoryRecord,
};
use fdpcache_metrics::Table;

/// Contended-read scaling gate (`--read`): with `check`, reports its
/// three gates through one ledger and exits non-zero if any failed.
fn run_read_gate(args: &Args, check: bool, json_path: Option<String>) {
    let mut cfg = ReadScalingConfig::default();
    cfg.ops_per_worker = args.count("--ops").unwrap_or(cfg.ops_per_worker);
    let trials = args.count("--trials").unwrap_or(3);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "contended-read gate: device {} MiB, {} pool shards, {} DRAM-resident keys, \
         {} ops/worker, best of {trials} trial(s), {cores} host core(s)",
        cfg.device_mib, cfg.shards, cfg.keyspace, cfg.ops_per_worker
    );
    let results = sweep_read(&cfg, trials);
    let locked_base =
        results.iter().find(|r| r.locked && r.workers == 1).expect("locked baseline point").kops;
    let lockfree_base = results
        .iter()
        .find(|r| !r.locked && r.workers == 1)
        .expect("1-reader lock-free point")
        .kops;

    let mut table = Table::new(vec![
        "mode",
        "readers",
        "total ops",
        "wall (s)",
        "agg KOPS",
        "RAM hit",
        "speedup",
    ])
    .numeric();
    for r in &results {
        table.row(vec![
            if r.locked { "locked" } else { "lockfree" }.to_string(),
            r.workers.to_string(),
            r.total_ops.to_string(),
            format!("{:.3}", r.wall_secs),
            format!("{:.0}", r.kops),
            format!("{:.3}", r.ram_hit_ratio),
            format!("{:.2}x", r.kops / lockfree_base),
        ]);
    }
    println!("{}", table.render());

    if let Some(path) = json_path {
        TrajectoryRecord::new_read(cfg.device_mib, cfg.ops_per_worker, trials, &results)
            .emit(&path);
    }

    if !check {
        return;
    }
    let mut gates = Gates::new();
    // Premise: the sweep must be measuring DRAM hits, not flash misses.
    let cold: Vec<String> = results
        .iter()
        .filter(|r| r.ram_hit_ratio < 0.5)
        .map(|r| {
            format!(
                "{} @ {} readers hit DRAM on only {:.1}% of GETs — the keyspace no longer \
                 fits in the pool's RAM, so the gate is not measuring the read path",
                if r.locked { "locked" } else { "lockfree" },
                r.workers,
                r.ram_hit_ratio * 100.0
            )
        })
        .collect();
    gates
        .ran("dram-hit-premise", verdict(cold, || "every point hit DRAM on >= 50% of GETs".into()));
    // No-regression: the uncontended lock-free probe must not tax GETs.
    let ratio = lockfree_base / locked_base;
    gates.ran(
        "lockfree-vs-locked",
        if ratio < 0.9 {
            Err(vec![format!(
                "1-reader lock-free GETs run at {ratio:.2}x the locked baseline (needs >= \
                 0.90x) — the index probe added overhead to the uncontended path"
            )])
        } else {
            Ok(format!("1-reader lock-free vs locked baseline {ratio:.2}x >= 0.90x"))
        },
    );
    // Scaling: near-linear where the host has the cores to show it.
    let eight = results.iter().find(|r| !r.locked && r.workers == 8).expect("8-reader point");
    let speedup = eight.kops / lockfree_base;
    let required = match cores {
        0 | 1 => None,
        2 | 3 => Some(1.3),
        4..=7 => Some(2.5),
        _ => Some(6.0),
    };
    match required {
        None => gates.skipped(
            "read-scaling",
            &format!(
                "single core — read scaling unobservable ({speedup:.2}x measured at 8 readers)"
            ),
        ),
        Some(required) => gates.ran(
            "read-scaling",
            if speedup < required {
                Err(vec![format!(
                    "8-reader lock-free throughput is {speedup:.2}x the 1-reader point (needs \
                     >= {required:.1}x on {cores} core(s)) — are DRAM hits serializing on the \
                     shard lock?"
                )])
            } else {
                Ok(format!(
                    "8-reader read scaling {speedup:.2}x >= {required:.1}x ({cores} core(s))"
                ))
            },
        ),
    }
    gates.finish();
}

fn main() {
    let args = Args::from_env(&[
        Flag::Switch("--check"),
        Flag::Switch("--read"),
        Flag::Count("--ops"),
        Flag::Count("--trials"),
        Flag::Value("--json"),
    ]);
    let check = args.has("--check");
    let read_mode = args.has("--read");
    let json_path = args.json_destination(if read_mode { "read" } else { "throughput" });
    if read_mode {
        run_read_gate(&args, check, json_path);
        return;
    }
    let mut cfg = FullstackConfig::default();
    cfg.ops_per_worker = args.count("--ops").unwrap_or(cfg.ops_per_worker);
    let trials = args.count("--trials").unwrap_or(3);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "device {} MiB, RU {} MiB, {} pool shards, {} ops/worker, best of {trials} trial(s), \
         MemStore payloads, {cores} host core(s)",
        cfg.device_mib, cfg.ru_mib, cfg.shards, cfg.ops_per_worker
    );
    let results = sweep_fullstack(&cfg, trials);
    let base_kops = results[0].kops;

    let mut table =
        Table::new(vec!["workers", "total ops", "wall (s)", "agg KOPS", "speedup"]).numeric();
    for r in &results {
        table.row(vec![
            r.workers.to_string(),
            r.total_ops.to_string(),
            format!("{:.3}", r.wall_secs),
            format!("{:.0}", r.kops),
            format!("{:.2}x", r.kops / base_kops),
        ]);
    }
    println!("{}", table.render());

    if let Some(path) = json_path {
        TrajectoryRecord::new("fullstack", cfg.device_mib, cfg.ops_per_worker, trials, &results)
            .emit(&path);
    }

    let four = results.iter().find(|r| r.workers == 4).expect("4-worker point");
    let speedup = four.kops / base_kops;
    let required = match cores {
        0 | 1 => 0.4,
        2 | 3 => 1.4,
        _ => 2.0,
    };
    if check {
        let mut gates = Gates::new();
        gates.ran(
            "fullstack-scaling",
            if speedup < required {
                Err(vec![format!(
                    "4-worker full-stack throughput is {speedup:.2}x the 1-worker baseline \
                     (needs >= {required:.1}x on {cores} core(s)) — is the cache tier behind a \
                     pool-wide lock?"
                )])
            } else {
                Ok(format!(
                    "4-worker full-stack speedup {speedup:.2}x >= {required:.1}x ({cores} core(s))"
                ))
            },
        );
        gates.finish();
    }
}
