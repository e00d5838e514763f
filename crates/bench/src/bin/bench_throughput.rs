//! Multi-worker throughput on one shared device — the scaling gates
//! for the fine-grained-concurrency and batched-submission refactors.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_throughput [-- --check] [--qd] [--ops N] [--trials N] [--json PATH]
//! ```
//!
//! `--json PATH` writes the sweep as a `BENCH_throughput.json`
//! trajectory record (documented in the README) for cross-PR tracking.
//!
//! **Worker sweep** (default): 1, 2, 4 and 8 workers (each on its own
//! namespace of one device), aggregate wall-clock ops/sec plus speedup
//! vs one worker, best of `--trials` runs (default 3). With `--check`
//! the 4-worker point must beat the 1-worker aggregate by a
//! core-count-adaptive factor (≥2.0× on ≥4 cores, ≥1.4× on 2–3, a
//! <30% no-regression bound on 1) — the gate that keeps the data path
//! off a global lock.
//!
//! **Queue-depth sweep** (`--qd`): QD 1, 2, 4 and 8 on a single worker
//! replaying the region-seal-heavy workload through the batched
//! submission pipeline. Throughput is measured in **virtual** time
//! (deterministic; host cores cannot touch it). With `--check` the
//! gate asserts (a) QD 4 reaches ≥ 1.3× the QD-1 virtual ops/sec —
//! batched region seals must beat the per-command path — and (b) two
//! QD-1 runs finish at bit-identical virtual clocks, pinning the
//! depth-1 pipeline to the legacy synchronous model.

use fdpcache_bench::{
    qd_sweep, run_qd_replay, sweep, Args, Flag, Gates, ThroughputConfig, TrajectoryRecord,
};
use fdpcache_metrics::Table;

/// Required virtual-throughput speedup of the QD-4 batched replay over
/// the QD-1 synchronous path (the acceptance bar of the batching PR).
const QD_REQUIRED_SPEEDUP: f64 = 1.3;

fn run_qd_mode(cfg: &ThroughputConfig, check: bool, json_path: Option<String>) {
    eprintln!(
        "QD sweep: device {} MiB, RU {} MiB, {} ops, loc-seal-heavy workload, \
         single worker, virtual-time throughput",
        cfg.device_mib, cfg.ru_mib, cfg.ops_per_worker
    );
    let results = qd_sweep(cfg);
    let base = results[0].vkops;

    let mut table =
        Table::new(vec!["qd", "ops", "virtual (s)", "virtual KOPS", "wall (s)", "speedup"])
            .numeric();
    for r in &results {
        table.row(vec![
            r.qd.to_string(),
            r.total_ops.to_string(),
            format!("{:.3}", r.virtual_secs),
            format!("{:.0}", r.vkops),
            format!("{:.3}", r.wall_secs),
            format!("{:.2}x", r.vkops / base),
        ]);
    }
    println!("{}", table.render());

    if let Some(path) = json_path {
        TrajectoryRecord::new_qd(cfg.device_mib, cfg.ops_per_worker, &results).emit(&path);
    }

    if check {
        let mut gates = Gates::new();
        let four = results.iter().find(|r| r.qd == 4).expect("QD-4 point");
        let speedup = four.vkops / base;
        gates.ran(
            "qd4-speedup",
            if speedup < QD_REQUIRED_SPEEDUP {
                Err(vec![format!(
                    "QD-4 batched replay is {speedup:.2}x the QD-1 synchronous path (needs >= \
                     {QD_REQUIRED_SPEEDUP:.1}x) — are region seals still submitting one \
                     command at a time?"
                )])
            } else {
                Ok(format!("QD-4 speedup {speedup:.2}x >= {QD_REQUIRED_SPEEDUP:.1}x"))
            },
        );
        let qd1_again = run_qd_replay(cfg, 1);
        gates.ran(
            "qd1-bit-identical",
            if qd1_again.now_ns != results[0].now_ns {
                Err(vec![format!(
                    "two QD-1 replays diverged ({} ns vs {} ns) — the depth-1 pipeline is no \
                     longer deterministic/bit-identical to the synchronous path",
                    results[0].now_ns, qd1_again.now_ns
                )])
            } else {
                Ok(format!("two QD-1 replays both end at {} ns", qd1_again.now_ns))
            },
        );
        gates.finish();
    }
}

fn main() {
    let args = Args::from_env(&[
        Flag::Switch("--check"),
        Flag::Switch("--qd"),
        Flag::Count("--ops"),
        Flag::Count("--trials"),
        Flag::Value("--json"),
    ]);
    let check = args.has("--check");
    let qd_mode = args.has("--qd");
    let mut cfg = ThroughputConfig::default();
    cfg.ops_per_worker = args.count("--ops").unwrap_or(cfg.ops_per_worker);
    let trials = args.count("--trials").unwrap_or(3);

    let bench = if qd_mode { "throughput_qd" } else { "throughput_device" };
    let json_path = args.json_destination(bench);
    if qd_mode {
        run_qd_mode(&cfg, check, json_path);
        return;
    }

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "device {} MiB, RU {} MiB, {} ops/worker, best of {trials} trial(s), MemStore \
         payloads, {cores} host core(s)",
        cfg.device_mib, cfg.ru_mib, cfg.ops_per_worker
    );
    let results = sweep(&cfg, trials);
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
        TrajectoryRecord::new("device", cfg.device_mib, cfg.ops_per_worker, trials, &results)
            .emit(&path);
    }

    let four = results.iter().find(|r| r.workers == 4).expect("4-worker point");
    let speedup = four.kops / base_kops;
    let required = match cores {
        0 | 1 => 0.7,
        2 | 3 => 1.4,
        _ => 2.0,
    };
    if check {
        let mut gates = Gates::new();
        gates.ran(
            "device-scaling",
            if speedup < required {
                Err(vec![format!(
                    "4-worker aggregate throughput is {speedup:.2}x the 1-worker baseline \
                     (needs >= {required:.1}x on {cores} core(s)) — is the data path behind a \
                     global lock again?"
                )])
            } else {
                Ok(format!("4-worker speedup {speedup:.2}x >= {required:.1}x ({cores} core(s))"))
            },
        );
        gates.finish();
    }
}
