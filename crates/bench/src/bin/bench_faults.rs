//! Deterministic fault-injection gate — crash-consistent recovery
//! across the full cache stack.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_faults [-- --check] [--ops N] [--json PATH]
//! ```
//!
//! Replays the same deterministic mixed trace under every built-in
//! fault scenario (plus a fault-free baseline), twice each, tracking a
//! shadow map of acknowledged writes and verifying each one's on-flash
//! bytes afterwards.
//!
//! With `--check` the gate asserts:
//!
//! * same-seed reruns are **bit-identical** (virtual clock, cache
//!   counters including fault/retry/repair/requeue, injection totals,
//!   verification tally);
//! * **zero lost acknowledged writes** in every scenario (a miss is
//!   legal cache behaviour, a torn hit is not);
//! * every non-trivial scenario actually injected faults *and*
//!   engaged recovery (no vacuous pass);
//! * the `none` scenario matches an undecorated device bit-for-bit
//!   (the fault layer is free when idle).
//!
//! `--json PATH` writes the sweep as a `BENCH_faults.json` trajectory
//! record (format documented in the README).

use fdpcache_bench::{
    run_plain_baseline, sweep_faults, verdict, Args, FaultGateConfig, Flag, Gates, TrajectoryRecord,
};
use fdpcache_metrics::Table;

fn main() {
    let args =
        Args::from_env(&[Flag::Switch("--check"), Flag::Count("--ops"), Flag::Value("--json")]);
    let check = args.has("--check");
    let json_path = args.json_destination("faults");
    let mut cfg = FaultGateConfig::default();
    cfg.ops = args.count("--ops").unwrap_or(cfg.ops);

    eprintln!(
        "fault sweep: device {} MiB, RU {} MiB, {} ops per run, every builtin scenario x2 \
         + plain baseline",
        cfg.device_mib, cfg.ru_mib, cfg.ops
    );
    let entries = sweep_faults(&cfg);
    let plain = run_plain_baseline(&cfg);

    let mut table = Table::new(vec![
        "scenario", "injected", "faults", "retries", "repairs", "requeues", "acked", "verified",
        "lost", "det",
    ])
    .numeric();
    for e in &entries {
        let r = &e.first;
        table.row(vec![
            r.scenario.clone(),
            r.injected.total().to_string(),
            r.stats.faults.to_string(),
            r.stats.retries.to_string(),
            r.stats.repairs.to_string(),
            r.stats.requeues.to_string(),
            r.acked.to_string(),
            r.verified.to_string(),
            r.lost.to_string(),
            if e.deterministic() { "yes".into() } else { "NO".into() },
        ]);
    }
    println!("{}", table.render());

    if let Some(path) = json_path {
        TrajectoryRecord::new_faults(cfg.device_mib, cfg.ops, &entries).emit(&path);
    }

    if check {
        let mut fails: Vec<String> = Vec::new();
        for e in &entries {
            let r = &e.first;
            if !e.deterministic() {
                fails.push(format!(
                    "scenario {} diverged across same-seed reruns \
                     ({} ns vs {} ns) — the fault schedule must be a pure \
                     function of its seed",
                    r.scenario, r.now_ns, e.rerun.now_ns
                ));
            }
            if r.lost > 0 {
                fails.push(format!(
                    "scenario {} lost {} acknowledged write(s) — recovery \
                     must never serve torn data",
                    r.scenario, r.lost
                ));
            }
            if r.scenario != "none" {
                if r.injected.total() == 0 {
                    fails.push(format!("scenario {} injected nothing (vacuous)", r.scenario));
                }
                if r.stats.retries + r.stats.repairs + r.stats.requeues == 0 {
                    fails.push(format!("scenario {} never engaged recovery (vacuous)", r.scenario));
                }
            }
        }
        let none = &entries.first().expect("none scenario is first").first;
        if none.now_ns != plain.now_ns || none.stats != plain.stats {
            fails.push(format!(
                "empty fault plan perturbed the stack ({} ns faulted-none vs {} ns \
                 plain) — the decorator must be bit-transparent when idle",
                none.now_ns, plain.now_ns
            ));
        }
        let mut gates = Gates::new();
        gates.ran(
            "fault-recovery",
            verdict(fails, || {
                format!(
                    "{} scenarios bit-identical across reruns, zero lost acknowledged writes, \
                     none-scenario transparent",
                    entries.len()
                )
            }),
        );
        gates.finish();
    }
}
