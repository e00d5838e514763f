//! Warm-restart gate — deterministic crash + crash-consistent recovery
//! of flash-resident cache state.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_recovery [-- --check] [--ops N] [--json PATH]
//! ```
//!
//! Replays the fault-gate trace with one scripted kill per built-in
//! crash point (coordinates probed from the stack's actual engine
//! geometry), twice each. At the kill the driver drops all host state,
//! recovers the FTL mapping from its newest periodic checkpoint,
//! reattaches the cache from on-flash metadata, verifies every
//! persisted key, and finishes the trace on the recovered instance. A
//! shared no-crash run provides the hit-ratio baseline for each
//! post-crash segment.
//!
//! With `--check` the gate asserts, for every crash point:
//!
//! * the kill actually fired (no vacuous pass) and something had been
//!   persisted before it;
//! * **zero lost acknowledged-and-sealed writes** and **zero
//!   resurrected deletes**; the recovered persisted-key set matches
//!   the crashed instance's exactly;
//! * simulated recovery time is positive and within the budget (four
//!   full-device read passes);
//! * the post-recovery hit ratio — measured past a short DRAM-refill
//!   warmup, since warm restart preserves flash state, not DRAM — is
//!   within 3 points of the no-crash replay of the same trace segment;
//! * same-seed reruns are **bit-identical** (crash op, virtual clocks,
//!   recovery cost, verification tally, continuation counters).
//!
//! `--json PATH` writes the sweep as a `BENCH_recovery.json`
//! trajectory record (format documented in the README).

use fdpcache_bench::{
    sweep_recovery, verdict, Args, Flag, Gates, RecoveryGateConfig, TrajectoryRecord,
};
use fdpcache_metrics::Table;

/// Maximum tolerated hit-ratio gap between the recovered continuation
/// and the no-crash baseline (3 points).
const HIT_RATIO_TOLERANCE: f64 = 0.03;

fn main() {
    let args =
        Args::from_env(&[Flag::Switch("--check"), Flag::Count("--ops"), Flag::Value("--json")]);
    let check = args.has("--check");
    let json_path = args.json_destination("recovery");
    let mut cfg = RecoveryGateConfig::default();
    cfg.ops = args.count("--ops").unwrap_or(cfg.ops);

    eprintln!(
        "recovery sweep: device {} MiB, RU {} MiB, {} ops per trace, checkpoint every {} ops, \
         every builtin crash point x2 + no-crash baseline",
        cfg.device_mib, cfg.ru_mib, cfg.ops, cfg.checkpoint_every
    );
    let entries = sweep_recovery(&cfg);

    let mut table = Table::new(vec![
        "crash_point",
        "crash_op",
        "ftl_path",
        "recovery_ms",
        "survive",
        "lost",
        "resurrect",
        "post_hit",
        "base_hit",
        "det",
    ])
    .numeric();
    for e in &entries {
        let r = &e.first;
        table.row(vec![
            r.label.clone(),
            r.ops_before_crash.to_string(),
            r.ftl_path.clone(),
            format!("{:.3}", r.recovery_ns as f64 / 1e6),
            r.must_survive.to_string(),
            r.lost.to_string(),
            r.resurrected.to_string(),
            format!("{:.3}", r.post_hit_ratio),
            format!("{:.3}", e.baseline_post_hit_ratio),
            if e.deterministic() { "yes".into() } else { "NO".into() },
        ]);
    }
    println!("{}", table.render());

    if let Some(path) = json_path {
        TrajectoryRecord::new_recovery(cfg.device_mib, cfg.ops, &entries).emit(&path);
    }

    if check {
        let mut fails: Vec<String> = Vec::new();
        for e in &entries {
            let r = &e.first;
            if !r.crashed {
                fails.push(format!("crash point {} never fired its kill (vacuous)", r.label));
            }
            if r.must_survive == 0 {
                fails.push(format!(
                    "crash point {} had nothing persisted before the kill (vacuous)",
                    r.label
                ));
            }
            if r.lost > 0 {
                fails.push(format!(
                    "crash point {} lost {} acknowledged-and-sealed write(s)",
                    r.label, r.lost
                ));
            }
            if r.resurrected > 0 {
                fails.push(format!(
                    "crash point {} resurrected {} acknowledged delete(s)",
                    r.label, r.resurrected
                ));
            }
            if !r.persisted_match {
                fails.push(format!(
                    "crash point {}: recovered persisted-key set diverged from the \
                     crashed instance's",
                    r.label
                ));
            }
            if r.recovery_ns == 0 || r.recovery_ns > r.recovery_budget_ns {
                fails.push(format!(
                    "crash point {}: recovery cost {} ns outside (0, {} ns] budget",
                    r.label, r.recovery_ns, r.recovery_budget_ns
                ));
            }
            if e.hit_ratio_gap() > HIT_RATIO_TOLERANCE {
                fails.push(format!(
                    "crash point {}: post-recovery hit ratio {:.4} vs no-crash {:.4} \
                     (gap {:.4} > {HIT_RATIO_TOLERANCE})",
                    r.label,
                    r.post_hit_ratio,
                    e.baseline_post_hit_ratio,
                    e.hit_ratio_gap()
                ));
            }
            if !e.deterministic() {
                fails.push(format!(
                    "crash point {} diverged across same-seed reruns — crash + \
                     recovery must be a pure function of its seeds",
                    r.label
                ));
            }
        }
        let mut gates = Gates::new();
        gates.ran(
            "warm-restart",
            verdict(fails, || {
                format!(
                    "{} crash points bit-identical across reruns, zero lost \
                     acknowledged-and-sealed writes, zero resurrected deletes, recovery within \
                     budget, hit ratio within {} points of the no-crash replay",
                    entries.len(),
                    (HIT_RATIO_TOLERANCE * 100.0) as u32
                )
            }),
        );
        gates.finish();
    }
}
