//! Real (wall-clock) data-path throughput — the gates for the
//! slab-backed zero-copy payload path and the completion-reactor I/O
//! service.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_wallclock [-- --check] [--ops N] [--trials N] [--json PATH]
//! ```
//!
//! **Store sweep.** Replays the `read_heavy`, `write_heavy` and
//! `loc_seal_heavy` profiles twice each — on the production page-slab
//! store and on the seed's hash-map reference (`hashmap-store`
//! feature) — and reports real ops/s and payload MiB/s per run. The
//! traces are deterministic and identical across stores, so both runs
//! issue the same device command sequence and must finish at
//! **bit-identical virtual clocks**; the wall-clock ratio isolates the
//! memory path.
//!
//! **Reactor sweep.** Replays the same profiles over a 4-shard
//! concurrent pool at five service points — inline QD 1, inline QD 4,
//! reactor QD 4 (1 driver), and reactor QD 4 with 4 driver threads at
//! 1 and 4 workers — and reports real ops/s per point. Virtual-time
//! results must not depend on the service mode.
//!
//! With `--check` the gate asserts (a) the slab path reaches ≥ 2.0×
//! the hash-map reference's wall-clock ops/s on `loc_seal_heavy`,
//! (b) every profile's virtual clock matches across stores, (c) the
//! 4-driver/4-worker reactor point beats the inline QD-1 baseline's
//! wall-clock ops/s on `loc_seal_heavy` **and** `read_heavy`, and
//! (d) every profile's reactor sweep replays byte-identical virtual
//! time across service modes (see
//! `PoolProfileSweep::virtual_time_consistent` for the exact claim).
//!
//! The reactor speedup bar adapts to the host's parallelism,
//! mirroring `bench_fullstack --check`: ≥ 4 cores — ≥ 1.25×; 2–3
//! cores — ≥ 1.0× (no regression); 1 core — overlap is physically
//! unobservable (4 drivers + 4 workers time-slice one CPU and pay a
//! park/wake per submission), so the reactor gate is reported as
//! `SKIPPED` with the measured ratio, never as `OK`, and only the
//! determinism identities and the slab bar are asserted.
//!
//! `--json PATH` writes both sweeps as a `BENCH_wallclock.json`
//! trajectory record (documented in the README) for cross-PR tracking.

use fdpcache_bench::wallclock::{
    profile_by_label, run_wallclock, run_wallclock_pool, PoolPointSpec, RunMode, WallclockStore,
    REACTOR_SHARDS,
};
use fdpcache_bench::{
    sweep_wallclock, sweep_wallclock_reactor, verdict, Args, Flag, Gates, TrajectoryRecord,
    WallclockConfig,
};
use fdpcache_core::ServiceMode;
use fdpcache_metrics::Table;

/// Required wall-clock ops/s speedup of the slab data path over the
/// seed's hash-map store on the seal-heavy profile (the acceptance bar
/// of the zero-copy slab PR).
const REQUIRED_SPEEDUP: f64 = 2.0;

/// Required wall-clock ops/s speedup of the 4-driver / 4-worker
/// reactor point over the inline QD-1 single-driver baseline (the
/// acceptance bar of the completion-reactor PR), on both the
/// seal-heavy and the read-heavy profile.
const REQUIRED_REACTOR_SPEEDUP: f64 = 1.25;

/// Child-process entry: `--one <profile> <store> <device_mib> <ru_mib>
/// <ops> <seed>` runs a single cold measurement and prints its record
/// line (see `WallclockResult::record_line`).
fn run_one(args: &[String], i: usize) -> ! {
    let usage = || -> ! {
        eprintln!("error: --one requires <profile> <store> <device_mib> <ru_mib> <ops> <seed>");
        std::process::exit(2);
    };
    let arg = |k: usize| args.get(i + k).unwrap_or_else(|| usage());
    let num = |k: usize| arg(k).parse::<u64>().unwrap_or_else(|_| usage());
    let profile = profile_by_label(arg(1)).unwrap_or_else(|| usage());
    let store = match arg(2).as_str() {
        "slab" => WallclockStore::Slab,
        "hashmap" => WallclockStore::HashRef,
        _ => usage(),
    };
    let cfg = WallclockConfig { device_mib: num(3), ru_mib: num(4), ops: num(5), seed: num(6) };
    let r = run_wallclock(&cfg, &profile, store);
    println!("{}", r.record_line());
    std::process::exit(0);
}

/// Child-process entry: `--pool <profile> <mode> <qd> <drivers>
/// <workers> <device_mib> <ru_mib> <ops> <seed>` runs a single cold
/// pool measurement and prints its record line (see
/// `PoolWallclockResult::record_line`).
fn run_pool(args: &[String], i: usize) -> ! {
    let usage = || -> ! {
        eprintln!(
            "error: --pool requires <profile> <mode> <qd> <drivers> <workers> \
             <device_mib> <ru_mib> <ops> <seed>"
        );
        std::process::exit(2);
    };
    let arg = |k: usize| args.get(i + k).unwrap_or_else(|| usage());
    let num = |k: usize| arg(k).parse::<u64>().unwrap_or_else(|_| usage());
    let profile = profile_by_label(arg(1)).unwrap_or_else(|| usage());
    let workers = num(5) as usize;
    let mode = match arg(2).as_str() {
        "inline" => ServiceMode::Inline,
        "reactor" => ServiceMode::Reactor { workers: workers.max(1) },
        _ => usage(),
    };
    let spec = PoolPointSpec { mode, queue_depth: num(3) as usize, drivers: num(4) as usize };
    let cfg = WallclockConfig { device_mib: num(6), ru_mib: num(7), ops: num(8), seed: num(9) };
    let r = run_wallclock_pool(&cfg, &profile, spec);
    println!("{}", r.record_line());
    std::process::exit(0);
}

fn main() {
    // The child protocols are positional and spawned only by this
    // binary's own sweeps, always with the marker first.
    let raw: Vec<String> = std::env::args().collect();
    match raw.get(1).map(String::as_str) {
        Some("--one") => run_one(&raw, 1),
        Some("--pool") => run_pool(&raw, 1),
        _ => {}
    }
    let args = Args::from_env(&[
        Flag::Switch("--check"),
        Flag::Count("--ops"),
        Flag::Count("--trials"),
        Flag::Value("--json"),
    ]);
    let check = args.has("--check");
    let json_path = args.json_destination("wallclock");
    let mut cfg = WallclockConfig::default();
    cfg.ops = args.count("--ops").unwrap_or(cfg.ops);
    let trials = args.count("--trials").unwrap_or(2);

    eprintln!(
        "wallclock sweep: device {} MiB, RU {} MiB, {} ops, slab vs hashmap reference, \
         best of {trials} trial(s), one cold child process per run",
        cfg.device_mib, cfg.ru_mib, cfg.ops
    );
    // A gate verdict on warm in-process runs would be invalid, so
    // --check refuses to fall back when child processes cannot spawn.
    let mode = if check { RunMode::IsolatedStrict } else { RunMode::Isolated };
    let comparisons = sweep_wallclock(&cfg, trials, mode);

    let mut table =
        Table::new(vec!["profile", "store", "ops", "wall (s)", "KOPS", "MiB/s", "speedup"])
            .numeric();
    for c in &comparisons {
        for (r, speedup) in [(&c.slab, c.speedup()), (&c.hash_ref, 1.0)] {
            table.row(vec![
                r.profile.clone(),
                r.store.clone(),
                r.ops.to_string(),
                format!("{:.3}", r.wall_secs),
                format!("{:.0}", r.kops),
                format!("{:.0}", r.mib_per_sec),
                format!("{speedup:.2}x"),
            ]);
        }
    }
    println!("{}", table.render());

    eprintln!(
        "reactor sweep: {REACTOR_SHARDS}-shard pool, inline vs completion reactor, \
         best of {trials} trial(s), one cold child process per run"
    );
    let pool_sweeps = sweep_wallclock_reactor(&cfg, trials, mode);

    let mut pool_table = Table::new(vec![
        "profile", "service", "qd", "drivers", "workers", "wall (s)", "KOPS", "MiB/s", "speedup",
    ])
    .numeric();
    for s in &pool_sweeps {
        let base = s.baseline().kops.max(1e-9);
        for p in &s.points {
            pool_table.row(vec![
                p.profile.clone(),
                p.mode.clone(),
                p.queue_depth.to_string(),
                p.drivers.to_string(),
                p.workers.to_string(),
                format!("{:.3}", p.wall_secs),
                format!("{:.0}", p.kops),
                format!("{:.0}", p.mib_per_sec),
                format!("{:.2}x", p.kops / base),
            ]);
        }
    }
    println!("{}", pool_table.render());

    if let Some(path) = json_path {
        let record = TrajectoryRecord::new_wallclock(
            cfg.device_mib,
            cfg.ops,
            trials,
            &comparisons,
            &pool_sweeps,
        );
        match record.write(&path) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if check {
        let mut gates = Gates::new();
        let mut diverged: Vec<String> = comparisons
            .iter()
            .filter(|c| !c.virtual_clocks_match())
            .map(|c| {
                format!(
                    "virtual clocks diverged across payload stores on {} ({} ns slab vs {} ns \
                     hashmap) — the payload store must never affect virtual-time results",
                    c.slab.profile, c.slab.now_ns, c.hash_ref.now_ns
                )
            })
            .collect();
        diverged.extend(pool_sweeps.iter().filter_map(|s| {
            s.virtual_time_consistent()
                .err()
                .map(|e| format!("{e} — the service mode must never affect virtual-time results"))
        }));
        gates.ran(
            "virtual-time-identity",
            verdict(diverged, || {
                "virtual time bit-identical across stores and service modes on every \
                    profile"
                    .into()
            }),
        );
        let seal = comparisons
            .iter()
            .find(|c| c.slab.profile == "loc_seal_heavy")
            .expect("loc_seal_heavy point");
        let speedup = seal.speedup();
        gates.ran(
            "slab-vs-hashmap",
            if speedup < REQUIRED_SPEEDUP {
                Err(vec![format!(
                    "slab data path is {speedup:.2}x the hash-map reference on loc_seal_heavy \
                     (needs >= {REQUIRED_SPEEDUP:.1}x) — is the hot path allocating per block \
                     again?"
                )])
            } else {
                Ok(format!("slab {speedup:.2}x >= {REQUIRED_SPEEDUP:.1}x on loc_seal_heavy"))
            },
        );
        // Overlap needs cores to show up in wall-clock; the bar
        // adapts to the host exactly like `bench_fullstack --check`.
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let required = match cores {
            0 | 1 => None,
            2 | 3 => Some(1.0),
            _ => Some(REQUIRED_REACTOR_SPEEDUP),
        };
        let reactor_speedup = |label: &str| {
            pool_sweeps
                .iter()
                .find(|s| s.profile == label)
                .unwrap_or_else(|| panic!("{label} sweep"))
                .reactor_speedup()
        };
        match required {
            None => gates.skipped(
                "reactor-overlap",
                &format!(
                    "single core — reactor overlap unobservable ({:.2}x measured on \
                     loc_seal_heavy)",
                    reactor_speedup("loc_seal_heavy")
                ),
            ),
            Some(required) => {
                let slow: Vec<String> = ["loc_seal_heavy", "read_heavy"]
                    .into_iter()
                    .filter(|label| reactor_speedup(label) < required)
                    .map(|label| {
                        format!(
                            "reactor (4 drivers, 4 workers, QD 4) is {:.2}x the inline QD-1 \
                             baseline on {label} (needs >= {required:.2}x on {cores} core(s)) \
                             — is device service back on the caller's thread?",
                            reactor_speedup(label)
                        )
                    })
                    .collect();
                gates.ran(
                    "reactor-overlap",
                    verdict(slow, || {
                        format!(
                            "reactor {:.2}x >= {required:.2}x over inline QD1 on loc_seal_heavy \
                             ({cores} core(s))",
                            reactor_speedup("loc_seal_heavy")
                        )
                    }),
                );
            }
        }
        gates.finish();
    }
}
