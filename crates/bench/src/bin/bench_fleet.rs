//! Fleet-scale open-loop serving gate — multi-tenant SLOs on a shared
//! FDP device plus health-routed failover across a multi-device tier.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin bench_fleet [-- --check] [--ops N] [--json PATH]
//! ```
//!
//! Runs the open-loop tenant scenario (four-tenant catalog: two
//! isolated, one scripted aggressor, one admission-budgeted) at worker
//! counts 1/2/4 plus a rerun, then the scripted device-failure
//! scenario (three devices behind the consistent-hash
//! [`fdpcache_cache::FleetRouter`], mid-stream media-error storm on
//! one) twice.
//!
//! With `--check` the gate asserts:
//!
//! * every observable is **bit-identical** across reruns *and* worker
//!   counts (per-shard virtual clocks, SLO rollups, phase p99s, cache
//!   counters, DLWA);
//! * the isolated tenants' p99 stays flat through the aggressor's
//!   overload burst and their declared SLOs are met, while the
//!   aggressor's own burst p99 inflates ≥10× (the driver really
//!   measures the overload it offers);
//! * the budgeted tenant sheds only under the burst — never before;
//! * the shared FDP device's DLWA stays ≈1 under the full mix;
//! * the scripted device failure is detected via the device's own
//!   health state machine, the ring routes around the victim, and
//!   **zero acknowledged writes are lost**.
//!
//! `--json PATH` writes the sweep as a `BENCH_fleet.json` trajectory
//! record (format documented in the README).

use fdpcache_bench::{sweep_fleet, verdict, Args, Flag, FleetGateConfig, Gates, TrajectoryRecord};
use fdpcache_metrics::Table;

fn main() {
    let args =
        Args::from_env(&[Flag::Switch("--check"), Flag::Count("--ops"), Flag::Value("--json")]);
    let check = args.has("--check");
    let json_path = args.json_destination("fleet");
    let mut cfg = FleetGateConfig::default();
    cfg.failover_ops = args.count("--ops").unwrap_or(cfg.failover_ops);

    eprintln!(
        "fleet sweep: device {} MiB, RU {} MiB, {} virtual ms horizon, burst x{} at \
         [{}..{}) ms, {} failover ops across {} devices",
        cfg.device_mib,
        cfg.ru_mib,
        cfg.horizon_ns / 1_000_000,
        cfg.burst.multiplier,
        cfg.burst.start_ns / 1_000_000,
        cfg.burst.end_ns / 1_000_000,
        cfg.failover_ops,
        cfg.devices
    );
    let sweep = sweep_fleet(&cfg);
    let base = &sweep.tenant_runs[0];

    let fmt_us = |v: Option<f64>| v.map(|x| format!("{x:.0}")).unwrap_or_else(|| "-".into());
    let mut tenants = Table::new(vec![
        "tenant", "admitted", "shed", "p50us", "p99us", "pre99", "burst99", "post99", "slo",
    ])
    .numeric();
    for (s, p) in base.summaries.iter().zip(&base.phases) {
        tenants.row(vec![
            s.tenant.clone(),
            s.admitted.to_string(),
            s.shed.to_string(),
            fmt_us(s.p50_us),
            fmt_us(s.p99_us),
            fmt_us(p.pre_p99_us),
            fmt_us(p.burst_p99_us),
            fmt_us(p.post_p99_us),
            if s.met { "met".into() } else { "MISS".into() },
        ]);
    }
    println!("{}", tenants.render());
    println!(
        "shared device: DLWA {:.3} (steady {:.3}), {:.1} MiB host writes, {} shards, \
         deterministic across workers {:?} + rerun: {}",
        base.dlwa,
        base.experiment.dlwa_steady,
        base.host_bytes as f64 / (1 << 20) as f64,
        base.shard_now_ns.len(),
        sweep.tenant_runs.iter().map(|r| r.workers).collect::<Vec<_>>(),
        sweep.tenant_runs[1..].iter().all(|r| base.matches(r)) && base.matches(&sweep.tenant_rerun)
    );

    let f = &sweep.failover;
    let mut devices =
        Table::new(vec!["device", "routed", "failed_over", "health", "rate_ppm", "faults"])
            .numeric();
    for d in &f.devices {
        devices.row(vec![
            d.device.clone(),
            d.routed.to_string(),
            d.failed_over.to_string(),
            d.health.clone(),
            d.rate_ppm.to_string(),
            d.faults.to_string(),
        ]);
    }
    println!("{}", devices.render());
    println!(
        "failover: {} surfaced, {} acked -> {} verified / {} absent / {} unverifiable / \
         {} lost, rerun bit-identical: {}",
        f.surfaced,
        f.acked,
        f.verified,
        f.absent,
        f.unverifiable,
        f.lost,
        f.matches(&sweep.failover_rerun)
    );

    if let Some(path) = json_path {
        TrajectoryRecord::new_fleet(cfg.device_mib, &sweep).emit(&path);
    }

    if check {
        let fails = sweep.gate_failures(&cfg);
        let mut gates = Gates::new();
        gates.ran(
            "fleet",
            verdict(fails, || {
                format!(
                    "{} tenant runs bit-identical across workers {:?} + rerun, isolated p99 \
                     flat and SLOs met through a x{} burst, budgeted tenant shed only under \
                     the burst, DLWA {:.3} <= {}, victim device evicted via its health state \
                     machine with zero lost acknowledged writes",
                    sweep.tenant_runs.len(),
                    fdpcache_bench::FLEET_WORKERS,
                    cfg.burst.multiplier,
                    base.dlwa,
                    fdpcache_bench::FLEET_DLWA_CEILING
                )
            }),
        );
        gates.finish();
    }
}
