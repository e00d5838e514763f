//! Figure 9: average DLWA vs SOC size (4% → 96% of the namespace) at
//! 100% device utilization, KV Cache workload.
//!
//! Paper result: FDP's DLWA rises from 1.03 (4% SOC) to ~2.5 (64%) as
//! the SOC outgrows the device OP cushion; at very large SOC sizes
//! (90-96%) segregation stops helping. Non-FDP stays above 3 throughout.
//!
//! `--gc-policy fifo` reruns the sweep with FIFO victim selection (the
//! DESIGN.md ablation of greedy GC).

use fdpcache_bench::{run_experiment, Cli, ExpConfig, Flag};
use fdpcache_ftl::GcPolicy;
use fdpcache_metrics::{csv, Table};

fn main() {
    let (cli, args) = Cli::parse_with(&[Flag::Value("--gc-policy")]);
    let gc_policy = match args.value("--gc-policy") {
        None | Some("greedy") => GcPolicy::Greedy,
        Some("fifo") => GcPolicy::Fifo,
        Some(other) => {
            eprintln!("error: --gc-policy takes greedy or fifo, got `{other}`");
            std::process::exit(2);
        }
    };
    let mut base = ExpConfig::paper_default();
    base.utilization = 1.0;
    base.gc_policy = gc_policy;
    // Large-SOC points need a working set big enough to churn the whole
    // bucket space, like the paper's 5-day traces.
    base.keyspace_multiple = 16.0;
    let base = if cli.quick { base.quick() } else { base };
    let socs: Vec<f64> = if cli.quick {
        vec![0.04, 0.32, 0.64]
    } else {
        vec![0.04, 0.08, 0.16, 0.32, 0.64, 0.90, 0.96]
    };

    println!("== Figure 9: SOC-size sweep at 100% utilization ({gc_policy:?} GC) ==\n");
    let mut t = Table::new(vec!["SOC %", "FDP DLWA", "Non-FDP DLWA"]).numeric();
    let mut rows = Vec::new();
    for &soc in &socs {
        let fdp = run_experiment(&ExpConfig { soc_fraction: soc, fdp: true, ..base.clone() });
        let non = run_experiment(&ExpConfig { soc_fraction: soc, fdp: false, ..base.clone() });
        t.row(vec![
            format!("{:.0}", soc * 100.0),
            format!("{:.2}", fdp.dlwa_steady),
            format!("{:.2}", non.dlwa_steady),
        ]);
        rows.push(vec![
            format!("{soc}"),
            format!("{}", fdp.dlwa_steady),
            format!("{}", non.dlwa_steady),
        ]);
    }
    println!("{}", t.render());
    cli.write_csv(
        "fig9_soc_sweep.csv",
        &csv::render(&["soc_fraction", "fdp_dlwa", "nonfdp_dlwa"], &rows),
    );
    println!("(paper: FDP 1.03@4% -> ~2.5@64%; no benefit at 90-96%; non-FDP >3 throughout)");
}
