//! Every paper figure, table, ablation and extension as one row of
//! [`FIGURES`], run by the `repro` binary (`repro --fig 6 --quick`).
//!
//! A row lists its cells — labelled deltas on §6.1's configuration
//! ([`ExpConfig::paper_default`]) — and the columns it reports. A cell
//! builds its stack here and runs it through the one replayer
//! ([`Replayer::run`]); only the wear-out cell, which measures no
//! window, serves requests itself. One renderer turns the columns into
//! both the printed table (rounded) and the CSV (every digit); the row
//! closes with the paper's value.
//! `--quick` shrinks every cell ([`ExpConfig::quick`]) and some sweeps;
//! quick runs stop inside the pre-wrap transient and prove nothing about
//! placement.
//!
//! Calibration sweeps are not rows: their results are frozen into
//! `paper_default` and the workload profiles (DESIGN.md §4).

use std::collections::HashMap;
use std::io;
use std::path::Path;

use fdpcache_cache::builder::{
    build_cache, build_device, build_stack, create_namespace, equal_share_fraction, StoreKind,
};
use fdpcache_cache::{ConcurrentPool, HybridCache};
use fdpcache_core::{
    Assignment, DynamicPlacement, EpochFeedback, LoadBalancer, PlacementPolicy, RoundRobinPolicy,
    SharedController, StaticPlacement, StreamId, TemperatureBalancer,
};
use fdpcache_ftl::{FdpEvent, FtlConfig, GcPolicy, RuhType};
use fdpcache_metrics::{csv, Table, TimeSeries};
use fdpcache_model::{
    co2e_from_energy_kg, dlwa_theorem1, embodied_co2e_kg, operational_energy_joules, CarbonParams,
};
use fdpcache_workloads::{serve, ExperimentResult, Replayer, Tenant, TraceGen, WorkloadProfile};

use crate::harness::ExpConfig;

/// One row of the figure table.
pub struct Figure {
    /// What `--fig` selects the row by.
    pub id: &'static str,
    /// The printed header; names the paper figure or section it cites.
    pub title: &'static str,
    cells: fn(bool) -> Vec<Cell>,
    columns: &'static [Column],
    /// Also plot and write the interval-DLWA series (timeline figures).
    series: bool,
    verdict: Option<fn(&[Outcome]) -> String>,
    paper: &'static str,
}

/// A labelled cell of a row, run at full size or under `--quick`.
struct Cell {
    label: String,
    cfg: ExpConfig,
    run: Run,
}

/// How a cell's stack is built. Every kind but `WearOut` runs under the
/// replayer: one cache samples 48 intervals per measurement, and the
/// shared-device kinds (`Tenants`, `Pairs`, `ReclaimGroups`) 32.
#[derive(Clone, Copy)]
enum Run {
    /// One cache.
    Replay,
    /// This many tenants on disjoint namespaces and RUHs of one device,
    /// served round-robin (Fig. 11).
    Tenants(usize),
    /// This many `<SOC, LOC>` engine pairs of one pool, routed by key.
    Pairs(usize),
    /// Two tenants separated by handles in one reclaim group (`false`),
    /// or each in a reclaim group of its own (`true`).
    ReclaimGroups(bool),
    /// One cache whose placement this policy re-decides every epoch.
    Dynamic(fn() -> Box<dyn DynamicPlacement>),
    /// No warm-up or measurement: serve until the device wears out at
    /// this P/E limit.
    WearOut(u32),
}

/// What a cell measured: the replayer's result, plus what the dynamic
/// and wear-out cells count.
#[derive(Debug, Clone, Default)]
struct Outcome {
    run: ExperimentResult,
    epochs: u64,
    retired_rus: u64,
    mean_pe: f64,
}

/// One reported column: the same header in the table and the CSV.
struct Column {
    head: &'static str,
    /// Decimal places in the table; the CSV prints every digit.
    dp: usize,
    get: fn(&ExpConfig, &Outcome) -> f64,
}

const DLWA: Column = Column { head: "DLWA", dp: 2, get: |_, o| o.run.dlwa };
const STEADY: Column = Column { head: "DLWA(steady)", dp: 2, get: |_, o| o.run.dlwa_steady };
const HIT: Column = Column { head: "hit%", dp: 1, get: |_, o| o.run.hit_ratio * 100.0 };
const NVM_HIT: Column = Column { head: "NVM hit%", dp: 1, get: |_, o| o.run.nvm_hit_ratio * 100.0 };
const GC: Column = Column { head: "GC events", dp: 0, get: |_, o| o.run.gc_events as f64 };
const EMBODIED: Column = Column { head: "embodied kgCO2e (5y)", dp: 1, get: |_, o| embodied(o) };

/// The replayer's standard metric set.
const SUMMARY: &[Column] = &[
    DLWA,
    STEADY,
    HIT,
    NVM_HIT,
    Column { head: "ALWA", dp: 2, get: |_, o| o.run.alwa },
    Column { head: "KOPS", dp: 2, get: |_, o| o.run.kops },
    Column { head: "p99 rd (us)", dp: 0, get: |_, o| o.run.p99_read_us },
    Column { head: "p99 wr (us)", dp: 0, get: |_, o| o.run.p99_write_us },
    GC,
];

/// Fig. 10's operational side: pages GC relocated, and Theorem 3's
/// energy at a program-dominated 250 µJ mean per page.
fn relocated_pages(o: &Outcome) -> u64 {
    (o.run.media_bytes - o.run.host_bytes) / 4096
}

/// Theorem 2's embodied carbon over a 5-year lifecycle at the steady DLWA.
fn embodied(o: &Outcome) -> f64 {
    embodied_co2e_kg(o.run.dlwa_steady, &CarbonParams::default())
}

fn op_energy_j(o: &Outcome) -> f64 {
    operational_energy_joules(o.run.host_bytes / 4096, relocated_pages(o), 250.0)
}

/// Theorem 1 (Equation 6) for a cell: S_SOC is the SOC's logical size;
/// S_P-SOC adds the device OP that segregation reserves for SOC data.
fn theorem1(c: &ExpConfig) -> f64 {
    let raw = (c.device_gib << 30) as f64;
    let s_soc = raw * (1.0 - c.op_fraction) * c.utilization * c.soc_fraction;
    dlwa_theorem1(s_soc, s_soc + raw * c.op_fraction).unwrap_or(f64::INFINITY)
}

fn tbw_gib(o: &Outcome) -> f64 {
    o.run.host_bytes as f64 / (1u64 << 30) as f64
}

/// §6.1's configuration, shrunk under `--quick`. Rows apply their
/// deltas on top: `quick` shortens the run and caps the device at 4 GiB,
/// and touches nothing else.
fn paper(quick: bool) -> ExpConfig {
    let cfg = ExpConfig::paper_default();
    if quick {
        cfg.quick()
    } else {
        cfg
    }
}

fn cell(label: impl Into<String>, cfg: ExpConfig, run: Run) -> Cell {
    Cell { label: label.into(), cfg, run }
}

/// The FDP then the Non-FDP cell of `cfg`, labelled `FDP<tag>` and
/// `Non-FDP<tag>`.
fn fdp_vs_non(cfg: &ExpConfig, tag: &str, run: Run) -> [Cell; 2] {
    [true, false].map(|fdp| {
        let cfg = ExpConfig { fdp, ..cfg.clone() };
        cell(format!("{}{tag}", cfg.label()), cfg, run)
    })
}

fn util_sweep(base: &ExpConfig, utils: &[f64]) -> Vec<Cell> {
    let at = |u: f64| ExpConfig { utilization: u, ..base.clone() };
    utils
        .iter()
        .flat_map(|&u| fdp_vs_non(&at(u), &format!(" @{:.0}%", u * 100.0), Run::Replay))
        .collect()
}

/// Fig. 6's utilization axis, under `--quick` its two ends.
fn fig6_utils(quick: bool) -> &'static [f64] {
    let utils: &[f64] = if quick { &[0.5, 1.0] } else { &[0.5, 0.9, 0.95, 1.0] };
    utils
}

/// §6.1's configuration at 100% utilization, where most rows run.
fn full(quick: bool) -> ExpConfig {
    ExpConfig { utilization: 1.0, ..paper(quick) }
}

/// §6.1's configuration on the write-only KV Cache workload.
fn wo_kv(quick: bool) -> ExpConfig {
    ExpConfig { workload: WorkloadProfile::wo_kv_cache(), ..paper(quick) }
}

/// Fig. 9's SOC sweep at 100% utilization; the large-SOC points need a
/// working set that churns the whole bucket space, like the paper's
/// 5-day traces.
fn fig9(quick: bool, gc_policy: GcPolicy) -> Vec<Cell> {
    let base = ExpConfig { gc_policy, keyspace_multiple: 16.0, ..full(quick) };
    let socs: &[f64] =
        if quick { &[0.04, 0.32, 0.64] } else { &[0.04, 0.08, 0.16, 0.32, 0.64, 0.90, 0.96] };
    let at = |s: f64| ExpConfig { soc_fraction: s, ..base.clone() };
    socs.iter()
        .flat_map(|&s| fdp_vs_non(&at(s), &format!(" SOC {:.0}%", s * 100.0), Run::Replay))
        .collect()
}

fn reduction(o: &[Outcome]) -> String {
    let (fdp, non) = (o[0].run.dlwa_steady, o[1].run.dlwa_steady);
    format!("FDP steady DLWA {fdp:.2}, Non-FDP {non:.2} -> {:.2}x reduction", non / fdp.max(1e-9))
}

/// A row's defaults: the replayer's metric set, no series, no verdict.
const ROW: Figure = Figure {
    id: "",
    title: "",
    cells: |_| Vec::new(),
    columns: SUMMARY,
    series: false,
    verdict: None,
    paper: "",
};

/// The rows `repro --fig <id>` selects from, in `--fig all` order.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "5",
        title: "Figure 5: DLWA timeline, KV Cache, 50% utilization, 4% SOC",
        cells: |q| fdp_vs_non(&paper(q), "", Run::Replay).into(),
        series: true,
        verdict: Some(reduction),
        paper: "1.03 vs 1.3, a 1.3x reduction",
        ..ROW
    },
    Figure {
        id: "6",
        title: "Figure 6: utilization sweep, KV Cache, 4% SOC",
        cells: |q| util_sweep(&paper(q), fig6_utils(q)),
        paper: "Non-FDP 1.3 -> 3.5 over 50 -> 100% util, FDP flat ~1.03; \
                FDP p99s better at high util; ALWA identical",
        ..ROW
    },
    Figure {
        id: "7",
        title: "Figure 7: Twitter cluster12 (SET:GET = 4:1), 50% and 100% utilization",
        // The paper gives Twitter 16 GB of DRAM, not 42 (≈ 1.7% of 930 GB).
        cells: |q| {
            let workload = WorkloadProfile::twitter_cluster12();
            util_sweep(&ExpConfig { workload, dram_fraction: 0.017, ..paper(q) }, &[0.5, 1.0])
        },
        series: true,
        paper: "FDP holds DLWA at ~1 at both 50% and 100% utilization",
        ..ROW
    },
    Figure {
        id: "8",
        title: "Figure 8: write-only KV Cache, 50% and 100% utilization",
        cells: |q| util_sweep(&wo_kv(q), &[0.5, 1.0]),
        series: true,
        paper: "FDP holds DLWA at ~1 at both 50% and 100% utilization",
        ..ROW
    },
    Figure {
        id: "9",
        title: "Figure 9: SOC-size sweep at 100% utilization, greedy GC",
        cells: |q| fig9(q, GcPolicy::Greedy),
        paper: "FDP 1.03@4% -> ~2.5@64%; no benefit at 90-96%; non-FDP >3 throughout",
        ..ROW
    },
    Figure {
        id: "10",
        title: "Figure 10: carbon (Theorems 2 and 3), KV Cache @ 100% utilization",
        cells: |q| fdp_vs_non(&full(q), "", Run::Replay).into(),
        columns: &[
            STEADY,
            EMBODIED,
            GC,
            Column { head: "relocations (pages)", dp: 0, get: |_, o| relocated_pages(o) as f64 },
            Column { head: "op energy (J)", dp: 1, get: |_, o| op_energy_j(o) },
            Column {
                head: "op kgCO2e",
                dp: 4,
                get: |_, o| co2e_from_energy_kg(op_energy_j(o), &CarbonParams::default()),
            },
        ],
        verdict: Some(|o| {
            format!(
                "GC events ratio (Non-FDP / FDP): {:.1}x, embodied carbon ratio: {:.1}x",
                o[1].run.gc_events as f64 / o[0].run.gc_events.max(1) as f64,
                embodied(&o[1]) / embodied(&o[0])
            )
        }),
        paper: "GC events ~3.6x fewer with FDP; embodied carbon ~3.4x ('4x' headline)",
        ..ROW
    },
    Figure {
        id: "11",
        title: "Figure 11: two WO-KV tenants sharing one device, no host OP, round-robin",
        cells: |q| {
            fdp_vs_non(&ExpConfig { utilization: 1.0, ..wo_kv(q) }, "", Run::Tenants(2)).into()
        },
        columns: &[
            DLWA,
            STEADY,
            Column { head: "tenant 0 hit%", dp: 1, get: |_, o| o.run.tenant_hit_ratios[0] * 100.0 },
            Column { head: "tenant 1 hit%", dp: 1, get: |_, o| o.run.tenant_hit_ratios[1] * 100.0 },
            GC,
        ],
        series: true,
        verdict: Some(reduction),
        paper: "~1 vs ~3.5, a 3.5x reduction from placement alone",
    },
    Figure {
        id: "12",
        title: "Figure 12 (Appendix A.3): Theorem 1 model vs simulator, FDP, 100% utilization",
        cells: |q| {
            let base = ExpConfig { keyspace_multiple: 16.0, ..full(q) };
            let socs: &[f64] =
                if q { &[0.04, 0.32, 0.64] } else { &[0.04, 0.08, 0.16, 0.32, 0.64, 0.90] };
            let at = |s: f64| ExpConfig { soc_fraction: s, ..base.clone() };
            socs.iter()
                .map(|&s| cell(format!("SOC {:.0}%", s * 100.0), at(s), Run::Replay))
                .collect()
        },
        columns: &[
            Column { head: "model DLWA", dp: 2, get: |c, _| theorem1(c) },
            STEADY,
            Column {
                head: "error %",
                dp: 1,
                get: |c, o| (theorem1(c) - o.run.dlwa_steady).abs() / o.run.dlwa_steady * 100.0,
            },
        ],
        paper: "model tracks measurement; <=~16% divergence at high SOC sizes",
        ..ROW
    },
    Figure {
        id: "13",
        title: "Figure 13 (Appendix B): write-only KV Cache utilization sweep",
        cells: |q| util_sweep(&wo_kv(q), fig6_utils(q)),
        verdict: Some(|o| {
            let (f, n) = (&o[o.len() - 2].run, &o[o.len() - 1].run);
            format!(
                "at 100%: DLWA {:.1}x, p99 read {:.1}x, p99 write {:.1}x better with FDP",
                n.dlwa_steady / f.dlwa_steady.max(1e-9),
                n.p99_read_us / f.p99_read_us.max(1e-9),
                n.p99_write_us / f.p99_write_us.max(1e-9),
            )
        }),
        paper: "3.5x / 2.2x / 9.5x at 100%",
        ..ROW
    },
    Figure {
        id: "t2",
        title: "Table 2: DRAM sweep, KV Cache @ 100% utilization, 4% SOC",
        // The paper's 4 / 20 / 42 GB of DRAM against a 930 GB namespace.
        cells: |q| {
            let base = full(q);
            let at = |gb: f64| ExpConfig { dram_fraction: gb / 930.0, ..base.clone() };
            [4.0, 20.0, 42.0]
                .iter()
                .flat_map(|&gb| fdp_vs_non(&at(gb), &format!(" {gb}GB"), Run::Replay))
                .collect()
        },
        columns: &[
            HIT,
            NVM_HIT,
            Column { head: "KGET/s", dp: 2, get: |_, o| o.run.kgets },
            EMBODIED,
        ],
        paper: "less DRAM: lower hit ratio and KGET/s, higher NVM hit ratio; \
                CO2e FDP ~350-410 vs Non-FDP ~1080-1140",
        ..ROW
    },
    Figure {
        id: "9-fifo",
        title: "Figure 9 with FIFO GC victim selection (ablation of greedy GC)",
        cells: |q| fig9(q, GcPolicy::Fifo),
        paper: "Fig. 9 is measured with greedy GC; no FIFO value",
        ..ROW
    },
    Figure {
        id: "isolation",
        title: "Ablation, Insight 5: initially vs persistently isolated RUHs, FDP @ 100%",
        cells: |q| {
            let base = full(q);
            [RuhType::InitiallyIsolated, RuhType::PersistentlyIsolated]
                .map(|ruh_type| ExpConfig { ruh_type, ..base.clone() })
                .map(|cfg| cell(format!("{:?}", cfg.ruh_type), cfg, Run::Replay))
                .into()
        },
        verdict: Some(|o| {
            format!("DLWA gap: {:.3}", (o[1].run.dlwa_steady - o[0].run.dlwa_steady).abs())
        }),
        paper: "only SOC data is relocated, so initially isolated suffices: a small gap",
        ..ROW
    },
    Figure {
        id: "loc-trim",
        title: "Ablation, §5.5 lesson 1: TRIM a LOC region on eviction, 64 and 16 MiB RUs @ 100%",
        cells: |q| {
            let base = full(q);
            [64, 16]
                .iter()
                .flat_map(|&ru_mib| {
                    [false, true].map(|trim| {
                        let cfg = ExpConfig { ru_mib, trim_on_evict: trim, ..base.clone() };
                        let name = if trim { "trim" } else { "no-trim" };
                        cell(format!("{name} RU={ru_mib}MiB"), cfg, Run::Replay)
                    })
                })
                .collect()
        },
        paper: "minimal gains at large RUs (shelved); speculated benefit at smaller RUs",
        ..ROW
    },
    Figure {
        id: "dynamic",
        title: "Ablation, §5.5 lesson 2: dynamic vs static placement, FDP @ 100%",
        cells: |q| {
            let base = full(q);
            let policies: [fn() -> Box<dyn DynamicPlacement>; 3] = [
                || Box::new(StaticPlacement),
                || Box::new(LoadBalancer::default()),
                || Box::new(TemperatureBalancer::default()),
            ];
            policies.map(|p| cell(p().name(), base.clone(), Run::Dynamic(p))).into()
        },
        columns: &[
            DLWA,
            Column { head: "epochs", dp: 0, get: |_, o| o.epochs as f64 },
            Column { head: "ALWA", dp: 2, get: |_, o| o.run.alwa },
        ],
        verdict: Some(|o| {
            let gain = o[1..].iter().map(|d| o[0].run.dlwa - d.run.dlwa).fold(0.0, f64::max);
            format!("best dynamic-over-static DLWA gain: {gain:.3}")
        }),
        paper: "\"minimal gains compared to the engineering complexity\"",
        ..ROW
    },
    Figure {
        id: "lifetime",
        title: "Extension, §2.2 and Theorem 2: host bytes written until wear-out, 4 GiB @ 100%",
        cells: |q| {
            let base = ExpConfig { device_gib: 4, ..full(q) };
            fdp_vs_non(&base, "", Run::WearOut(if q { 40 } else { 120 })).into()
        },
        columns: &[
            Column { head: "TBW (GiB)", dp: 1, get: |_, o| tbw_gib(o) },
            DLWA,
            Column { head: "retired RUs", dp: 0, get: |_, o| o.retired_rus as f64 },
            Column { head: "mean P/E", dp: 0, get: |_, o| o.mean_pe },
        ],
        verdict: Some(|o| {
            format!(
                "TBW ratio (FDP/Non-FDP) = {:.2}, inverse DLWA ratio = {:.2}",
                tbw_gib(&o[0]) / tbw_gib(&o[1]).max(1e-9),
                o[1].run.dlwa / o[0].run.dlwa.max(1e-9)
            )
        }),
        paper: "SSD lifetime is inversely proportional to DLWA",
        ..ROW
    },
    Figure {
        id: "pairs",
        title: "Extension, §5.3: 1, 2 and 4 engine pairs on one device @ 100%",
        cells: |q| {
            let base = full(q);
            [1, 2, 4]
                .iter()
                .flat_map(|&n| fdp_vs_non(&base, &format!(" {n} pairs"), Run::Pairs(n)))
                .collect()
        },
        columns: &[DLWA, HIT, GC],
        paper: "8 RUHs fit 4 <SOC, LOC> pairs; FDP should hold DLWA ≈ 1 at every count",
        ..ROW
    },
    Figure {
        id: "rgroups",
        title: "Extension, §3.2: 2 WO-KV tenants isolated by RUHs or reclaim groups @ 100%",
        cells: |q| {
            let base = ExpConfig { utilization: 1.0, ..wo_kv(q) };
            vec![
                cell("RUH-only (Fig. 11 setup)", base.clone(), Run::ReclaimGroups(false)),
                cell("per-tenant RG", base, Run::ReclaimGroups(true)),
            ]
        },
        columns: &[DLWA, GC],
        paper: "one group on the paper's device; both should hold DLWA ≈ 1 (Insight 5), \
                RGs adding a hard guarantee at the cost of split spare capacity",
        ..ROW
    },
];

/// The rows `--fig <id>` names: one row, or every row for `all`.
///
/// # Errors
///
/// An unknown id, with the list of known ones.
pub fn select(id: &str) -> Result<&'static [Figure], String> {
    if id == "all" {
        return Ok(FIGURES);
    }
    FIGURES.iter().find(|f| f.id == id).map(std::slice::from_ref).ok_or_else(|| {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        format!("unknown figure `{id}` (known: {}, all)", known.join(", "))
    })
}

impl Figure {
    /// Runs every cell; prints the table, the verdict and the paper's
    /// value; writes `repro-<id>.csv` (and the timeline figures'
    /// `repro-<id>-series.csv`) into `out_dir`.
    ///
    /// # Errors
    ///
    /// The first CSV that could not be written; everything is printed
    /// regardless.
    pub fn run(&self, quick: bool, out_dir: &str) -> io::Result<()> {
        println!("== {}: {} ==\n", self.id, self.title);
        let cells = (self.cells)(quick);
        let outcomes: Vec<Outcome> = cells.iter().map(Cell::run).collect();
        let (table, body) = render(self.columns, &cells, &outcomes);
        println!("{table}");
        let mut written = write_csv(out_dir, &format!("repro-{}.csv", self.id), &body);
        if self.series {
            let mut series = Vec::new();
            for (c, o) in cells.iter().zip(&outcomes) {
                let mut s = TimeSeries::new(c.label.clone());
                o.run.dlwa_series.iter().for_each(|&(x, y)| s.push(x, y));
                println!("{}", s.render_ascii(48));
                series.push(s);
            }
            let body = csv::render_series(&series.iter().collect::<Vec<_>>());
            written =
                written.and(write_csv(out_dir, &format!("repro-{}-series.csv", self.id), &body));
        }
        if let Some(verdict) = self.verdict {
            println!("{}", verdict(&outcomes));
        }
        println!("(paper: {})\n", self.paper);
        written
    }
}

/// The table (each column rounded to its places) and the CSV (every
/// digit) of one row's outcomes, under one header.
fn render(columns: &[Column], cells: &[Cell], outcomes: &[Outcome]) -> (String, String) {
    let head: Vec<&str> = std::iter::once("config").chain(columns.iter().map(|c| c.head)).collect();
    let mut table = Table::new(head.clone()).numeric();
    let mut rows = Vec::new();
    for (cell, o) in cells.iter().zip(outcomes) {
        let (mut shown, mut full) = (vec![cell.label.clone()], vec![cell.label.clone()]);
        for c in columns {
            let v = (c.get)(&cell.cfg, o);
            shown.push(format!("{v:.*}", c.dp));
            full.push(v.to_string());
        }
        table.row(shown);
        rows.push(full);
    }
    (table.render(), csv::render(&head, &rows))
}

/// Writes one CSV into `dir`, creating it as needed.
fn write_csv(dir: &str, name: &str, body: &str) -> io::Result<()> {
    let path = Path::new(dir).join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

impl Cell {
    fn run(&self) -> Outcome {
        let cfg = &self.cfg;
        let run = match self.run {
            Run::Replay => {
                let (ctrl, cache, gen) = single(cfg, cfg.ftl_config());
                replay(cfg, 48, &ctrl, &mut [cache], &mut [gen], |_, _| {})
            }
            Run::Tenants(n) => {
                let per = (cfg.ftl_config().num_ruhs as usize / n).max(1);
                let ruhs = |t: usize| (0..per as u8).map(|i| (t * per) as u8 + i).collect();
                shared(cfg, cfg.ftl_config(), n, ruhs, |_| Box::new(RoundRobinPolicy::new()))
            }
            Run::Pairs(n) => {
                let ctrl = build_device(cfg.ftl_config(), StoreKind::Null, cfg.fdp)
                    .unwrap_or_else(|e| panic!("device: {e}"));
                let pool = ConcurrentPool::new(
                    &ctrl,
                    &cfg.cache_config_for_build(),
                    n,
                    cfg.utilization,
                    || Box::new(RoundRobinPolicy::new()),
                )
                .unwrap_or_else(|e| panic!("pool: {e}"));
                let shard_bytes =
                    pool.with_shard(0, |c| c.navy().io().capacity_bytes()).expect("pair 0");
                let keyspace =
                    cfg.workload.keyspace_for(shard_bytes * n as u64, cfg.keyspace_multiple);
                let gen = cfg.workload.generator(keyspace, cfg.seed);
                replay(cfg, 32, &ctrl, &mut [&pool], &mut [gen], |_, _| {})
            }
            Run::ReclaimGroups(isolated) => {
                let ftl = FtlConfig { num_rgs: if isolated { 2 } else { 1 }, ..cfg.ftl_config() };
                // A group per tenant, or one group whose four handles the
                // tenants split two and two.
                let policy = |t: usize| -> Box<dyn PlacementPolicy> {
                    let (rg, next) = if isolated { (t as u8, 0) } else { (0, 2 * t as u16) };
                    Box::new(GroupPolicy { rg, next })
                };
                shared(cfg, ftl, 2, |_| (0..4).collect(), policy)
            }
            Run::Dynamic(policy) => return dynamic(cfg, policy()),
            Run::WearOut(pe_limit) => {
                let (ctrl, mut cache, mut gen) =
                    single(cfg, FtlConfig { pe_limit, ..cfg.ftl_config() });
                // Every host page spends endurance, so this ends.
                while serve(&mut cache, gen.next_request()).is_ok() {}
                let log = ctrl.fdp_stats_log();
                let (dlwa, host_bytes) = (log.dlwa(), log.host_bytes_written);
                let (retired_rus, mean_pe) =
                    ctrl.with_ftl(|f| (f.stats().retired_rus, f.wear().mean_pe));
                let run = ExperimentResult { dlwa, host_bytes, ..ExperimentResult::default() };
                return Outcome { run, retired_rus, mean_pe, ..Outcome::default() };
            }
        };
        Outcome { run, ..Outcome::default() }
    }
}

/// Round-robin from the `next`-th handle, within reclaim group `rg`:
/// placement identifiers carry the group in their upper byte
/// (`PlacementHandle::with_pid`).
struct GroupPolicy {
    rg: u8,
    next: u16,
}

impl PlacementPolicy for GroupPolicy {
    fn pick(&mut self, _consumer: &str, available: &[u16]) -> Option<u16> {
        let ph = available.get(self.next as usize).copied()?;
        self.next += 1;
        Some(((self.rg as u16) << 8) | ph)
    }
}

/// One cache from `build_stack` on `ftl`, with its own generator.
fn single(cfg: &ExpConfig, ftl: FtlConfig) -> (SharedController, HybridCache, TraceGen) {
    let cache_cfg = cfg.cache_config_for_build();
    let (ctrl, cache) = build_stack(ftl, StoreKind::Null, cfg.fdp, cfg.utilization, &cache_cfg)
        .unwrap_or_else(|e| panic!("stack: {e}"));
    let keyspace =
        cfg.workload.keyspace_for(cache.navy().io().capacity_bytes(), cfg.keyspace_multiple);
    let gen = cfg.workload.generator(keyspace, cfg.seed);
    (ctrl, cache, gen)
}

/// `n` tenants sharing a device on `ftl`, tenant `t` on an equal share
/// with handles `ruhs(t)`, placement `policy(t)` and seed `seed + t`,
/// under the replayer.
fn shared(
    cfg: &ExpConfig,
    ftl: FtlConfig,
    n: usize,
    ruhs: impl Fn(usize) -> Vec<u8>,
    policy: impl Fn(usize) -> Box<dyn PlacementPolicy>,
) -> ExperimentResult {
    let ctrl =
        build_device(ftl, StoreKind::Null, cfg.fdp).unwrap_or_else(|e| panic!("device: {e}"));
    let (mut caches, mut gens): (Vec<_>, Vec<_>) = (0..n)
        .map(|t| {
            let nsid =
                create_namespace(&ctrl, equal_share_fraction(t, n, cfg.utilization), ruhs(t))
                    .unwrap_or_else(|e| panic!("namespace: {e}"));
            let ns_bytes = ctrl.namespace(nsid).expect("created").capacity_bytes(ctrl.lba_bytes());
            let cache = build_cache(&ctrl, nsid, &cfg.cache_config(ns_bytes), policy(t))
                .unwrap_or_else(|e| panic!("cache: {e}"));
            let keyspace = cfg.workload.keyspace_for(ns_bytes, cfg.keyspace_multiple);
            (cache, cfg.workload.generator(keyspace, cfg.seed + t as u64))
        })
        .unzip();
    replay(cfg, 32, &ctrl, &mut caches, &mut gens, |_, _| {})
}

/// `tenants` of `ctrl` under the replayer, sampling `points` intervals
/// per measurement.
fn replay<T: Tenant>(
    cfg: &ExpConfig,
    points: u64,
    ctrl: &SharedController,
    tenants: &mut [T],
    gens: &mut [TraceGen],
    observe: impl FnMut(&mut [T], Option<u64>),
) -> ExperimentResult {
    let replayer = Replayer::new(cfg.replay_config(points));
    let run = replayer.run(cfg.label(), cfg.workload.name, tenants, gens, ctrl, observe);
    run.unwrap_or_else(|e| panic!("replay: {e}"))
}

/// §5.5 lesson 2's loop: from the measurement origin, every sixteenth
/// of a device turnover digest the epoch's relocation events and
/// per-handle host pages, ask `policy` for the SOC and LOC handles, and
/// re-bind.
fn dynamic(cfg: &ExpConfig, mut policy: Box<dyn DynamicPlacement>) -> Outcome {
    let (ctrl, cache, gen) = single(cfg, cfg.ftl_config());
    let epoch_bytes = ((cfg.device_gib << 30) / 16).max(16 << 20);
    let (soc, loc) = (StreamId("soc-0".to_string()), StreamId("loc-0".to_string()));
    let mut assignment: Assignment = HashMap::from([
        (soc.clone(), cache.navy().soc().handle()),
        (loc.clone(), cache.navy().loc().handle()),
    ]);
    // `build_stack` hands its namespace every RUH in order: placement
    // identifier `d` is RUH `d`.
    let available: Vec<u16> = (0..ctrl.config().num_ruhs as u16).collect();
    let host_pages = || ctrl.with_ftl(|f| f.ruh_host_pages().to_vec());
    let (mut last_pages, mut next_epoch, mut epochs) = (Vec::new(), epoch_bytes, 0);

    let run = replay(cfg, 48, &ctrl, &mut [cache], &mut [gen], |caches, written| {
        let Some(written) = written else {
            // The measurement origin opens the first epoch.
            ctrl.drain_fdp_events();
            last_pages = host_pages();
            return;
        };
        if written < next_epoch {
            return;
        }
        next_epoch += epoch_bytes;
        epochs += 1;
        let mut feedback = EpochFeedback::default();
        for e in ctrl.drain_fdp_events() {
            if let FdpEvent::MediaRelocated { owner, relocated_pages, .. } = e {
                *feedback.relocated_pages.entry(owner.map(u16::from)).or_default() +=
                    relocated_pages;
            }
        }
        let pages = host_pages();
        for (ruh, (now, then)) in pages.iter().zip(&last_pages).enumerate() {
            feedback.host_pages.insert(ruh as u16, now - then);
        }
        last_pages = pages;
        let next = policy.rebalance(&assignment, &available, &feedback);
        if next != assignment {
            assignment = next;
            caches[0].navy_mut().set_handles(assignment[&soc], assignment[&loc]);
        }
    });
    Outcome { run, epochs, ..Outcome::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outcome every column and verdict can read.
    fn sample() -> Outcome {
        let run = ExperimentResult {
            dlwa: 1.25,
            dlwa_steady: 1.2345,
            gc_events: 42,
            tenant_hit_ratios: vec![0.5, 0.25],
            ..Default::default()
        };
        Outcome { run, ..Outcome::default() }
    }

    #[test]
    fn every_row_and_cell_is_well_formed_at_both_sizes() {
        let ids: std::collections::HashSet<&str> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(ids.len(), FIGURES.len(), "row ids are unique");
        assert_eq!(select("all").expect("all").len(), FIGURES.len());
        assert!(select("99").err().expect("no row 99").contains("rgroups"));
        for f in FIGURES {
            for quick in [false, true] {
                let cells = (f.cells)(quick);
                for c in &cells {
                    let at = format!("{} / {} (quick {quick})", f.id, c.label);
                    c.cfg.ftl_config().validate().unwrap_or_else(|e| panic!("{at}: {e}"));
                }
                let outcomes = vec![sample(); cells.len()];
                let (table, body) = render(f.columns, &cells, &outcomes);
                // One column list: the CSV header, in order, is the table's.
                let csv_head = body.lines().next().expect("a header");
                let mut rest = table.lines().next().expect("a header");
                for h in csv_head.split(',') {
                    let at = rest.find(h).unwrap_or_else(|| panic!("{}: `{h}` not in table", f.id));
                    rest = &rest[at + h.len()..];
                }
                assert_eq!(csv_head.split(',').count(), f.columns.len() + 1, "{}", f.id);
                assert_eq!(body.lines().count(), cells.len() + 1, "{}", f.id);
                assert_eq!(table.lines().count(), cells.len() + 2, "{}", f.id);
                assert!(!cells.is_empty() && f.verdict.is_none_or(|v| !v(&outcomes).is_empty()));
            }
        }
        // The table rounds; the CSV keeps every digit and reaches the
        // disk, or the write says why not.
        let (table, body) = render(SUMMARY, &(FIGURES[0].cells)(true), &[sample(), sample()]);
        assert!(table.contains("Non-FDP") && table.contains("1.23") && !table.contains("1.2345"));
        assert!(body.lines().nth(1).expect("FDP row").starts_with("FDP,1.25,1.2345,"));
        assert!(body.lines().nth(2).expect("Non-FDP row").starts_with("Non-FDP,1.25,1.2345,"));
        let dir = std::env::temp_dir().join("fdpcache_figures_test");
        write_csv(&dir.to_string_lossy(), "x.csv", &body).expect("csv written");
        assert_eq!(std::fs::read_to_string(dir.join("x.csv")).expect("csv read back"), body);
        let under_a_file = dir.join("x.csv").join("sub");
        let err = write_csv(&under_a_file.to_string_lossy(), "y.csv", &body).expect_err("a file");
        assert!(err.to_string().contains("y.csv"), "names the path: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
