//! `fdpbench`: the repo benchmark's one command. See `cli::USAGE`.

use std::collections::BTreeMap;
use std::process::{Command as Process, ExitCode, Stdio};
use std::time::Instant;

use fdpcache_benchmark::cli::{self, Command};
use fdpcache_benchmark::json::{self, ResultSet};
use fdpcache_benchmark::run::{self, RunArgs};
use fdpcache_benchmark::spec::{self, Metric};
use fdpcache_benchmark::{compare, host};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fdpbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        Command::Help => {
            println!("{}", cli::USAGE);
            true
        }
        Command::List => {
            list();
            true
        }
        Command::Compare { a, b } => match compare_files(&a, &b) {
            Ok(clean) => clean,
            Err(e) => {
                eprintln!("fdpbench: {e}");
                return ExitCode::from(2);
            }
        },
        Command::Single { workload, seed, seconds, traced } => {
            let w = spec::workload(&workload).expect("parse checked the name");
            let args =
                RunArgs { seed, seconds, traced, setups: SETUPS, warmup_scale: 1.0, process_start };
            let report = run::run(&w, &args);
            let metrics = if traced { spec::per_layer() } else { spec::end_to_end() };
            println!("{}", json::result_line(&report, &metrics));
            report.correct
        }
        Command::Suite { workload, seed, seconds, runs, out } => {
            match suite(workload.as_deref(), seed, seconds, runs, out) {
                Ok(correct) => correct,
                Err(e) => {
                    eprintln!("fdpbench: {e}");
                    false
                }
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() {
    println!("{:<34} {:<12} {:<7} bound", "metric", "unit", "better");
    let row = |m: &Metric| {
        let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
        println!("{:<34} {:<12} {:<7} {bound}", m.name, m.unit, m.better.as_str());
    };
    println!("# end to end (untraced run)");
    spec::end_to_end().iter().for_each(row);
    println!("# per layer (traced run)");
    spec::per_layer().iter().for_each(row);
    println!("# workloads");
    for w in spec::workloads() {
        println!("{:<20} {} client(s)  {}", w.name, w.clients, w.why);
    }
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultSet::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    if a.host_tag != b.host_tag || a.seconds != b.seconds {
        eprintln!(
            "note: sets differ in host ({} vs {}) or seconds ({} vs {}); wall-clock rows are not comparable",
            a.host_tag, b.host_tag, a.seconds, b.seconds
        );
    }
    let (table, regressed) = compare::render(&compare::compare(&a, &b));
    print!("{table}");
    Ok(!regressed)
}

/// One run in a child process; returns its parsed result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(bool, Vec<(String, f64)>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Process::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line =
        stdout.lines().last().ok_or(format!("{workload}: no result line ({})", output.status))?;
    let report = json::parse_result_line(line).map_err(|e| format!("{workload}: {e}"))?;
    Ok((report.correct && report.failed == 0 && output.status.success(), report.metrics))
}

fn suite(
    only: Option<&str>,
    seed: u64,
    seconds: f64,
    runs: u64,
    out: Option<String>,
) -> Result<bool, String> {
    let mut set = ResultSet {
        host_tag: host::tag(),
        nproc: host::nproc(),
        seconds,
        seeds: (seed..seed + runs).collect(),
        workloads: BTreeMap::new(),
    };
    let units: BTreeMap<String, &'static str> =
        spec::end_to_end().into_iter().chain(spec::per_layer()).map(|m| (m.name, m.unit)).collect();
    let mut all_correct = true;
    for &seed in &set.seeds {
        for w in spec::workloads().iter().filter(|w| only.is_none_or(|o| o == w.name)) {
            for traced in [false, true] {
                let (correct, values) = child(w.name, seed, seconds, traced)?;
                all_correct &= correct;
                println!(
                    "== {} seed {seed} {} {}",
                    w.name,
                    if traced { "traced" } else { "untraced" },
                    if correct { "correct" } else { "INCORRECT" }
                );
                let table = set.workloads.entry(w.name.to_string()).or_default();
                for (name, value) in values {
                    println!(
                        "{name:<34} {value:>18.6} {}",
                        units.get(&name).copied().unwrap_or("")
                    );
                    table.entry(name).or_default().push(value);
                }
            }
        }
    }
    let path = out.unwrap_or_else(|| {
        format!("{}/out/{}-seed{seed}x{runs}.json", env!("CARGO_MANIFEST_DIR"), set.host_tag)
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, set.to_json()).map_err(|e| format!("{path}: {e}"))?;
    println!("results: {path}");
    Ok(all_correct)
}
