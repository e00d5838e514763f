//! A misspelt flag must stop a gate binary before it does any work:
//! `bench_x --chekc` used to run as a report and exit 0, turning the CI
//! step into a no-op. Each binary is started for real; status 2 comes
//! back from the argument parser, long before a sweep could finish.

use std::process::Command;

const GATES: [&str; 7] = [
    env!("CARGO_BIN_EXE_bench_chaos"),
    env!("CARGO_BIN_EXE_bench_faults"),
    env!("CARGO_BIN_EXE_bench_fleet"),
    env!("CARGO_BIN_EXE_bench_fullstack"),
    env!("CARGO_BIN_EXE_bench_recovery"),
    env!("CARGO_BIN_EXE_bench_throughput"),
    env!("CARGO_BIN_EXE_bench_wallclock"),
];

fn rejected(exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("bench binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains("error:"), "{exe} {args:?} must say why; stderr: {stderr}");
}

#[test]
fn every_gate_rejects_a_misspelt_check() {
    for exe in GATES {
        rejected(exe, &["--chekc"]);
        rejected(exe, &["--check", "--josn", "none"]);
        rejected(exe, &["--ops", "0"]);
    }
}

#[test]
fn figure_binaries_reject_unknown_arguments_too() {
    rejected(env!("CARGO_BIN_EXE_fig5_dlwa_timeline"), &["--quikc"]);
    rejected(env!("CARGO_BIN_EXE_fig9_soc_sweep"), &["--quick", "fifo"]);
    rejected(env!("CARGO_BIN_EXE_fig9_soc_sweep"), &["--quick", "--gc-policy", "lifo"]);
}
