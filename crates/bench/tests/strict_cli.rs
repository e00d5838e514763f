//! A misspelt flag must stop a gate binary before it does any work:
//! `bench_x --chekc` used to run as a report and exit 0, turning the CI
//! step into a no-op. Each binary is started for real; status 2 comes
//! back from the argument parser, long before a sweep could finish.
//! `repro` likewise refuses a flag or a figure id it does not know.
//!
//! And a `--check` run must end by saying which gates ran: one `gates:`
//! line whose counts match the `OK:`/`FAIL:`/`SKIPPED:` lines above it
//! and the exit status, with no skipped gate reported as `OK`.

use std::process::Command;

const GATES: [&str; 6] = [
    env!("CARGO_BIN_EXE_bench_chaos"),
    env!("CARGO_BIN_EXE_bench_faults"),
    env!("CARGO_BIN_EXE_bench_fleet"),
    env!("CARGO_BIN_EXE_bench_fullstack"),
    env!("CARGO_BIN_EXE_bench_recovery"),
    env!("CARGO_BIN_EXE_bench_throughput"),
];

fn rejected(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe).args(args).output().expect("bench binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains("error:"), "{exe} {args:?} must say why; stderr: {stderr}");
    stderr
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
fn repro_rejects_unknown_arguments_and_figures_and_bare_lists_every_row() {
    const REPRO: &str = env!("CARGO_BIN_EXE_repro");
    rejected(REPRO, &["--quikc"]);
    rejected(REPRO, &["--fig", "9", "--gc-policy", "fifo"]);
    let stderr = rejected(REPRO, &["--fig", "99"]);
    assert!(stderr.contains("`99`") && stderr.contains("9-fifo"), "names the known ids: {stderr}");
    let out = Command::new(REPRO).output().expect("repro starts");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = stdout.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(
        listed.join(" "),
        "5 6 7 8 9 10 11 12 13 t2 9-fifo isolation loc-trim dynamic lifetime pairs rgroups",
        "one line per row, id first"
    );
}

/// Runs a gate binary and returns its exit status and stderr lines.
fn checked(exe: &str, args: &[&str]) -> (i32, Vec<String>) {
    let out = Command::new(exe).args(args).output().expect("bench binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    (out.status.code().expect("exits, not killed"), stderr.lines().map(String::from).collect())
}

#[test]
fn a_virtual_time_gate_ends_with_the_summary_line() {
    // Virtual time: the verdicts are the same on every host and build.
    let (status, lines) = checked(
        env!("CARGO_BIN_EXE_bench_throughput"),
        &["--qd", "--check", "--ops", "300", "--json", "none"],
    );
    assert_eq!(status, 0, "{lines:#?}");
    assert_eq!(
        lines.last().map(String::as_str),
        Some("gates: 2 passed (qd4-speedup, qd1-bit-identical), 0 failed, 0 skipped"),
        "{lines:#?}"
    );
}

#[test]
fn a_wall_clock_gate_accounts_for_every_gate_whatever_the_host() {
    // Which of the three gates pass depends on the host and the build;
    // that each is reported once, and how the run ends, does not.
    let (status, lines) = checked(
        env!("CARGO_BIN_EXE_bench_fullstack"),
        &["--read", "--check", "--ops", "2000", "--trials", "1", "--json", "none"],
    );
    let summary = lines.last().expect("a summary line");
    assert!(summary.starts_with("gates: "), "{lines:#?}");
    let count = |kind: &str| -> usize {
        let before = summary.split(&format!(" {kind}")).next().expect("split yields one");
        before.rsplit([' ', ',']).next().and_then(|n| n.parse().ok()).expect("a count")
    };
    let (passed, failed, skipped) = (count("passed"), count("failed"), count("skipped"));
    assert_eq!(passed + failed + skipped, 3, "{summary}");
    assert_eq!(status, i32::from(failed > 0), "{summary}");
    for gate in ["dram-hit-premise", "lockfree-vs-locked", "read-scaling"] {
        let reports =
            |prefix: &str| lines.iter().any(|l| l.starts_with(&format!("{prefix}: {gate}:")));
        let kinds = [reports("OK"), reports("FAIL"), reports("SKIPPED")];
        assert_eq!(kinds.iter().filter(|&&k| k).count(), 1, "{gate} reported once: {lines:#?}");
        assert!(summary.contains(gate), "{gate} missing from `{summary}`");
    }
    assert_eq!(lines.iter().filter(|l| l.starts_with("OK: ")).count(), passed, "{lines:#?}");
    assert_eq!(lines.iter().filter(|l| l.starts_with("SKIPPED: ")).count(), skipped, "{lines:#?}");
}
