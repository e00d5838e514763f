//! `repro` refuses a flag or a figure id it does not know: the real
//! binary is started and must exit 2 from its argument parser before
//! any row runs, while bare `repro` lists every row.

use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn rejected(args: &[&str]) -> String {
    let out = Command::new(REPRO).args(args).output().expect("repro starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains("error:"), "repro {args:?} must say why; stderr: {stderr}");
    stderr
}

#[test]
fn repro_rejects_unknown_arguments_and_figures_and_bare_lists_every_row() {
    rejected(&["--quikc"]);
    rejected(&["--fig", "9", "--gc-policy", "fifo"]);
    rejected(&["--quick", "--quick"]);
    rejected(&["--fig", "5", "--fig", "6"]);
    rejected(&["--out"]);
    rejected(&["--fig", "--quick"]);
    let stderr = rejected(&["--fig", "99"]);
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
