//! The one command-line parser of the bench and figure binaries.
//!
//! Every binary declares the arguments it understands; anything else —
//! a misspelt flag above all — fails the parse, and the binary exits
//! with status 2 before doing any work. A CI gate invoked as
//! `bench_x --chekc` must not run as a report and exit 0.
//!
//! The same goes for what `--check` reports: every gate of a run goes
//! through one [`Gates`] ledger, which says `OK` only of a gate that
//! was measured and held, says `SKIPPED` of one this host cannot
//! measure, and ends the run with one line counting all three kinds.

/// One argument a binary understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// Present or absent, e.g. `--check`.
    Switch(&'static str),
    /// Takes a positive integer, e.g. `--ops 50000`.
    Count(&'static str),
    /// Takes one value not starting with `--` (a path, a word), e.g.
    /// `--json results/BENCH_x.json`.
    Value(&'static str),
}

impl Flag {
    fn name(&self) -> &'static str {
        match *self {
            Flag::Switch(n) | Flag::Count(n) | Flag::Value(n) => n,
        }
    }
}

/// A parsed command line: which declared arguments appeared, and with
/// what values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    declared: Vec<Flag>,
    switches: Vec<&'static str>,
    counts: Vec<(&'static str, u64)>,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses `args` (the arguments after the program name) against
    /// `declared`.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument when it is not declared,
    /// appears twice, lacks its value, or has a malformed one.
    pub fn parse(args: &[String], declared: &[Flag]) -> Result<Args, String> {
        let mut parsed = Args { declared: declared.to_vec(), ..Args::default() };
        let mut seen: Vec<&'static str> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(flag) = declared.iter().find(|f| f.name() == arg) else {
                let known: Vec<&str> = declared.iter().map(Flag::name).collect();
                return Err(format!("unknown argument `{arg}` (known: {})", known.join(", ")));
            };
            if seen.contains(&flag.name()) {
                return Err(format!("{arg} given twice"));
            }
            seen.push(flag.name());
            match *flag {
                Flag::Switch(name) => parsed.switches.push(name),
                Flag::Count(name) => match it.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(n)) if n > 0 => parsed.counts.push((name, n)),
                    Some(Ok(_)) => return Err(format!("{name} must be at least 1")),
                    Some(Err(_)) | None => {
                        return Err(format!("{name} requires a positive integer value"))
                    }
                },
                Flag::Value(name) => match it.next() {
                    Some(p) if !p.starts_with("--") => parsed.values.push((name, p.clone())),
                    _ => return Err(format!("{name} requires a value")),
                },
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments; on any error prints it and exits
    /// with status 2.
    pub fn from_env(declared: &[Flag]) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&args, declared).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Asking about an argument the binary never declared is a typo in
    /// the binary, and would read as "absent" forever.
    fn assert_declared(&self, flag: Flag) {
        assert!(self.declared.contains(&flag), "{flag:?} was not declared to Args::parse");
    }

    /// Whether switch `name` was given.
    pub fn has(&self, name: &'static str) -> bool {
        self.assert_declared(Flag::Switch(name));
        self.switches.contains(&name)
    }

    /// The value of count flag `name`, if given.
    pub fn count(&self, name: &'static str) -> Option<u64> {
        self.assert_declared(Flag::Count(name));
        self.counts.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The value of value flag `name`, if given.
    pub fn value(&self, name: &'static str) -> Option<&str> {
        self.assert_declared(Flag::Value(name));
        self.values.iter().find(|(n, _)| *n == name).map(|(_, p)| p.as_str())
    }

    /// Where a bench binary writes its `BENCH_<bench>.json` trajectory
    /// (shared so CI artifacts land in one place): `--json PATH` writes
    /// to `PATH`, `--json none` suppresses the artifact, and without the
    /// flag it goes to `results/BENCH_<bench>.json` beside the CSVs (the
    /// writer creates the directory).
    pub fn json_destination(&self, bench: &str) -> Option<String> {
        match self.value("--json") {
            Some("none") => None,
            Some(p) => Some(p.to_string()),
            None => Some(format!("results/BENCH_{bench}.json")),
        }
    }
}

/// What a measured gate found: what held, or every violation.
pub type Verdict = Result<String, Vec<String>>;

/// The verdict of a gate that collected its violations: `held()` says
/// what held when there are none.
pub fn verdict(violations: Vec<String>, held: impl FnOnce() -> String) -> Verdict {
    if violations.is_empty() {
        Ok(held())
    } else {
        Err(violations)
    }
}

/// The gate ledger of one `--check` run. Every gate is reported through
/// it exactly once, as measured ([`Gates::ran`]) or as not measurable
/// here ([`Gates::skipped`]); [`Gates::finish`] prints the closing
/// `gates: N passed, M failed, K skipped` line and sets the exit
/// status. A skipped gate is never reported as `OK`: a reader of the CI
/// log must be able to tell a pass from a check that did not happen.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Gates {
    passed: Vec<&'static str>,
    failed: Vec<&'static str>,
    skipped: Vec<&'static str>,
}

fn verdict_lines(name: &str, verdict: &Verdict) -> Vec<String> {
    match verdict {
        Ok(held) => vec![format!("OK: {name}: {held}")],
        Err(violations) => violations.iter().map(|v| format!("FAIL: {name}: {v}")).collect(),
    }
}

fn skip_line(name: &str, why: &str) -> String {
    format!("SKIPPED: {name}: {why}")
}

impl Gates {
    /// An empty ledger.
    pub fn new() -> Self {
        Gates::default()
    }

    /// Reports a gate that was measured: one `OK:` line saying what
    /// held, or one `FAIL:` line per violation.
    pub fn ran(&mut self, name: &'static str, verdict: Verdict) {
        for line in verdict_lines(name, &verdict) {
            eprintln!("{line}");
        }
        match verdict {
            Ok(_) => self.passed.push(name),
            Err(_) => self.failed.push(name),
        }
    }

    /// Reports a gate this host or run cannot measure, and why.
    pub fn skipped(&mut self, name: &'static str, why: &str) {
        eprintln!("{}", skip_line(name, why));
        self.skipped.push(name);
    }

    /// The closing line, e.g. `gates: 2 passed (a, b), 0 failed, 1
    /// skipped (c)`.
    pub fn summary(&self) -> String {
        let part = |names: &[&str], kind: &str| match names {
            [] => format!("0 {kind}"),
            _ => format!("{} {kind} ({})", names.len(), names.join(", ")),
        };
        format!(
            "gates: {}, {}, {}",
            part(&self.passed, "passed"),
            part(&self.failed, "failed"),
            part(&self.skipped, "skipped")
        )
    }

    /// Prints the closing line and ends a run that had a failed gate
    /// with status 1.
    pub fn finish(self) {
        eprintln!("{}", self.summary());
        if !self.failed.is_empty() {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATE: [Flag; 3] = [Flag::Switch("--check"), Flag::Count("--ops"), Flag::Value("--json")];

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&args, &GATE)
    }

    #[test]
    fn a_gate_invocation_parses() {
        let args = parse("--check --ops 5000 --json out/x.json").unwrap();
        assert!(args.has("--check"));
        assert_eq!(args.count("--ops"), Some(5000));
        assert_eq!(args.json_destination("x"), Some("out/x.json".into()));
        let bare = parse("").unwrap();
        assert!(!bare.has("--check"));
        assert_eq!(bare.count("--ops"), None);
        assert_eq!(bare.json_destination("x"), Some("results/BENCH_x.json".into()));
        assert_eq!(parse("--json none").unwrap().json_destination("x"), None);
    }

    #[test]
    fn a_misspelt_flag_fails_the_parse() {
        for bad in [
            "--chekc",
            "--check --chekc",
            "-check",
            "check",
            "--ops",
            "--ops 0",
            "--ops many",
            "--ops -3",
            "--json",
            "--json --check",
            "--check --check",
            "--ops 1 --ops 2",
            "--ops 5 stray",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(parse("--chekc").unwrap_err().contains("--chekc"));
    }

    #[test]
    fn the_ledger_counts_every_gate_and_never_calls_a_skip_ok() {
        let mut gates = Gates::new();
        assert_eq!(gates.summary(), "gates: 0 passed, 0 failed, 0 skipped");
        gates.ran("premise", Ok("hit ratio 1.00".into()));
        gates.ran("no-regression", Err(vec!["0.5x".into(), "again 0.6x".into()]));
        gates.skipped("scaling", "single core");
        assert_eq!(
            gates.summary(),
            "gates: 1 passed (premise), 1 failed (no-regression), 1 skipped (scaling)"
        );
        assert_eq!(verdict_lines("g", &Ok("held".into())), ["OK: g: held"]);
        assert_eq!(
            verdict_lines("g", &Err(vec!["a".into(), "b".into()])),
            ["FAIL: g: a", "FAIL: g: b"]
        );
        let skip = skip_line("scaling", "single core");
        assert!(skip.starts_with("SKIPPED: scaling") && !skip.contains("OK"), "{skip}");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn asking_for_an_undeclared_flag_is_a_bug() {
        parse("").unwrap().has("--chekc");
    }
}
