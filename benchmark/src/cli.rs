//! Command-line parsing. Every flag is known or the parse fails: a typo
//! must never turn a check into a run that silently skips it.

/// `--seconds` when none is given; `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 8.0;

/// `--seed` when none is given. Seed 1729 is held out: no number in the
/// README was tuned on it, so a later claim can be checked against it.
pub const DEFAULT_SEED: u64 = 42;

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Print every metric with unit, direction and bound.
    List,
    /// Judge result set `b` against `a`.
    Compare {
        /// The reference set.
        a: String,
        /// The set under judgement.
        b: String,
    },
    /// One run of one workload in this process, ending in the result
    /// line: what the benchmark driver invokes.
    Single {
        /// Workload name.
        workload: String,
        /// Generator seed.
        seed: u64,
        /// Measured seconds.
        seconds: f64,
        /// Traced (per-layer) or untraced (end-to-end).
        traced: bool,
    },
    /// Every selected workload, untraced then traced, each run in a
    /// child process, for `runs` consecutive seeds.
    Suite {
        /// One workload, or all when `None`.
        workload: Option<String>,
        /// First seed.
        seed: u64,
        /// Measured seconds per run.
        seconds: f64,
        /// Seeds to run, starting at `seed`.
        runs: u64,
        /// Where the result set goes; `benchmark/out/` by default.
        out: Option<String>,
    },
}

/// Usage text.
pub const USAGE: &str = "\
usage: fdpbench [--workload NAME] [--seed N] [--seconds S] [--runs R] [--out FILE]
       fdpbench --workload NAME --trace 0|1 [--seed N] [--seconds S]
       fdpbench --list
       fdpbench --compare A.json B.json

With no --trace, runs every workload (or the one named) untraced for the
end-to-end metrics and traced for the per-layer metrics, each run in its
own child process, prints every metric and writes a result set. With
--trace, does one run in this process and ends with its JSON result line.
Exits 1 on a correctness failure or a regression, 2 on a usage error.";

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut runs = None;
    let mut out = None;
    let mut list = false;
    let mut help = false;
    let mut compare = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(number::<u64>(flag, &value()?)?),
            "--seconds" => {
                let s = number::<f64>(flag, &value()?)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--runs" => {
                let r = number::<u64>(flag, &value()?)?;
                if r == 0 {
                    return Err("--runs must be at least 1".into());
                }
                runs = Some(r);
            }
            "--out" => out = Some(value()?),
            "--compare" => compare = Some((value()?, value()?)),
            "--list" => list = true,
            "--help" | "-h" => help = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    if help {
        return Ok(Command::Help);
    }
    let run_flags = workload.is_some()
        || seed.is_some()
        || seconds.is_some()
        || trace.is_some()
        || runs.is_some()
        || out.is_some();
    if list || compare.is_some() {
        if run_flags || (list && compare.is_some()) {
            return Err("--list and --compare stand alone".into());
        }
        return Ok(match compare {
            Some((a, b)) => Command::Compare { a, b },
            None => Command::List,
        });
    }
    if let Some(name) = &workload {
        if crate::spec::workload(name).is_none() {
            let known: Vec<&str> = crate::spec::workloads().iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{name}`; known: {}", known.join(", ")));
        }
    }
    let seed = seed.unwrap_or(DEFAULT_SEED);
    let seconds = seconds.unwrap_or(DEFAULT_SECONDS);
    match trace {
        Some(traced) => {
            if runs.is_some() || out.is_some() {
                return Err("--runs and --out belong to a suite, not to a --trace run".into());
            }
            let workload = workload.ok_or("--trace needs --workload")?;
            Ok(Command::Single { workload, seed, seconds, traced })
        }
        None => Ok(Command::Suite { workload, seed, seconds, runs: runs.unwrap_or(1), out }),
    }
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag} takes a number, got `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let cmd = parse(&args("--workload kv_mixed_fdp --seed 7 --seconds 6 --trace 1")).unwrap();
        assert_eq!(
            cmd,
            Command::Single {
                workload: "kv_mixed_fdp".into(),
                seed: 7,
                seconds: 6.0,
                traced: true
            }
        );
    }

    #[test]
    fn defaults_make_a_full_suite() {
        assert_eq!(
            parse(&[]).unwrap(),
            Command::Suite {
                workload: None,
                seed: DEFAULT_SEED,
                seconds: DEFAULT_SECONDS,
                runs: 1,
                out: None
            }
        );
    }

    #[test]
    fn unknown_and_malformed_arguments_are_rejected() {
        for bad in [
            "--chekc",
            "--workload",
            "--workload nope --trace 0",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--trace 2 --workload kv_mixed_fdp",
            "--trace 0",
            "--runs 0",
            "--list --seed 1",
            "--compare a.json",
            "--workload kv_mixed_fdp --trace 0 --runs 3",
            "extra",
        ] {
            assert!(parse(&args(bad)).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn list_and_compare_stand_alone() {
        assert_eq!(parse(&args("--list")).unwrap(), Command::List);
        assert_eq!(
            parse(&args("--compare a.json b.json")).unwrap(),
            Command::Compare { a: "a.json".into(), b: "b.json".into() }
        );
    }
}
