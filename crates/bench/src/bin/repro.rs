//! Reproduces the paper's figures and tables, and the repo's ablations
//! and extensions, from one table (`fdpcache_bench::figures`).
//!
//! `repro --fig <id>` runs one row (`--fig all` every row), prints its
//! table and the paper's value, and writes its CSV into `--out DIR`
//! (default `results/`); `--quick` shrinks every cell to a smoke run.
//! Without `--fig` it lists the rows. An unknown, repeated or
//! value-less argument exits 2 before any work; a CSV that cannot be
//! written exits 1 once the row's table is printed.

use fdpcache_bench::figures::{select, FIGURES};

#[derive(Default)]
struct Args {
    fig: Option<String>,
    quick: bool,
    out: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(arg) = argv.next() {
        let slot = match arg.as_str() {
            "--quick" if !args.quick => {
                args.quick = true;
                continue;
            }
            "--fig" if args.fig.is_none() => &mut args.fig,
            "--out" if args.out.is_none() => &mut args.out,
            "--quick" | "--fig" | "--out" => return Err(format!("{arg} given twice")),
            _ => return Err(format!("unknown argument `{arg}` (known: --fig, --quick, --out)")),
        };
        let value = argv.next().filter(|v| !v.starts_with("--"));
        *slot = Some(value.ok_or(format!("{arg} requires a value"))?);
    }
    Ok(args)
}

fn usage_error(e: String) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(e));
    let Some(id) = args.fig else {
        for f in FIGURES {
            println!("{:<10} {}", f.id, f.title);
        }
        return;
    };
    let rows = select(&id).unwrap_or_else(|e| usage_error(e));
    for f in rows {
        if let Err(e) = f.run(args.quick, args.out.as_deref().unwrap_or("results")) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
