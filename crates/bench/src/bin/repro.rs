//! Reproduces the paper's figures and tables, and the repo's ablations
//! and extensions, from one table (`fdpcache_bench::figures`).
//!
//! `repro --fig <id>` runs one row (`--fig all` every row), prints its
//! table and the paper's value, and writes its CSV into `--out DIR`
//! (default `results/`); `--quick` shrinks every cell to a smoke run.
//! Without `--fig` it lists the rows.

use fdpcache_bench::figures::{select, FIGURES};
use fdpcache_bench::{Args, Flag};

fn main() {
    let args =
        Args::from_env(&[Flag::Value("--fig"), Flag::Switch("--quick"), Flag::Value("--out")]);
    let Some(id) = args.value("--fig") else {
        for f in FIGURES {
            println!("{:<10} {}", f.id, f.title);
        }
        return;
    };
    let rows = select(id).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    for f in rows {
        f.run(args.has("--quick"), args.value("--out").unwrap_or("results"));
    }
}
