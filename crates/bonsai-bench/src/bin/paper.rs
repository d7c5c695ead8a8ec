//! `paper` — walk the evaluation table of [`bonsai_bench::paper`].
//!
//! ```text
//! paper [row…]                     every row but fig3, or the named rows
//! paper fig3 [--n N] [--steps S]   the science run (default 60000 particles, 700 steps)
//! ```
//!
//! Run from the repo root. Each row prints its table and its claims, each
//! claim with the band its value must fall in; the files a row renders are
//! written under `out/`, the only thing written in the tree.
//!
//! Exit codes: `0` every claim holds, `1` a claim fell outside its band, `2`
//! unknown row name.

use std::path::Path;
use std::process::ExitCode;

use bonsai_bench::paper::{run, ROWS};

fn main() -> ExitCode {
    // `--n` and `--steps` size the science row, which reads them itself.
    let mut args = std::env::args().skip(1);
    let mut names = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" | "--steps" => {
                args.next();
            }
            _ => names.push(arg),
        }
    }
    ExitCode::from(run(&ROWS, &names, Path::new(".")))
}
