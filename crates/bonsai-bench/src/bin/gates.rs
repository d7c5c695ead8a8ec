//! `gates` — walk the artifact-gate table of [`bonsai_bench::gates`].
//!
//! ```text
//! gates [--bless] [kind…]     run every gate, or the named rows
//! gates diff <a.json> <b.json>
//! ```
//!
//! Run from the repo root. Each gate is produced once at its pinned
//! configuration and must hold its verdicts, equal the checked-in
//! `BENCH_<kind>.json` byte for byte (a ranked attribution is printed when
//! it does not), render sound HTML, and catch its sabotaged variant; the
//! files under `out/` are the only thing written. `--bless` writes the
//! artifacts instead of comparing them — verdicts first, so the accuracy
//! oracle judges new force bits against the old pinned file. `diff` explains
//! the deltas between two same-schema artifacts.
//!
//! Exit codes: `0` green, `1` a gate failed (or `diff` found deltas), `2`
//! unusable input (missing or malformed file, unknown kind).

use std::path::Path;
use std::process::ExitCode;

use bonsai_bench::gates::{diff_files, run_gate, Gate, GATES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "diff") {
        let [_, base, current] = args.as_slice() else {
            eprintln!("usage: gates diff <base.json> <current.json>");
            return ExitCode::from(2);
        };
        return match diff_files(Path::new(base), Path::new(current)) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(f) => {
                eprintln!("{}", f.report.trim_end());
                ExitCode::from(f.code)
            }
        };
    }

    let bless = args.iter().any(|a| a == "--bless");
    let kinds: Vec<&String> = args.iter().filter(|a| *a != "--bless").collect();
    if let Some(unknown) = kinds.iter().find(|k| GATES.iter().all(|g| g.kind != **k)) {
        let known: Vec<&str> = GATES.iter().map(|g| g.kind).collect();
        eprintln!("gates: no gate `{unknown}` (known: {})", known.join(", "));
        return ExitCode::from(2);
    }
    let selected = |g: &&Gate| kinds.is_empty() || kinds.iter().any(|k| *k == g.kind);

    let mut code = 0;
    for gate in GATES.iter().filter(selected) {
        match run_gate(gate, Path::new("."), bless) {
            Ok(line) => println!("ok   {line}"),
            Err(f) => {
                eprintln!("FAIL {}", f.report.trim_end());
                code = code.max(f.code);
            }
        }
    }
    ExitCode::from(code)
}
