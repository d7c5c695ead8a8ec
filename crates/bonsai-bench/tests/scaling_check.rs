//! End-to-end tests of the `gates` binary on its `scaling` row, in a scratch
//! tree: a fresh baseline is blessed and then passes byte for byte, the
//! synthetic slowdown is caught on the metrics it moves, and a missing
//! baseline is unusable input (exit 2), not a failed gate.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

fn workdir() -> PathBuf {
    let dir = bonsai_bench::scratch_dir("bonsai_gates_cli");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn gates(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gates"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn gates")
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// A scratch tree after `gates --bless scaling`, shared by the tests below
/// (each `gates scaling` is an honest and a sabotaged sweep at the pinned
/// size, so they do it once).
struct Blessed {
    dir: PathBuf,
    bless: Output,
    json: Vec<u8>,
    html: Vec<u8>,
}

fn blessed() -> &'static Blessed {
    static TREE: OnceLock<Blessed> = OnceLock::new();
    TREE.get_or_init(|| {
        let dir = workdir();
        let bless = gates(&dir, &["--bless", "scaling"]);
        let json = read(&dir, "BENCH_scaling.json");
        let html = read(&dir, "out/scaling_report.html");
        Blessed {
            dir,
            bless,
            json,
            html,
        }
    })
}

#[test]
fn artefacts_are_byte_identical_across_runs() {
    let Blessed {
        dir,
        bless,
        json,
        html,
    } = blessed();
    assert!(bless.status.success());
    let check = gates(dir, &["scaling"]);
    assert!(
        check.status.success(),
        "a second process must reproduce the blessed bytes: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert_eq!(
        &read(dir, "BENCH_scaling.json"),
        json,
        "the check wrote the artefact"
    );
    assert_eq!(
        &read(dir, "out/scaling_report.html"),
        html,
        "scaling_report.html must be byte-identical"
    );
    assert!(html.starts_with(b"<!DOCTYPE html>"));
}

#[test]
fn check_passes_on_fresh_baseline_and_fails_under_slowdown() {
    let bless = &blessed().bless;
    assert!(
        bless.status.success(),
        "blessing a fresh baseline must pass: {}",
        String::from_utf8_lossy(&bless.stderr)
    );
    // The in-memory 1.5x slowdown must be caught, on a measurement.
    let stdout = String::from_utf8_lossy(&bless.stdout);
    assert!(
        stdout.contains("sabotage `slowdown 1.5` caught by "),
        "{stdout}"
    );
    assert!(
        stdout.contains("wall_seconds") || stdout.contains("efficiency"),
        "the gate must name the metric the slowdown moved: {stdout}"
    );
}

#[test]
fn check_with_missing_baseline_exits_2() {
    let dir = workdir();
    let out = gates(&dir, &["scaling"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "an unusable gate wrote files"
    );
    assert_eq!(gates(&dir, &["no-such-gate"]).status.code(), Some(2));
    assert_eq!(
        gates(&dir, &["diff", "only-one.json"]).status.code(),
        Some(2)
    );
}
