//! The paper's evaluation under test: every row but the science run holds
//! its claims, and the runner fails a claim outside its band (exit 1) and
//! refuses an unknown row (exit 2). Rows return their files in memory, so
//! nothing here writes under the crate's `out/`.

use std::process::Command;

use bonsai_bench::paper::{run, Outcome, Row, NAMED_ONLY, ROWS};
use bonsai_bench::{scratch_dir, Compared};

#[test]
fn every_row_but_the_science_run_holds_its_claims() {
    let mut failed = Vec::new();
    for row in ROWS.iter().filter(|r| r.name != NAMED_ONLY) {
        let o = (row.run)();
        assert!(!o.claims.is_empty(), "{} claims nothing", row.name);
        let off_band = o.claims.iter().filter(|c| !c.holds());
        let named = |c: &Compared| format!("{}: {} = {} outside {:?}", row.name, c.label, c.ours, c.band);
        failed.extend(off_band.map(named));
    }
    assert!(failed.is_empty(), "{failed:#?}");
}

fn off_band() -> Outcome {
    Outcome {
        table: String::new(),
        claims: vec![Compared::new("two in [0.9, 1.1]", 1.0, 2.0, "", 0.9..=1.1)],
        files: vec![("off_band.txt".into(), b"rendered".to_vec())],
    }
}

static OFF_BAND: [Row; 1] = [Row {
    name: "off_band",
    section: "none",
    run: off_band,
}];

#[test]
fn a_claim_outside_its_band_exits_1_and_an_unknown_row_exits_2() {
    let dir = scratch_dir("bonsai_paper_runner");
    std::fs::create_dir_all(&dir).unwrap();
    assert_eq!(run(&OFF_BAND, &["no-such-row".into()], &dir), 2);
    assert!(!dir.join("out").exists(), "an unknown row wrote files");
    assert_eq!(run(&OFF_BAND, &[], &dir), 1);
    assert_eq!(std::fs::read(dir.join("out/off_band.txt")).unwrap(), b"rendered");

    let paper = Command::new(env!("CARGO_BIN_EXE_paper"))
        .current_dir(&dir)
        .args(["table1", "no-such-row"])
        .output()
        .expect("spawn paper");
    assert_eq!(paper.status.code(), Some(2));
    assert!(paper.stdout.is_empty(), "an unknown row must stop the run before any row");
    std::fs::remove_dir_all(&dir).unwrap();
}
