//! The artifact gates: one table, one runner.
//!
//! Each `BENCH_<kind>.json` at the repo root is pinned by a *gate* whose
//! contract is the same for every kind — produce the artifact at its one
//! pinned configuration, hold the row's invariants, equal the checked-in
//! bytes, render self-contained reports, and fail when sabotaged. [`GATES`]
//! lists what differs per kind; [`run_gate`] is the contract, written once.
//! The checked-in artifact is the baseline: equality with bytes a different
//! process wrote on a different day is the cross-run determinism check, and
//! running the table under another `BONSAI_THREADS` is the thread-invariance
//! check. Nothing is written to the tree unless blessing, and a sabotaged
//! artifact never leaves memory.

use std::path::Path;

use bonsai_obs::health::AlertKind;
use bonsai_obs::json::{self, fmt_f64, Value};

use crate::artifact::{load_artifact, parse_artifact};
use crate::diff::{diff_values, rank, render_report, Tolerance};
use crate::report::{check_report, ReportSpec};
use crate::{flows, longrun, membership, parallel, profile, scaling, step, stream, OUT_DIR};

/// What one production of a gate yields, all in memory.
pub struct Produced {
    /// The `BENCH_<kind>.json` text.
    pub artifact: String,
    /// The files it renders under `out/`: `(name, contents)`.
    pub files: Vec<(String, String)>,
    /// The row's named invariants and whether each holds.
    pub verdicts: Vec<(&'static str, bool)>,
}

/// How a sabotaged production must be caught.
pub enum Catch {
    /// By failing the row's verdict of this name, or an oracle violation
    /// containing it.
    Verdict(&'static str),
    /// By moving a measurement: honest and sabotaged artifact must differ at
    /// a path matching one of these globs (one `*` each). A change under
    /// `config.*` alone proves nothing — the sabotage flag itself is there.
    Moves(&'static [&'static str]),
}

/// A row's sabotage: what `produce(true)` breaks and what must notice.
pub struct Sabotage {
    /// The config field it flips.
    pub what: &'static str,
    /// What must catch it.
    pub caught_by: Catch,
}

/// A verdict that needs the checked-in artifact: `(pinned, current)` to the
/// violations, or an error when either document is unusable.
pub type Oracle = fn(&str, &str) -> Result<Vec<String>, String>;

/// One row of the gate table.
pub struct Gate {
    /// Fixes `BENCH_<kind>.json` and the `bonsai-<kind>-v<N>` schema.
    pub kind: &'static str,
    /// Run the bench at its pinned configuration, honest or sabotaged.
    pub produce: fn(sabotaged: bool) -> Produced,
    /// The oracle a deliberate change of the artifact lands through.
    pub oracle: Option<Oracle>,
    /// The self-test proving the gate bites.
    pub sabotage: Option<Sabotage>,
    /// The specs of the HTML files the row renders.
    pub reports: &'static [ReportSpec],
    /// Dotted path of the metric a regression in this subsystem would move
    /// first (`last` / `len` select on an array).
    pub headline: &'static str,
}

fn step_gate(_: bool) -> Produced {
    let r = step::run(8_000, 4, 42);
    Produced {
        artifact: r.bench_json,
        files: vec![
            ("trace_step.json".into(), r.trace_json),
            ("folded_step.txt".into(), r.folded),
            ("metrics_step.prom".into(), r.prom),
        ],
        verdicts: vec![("registry_reduces_to_the_breakdown", r.registry_matches)],
    }
}

fn scaling_gate(sabotaged: bool) -> Produced {
    let r = scaling::run_sweep(&scaling::SweepConfig {
        slowdown: if sabotaged { 1.5 } else { 1.0 },
        ..Default::default()
    });
    Produced {
        artifact: scaling::scaling_json(&r),
        files: vec![("scaling_report.html".into(), scaling::render_html(&r))],
        verdicts: Vec::new(),
    }
}

fn accuracy_gate(sabotaged: bool) -> Produced {
    let r = bonsai_verify::run(&bonsai_verify::RunConfig {
        theta_inflation: if sabotaged { 1.5 } else { 1.0 },
        ..Default::default()
    });
    Produced {
        artifact: bonsai_verify::accuracy_json(&r),
        files: Vec::new(),
        verdicts: Vec::new(),
    }
}

fn longrun_gate(_: bool) -> Produced {
    let r = longrun::run(longrun::LongRunBenchConfig::default());
    let storm = |kind: AlertKind| {
        let events = r.monitor.health().events();
        events
            .iter()
            .any(|e| e.rule == "recovery-storm" && e.kind == kind)
    };
    let mut files = vec![("longrun_report.html".into(), longrun::render_html(&r))];
    if let Some(inc) = r.monitor.incidents().first() {
        files.push(("longrun_incident.json".into(), inc.trace_json()));
        files.push(("longrun_incident.txt".into(), inc.report()));
    }
    Produced {
        artifact: longrun::longrun_json(&r),
        files,
        verdicts: vec![
            ("recovery_storm_opened", storm(AlertKind::Open)),
            ("recovery_storm_closed", storm(AlertKind::Close)),
        ],
    }
}

fn membership_gate(sabotaged: bool) -> Produced {
    let r = membership::run(membership::MembershipBenchConfig {
        drop_migrants: sabotaged,
        ..Default::default()
    });
    Produced {
        artifact: membership::membership_json(&r),
        files: Vec::new(),
        verdicts: vec![
            ("conserved", r.lost_particles == 0 && r.ids_intact),
            ("drift_ok", r.drift_ok),
            ("equivalence_ok", r.equivalence_ok),
        ],
    }
}

fn profile_gate(sabotaged: bool) -> Produced {
    let r = profile::run(profile::ProfileBenchConfig {
        sandbag: if sabotaged { 1.5 } else { 1.0 },
        ..Default::default()
    });
    Produced {
        artifact: profile::profile_json(&r),
        files: vec![("profile_report.html".into(), profile::render_html(&r))],
        verdicts: Vec::new(),
    }
}

fn flows_gate(sabotaged: bool) -> Produced {
    let r = flows::run(flows::FlowsBenchConfig {
        mask_retransmits: sabotaged,
        ..Default::default()
    });
    Produced {
        artifact: flows::flows_json(&r),
        files: vec![("flows_report.html".into(), flows::render_html(&r))],
        verdicts: vec![("conservation_holds", r.conservation.holds())],
    }
}

fn stream_gate(sabotaged: bool) -> Produced {
    let r = stream::run(stream::StreamBenchConfig {
        block_on_full: sabotaged,
        ..Default::default()
    });
    let mut files: Vec<(String, String)> = r
        .snapshots
        .iter()
        .map(|(step, html)| (format!("stream_snapshot_{step:04}.html"), html.clone()))
        .collect();
    if let Some((_, html)) = r.snapshots.last() {
        files.push(("stream_report.html".into(), html.clone()));
    }
    Produced {
        artifact: stream::stream_json(&r),
        files,
        verdicts: vec![
            ("lossless_ok", r.lossless_ok()),
            ("accounting_ok", r.accounting_ok()),
            ("overhead_ok", r.overhead_ok()),
        ],
    }
}

fn parallel_gate(sabotaged: bool) -> Produced {
    let r = parallel::run(parallel::ParallelBenchConfig {
        pin_one_thread: sabotaged,
        ..Default::default()
    });
    Produced {
        artifact: parallel::parallel_json(&r),
        files: Vec::new(),
        verdicts: vec![
            ("deterministic", r.deterministic),
            ("workers_ok", r.workers_ok),
        ],
    }
}

/// The nine artifact gates, in the order CI walks them.
pub static GATES: [Gate; 9] = [
    Gate {
        kind: "step",
        produce: step_gate,
        oracle: None,
        sabotage: None,
        reports: &[],
        headline: "gpu_gflops",
    },
    Gate {
        kind: "scaling",
        produce: scaling_gate,
        oracle: None,
        sabotage: Some(Sabotage {
            what: "slowdown 1.5",
            caught_by: Catch::Moves(&["weak.efficiency*", "*.wall_seconds"]),
        }),
        reports: &[ReportSpec {
            file: "scaling_report.html",
            markers: &[
                "<h2>Weak sweep (fixed particles per rank)</h2>",
                "<h2>Strong sweep (fixed total particles)</h2>",
            ],
        }],
        headline: "weak.efficiency.last",
    },
    Gate {
        kind: "accuracy",
        produce: accuracy_gate,
        oracle: Some(bonsai_verify::check_accuracy),
        sabotage: Some(Sabotage {
            what: "theta_inflation 1.5",
            caught_by: Catch::Verdict("outside tolerance band"),
        }),
        reports: &[],
        headline: "differential.len",
    },
    Gate {
        kind: "longrun",
        produce: longrun_gate,
        oracle: None,
        sabotage: None,
        reports: &[ReportSpec {
            file: "longrun_report.html",
            markers: &[
                "<h2>Membership</h2>",
                "<h2>Incidents</h2>",
                "<h2>Alert log</h2>",
                "<h2>Run rollups</h2>",
                "bonsai_energy_drift",
            ],
        }],
        headline: "final.energy_drift",
    },
    Gate {
        kind: "membership",
        produce: membership_gate,
        oracle: None,
        sabotage: Some(Sabotage {
            what: "drop_migrants",
            caught_by: Catch::Verdict("conserved"),
        }),
        reports: &[],
        headline: "final.lost_particles",
    },
    Gate {
        kind: "profile",
        produce: profile_gate,
        oracle: None,
        sabotage: Some(Sabotage {
            what: "sandbag 1.5",
            caught_by: Catch::Moves(&["roofline[*].seconds", "residuals[term=gravity_*"]),
        }),
        reports: &[ReportSpec {
            file: "profile_report.html",
            markers: &[
                "<h2>Roofline</h2>",
                "<h2>Cost-model attribution</h2>",
                "<h2>Folded span profile</h2>",
            ],
        }],
        headline: "step_total_s",
    },
    Gate {
        kind: "flows",
        produce: flows_gate,
        oracle: None,
        sabotage: Some(Sabotage {
            what: "mask_retransmits",
            caught_by: Catch::Moves(&["links[*].retransmits", "steps[*].retransmits"]),
        }),
        reports: &[ReportSpec {
            file: "flows_report.html",
            markers: &[
                "<h2>Conservation</h2>",
                "<h2>Critical-path wait attribution</h2>",
                "<h2>Link matrix</h2>",
                "<h2>Link ledger</h2>",
                "<h2>Per-step digest</h2>",
            ],
        }],
        headline: "wait_total_s",
    },
    Gate {
        kind: "stream",
        produce: stream_gate,
        oracle: None,
        sabotage: Some(Sabotage {
            what: "block_on_full",
            caught_by: Catch::Verdict("overhead_ok"),
        }),
        reports: &[ReportSpec {
            file: "stream_*.html",
            markers: &[
                "<h2>Live gauges</h2>",
                "<h2>Subscribers</h2>",
                "<h2>Observability overhead</h2>",
                "<h2>Alerts</h2>",
            ],
        }],
        headline: "overhead.max_fraction",
    },
    Gate {
        kind: "parallel",
        produce: parallel_gate,
        oracle: None,
        sabotage: Some(Sabotage {
            what: "pin_one_thread",
            caught_by: Catch::Verdict("workers_ok"),
        }),
        reports: &[],
        // 1 ⇔ every lane count hashed to the same force bits.
        headline: "distinct_digests",
    },
];

/// Why a gate (or a `diff`) did not pass: the process exit code — 1 the
/// gate failed, 2 its input is unusable — and the text to print.
#[derive(Debug)]
pub struct Failure {
    /// Process exit code.
    pub code: u8,
    /// Human-readable explanation.
    pub report: String,
}

fn failure(code: u8, report: String) -> Failure {
    Failure { code, report }
}

/// The value at a dotted `path`; on an array `last` is its last element
/// and `len` its length.
pub fn headline(root: &Value, path: &str) -> Option<f64> {
    let mut cur = root;
    for key in path.split('.') {
        cur = match (cur, key) {
            (Value::Arr(a), "len") => return Some(a.len() as f64),
            (Value::Arr(a), "last") => a.last()?,
            _ => cur.get(key)?,
        };
    }
    cur.as_f64()
}

/// `pattern` with at most one `*` (any run of characters) against `path`.
fn glob(pattern: &str, path: &str) -> bool {
    match pattern.split_once('*') {
        Some((pre, suf)) => {
            path.len() >= pre.len() + suf.len() && path.starts_with(pre) && path.ends_with(suf)
        }
        None => path == pattern,
    }
}

/// Run one gate against the tree at `root`: produce, judge, compare with
/// the checked-in `BENCH_<kind>.json` (or, blessing, overwrite it — verdicts
/// first, so the oracle still judges the new bytes against the *old* file),
/// write the `out/` files, then prove the sabotaged variant is caught.
/// `Ok` is the gate's headline line.
pub fn run_gate(gate: &Gate, root: &Path, bless: bool) -> Result<String, Failure> {
    let path = root.join(format!("BENCH_{}.json", gate.kind));
    let unusable = |e: String| failure(2, format!("{}: {e}", path.display()));
    // Only a blessing without an oracle can do without the pinned file.
    let pinned = match std::fs::read_to_string(&path) {
        Ok(text) => Some(text),
        Err(_) if bless && gate.oracle.is_none() => None,
        Err(e) => return Err(unusable(e.to_string())),
    };
    // A production's failed verdicts plus the oracle's against the pinned text.
    let judge = |p: &Produced| -> Result<Vec<String>, Failure> {
        let failed = p.verdicts.iter().filter(|(_, holds)| !holds);
        let mut violations: Vec<String> = failed.map(|(name, _)| name.to_string()).collect();
        if let (Some(oracle), Some(pinned)) = (gate.oracle, &pinned) {
            violations.extend(oracle(pinned, &p.artifact).map_err(unusable)?);
        }
        Ok(violations)
    };

    let honest = (gate.produce)(false);
    let current = parse_artifact(&honest.artifact)
        .map_err(|e| failure(1, format!("{}: emitted artifact: {e}", gate.kind)))?;
    let mut violations = judge(&honest)?;
    for (name, html) in honest.files.iter().filter(|(n, _)| n.ends_with(".html")) {
        match gate.reports.iter().find(|spec| glob(spec.file, name)) {
            Some(spec) => {
                let broken = check_report(spec, html).into_iter();
                violations.extend(broken.map(|v| format!("{name}: {v}")));
            }
            None => violations.push(format!("{name}: rendered without a ReportSpec")),
        }
    }
    let rendered = |spec: &&ReportSpec| honest.files.iter().any(|(n, _)| glob(spec.file, n));
    for spec in gate.reports.iter().filter(|spec| !rendered(spec)) {
        violations.push(format!("{}: not rendered", spec.file));
    }
    if !violations.is_empty() {
        return Err(failure(
            1,
            format!(
                "{}: {} verdict(s) failed\n  {}",
                gate.kind,
                violations.len(),
                violations.join("\n  ")
            ),
        ));
    }

    match &pinned {
        Some(text) if !bless && *text == honest.artifact => {}
        Some(text) if !bless => {
            let base = parse_artifact(text).map_err(unusable)?;
            let deltas = rank(diff_values(&base.value, &current.value, Tolerance::EXACT));
            let why = if deltas.is_empty() && json::write(&base.value) == honest.artifact {
                "the values are identical: the checked-in file is not in canonical layout \
                 (`gates --bless` rewrites it)\n"
                    .to_string()
            } else {
                render_report(&deltas, Tolerance::EXACT)
            };
            return Err(failure(
                1,
                format!(
                    "{}: regenerated bytes differ from the checked-in file\n{why}",
                    path.display()
                ),
            ));
        }
        _ => std::fs::write(&path, &honest.artifact).map_err(|e| unusable(e.to_string()))?,
    }
    let out = root.join(OUT_DIR);
    std::fs::create_dir_all(&out)
        .and_then(|()| {
            honest
                .files
                .iter()
                .try_for_each(|(name, text)| std::fs::write(out.join(name), text))
        })
        .map_err(|e| failure(2, format!("{}: {e}", out.display())))?;

    let value = headline(&current.value, gate.headline).map_or_else(String::new, fmt_f64);
    let mut line = format!("{:<12} {} = {value}", gate.kind, gate.headline);
    if let Some(sabotage) = &gate.sabotage {
        let bad = (gate.produce)(true);
        let caught = match sabotage.caught_by {
            Catch::Verdict(needle) => judge(&bad)?.into_iter().find(|v| v.contains(needle)),
            Catch::Moves(globs) => {
                let bad = parse_artifact(&bad.artifact)
                    .map_err(|e| failure(1, format!("{}: sabotaged artifact: {e}", gate.kind)))?;
                diff_values(&current.value, &bad.value, Tolerance::default())
                    .into_iter()
                    .map(|d| d.path)
                    .find(|path| globs.iter().any(|g| glob(g, path)))
            }
        };
        let Some(by) = caught else {
            let missed = match sabotage.caught_by {
                Catch::Verdict(needle) => format!("failed no `{needle}` verdict"),
                Catch::Moves(globs) => format!("moved no measurement under {globs:?}"),
            };
            return Err(failure(
                1,
                format!("{}: sabotage `{}` {missed}", gate.kind, sabotage.what),
            ));
        };
        line.push_str(&format!("; sabotage `{}` caught by {by}", sabotage.what));
    }
    Ok(line)
}

/// The two-file explainer: the ranked attribution of every
/// out-of-tolerance delta between two same-schema artifacts. `Ok` when
/// there is none.
pub fn diff_files(base_path: &Path, cur_path: &Path) -> Result<String, Failure> {
    let tol = Tolerance::default();
    let base = load_artifact(base_path).map_err(|e| failure(2, e))?;
    let cur = load_artifact(cur_path).map_err(|e| failure(2, e))?;
    if base.schema != cur.schema {
        return Err(failure(
            2,
            format!(
                "schema mismatch: {} is {}, {} is {}",
                base_path.display(),
                base.schema,
                cur_path.display(),
                cur.schema
            ),
        ));
    }
    let deltas = rank(diff_values(&base.value, &cur.value, tol));
    let report = format!(
        "comparing {} ({}) -> {}\n{}",
        base_path.display(),
        base.schema,
        cur_path.display(),
        render_report(&deltas, tol)
    );
    if deltas.is_empty() {
        Ok(report)
    } else {
        Err(failure(1, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Each row's checked-in artifact carries the row's headline, and the
    /// report specs are well-formed and belong to one row each. (That the
    /// rows *are* the tracked artifacts is `artifact`'s test.)
    #[test]
    fn every_row_has_a_finite_headline_and_its_own_report_specs() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut report_files = Vec::new();
        for gate in &GATES {
            let a = load_artifact(&root.join(format!("BENCH_{}.json", gate.kind))).unwrap();
            let value = headline(&a.value, gate.headline);
            assert!(
                value.is_some_and(f64::is_finite),
                "{}: no finite headline `{}`",
                gate.kind,
                gate.headline
            );
            for spec in gate.reports {
                assert!(spec.file.ends_with(".html") && !spec.markers.is_empty());
                report_files.push(spec.file);
            }
        }
        let specs = report_files.len();
        report_files.sort_unstable();
        report_files.dedup();
        assert_eq!(report_files.len(), specs, "two rows claim one report");
    }

    #[test]
    fn headline_paths_select_into_arrays() {
        let v = bonsai_obs::json::parse(r#"{"a": {"b": [1.0, 2.5]}, "s": "x"}"#).unwrap();
        assert_eq!(headline(&v, "a.b.last"), Some(2.5));
        assert_eq!(headline(&v, "a.b.len"), Some(2.0));
        assert_eq!(headline(&v, "a.c"), None);
        assert_eq!(headline(&v, "s"), None);
    }

    #[test]
    fn globs_match_one_run_of_characters() {
        assert!(glob(
            "roofline[*].seconds",
            "roofline[kernel=local,rank=0].seconds"
        ));
        assert!(!glob(
            "roofline[*].seconds",
            "roofline[kernel=local,rank=0].flops"
        ));
        assert!(glob(
            "residuals[term=gravity_*",
            "residuals[term=gravity_lets].measured_s"
        ));
        assert!(glob("*.wall_seconds", "weak.points[0].wall_seconds"));
        assert!(!glob("config.sandbag", "config.sandbagged"));
        assert!(!glob("ab*ba", "aba"));
    }

    const GOOD_HTML: &str = "<!DOCTYPE html>\n<html><h2>X</h2></html>\n";

    /// A canned artifact: the sabotage flag under `config`, one measurement.
    fn doc(sandbag: f64, seconds: f64) -> String {
        format!(
            "{{\"schema\": \"bonsai-fake-v1\", \"config\": {{\"sandbag\": {sandbag:?}}}, \
             \"roofline\": [{{\"kernel\": \"local\", \"seconds\": {seconds:?}}}]}}\n"
        )
    }

    fn produced(artifact: String, holds: bool) -> Produced {
        Produced {
            artifact,
            files: vec![("fake_report.html".into(), GOOD_HTML.into())],
            verdicts: vec![("invariant", holds)],
        }
    }

    fn clean(_: bool) -> Produced {
        produced(doc(1.0, 2.0), true)
    }

    fn broken_invariant(_: bool) -> Produced {
        produced(doc(1.0, 2.0), false)
    }

    fn sabotage_moves_only_its_flag(sabotaged: bool) -> Produced {
        produced(doc(if sabotaged { 1.5 } else { 1.0 }, 2.0), true)
    }

    fn sabotage_moves_the_measurement(sabotaged: bool) -> Produced {
        let factor = if sabotaged { 1.5 } else { 1.0 };
        produced(doc(factor, 2.0 * factor), true)
    }

    fn sabotage_breaks_the_invariant(sabotaged: bool) -> Produced {
        produced(doc(1.0, 2.0), !sabotaged)
    }

    fn unlisted_report(_: bool) -> Produced {
        let mut p = clean(false);
        p.files.push(("surprise.html".into(), GOOD_HTML.into()));
        p
    }

    fn scripted_report(_: bool) -> Produced {
        let mut p = clean(false);
        p.files[0].1 = format!("{GOOD_HTML}<script></script>");
        p
    }

    fn no_report(_: bool) -> Produced {
        Produced {
            files: Vec::new(),
            ..clean(false)
        }
    }

    const MOVES: Catch = Catch::Moves(&["roofline[*].seconds"]);

    fn fake(produce: fn(bool) -> Produced, caught_by: Option<Catch>) -> Gate {
        Gate {
            kind: "fake",
            produce,
            oracle: None,
            sabotage: caught_by.map(|caught_by| Sabotage {
                what: "sandbag 1.5",
                caught_by,
            }),
            reports: &[ReportSpec {
                file: "fake_*.html",
                markers: &["<h2>X</h2>"],
            }],
            headline: "roofline.len",
        }
    }

    /// A fresh tree holding `pinned` as `BENCH_fake.json`, if any.
    fn tree(pinned: Option<&str>) -> PathBuf {
        let root = crate::scratch_dir("bonsai_gates");
        std::fs::create_dir_all(&root).unwrap();
        if let Some(text) = pinned {
            std::fs::write(root.join("BENCH_fake.json"), text).unwrap();
        }
        root
    }

    fn entries(root: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn equal_bytes_pass_and_only_out_is_written() {
        let root = tree(Some(&doc(1.0, 2.0)));
        let line = run_gate(
            &fake(sabotage_moves_the_measurement, Some(MOVES)),
            &root,
            false,
        )
        .unwrap();
        assert!(
            line.starts_with("fake         roofline.len = 1.0"),
            "{line}"
        );
        assert!(
            line.ends_with("caught by roofline[kernel=local].seconds"),
            "{line}"
        );
        assert_eq!(entries(&root), ["BENCH_fake.json", "out"]);
        assert_eq!(entries(&root.join("out")), ["fake_report.html"]);
        let pinned = std::fs::read_to_string(root.join("BENCH_fake.json")).unwrap();
        assert_eq!(
            pinned,
            doc(1.0, 2.0),
            "the sabotaged artifact touched the tree"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_changed_number_fails_naming_its_path() {
        let root = tree(Some(&doc(1.0, 2.0000000000000004)));
        let f = run_gate(&fake(clean, None), &root, false).unwrap_err();
        assert_eq!(f.code, 1);
        assert!(f.report.contains("bytes differ"), "{}", f.report);
        assert!(
            f.report.contains("roofline[kernel=local].seconds: "),
            "{}",
            f.report
        );
        assert_eq!(
            entries(&root),
            ["BENCH_fake.json"],
            "a failed gate wrote files"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    fn canonical(_: bool) -> Produced {
        produced(json::write(&json::parse(&doc(1.0, 2.0)).unwrap()), true)
    }

    #[test]
    fn a_layout_only_mismatch_says_so_and_names_the_bless() {
        let root = tree(Some(&doc(1.0, 2.0)));
        let f = run_gate(&fake(canonical, None), &root, false).unwrap_err();
        assert_eq!(f.code, 1);
        for says in ["bytes differ", "identical", "canonical layout", "--bless"] {
            assert!(f.report.contains(says), "{}", f.report);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_missing_or_malformed_pinned_file_is_unusable() {
        let root = tree(None);
        assert_eq!(
            run_gate(&fake(clean, None), &root, false).unwrap_err().code,
            2
        );
        std::fs::write(root.join("BENCH_fake.json"), "{\"x\": 1}").unwrap();
        assert_eq!(
            run_gate(&fake(clean, None), &root, false).unwrap_err().code,
            2
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_failed_verdict_fails_matching_bytes_and_blocks_the_bless() {
        let root = tree(Some(&doc(1.0, 2.0)));
        let f = run_gate(&fake(broken_invariant, None), &root, false).unwrap_err();
        assert_eq!(f.code, 1);
        assert!(f.report.contains("invariant"), "{}", f.report);

        std::fs::write(root.join("BENCH_fake.json"), "old").unwrap();
        let f = run_gate(&fake(broken_invariant, None), &root, true).unwrap_err();
        assert_eq!(f.code, 1);
        let kept = std::fs::read_to_string(root.join("BENCH_fake.json")).unwrap();
        assert_eq!(
            kept, "old",
            "--bless wrote an artifact whose verdict failed"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bless_writes_a_clean_artifact_even_over_nothing() {
        let root = tree(None);
        run_gate(&fake(clean, None), &root, true).unwrap();
        let written = std::fs::read_to_string(root.join("BENCH_fake.json")).unwrap();
        assert_eq!(written, doc(1.0, 2.0));
        run_gate(&fake(clean, None), &root, false).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    fn oracle_rejects_a_faster_kernel(pinned: &str, current: &str) -> Result<Vec<String>, String> {
        let seconds = |text: &str| -> Result<f64, String> {
            headline(&parse_artifact(text)?.value, "roofline.last.seconds")
                .ok_or_else(|| "no roofline".to_string())
        };
        let (old, new) = (seconds(pinned)?, seconds(current)?);
        Ok(if new < old {
            vec![format!("{new} s is too good")]
        } else {
            Vec::new()
        })
    }

    #[test]
    fn the_oracle_judges_new_bytes_against_the_old_pinned_file() {
        let gate = Gate {
            oracle: Some(oracle_rejects_a_faster_kernel),
            ..fake(clean, None)
        };
        let root = tree(Some(&doc(1.0, 3.0)));
        let f = run_gate(&gate, &root, true).unwrap_err();
        assert!(f.report.contains("too good"), "{}", f.report);
        let kept = std::fs::read_to_string(root.join("BENCH_fake.json")).unwrap();
        assert_eq!(kept, doc(1.0, 3.0));

        std::fs::write(root.join("BENCH_fake.json"), doc(1.0, 1.0)).unwrap();
        run_gate(&gate, &root, true).unwrap();
        std::fs::remove_file(root.join("BENCH_fake.json")).unwrap();
        let f = run_gate(&gate, &root, true).unwrap_err();
        assert_eq!(f.code, 2, "an oracle row cannot be blessed from nothing");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The parent's `ci.sh` diffed the sabotaged file against the baseline
    /// and took *any* delta as proof; `config.sandbag: 1.0 -> 1.5` is one.
    #[test]
    fn a_sabotage_that_only_moves_its_own_flag_is_not_caught() {
        let root = tree(Some(&doc(1.0, 2.0)));
        let f = run_gate(
            &fake(sabotage_moves_only_its_flag, Some(MOVES)),
            &root,
            false,
        )
        .unwrap_err();
        assert_eq!(f.code, 1);
        assert!(
            f.report
                .contains("sabotage `sandbag 1.5` moved no measurement"),
            "{}",
            f.report
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_verdict_sabotage_must_fail_the_named_verdict() {
        let root = tree(Some(&doc(1.0, 2.0)));
        let gate = fake(
            sabotage_breaks_the_invariant,
            Some(Catch::Verdict("invariant")),
        );
        let line = run_gate(&gate, &root, false).unwrap();
        assert!(line.ends_with("caught by invariant"), "{line}");
        for gate in [
            fake(
                sabotage_breaks_the_invariant,
                Some(Catch::Verdict("another")),
            ),
            fake(clean, Some(Catch::Verdict("invariant"))),
        ] {
            let f = run_gate(&gate, &root, false).unwrap_err();
            assert_eq!(f.code, 1);
            assert!(f.report.contains("failed no `"), "{}", f.report);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn every_rendered_html_needs_a_sound_report_and_every_spec_a_file() {
        let root = tree(Some(&doc(1.0, 2.0)));
        for (produce, why) in [
            (
                unlisted_report as fn(bool) -> Produced,
                "surprise.html: rendered without a ReportSpec",
            ),
            (scripted_report, "fake_report.html: embedded script"),
            (no_report, "fake_*.html: not rendered"),
        ] {
            let f = run_gate(&fake(produce, None), &root, false).unwrap_err();
            assert_eq!(f.code, 1);
            assert!(f.report.contains(why), "{}", f.report);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn diff_explains_two_files_and_rejects_unusable_ones() {
        let root = tree(Some(&doc(1.0, 2.0)));
        let base = root.join("BENCH_fake.json");
        let slow = root.join("slow.json");
        std::fs::write(&slow, doc(1.0, 3.0)).unwrap();
        let other = root.join("other.json");
        std::fs::write(&other, "{\"schema\": \"bonsai-other-v1\"}").unwrap();

        assert!(diff_files(&base, &base).unwrap().contains("no deltas"));
        let f = diff_files(&base, &slow).unwrap_err();
        assert_eq!(f.code, 1);
        assert!(
            f.report
                .contains("roofline[kernel=local].seconds: 2.0 -> 3.0"),
            "{}",
            f.report
        );
        assert_eq!(diff_files(&base, &other).unwrap_err().code, 2);
        assert_eq!(
            diff_files(&base, &root.join("absent.json"))
                .unwrap_err()
                .code,
            2
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
