//! Command line of the benchmark.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints one JSON result line (the form
//!   the driver uses).
//! * no `--workload`: runs every workload, untraced then traced, each in a
//!   fresh process, and prints every metric by name with its unit.
//! * `--selfcheck`: runs both sets twice and compares them against the
//!   benchmark's own bounds.
//!
//! Exit code 0 means every run completed and every check passed.

use bonsai_benchmark::e2e::{self, RunPlan};
use bonsai_benchmark::report::{MetricSpec, END_TO_END, PER_LAYER};
use bonsai_benchmark::stats::rel_spread;
use bonsai_benchmark::workload::{self, Workload, WORKLOADS};
use bonsai_benchmark::{out_dir, traced};
use bonsai_obs::json::{fmt_f64, parse, Value};
use std::process::{Command, ExitCode, Stdio};

/// Seed used when none is given. 1412 is held out: never tune with it.
const DEFAULT_SEED: u64 = 2014;
/// Run length when none is given; `BENCHMARK.json` carries the same value.
const DEFAULT_SECONDS: f64 = 16.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {} outside (0, 600]", args.seconds));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Run one workload in this process and print its result line.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    std::fs::create_dir_all(out_dir()).expect("create output directory");
    let (result, specs): (_, &[MetricSpec]) = if args.trace {
        let plan = RunPlan::traced(args.seed, args.seconds, out_dir());
        let (result, rec) = traced::run(w, &plan);
        let store = rec.into_store();
        let base = plan.out_dir.join(format!("trace_{}", w.name));
        std::fs::write(
            base.with_extension("json"),
            bonsai_obs::chrome::chrome_trace_json(&store),
        )
        .expect("write Chrome trace");
        std::fs::write(
            base.with_extension("folded"),
            bonsai_obs::folded::folded_stacks(&store),
        )
        .expect("write folded stacks");
        (result, &PER_LAYER)
    } else {
        let plan = RunPlan::untraced(args.seed, args.seconds, out_dir());
        (e2e::run(w, &plan), &END_TO_END)
    };
    for failure in &result.ops.failures {
        eprintln!("FAILED {}: {failure}", w.name);
    }
    println!("{}", result.json_line(specs));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Value,
}

impl ChildResult {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("child did not report {name}"))
    }
}

/// Run one workload in a fresh process (so peak memory and allocator state
/// are its own) and parse the result line. The child is waited for.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed no result ({})", w.name, out.status))?;
    let v = parse(line).map_err(|e| format!("{} result line: {e}", w.name))?;
    let field = |k: &str| {
        v.get(k)
            .cloned()
            .ok_or_else(|| format!("{}: no {k}", w.name))
    };
    Ok(ChildResult {
        correct: field("correct")? == Value::Bool(true) && out.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics: field("metrics")?,
    })
}

/// Every workload, untraced then traced, every metric by name and unit.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for (trace, specs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        for w in &WORKLOADS {
            let r = run_child(w, args, trace)?;
            println!(
                "{} ({}, seed {}): {} operations, {} failed, {}",
                w.name,
                if trace { "traced" } else { "untraced" },
                args.seed,
                r.attempted,
                r.failed,
                if r.correct { "correct" } else { "INCORRECT" }
            );
            for s in specs {
                println!(
                    "  {:<32} {:>20} {}",
                    s.name,
                    fmt_f64(r.value(s.name)),
                    s.unit
                );
            }
            all_correct &= r.correct;
        }
    }
    Ok(all_correct)
}

/// Two sets of runs of the same code: every end-to-end pair must agree
/// within its bound and every exact per-layer metric must repeat.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        let a = run_child(w, args, false)?;
        let b = run_child(w, args, false)?;
        println!("{} (untraced, seed {})", w.name, args.seed);
        for s in &END_TO_END {
            let (va, vb) = (a.value(s.name), b.value(s.name));
            let spread = rel_spread(va, vb);
            let within = spread <= s.bound.expect("end-to-end metrics have bounds");
            println!(
                "  {:<18} {:>20} {:>20} {:<6} spread {:>7.3}% bound {:>4.0}% {}",
                s.name,
                fmt_f64(va),
                fmt_f64(vb),
                s.unit,
                100.0 * spread,
                100.0 * s.bound.unwrap_or(0.0),
                if within { "ok" } else { "DISAGREE" }
            );
            ok &= within;
        }
        ok &= a.correct && b.correct;

        let a = run_child(w, args, true)?;
        let b = run_child(w, args, true)?;
        println!("{} (traced, seed {})", w.name, args.seed);
        for s in PER_LAYER.iter().filter(|s| s.exact) {
            let (va, vb) = (a.value(s.name), b.value(s.name));
            let same = va == vb;
            println!(
                "  {:<28} {:>20} {:>20} {:<6} {}",
                s.name,
                fmt_f64(va),
                fmt_f64(vb),
                s.unit,
                if same { "ok" } else { "DIFFERS" }
            );
            ok &= same;
        }
        ok &= a.correct && b.correct;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        return match workload::find(name) {
            Some(w) => run_one(&w, &args),
            None => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "error: unknown workload {name}; known: {}",
                    known.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }
    let outcome = if args.selfcheck {
        selfcheck(&args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a check failed; see above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
