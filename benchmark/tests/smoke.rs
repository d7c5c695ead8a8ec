//! Every workload, end to end, at an eighth of its particles for two
//! measured steps: untraced and traced runs complete, pass every check and
//! measure every metric of their table.

use bonsai_benchmark::e2e::{self, RunPlan};
use bonsai_benchmark::report::{END_TO_END, PER_LAYER};
use bonsai_benchmark::workload::{find, Shape};
use bonsai_benchmark::{out_dir, traced};

fn smoke(name: &str) {
    let w = find(name).expect("known workload").scaled_down(8);
    std::fs::create_dir_all(out_dir()).unwrap();
    let plan = RunPlan {
        seed: 2014,
        seconds: 0.0,
        min_steps: 2,
        warmup: 1,
        setups: 1,
        out_dir: out_dir(),
    };

    let r = e2e::run(&w, &plan);
    assert!(r.correct(), "{name} untraced: {:?}", r.ops.failures);
    // Two steps, energy, force error; the chaos shape adds its four.
    let chaos = matches!(w.shape, Shape::Chaos(_));
    assert_eq!(r.ops.attempted, if chaos { 8 } else { 4 });
    r.json_line(&END_TO_END);
    assert!(r.values["step_s_p90"] >= r.values["step_s_p50"]);

    let (r, rec) = traced::run(&w, &plan);
    assert!(r.correct(), "{name} traced: {:?}", r.ops.failures);
    r.json_line(&PER_LAYER);
    assert_eq!(
        r.values["bench.replay_match"], 1.0,
        "{name}: replay diverged"
    );
    assert!(r.values["bench.telescoping_err"] <= 0.02);
    assert_eq!(r.values["bench.traced_steps"], 2.0);
    if chaos {
        assert!(r.values["sim.restores"] >= 1.0, "the scheduled crash fired");
        assert!(r.values["net.faults_injected"] > 0.0);
    }
    // One `step` and one `replay` root per traced step, and layer spans.
    let roots = |n: &str| rec.spans().iter().filter(|s| s.name == n).count();
    assert_eq!((roots("step"), roots("replay")), (2, 2));
    assert!(roots("tree.walk_local") >= 2);
    // Checkpoint scratch is removed when the run ends.
    let leftovers = std::fs::read_dir(out_dir())
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            n.starts_with(&format!("ckpt_{name}"))
                && n.ends_with(&format!("_{}", std::process::id()))
        })
        .count();
    assert_eq!(leftovers, 0, "{name} left checkpoint scratch behind");
}

#[test]
fn mw_r1() {
    smoke("mw_r1");
}

#[test]
fn mw_r8() {
    smoke("mw_r8");
}

#[test]
fn mw_r64_thin() {
    smoke("mw_r64_thin");
}

#[test]
fn mw_r32_chaos() {
    smoke("mw_r32_chaos");
}
