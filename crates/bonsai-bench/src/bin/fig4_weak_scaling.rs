//! Fig. 4 — weak-scaling performance on Piz Daint and Titan.
//!
//! Two parts:
//!
//! 1. **Model at paper scale** — the calibrated machine model sweeps GPU
//!    counts from 1 to 5200 (Piz Daint) and 1 to 18600 (Titan) at 13M
//!    particles/GPU, printing the three curves of Fig. 4 (GPU kernels,
//!    gravity, application, in Tflops) and the efficiency insets.
//! 2. **Measured at feasible scale** — the real cluster simulator runs the
//!    real distributed algorithm at small rank counts and prints the same
//!    quantities from measured interaction counts and byte volumes,
//!    demonstrating the flat weak-scaling *shape* directly.

use bonsai_bench::scaling::{run_sweep, scaling_json, SweepConfig};
use bonsai_bench::{arg_usize, out_dir};
use bonsai_ic::plummer_sphere;
use bonsai_obs::json::fmt_f64;
use bonsai_sim::{Cluster, ClusterConfig, ScalingModel};

/// Print one machine's model curves and return their JSON rows.
fn model_sweep(model: &ScalingModel, counts: &[u32]) -> String {
    println!(
        "\n=== {} — model at 13M particles/GPU ===",
        model.machine.name
    );
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>12} {:>8}",
        "GPUs", "GPU-kern TF", "gravity TF", "app TF", "linear TF", "eff %"
    );
    let single = model.predict(1, 13_000_000);
    let base_app = single.application_tflops();
    let mut rows = Vec::new();
    for &p in counts {
        let b = model.predict(p, 13_000_000);
        let flops = b.total_flops();
        let gpu_tf = flops / (b.gravity_local + b.gravity_lets) / 1e12;
        let gravity_tf = flops / (b.gravity_local + b.gravity_lets + b.non_hidden_comm) / 1e12;
        let app_tf = flops / b.total() / 1e12;
        let eff = app_tf / (p as f64 * base_app);
        println!(
            "{:>6} {:>14.1} {:>14.1} {:>14.1} {:>12.1} {:>8.1}",
            p,
            gpu_tf,
            gravity_tf,
            app_tf,
            p as f64 * base_app,
            100.0 * eff
        );
        rows.push(format!(
            "      {{\"gpus\": {p}, \"gpu_tflops\": {}, \"gravity_tflops\": {}, \
             \"app_tflops\": {}, \"efficiency\": {}}}",
            fmt_f64(gpu_tf),
            fmt_f64(gravity_tf),
            fmt_f64(app_tf),
            fmt_f64(eff)
        ));
    }
    format!("[\n{}\n    ]", rows.join(",\n"))
}

fn main() {
    let daint = ScalingModel::piz_daint();
    let daint_json = model_sweep(&daint, &[1, 4, 16, 64, 256, 1024, 2048, 4096, 5200]);
    println!("paper: Piz Daint parallel efficiency never drops below 95%");

    let titan = ScalingModel::titan();
    let titan_json = model_sweep(&titan, &[1, 4, 16, 64, 256, 1024, 2048, 4096, 8192, 18600]);
    println!("paper: Titan ~90% to 8192 GPUs, 86% at 18600;");
    let b = titan.predict(18600, 13_000_000);
    println!(
        "paper headline: 33.49 Pflops GPU / 24.77 Pflops application; model: {:.2} / {:.2}",
        b.total_flops() / (b.gravity_local + b.gravity_lets) / 1e15,
        b.total_flops() / b.total() / 1e15
    );

    // Measured weak scaling with the real algorithm.
    let n_per = arg_usize("--n-per-rank", 4000);
    let max_ranks = arg_usize("--max-ranks", 8);
    println!("\n=== measured weak scaling (real distributed algorithm, {n_per} particles/rank) ===");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12} {:>14}",
        "ranks", "pp/part", "pc/part", "grav loc s", "grav LET s", "total sim s"
    );
    let mut p = 1usize;
    while p <= max_ranks {
        let ic = plummer_sphere(n_per * p, 7);
        let mut cluster = Cluster::new(ic, p, ClusterConfig::default());
        let b = cluster.step();
        println!(
            "{:>6} {:>10.0} {:>10.0} {:>12.4} {:>12.4} {:>14.4}",
            p,
            b.pp_per_particle,
            b.pc_per_particle,
            b.gravity_local,
            b.gravity_lets,
            b.total()
        );
        p *= 2;
    }
    println!("\nshape check: pc/particle grows ~logarithmically with rank count (remote");
    println!("subtrees arrive as LET cells), the same behaviour as Table II's interaction");
    println!("rows; at these tiny per-rank sizes pp also rises because nearby LET leaves");
    println!("ship raw particles — at 13M/rank that contribution is negligible (pp flat).");

    // Machine-readable record: the model curves above plus a measured sweep
    // produced by the same driver (and analysis reductions) as the scaling gate.
    let cfg = SweepConfig {
        weak_n_per_rank: n_per,
        strong_total: n_per * max_ranks,
        ranks: std::iter::successors(Some(1usize), |p| Some(p * 2))
            .take_while(|&p| p <= max_ranks)
            .collect(),
        ..SweepConfig::default()
    };
    let measured = scaling_json(&run_sweep(&cfg));
    let json = format!(
        "{{\n  \"schema\": \"bonsai-fig4-v1\",\n  \"model\": {{\n    \"piz_daint\": {daint_json},\n    \
         \"titan\": {titan_json}\n  }},\n  \"measured\": {}\n}}\n",
        measured.trim_end()
    );
    let path = out_dir().join("fig4_weak_scaling.json");
    std::fs::write(&path, &json).expect("write fig4_weak_scaling.json");
    println!("\nwrote {}", path.display());
}
