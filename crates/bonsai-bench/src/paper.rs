//! The paper's evaluation: one table, one runner.
//!
//! Each row of [`ROWS`] regenerates one figure, table or design-choice study
//! at one pinned size and returns an [`Outcome`], all in memory: the table it
//! prints, its claims — each a [`Compared`] whose value must fall in its
//! band — and the files it renders under `out/`. [`run`] is the runner,
//! written once; the `paper` binary calls it, and it alone writes under
//! `out/` (the `production` and `chaos` rows checkpoint into temp
//! directories they remove).
//! Model rows price the paper's machines with the calibrated models of
//! `bonsai-gpu` and `bonsai-sim`; measured rows run the real tree walk,
//! decomposition or cluster.
//!
//! The `fig3` science run integrates a Milky Way for minutes, so it runs
//! only when named, sized by `--n` / `--steps` on the command line.

use std::fmt::Write;
use std::path::Path;

use bonsai_analysis::bar::{pattern_speed, BarAnalysis};
use bonsai_analysis::velocity::{cylindrical_velocity, moving_group_count};
use bonsai_analysis::{ppm, spiral, SurfaceDensityMap};
use bonsai_core::{Simulation, SimulationConfig};
use bonsai_domain::exchange::PARTICLE_WIRE_SIZE;
use bonsai_domain::sampling::{clustered_keys, parallel_cuts, partition_imbalance, serial_cuts};
use bonsai_gpu::kernel::paper_mix;
use bonsai_gpu::power::{K20X_NODE, K_COMPUTER, PIZ_DAINT_EFF, TITAN_EFF};
use bonsai_gpu::{GpuModel, KernelModel, KernelVariant, C2075, K20X};
use bonsai_ic::{plummer_sphere, MilkyWayModel};
use bonsai_net::{FaultKind, FaultPlan, RecoveryAction};
use bonsai_net::{NetworkModel, Placement, PlacementStrategy, PIZ_DAINT, TITAN};
use bonsai_obs::health::Severity;
use bonsai_sfc::locality::{mean_step, range_surface_cells};
use bonsai_sfc::range::{find_owner, ranges_from_cuts};
use bonsai_sfc::{Curve, KeyMap, MAX_LEVEL};
use bonsai_sim::breakdown::Phase;
use bonsai_sim::checkpoint::{restore_cluster, write_checkpoint};
use bonsai_sim::cluster::factor_ranks;
use bonsai_sim::model::{BOUNDARY_BYTES, TABLE_II};
use bonsai_sim::{Cluster, ClusterConfig, LongRunConfig, RecoveryConfig, ScalingModel, StepBreakdown};
use bonsai_tree::build::{Tree, TreeParams};
use bonsai_tree::direct::direct_self_forces;
use bonsai_tree::walk::{self, WalkParams, WalkStats};
use bonsai_tree::{InteractionCounts, Particles};
use bonsai_util::rng::Xoshiro256;
use bonsai_util::stats::Histogram2d;
use bonsai_util::{units, Aabb, Vec3};

use crate::scaling::{run_sweep, SweepConfig};
use crate::{arg_usize, comparison_table, drop_storm, milky_way_config, milky_way_snapshot, scratch_dir, short};
use crate::{Compared, OUT_DIR};

/// What one row yields, all in memory.
pub struct Outcome {
    /// The table it prints above its claims.
    pub table: String,
    /// The claims: each value must fall in its band.
    pub claims: Vec<Compared>,
    /// The files it renders under `out/`: `(name, contents)`.
    pub files: Vec<(String, Vec<u8>)>,
}

/// One row of the evaluation table.
pub struct Row {
    /// The name `paper <row>` selects it by.
    pub name: &'static str,
    /// Where in the paper (or in the Bonsai paper it builds on) the claims are.
    pub section: &'static str,
    /// Run the row at its pinned size.
    pub run: fn() -> Outcome,
}

/// The science run: minutes of integration, so it runs only when named.
pub const NAMED_ONLY: &str = "fig3";

/// Every row, in the paper's order, then the design-choice ablations.
pub static ROWS: [Row; 18] = [
    Row { name: "table1", section: "Table I", run: table1 },
    Row { name: "fig1", section: "Fig. 1", run: fig1 },
    Row { name: "fig2", section: "Fig. 2, §III-B1", run: fig2 },
    Row { name: "fig3", section: "Fig. 3, §IV", run: fig3 },
    Row { name: "fig4", section: "Fig. 4", run: fig4 },
    Row { name: "table2", section: "Table II, §VI-D", run: table2 },
    Row { name: "time_to_solution", section: "§VI-C", run: time_to_solution },
    Row { name: "production", section: "§VI-C", run: production },
    Row { name: "chaos", section: "§VI-C restart, DESIGN §6b", run: chaos },
    Row { name: "power", section: "§II", run: power },
    Row { name: "theta", section: "§IV, §VI-A", run: theta },
    Row { name: "nleaf", section: "§I", run: nleaf },
    Row { name: "groups", section: "§III-A", run: groups },
    Row { name: "sfc", section: "§III-B", run: sfc },
    Row { name: "sampling", section: "§III-B1", run: sampling },
    Row { name: "let", section: "§III-B2", run: let_export },
    Row { name: "overlap", section: "§III-B2", run: overlap },
    Row { name: "placement", section: "§VII", run: placement },
];

/// Run the rows of `rows` named in `names` — every row but [`NAMED_ONLY`]
/// when `names` is empty — printing each table and its claims and writing
/// the rendered files under `root/out/`. Returns the exit code: `0` every
/// claim holds, `1` one fell outside its band, `2` an unknown row name or
/// an unwritable `out/`.
pub fn run(rows: &[Row], names: &[String], root: &Path) -> u8 {
    if let Some(unknown) = names.iter().find(|n| rows.iter().all(|r| r.name != *n)) {
        let known: Vec<&str> = rows.iter().map(|r| r.name).collect();
        eprintln!("paper: no row `{unknown}` (known: {})", known.join(", "));
        return 2;
    }
    let selected = |r: &&Row| match names {
        [] => r.name != NAMED_ONLY,
        _ => names.iter().any(|n| n == r.name),
    };
    let out = root.join(OUT_DIR);
    let mut failed = Vec::new();
    for row in rows.iter().filter(selected) {
        let o = (row.run)();
        print!("\n── {} · {} ──\n{}", row.name, row.section, o.table);
        print!("{}", comparison_table(&o.claims));
        for (name, bytes) in &o.files {
            let written = std::fs::create_dir_all(&out).and_then(|()| std::fs::write(out.join(name), bytes));
            if let Err(e) = written {
                eprintln!("paper: {}: {e}", out.join(name).display());
                return 2;
            }
            println!("wrote {OUT_DIR}/{name}");
        }
        let off_band = o.claims.iter().filter(|c| !c.holds());
        failed.extend(off_band.map(|c| format!("{}: {}", row.name, c.label)));
    }
    if failed.is_empty() {
        return 0;
    }
    eprintln!("FAIL {} claim(s) outside their band\n  {}", failed.len(), failed.join("\n  "));
    1
}

/// `writeln!` into a `String`, which cannot fail.
macro_rules! out {
    ($t:expr, $($arg:tt)*) => {{
        let _ = writeln!($t, $($arg)*);
    }};
}

const M13: u64 = 13_000_000;

fn outcome(table: String, claims: Vec<Compared>) -> Outcome {
    Outcome { table, claims, files: Vec::new() }
}

fn table1() -> Outcome {
    let mut t = String::new();
    out!(t, "{:<26} {:>15} {:>15}", "Setup", "Piz Daint", "Titan");
    let gpu_ram = format!("{:.1} GB", K20X.mem_gb);
    let (d, ti) = (PIZ_DAINT, TITAN);
    for (k, a, b) in [
        ("GPU model", "K20X".to_string(), "K20X".to_string()),
        ("GPU/node", "1".into(), "1".into()),
        ("Total GPUs", d.total_nodes.to_string(), ti.total_nodes.to_string()),
        ("GPUs used", d.nodes_used.to_string(), ti.nodes_used.to_string()),
        ("GPU RAM (ECC enabled)", gpu_ram.clone(), gpu_ram),
        ("CPU model", d.cpu.into(), ti.cpu.into()),
        ("CPU/node", "1".into(), "1".into()),
        ("CPU cores used", (d.nodes_used * d.cpu_cores).to_string(), (ti.nodes_used * ti.cpu_cores).to_string()),
        ("Node RAM", format!("{} GB", d.node_ram_gb), format!("{} GB", ti.node_ram_gb)),
        ("Network", "Aries/dragonfly".into(), "Gemini/3D Torus".into()),
    ] {
        out!(t, "{k:<26} {a:>15} {b:>15}");
    }
    out!(t, "C2075 peak SP (Fig. 1's Fermi device): {:.2} Tflops", C2075.peak_sp_gflops() / 1e3);
    let peak_tf = K20X.peak_sp_gflops() / 1e3;
    let claims = vec![
        Compared::near("K20X peak SP", 3.95, peak_tf, "TF", 0.01),
        Compared::near("18600 × K20X theoretical peak", 73.2, 18600.0 * peak_tf / 1e3, "PF", 0.01),
        Compared::near("particles fitting one K20X", 20.0, K20X.max_particles() as f64 / 1e6, "M", 0.05),
    ];
    outcome(t, claims)
}

fn fig1() -> Outcome {
    const N: usize = 30_000;
    let tree = Tree::build(milky_way_snapshot(N, 1), TreeParams::default());
    let (_, stats) = walk::self_gravity(&tree, &WalkParams::new(0.4, 0.001));
    let (pp, pc) = stats.counts.per_particle(N);
    let gflops = |device, variant, counts| KernelModel::new(device, variant).achieved_gflops(counts);
    let mut t = String::new();
    out!(t, "measured mix, {N}-particle Milky Way at θ = 0.4: {pp:.0} p-p and {pc:.0} p-c per particle");
    out!(t, "{:<32} {:>12} {:>12}", "kernel (Gflops)", "paper mix", "measured mix");
    let mut claims = Vec::new();
    for (label, paper, device, variant) in [
        ("tree-code C2075 (Fermi kernel)", 460.0, C2075, KernelVariant::TreeFermi),
        ("tree-code K20X/original", 829.0, K20X, KernelVariant::TreeKeplerOriginal),
        ("tree-code K20X/tuned (__shfl)", 1768.0, K20X, KernelVariant::TreeKeplerTuned),
    ] {
        let ours = gflops(device, variant, paper_mix(1_000_000));
        out!(t, "{label:<32} {ours:>12.0} {:>12.0}", gflops(device, variant, stats.counts));
        claims.push(Compared::near(label, paper, ours, "GF", 0.10));
    }
    let (fermi, original, tuned) = (claims[0].ours, claims[1].ours, claims[2].ours);
    let direct = InteractionCounts { pp: 1_000_000, pc: 0 };
    for (label, paper, device) in [("direct N-body C2075", 638.0, C2075), ("direct N-body K20X", 1746.0, K20X)] {
        let ours = gflops(device, KernelVariant::Direct, direct);
        claims.push(Compared::near(label, paper, ours, "GF", 0.10));
    }
    claims.push(Compared::new("tuned / original", 2.0, tuned / original, "x", 1.65..=2.35));
    claims.push(Compared::new("tuned / C2075", 4.0, tuned / fermi, "x", 3.4..=4.6));
    outcome(t, claims)
}

fn fig2() -> Outcome {
    const N: usize = 4000;
    const DOMAINS: usize = 5;
    const GRID: usize = 256;
    // Three Gaussian blobs of clustered points in a thin slab: the figure is 2D.
    let keymap = KeyMap::new(&Aabb::new(Vec3::zero(), Vec3::splat(1.0)), Curve::Hilbert);
    let mut rng = Xoshiro256::seed_from(2);
    let mut keys: Vec<u64> = (0..N)
        .map(|i| {
            let c = match i % 3 {
                0 => Vec3::new(0.3, 0.3, 0.0),
                1 => Vec3::new(0.7, 0.6, 0.0),
                _ => Vec3::new(0.4, 0.8, 0.0),
            };
            let p = c + Vec3::new(rng.normal_scaled(0.0, 0.12), rng.normal_scaled(0.0, 0.12), 0.0);
            keymap.key_of(Vec3::new(p.x.clamp(0.01, 0.99), p.y.clamp(0.01, 0.99), 0.5))
        })
        .collect();
    keys.sort_unstable();
    let domains = ranges_from_cuts(&(1..DOMAINS).map(|i| keys[i * N / DOMAINS]).collect::<Vec<_>>());

    // Rasterise ownership on a grid, one brightness band per domain.
    let mut image = vec![0.0f64; GRID * GRID];
    for (gy, row) in image.chunks_mut(GRID).enumerate() {
        for (gx, px) in row.iter_mut().enumerate() {
            let p = Vec3::new((gx as f64 + 0.5) / GRID as f64, (gy as f64 + 0.5) / GRID as f64, 0.5);
            let owner = find_owner(&domains, keymap.key_of(p));
            *px = (owner as f64 + 0.6) / (DOMAINS as f64 + 1.0);
        }
    }
    let mut t = ppm::ascii_art(&image, GRID, 64);
    out!(t, "per-domain covering cells (the paper's gray boundary squares):");
    let mut widest = 0;
    for (d, r) in domains.iter().enumerate() {
        let cells = r.covering_cells();
        let count = keys.iter().filter(|&&k| r.contains(k)).count();
        let levels = cells.iter().map(|&(_, l)| l);
        let (lo, hi) = (levels.clone().min().unwrap_or(0), levels.max().unwrap_or(0));
        out!(t, "  domain {d}: {count:>6} particles, {:>4} covering cells, levels {lo}..{hi}", cells.len());
        widest = widest.max(cells.len());
    }
    // A key range is a union of at most 7 sibling cells per level on each side.
    let bound = (2 * 7 * MAX_LEVEL) as f64;
    let widest = Compared::new("covering cells of the widest domain", f64::NAN, widest as f64, "", 1.0..=bound);
    Outcome {
        table: t,
        claims: vec![widest],
        files: vec![("fig2_decomposition.ppm".into(), ppm::heatmap(&image, GRID))],
    }
}

fn fig3() -> Outcome {
    let n = arg_usize("--n", 60_000);
    let steps = arg_usize("--steps", 700);
    let mw = MilkyWayModel::paper();
    let (nb, nd, _) = mw.component_counts(n);
    let (lo, hi) = (0u64, (nb + nd) as u64); // bulge + disk ids
    let stellar = Some((lo, hi));
    let cfg = milky_way_config(n);
    let mut t = String::new();
    let gyr = units::internal_to_gyr(cfg.dt * steps as f64);
    out!(t, "Milky Way with {n} particles ({nb} bulge, {nd} disk)");
    out!(t, "theta = 0.4, eps = {:.3} kpc, dt = 3 Myr, {steps} steps (~{gyr:.2} Gyr)", cfg.eps);
    let mut sim = Simulation::new(mw.generate(n, 42), SimulationConfig::galactic(cfg.eps, cfg.dt));
    let e0 = sim.energy_report();

    let mut files = Vec::new();
    let mut bar_series: Vec<(f64, f64)> = Vec::new(); // (time, phase)
    let mut a2_rows: Vec<Vec<f64>> = Vec::new();
    let snap_steps = [steps / 3, 2 * steps / 3, steps];
    for s in 1..=steps {
        sim.step();
        let t_gyr = units::internal_to_gyr(sim.time());
        if s % 10 == 0 || s == steps {
            let bar = BarAnalysis::measure(sim.particles(), 4.0, stellar);
            bar_series.push((sim.time(), bar.phase));
            a2_rows.push(vec![t_gyr, bar.a2, bar.phase]);
            if s % 100 == 0 {
                out!(t, "  step {s:>5}  t = {t_gyr:.2} Gyr  A2 = {:.3}", bar.a2);
            }
        }
        if let Some(i) = snap_steps.iter().position(|&k| k == s) {
            let map = SurfaceDensityMap::compute(sim.particles(), 15.0, 256, stellar);
            files.push((format!("fig3_density_t{i}.ppm"), ppm::heatmap(&map.log_brightness(3.0), 256)));
            out!(t, "  density map t{i} at {t_gyr:.2} Gyr");
        }
    }
    let drift = sim.energy_report().drift_from(&e0);
    let final_bar = BarAnalysis::measure(sim.particles(), 4.0, stellar);
    let early_a2 = a2_rows.first().map_or(0.0, |r| r[1]);
    let peak_a2 = a2_rows.iter().map(|r| r[1]).fold(0.0, f64::max);
    out!(t, "energy drift over the run: {drift:.2e}");
    out!(t, "bar strength A2: {early_a2:.3} (early) -> {:.3} (final)", final_bar.a2);
    let late = &bar_series[bar_series.len().saturating_sub(12)..];
    if late.len() >= 2 && final_bar.a2 > 0.05 {
        // The internal time unit is kpc/(km/s), so Ω_b is already km/s/kpc.
        out!(t, "bar pattern speed: {:.1} km/s/kpc (MW estimates: 35-55)", pattern_speed(late));
    }
    files.push(("fig3_bar_strength.csv".into(), ppm::csv("t_gyr,a2,phase", &a2_rows).into_bytes()));

    // Velocity plane of disk stars in the 7–9 kpc "solar" annulus.
    let p = sim.particles();
    let annulus: Vec<usize> = (0..p.len())
        .filter(|&i| (lo..hi).contains(&p.id[i]))
        .filter(|&i| (7.0..9.0).contains(&p.pos[i].cyl_radius()) && p.pos[i].z.abs() < 1.0)
        .collect();
    let vphi_sum: f64 = annulus.iter().map(|&i| cylindrical_velocity(p.pos[i], p.vel[i]).1).sum();
    let v_rot = if annulus.is_empty() { 0.0 } else { vphi_sum / annulus.len() as f64 };
    let mut hist = Histogram2d::new(-80.0, 80.0, 40, -80.0, 80.0, 40);
    for &i in &annulus {
        let (vr, vphi) = cylindrical_velocity(p.pos[i], p.vel[i]);
        hist.add(vr, vphi - v_rot);
    }
    out!(t, "solar annulus (7-9 kpc): {} disk stars, mean v_phi = {v_rot:.0} km/s", annulus.len());
    let (nx, ny) = hist.shape();
    let mut rows = Vec::new();
    for iy in 0..ny {
        for ix in 0..nx {
            let centre = |i: usize, n: usize| -80.0 + 160.0 * (i as f64 + 0.5) / n as f64;
            rows.push(vec![centre(ix, nx), centre(iy, ny), hist.get(ix, iy) as f64]);
        }
    }
    files.push(("fig3_velocity.csv".into(), ppm::csv("v_r,dv_phi,count", &rows).into_bytes()));
    let groups = moving_group_count(&hist, 4.0, 3);
    out!(t, "detected velocity-plane moving groups: {groups} (≥3-cell clumps at 4σ)");

    // Spiral structure: dominant m mode and pitch angle of the outer disk.
    let spec = spiral::mode_spectrum(p, 12.0, 24, 6, stellar);
    let m = spec.dominant_mode(4.0, 11.0);
    let amplitude = spec.mean_amplitude(m, 4.0, 11.0);
    out!(t, "dominant non-axisymmetric mode in 4-11 kpc: m = {m} (amplitude {amplitude:.3})");
    if let Some(pitch) = spiral::pitch_angle(&spec, m, 4.0, 11.0) {
        out!(t, "log-spiral pitch angle of the m = {m} pattern: {pitch:.1} deg");
    }
    let claims = vec![
        Compared::at_least("peak / early bar strength A2", peak_a2 / early_a2, "x", 2.0),
        Compared::new("relative energy drift over the run", f64::NAN, drift.abs(), "", 0.0..=0.05),
    ];
    Outcome { table: t, claims, files }
}

fn fig4() -> Outcome {
    let mut t = String::new();
    let mut claims = Vec::new();
    let daint: &[u32] = &[1, 4, 16, 64, 256, 1024, 2048, 4096, 5200];
    let titan: &[u32] = &[1, 4, 16, 64, 256, 1024, 2048, 4096, 8192, 18600];
    for (model, gpus) in [(ScalingModel::piz_daint(), daint), (ScalingModel::titan(), titan)] {
        out!(t, "{} — model at 13M particles/GPU", model.machine.name);
        out!(t, "  GPUs    GPU-kern TF     gravity TF         app TF    linear TF    eff %");
        let series = model.weak_scaling(gpus, M13);
        let single = series[0].0.application_tflops();
        for (b, eff) in &series {
            let gravity_tf = b.total_flops() / (b[Phase::GravityLocal] + b[Phase::GravityLets] + b[Phase::NonHiddenComm]) / 1e12;
            let linear = b.gpus as f64 * single;
            let (gpu_tf, app_tf) = (b.gpu_tflops(), b.application_tflops());
            let (p, eff) = (b.gpus, 100.0 * eff);
            out!(t, "{p:>6} {gpu_tf:>14.1} {gravity_tf:>14.1} {app_tf:>14.1} {linear:>12.1} {eff:>8.1}");
        }
        let eff_at = |p: u32| series.iter().find(|(b, _)| b.gpus == p).map_or(0.0, |&(_, e)| e);
        if model.machine.name == "Titan" {
            claims.push(Compared::new("Titan efficiency at 8192 GPUs", 0.90, eff_at(8192), "", 0.87..=0.93));
            claims.push(Compared::new("Titan efficiency at 18600 GPUs", 0.86, eff_at(18600), "", 0.82..=0.9));
        } else {
            let lowest = series.iter().map(|&(_, e)| e).fold(1.0, f64::min);
            let label = "Piz Daint lowest efficiency to 5200 GPUs";
            claims.push(Compared::new(label, 0.95, lowest, "", 0.95..=1.0));
        }
    }
    let r = run_sweep(&SweepConfig::default());
    let (n_per, total) = (r.config.weak_n_per_rank, r.config.strong_total);
    out!(t, "measured sweep of the real distributed step (weak {n_per}/rank, strong {total} total)");
    out!(t, " ranks       weak s  weak eff     strong s   str eff  coverage");
    for (i, (w, s)) in r.weak.iter().zip(&r.strong).enumerate() {
        let (weak_eff, strong_eff) = (r.weak_eff[i], r.strong_eff[i]);
        let (p, weak_s, strong_s, coverage) = (w.p, w.wall, s.wall, w.coverage);
        out!(t, "{p:>6} {weak_s:>12.6} {weak_eff:>9.3} {strong_s:>12.6} {strong_eff:>9.3} {coverage:>9.3}");
    }
    let coverage = r.weak.iter().chain(&r.strong).map(|pt| pt.coverage);
    let lowest = coverage.fold(f64::INFINITY, f64::min);
    claims.push(Compared::new("lowest critical-path coverage of a rung", f64::NAN, lowest, "", 0.99..=1.01));
    outcome(t, claims)
}

fn table2() -> Outcome {
    let mut t = String::new();
    let mut claims = Vec::new();
    out!(t, "entries not claimed, paper → ours:");
    for col in &TABLE_II {
        let b = col.predict();
        let machine = if col.gpus == 1 { "single" } else { col.machine.name };
        let name = format!("{machine} {}×{:.1}M", col.gpus, col.n_per as f64 / 1e6);
        // The p-c law is fitted at 13M particles a GPU.
        let at_13m = |tol: f64| (col.n_per == M13).then_some(tol);
        let mut line = format!("  {name:<21}");
        for (label, paper, ours, unit, tol) in [
            ("sort", col.sort, b[Phase::Sort], "s", None),
            ("domain", col.domain, b[Phase::DomainUpdate], "s", None),
            ("tree", col.tree, b[Phase::TreeConstruction], "s", None),
            ("props", col.props, b[Phase::TreeProperties], "s", None),
            ("non-hidden", col.non_hidden, b[Phase::NonHiddenComm], "s", None),
            ("other", col.other, b.other(), "s", None),
            ("total", col.total, b.total(), "s", Some(0.10)),
            ("gravity local tree", col.grav_local, b[Phase::GravityLocal], "s", Some(0.10)),
            ("gravity LETs", col.grav_lets, b[Phase::GravityLets], "s", at_13m(0.10)),
            ("p-p per particle", col.pp, b.pp_per_particle, "", Some(0.01)),
            ("p-c per particle", col.pc, b.pc_per_particle, "", at_13m(0.05)),
            ("GPU performance", col.gpu_tflops, b.gpu_tflops(), "TF", Some(0.05)),
            ("application performance", col.app_tflops, b.application_tflops(), "TF", Some(0.10)),
        ] {
            match tol {
                Some(tol) => claims.push(Compared::near(format!("{name} {label}"), paper, ours, unit, tol)),
                None => {
                    let _ = write!(line, " {label} {}→{}", short(paper), short(ours));
                }
            }
        }
        out!(t, "{line}");
    }
    outcome(t, claims)
}

fn time_to_solution() -> Outcome {
    let (titan, daint) = (ScalingModel::titan(), ScalingModel::piz_daint());
    // The paper's ~10% interaction-count increase once the bar and spiral
    // arms have formed (§VI-C).
    const BAR: f64 = 1.10;
    let n51 = 51_200_000_000 / 4096;
    let mut t = String::new();
    let steps = 8.0e9 / 75_000.0;
    let step = units::paper_time_step();
    out!(t, "time step 75,000 yr = {step:.3e} internal units; 8 Gyr = {steps:.0} steps");
    // The 51G run formed its bar about half-way through its 6 Gyr.
    let days51 = daint.time_to_solution_days(4096, n51, 6.0) * (1.0 + BAR) / 2.0;
    out!(t, "51G model, the 6 Gyr the paper simulated: {days51:.1} days of Piz Daint time");
    let step_s = |m: &ScalingModel, p, n| m.predict(p, n).total() * BAR;
    let days = |p| titan.time_to_solution_days(p, M13, 8.0) * BAR;
    let claims = vec![
        Compared::new("242G on 18600 GPUs: step", 5.5, step_s(&titan, 18600, M13), "s", 4.95..=5.5),
        Compared::new("242G, 8 Gyr wall-clock", 7.0, days(18600), "d", 6.0..=8.0),
        Compared::near("106G on 8192 GPUs: step", 5.1, step_s(&titan, 8192, M13), "s", 0.05),
        Compared::new("106G, 8 Gyr wall-clock", 6.2, days(8192), "d", 6.0..=7.0),
        Compared::near("51G on 4096 Piz Daint GPUs: step", 4.6, step_s(&daint, 4096, n51), "s", 0.05),
    ];
    outcome(t, claims)
}

/// §VI-C in miniature: the production run decomposed over ranks, watched by
/// the long-run monitor, analysed on the fly, riding out a drop storm, and
/// checkpointed "for the dual purpose of restarting and detailed analysis".
fn production() -> Outcome {
    const N: usize = 6_000;
    const RANKS: usize = 4;
    const STEPS: usize = 20;
    // Retransmitting the storm's sends makes the `recovery` phase non-zero,
    // so the averaged breakdown is checked on every phase.
    const STORM: (u64, u64) = (11, 13);
    let mw = MilkyWayModel::paper();
    let (nb, nd, _) = mw.component_counts(N);
    let stellar = Some((0, (nb + nd) as u64));
    let cfg = milky_way_config(N);
    let plan = drop_storm(2014, STORM);
    let mut cluster = Cluster::with_faults(mw.generate(N, 2014), RANKS, cfg.clone(), plan, None);
    cluster.enable_longrun(LongRunConfig::default());
    let mut t = String::new();
    let (a, b) = STORM;
    out!(t, "{N}-particle Milky Way, {RANKS} ranks, {STEPS} steps; first sends of epochs {a}..{b} dropped");
    let (mut sum, mut mean_total) = (StepBreakdown::default(), 0.0);
    for s in 1..=STEPS {
        let step = cluster.step();
        mean_total += step.total() / STEPS as f64;
        for phase in Phase::ALL {
            sum[phase] += step[phase];
        }
        if s % 10 == 0 {
            // On-the-fly analysis, as the production run did.
            let a2 = BarAnalysis::measure(&cluster.gather(), 4.0, stellar).a2;
            let (gyr, m) = (units::internal_to_gyr(cluster.time()), &cluster.last_measurements);
            let migrated: usize = m.exchange_bytes.iter().sum();
            let state = format!("t = {gyr:.3} Gyr  A2 = {a2:.3}  imbalance {:.3}", m.imbalance);
            out!(t, "  step {s:>3}  {state}  migrated {migrated} B");
        }
    }
    let avg = StepBreakdown::from_phases(RANKS as u32, (N / RANKS) as u64, 0.0, 0.0, |phase| sum[phase] / STEPS as f64);
    let lr = cluster.take_monitor().expect("the run monitor is on");
    let drift = lr.series().series("bonsai_energy_drift").and_then(|s| s.last()).unwrap_or(f64::NAN);
    out!(t, "alert log of the long-run monitor's {} rules:", lr.health().rules().len());
    t.push_str(&lr.health().render_log());
    out!(t, "mean phase times, simulated on {}:", cfg.machine.name);
    for phase in Phase::ALL {
        out!(t, "  {:<18} {:>8.4} ms", phase.name(), 1e3 * avg[phase]);
    }
    out!(t, "  {:<18} {:>8.4} ms", "total", 1e3 * avg.total());
    out!(t, "paper: 51G particles on 4096 Piz Daint GPUs, 4.6 s a step at T = 3.8 Gyr");

    // Restart check: the checkpoint reads back every particle id it wrote.
    let ids = |c: &Cluster| {
        let mut ids = c.gather().id;
        ids.sort_unstable();
        ids
    };
    let dir = scratch_dir("bonsai_paper_production");
    let read = write_checkpoint(&cluster, &dir).and_then(|()| restore_cluster(&dir, RANKS, cfg));
    let _ = std::fs::remove_dir_all(&dir);
    let written = ids(&cluster);
    let read = match read {
        Ok(restored) => ids(&restored),
        Err(e) => {
            out!(t, "checkpoint: {e}");
            Vec::new()
        }
    };
    let held = written.iter().filter(|id| read.binary_search(id).is_ok()).count();
    let held = held as f64 / written.len().max(read.len()) as f64;
    let critical = lr.health().opened_count(Severity::Critical) as f64;
    let deviation = (mean_total / avg.total() - 1.0).abs();
    let claims = vec![
        Compared::new("critical alerts opened", f64::NAN, critical, "", 0.0..=0.0),
        Compared::new("|energy drift| over the run", f64::NAN, 100.0 * drift.abs(), "%", 0.12..=0.2),
        Compared::new("ids read back / written by the checkpoint", f64::NAN, held, "", 1.0..=1.0),
        Compared::new("|mean step total / averaged total - 1|", f64::NAN, deviation, "", 0.0..=1e-12),
    ];
    outcome(t, claims)
}

/// The fault sweep: every message fault kind at once at rising rates, then a
/// crash drill, each run checkpointing every two steps. A run that panics is
/// caught and counts as died: a failed claim, not a crashed runner.
fn chaos() -> Outcome {
    use RecoveryAction::{BoundaryFallback, DiscardCorrupt, DiscardDuplicate, DiscardStale};
    use RecoveryAction::{RestoreCheckpoint, Retransmit};
    const N: usize = 2_000;
    const RANKS: usize = 4;
    const STEPS: usize = 6;
    const SEED: u64 = 1994;
    const RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];
    // One run: its fault log, whether every particle came out with a finite
    // force, its degraded LET walks and retransmitted bytes; `None` if it died.
    let run = |plan: FaultPlan, drill: bool| {
        let dir = scratch_dir("bonsai_paper_chaos");
        let recovery = Some(RecoveryConfig { dir: dir.clone(), every: 2 });
        let ran = std::panic::catch_unwind(|| {
            let ic = plummer_sphere(N, SEED);
            let mut c = Cluster::with_faults(ic, RANKS, ClusterConfig::default(), plan, recovery);
            if drill {
                c.enable_elastic_recovery();
            }
            let (mut degraded, mut retx_bytes) = (0, 0);
            for _ in 0..STEPS {
                c.step();
                degraded += c.last_measurements.degraded_lets;
                retx_bytes += c.last_measurements.retransmit_bytes;
                // A lost node is replaced: part of every domain migrates onto it.
                if c.rank_count() < RANKS {
                    c.admit_ranks(RANKS - c.rank_count());
                }
            }
            let finite = c.accelerations_by_id().values().all(|a| a.is_finite());
            let whole = c.total_particles() == N && finite;
            (c.fault_log().clone(), whole, degraded, retx_bytes)
        });
        let _ = std::fs::remove_dir_all(dir);
        ran.ok()
    };
    let mut runs = Vec::new();
    for rate in RATES {
        let plan = FaultKind::MESSAGE_KINDS.iter().fold(FaultPlan::new(SEED), |p, &k| p.with_rate(k, rate));
        runs.push((format!("rate {rate:.2}"), run(plan, false)));
    }
    let crash = STEPS as u64 / 2;
    let drill = FaultPlan::new(SEED).with_rate(FaultKind::Drop, 0.02).with_stall(1, crash);
    runs.push(("crash drill".to_string(), run(drill.with_crash(RANKS - 1, crash + 2), true)));

    let mut t = String::new();
    out!(t, "{N}-particle Plummer sphere over {RANKS} ranks, {STEPS} steps, seed {SEED}, checkpoints every 2");
    out!(t, "the crash drill stalls rank 1 in epoch {crash}, kills rank {} in epoch {},", RANKS - 1, crash + 2);
    out!(t, "rolls the survivors back to the last checkpoint and admits a replacement node");
    out!(t, "{:<12} {:>8} {:>6} {:>8} {:>7} {:>8} {:>8} {:>9}  physics",
        "run", "injected", "retx", "discard", "fallbk", "restore", "degraded", "retx-B");
    let mut recovered = 0;
    for (label, ran) in &runs {
        let Some((log, whole, degraded, retx_bytes)) = ran else {
            out!(t, "{label:<12} DIED");
            continue;
        };
        let of = |action| log.recoveries_of(action);
        let (injected, retx, fallback) = (log.injected.len(), of(Retransmit), of(BoundaryFallback));
        let discard = of(DiscardCorrupt) + of(DiscardDuplicate) + of(DiscardStale);
        let restore = of(RestoreCheckpoint);
        let physics = if *whole { "conserved, finite" } else { "CORRUPTED" };
        let actions = format!("{retx:>6} {discard:>8} {fallback:>7} {restore:>8}");
        out!(t, "{label:<12} {injected:>8} {actions} {degraded:>8} {retx_bytes:>9}  {physics}");
        recovered += usize::from(*whole);
    }
    let log_of = |i: usize| runs[i].1.as_ref().map(|(log, ..)| log);
    let heaviest = log_of(RATES.len() - 1);
    let per_kind = FaultKind::MESSAGE_KINDS.map(|k| (k, heaviest.map_or(0, |log| log.injected_of(k))));
    let kinds: Vec<String> = per_kind.iter().map(|(k, n)| format!("{k} {n}")).collect();
    out!(t, "injected at rate 0.10: {}", kinds.join(", "));
    let fewest = per_kind.iter().map(|&(_, n)| n).min().unwrap_or(0);
    let restores = log_of(RATES.len()).map_or(0, |log| log.recoveries_of(RestoreCheckpoint));
    let claims = vec![
        Compared::new("recovered runs / runs", f64::NAN, recovered as f64 / runs.len() as f64, "", 1.0..=1.0),
        Compared::at_least("fewest injections of one kind at rate 0.10", fewest as f64, "", 1.0),
        Compared::at_least("checkpoint restores in the crash drill", restores as f64, "", 1.0),
    ];
    outcome(t, claims)
}

fn power() -> Outcome {
    let mut t = String::new();
    out!(t, "machine peak efficiencies (Green500 numbers quoted by the paper):");
    for m in [K_COMPUTER, TITAN_EFF, PIZ_DAINT_EFF] {
        out!(t, "  {:<12} {:>6.2} Gflops/W", m.name, m.peak_gflops_per_watt);
    }
    let b = ScalingModel::titan().predict(18600, M13);
    let pflops = b.total_flops() / b.total() / 1e15;
    let per_node_gflops = pflops * 1e6 / 18600.0;
    let duty = (b[Phase::GravityLocal] + b[Phase::GravityLets]) / b.total();
    let node_w = K20X_NODE.node_watts(duty);
    out!(t, "record run (242G particles, 18600 GPUs):");
    out!(t, "  per-node application rate: {per_node_gflops:.0} Gflops");
    out!(t, "  GPU duty cycle: {:.0}% of the {:.2} s step", 100.0 * duty, b.total());
    out!(t, "  mean node power: {node_w:.0} W  →  machine draw ≈ {:.1} MW", node_w * 18600.0 / 1e6);
    let efficiency = K20X_NODE.gflops_per_watt(per_node_gflops, duty);
    out!(t, "  application efficiency: {efficiency:.2} Gflops/W (single precision)");
    // Ishiyama et al.'s trillion-body run: 4.45 Pflops on the K computer.
    let record = TABLE_II.iter().find(|c| c.gpus == 18600).map_or(0.0, |c| c.app_tflops / 1e3);
    let label = "sustained Pflops over the K computer run's";
    outcome(t, vec![Compared::near(label, record / 4.45, pflops / 4.45, "x", 0.05)])
}

/// Build `snapshot`'s tree under `params` and walk it at θ = 0.4: the walk's
/// statistics and its K20X time, traversal included.
fn k20x_walk(snapshot: &Particles, params: TreeParams) -> (Tree, WalkStats, f64) {
    let gpu = GpuModel::k20x_tuned();
    let tree = Tree::build(snapshot.clone(), params);
    let (_, stats) = walk::self_gravity(&tree, &WalkParams::new(0.4, 0.01));
    let time = gpu.gravity_time(stats.counts) + gpu.traversal_time(stats.nodes_visited);
    (tree, stats, time)
}

fn theta() -> Outcome {
    const N: usize = 10_000;
    let tree = Tree::build(milky_way_snapshot(N, 3), TreeParams::default());
    let gpu = GpuModel::k20x_tuned();
    let (reference, _) = direct_self_forces(&tree.particles, 0.01, units::G);
    let mut t = String::new();
    out!(t, "{N}-particle Milky Way; errors are rms relative to direct summation");
    out!(t, " theta  pp/part  pc/part     Gflop quad time s   quad err | mono time s   mono err");
    let thetas = [0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15];
    let mut rows = Vec::new(); // (Gflop, quad err, quad time, mono err, mono time)
    for &theta in &thetas {
        let params = WalkParams { theta, eps: 0.01, g: units::G, use_quadrupole: true };
        let (fq, sq) = walk::self_gravity(&tree, &params);
        let (fm, sm) = walk::self_gravity(&tree, &params.monopole_only());
        // Monopole cells cost the p-p rate: 23 flops, no quadrupole terms.
        let mono = InteractionCounts { pp: sm.counts.pp + sm.counts.pc, pc: 0 };
        let (quad_err, quad_t) = (fq.rms_rel_acc_error(&reference), gpu.gravity_time(sq.counts));
        let (mono_err, mono_t) = (fm.rms_rel_acc_error(&reference), gpu.gravity_time(mono));
        let (pp, pc) = sq.counts.per_particle(N);
        let gflop = sq.counts.flops() as f64 / 1e9;
        let quad = format!("{gflop:>9.3} {quad_t:>11.5} {quad_err:>10.2e}");
        out!(t, "{theta:>6.2} {pp:>8.0} {pc:>8.0} {quad} | {mono_t:>11.5} {mono_err:>10.2e}");
        rows.push((gflop, quad_err, quad_t, mono_err, mono_t));
    }
    let at = |theta: f64| rows[thetas.iter().position(|&x| x == theta).expect("θ is swept")];
    let (q04, q07, q08, q03) = (at(0.4), at(0.7), at(0.8), at(0.3));
    // The monopole walk at the widest θ that matches the quadrupole's error at
    // θ = 0.4 — or, if none does, at the narrowest θ swept: a lower bound.
    let exponent = (q03.0 / q08.0).ln() / (0.8f64 / 0.3).ln();
    let matching = rows.iter().find(|r| r.3 <= q04.1).unwrap_or(&rows[rows.len() - 1]);
    let claims = vec![
        Compared::new("flop exponent k, flops ∝ θ^-k (0.8 → 0.3)", 3.0, exponent, "", 1.0..=3.0),
        Compared::at_least("quadrupole error, θ = 0.7 over θ = 0.4", q07.1 / q04.1, "x", 3.0),
        Compared::at_least("monopole / quadrupole error at θ = 0.4", q04.3 / q04.1, "x", 4.0),
        Compared::at_least("monopole / quadrupole time at equal error", matching.4 / q04.2, "x", 1.0),
    ];
    outcome(t, claims)
}

fn nleaf() -> Outcome {
    const N: usize = 16_000;
    let snapshot = milky_way_snapshot(N, 4);
    let mut t = String::new();
    out!(t, "{N}-particle Milky Way, θ = 0.4, group = 2·NLEAF; time includes traversal");
    out!(t, " NLEAF      nodes      pp/part      pc/part       visits    Gflop total    K20X time s");
    let mut best = (0usize, f64::INFINITY);
    for nleaf in [2usize, 4, 8, 16, 32, 64, 128] {
        let params = TreeParams { nleaf, curve: Curve::Hilbert, group_size: 2 * nleaf };
        let (tree, stats, time) = k20x_walk(&snapshot, params);
        let (pp, pc) = stats.counts.per_particle(N);
        let gflop = stats.counts.flops() as f64 / 1e9;
        let (nodes, visits) = (tree.nodes.len(), stats.nodes_visited);
        out!(t, "{nleaf:>6} {nodes:>10} {pp:>12.0} {pc:>12.0} {visits:>12} {gflop:>14.3} {time:>14.5}");
        if time < best.1 {
            best = (nleaf, time);
        }
    }
    let claims = vec![Compared::new("fastest NLEAF on the K20X model", 16.0, best.0 as f64, "", 16.0..=16.0)];
    outcome(t, claims)
}

fn groups() -> Outcome {
    const N: usize = 16_000;
    let snapshot = milky_way_snapshot(N, 6);
    let mut t = String::new();
    out!(t, "{N}-particle Milky Way, θ = 0.4, NLEAF = 16; time includes traversal");
    out!(t, "  group   groups      pp/part      pc/part       visits    K20X time s");
    let mut best = (0usize, f64::INFINITY);
    for group_size in [8usize, 16, 32, 64, 128, 256] {
        let params = TreeParams { nleaf: 16, curve: Curve::Hilbert, group_size };
        let (tree, stats, time) = k20x_walk(&snapshot, params);
        let (pp, pc) = stats.counts.per_particle(N);
        let (groups, visits) = (tree.groups.len(), stats.nodes_visited);
        out!(t, "{group_size:>7} {groups:>8} {pp:>12.0} {pc:>12.0} {visits:>12} {time:>14.5}");
        if time < best.1 {
            best = (group_size, time);
        }
    }
    // Bonsai walks a warp's worth of particles per group.
    let fastest = Compared::new("fastest group size on the K20X model", 32.0, best.0 as f64, "", 32.0..=64.0);
    outcome(t, vec![fastest])
}

fn sfc() -> Outcome {
    const N: usize = 20_000;
    const RANKS: usize = 10;
    // Domain surfaces of 40k uniform points cut into 5 domains: not a power
    // of 8, so Morton cannot hide behind octant-aligned cuts.
    let mut rng = Xoshiro256::seed_from(5);
    let mut uniform = || rng.uniform();
    let pts: Vec<Vec3> = (0..40_000).map(|_| Vec3::new(uniform(), uniform(), uniform())).collect();
    let bounds = Aabb::from_points(&pts);
    let ic = plummer_sphere(N, 11);
    let mut t = String::new();
    out!(t, "mean L1 step between consecutive keys (5-bit lattice); surface cells of 5 domains over");
    out!(t, "40k uniform points; one {N}-particle Plummer cluster on {RANKS} ranks");
    out!(t, "   curve  mean step  surface cells   boundary bytes    LET bytes  LET pairs");
    let mut measured = Vec::new(); // (step, surface, boundary bytes, LET bytes)
    for (name, curve) in [("Hilbert", Curve::Hilbert), ("Morton", Curve::Morton)] {
        let step = mean_step(curve, 5, 0, 30_000);
        let surface: usize = range_surface_cells(&KeyMap::new(&bounds, curve), &pts, 5).iter().sum();
        let cfg = ClusterConfig { tree: TreeParams { curve, ..Default::default() }, ..Default::default() };
        let m = Cluster::new(ic.clone(), RANKS, cfg).last_measurements;
        let sum = |v: &[usize]| v.iter().sum::<usize>();
        let (boundary, lets, pairs) = (sum(&m.boundary_bytes), sum(&m.let_bytes_sent), sum(&m.let_neighbors));
        out!(t, "{name:>8} {step:>10.3} {surface:>14} {boundary:>16} {lets:>12} {pairs:>10}");
        measured.push((step, surface as f64, boundary as f64, lets as f64));
    }
    let (h, m) = (measured[0], measured[1]);
    let claims = vec![
        Compared::new("Hilbert mean key step", 1.0, h.0, "", 1.0..=1.0),
        Compared::at_least("Morton / Hilbert domain surface cells", m.1 / h.1, "x", 1.0),
        Compared::at_least("Morton / Hilbert boundary bytes", m.2 / h.2, "x", 1.0),
        Compared::at_least("Morton / Hilbert LET bytes", m.3 / h.3, "x", 1.0),
    ];
    outcome(t, claims)
}

fn sampling() -> Outcome {
    const SAMPLES: usize = 64;
    let mut t = String::new();
    out!(t, "500 clustered keys a rank, {SAMPLES} samples; the largest gather one DD-process performs");
    out!(t, "  ranks     px*py   serial DD gather parallel DD gather     ser imb     par imb");
    let mut rows = Vec::new(); // (serial gather, parallel gather, parallel imb / serial imb)
    for p in [16usize, 64, 256, 1024, 4096] {
        let data = clustered_keys(p, 500, 1 << 56, p as u64);
        let (ranges_s, st_s) = serial_cuts(&data, p, SAMPLES);
        let (px, py) = factor_ranks(p);
        let (ranges_p, st_p) = parallel_cuts(&data, px, py, 8, SAMPLES);
        let (imb_s, imb_p) = (partition_imbalance(&data, &ranges_s), partition_imbalance(&data, &ranges_p));
        let (serial, parallel) = (st_s.max_dd_gather, st_p.max_dd_gather);
        out!(t, "{p:>7} {px:>5}x{py:<3} {serial:>18} {parallel:>18} {imb_s:>11.3} {imb_p:>11.3}");
        rows.push((serial as f64, parallel as f64, imb_p / imb_s));
    }
    let (first, last) = (rows[0], rows[rows.len() - 1]);
    let growth = (last.0 / first.0).ln() / 256f64.ln();
    let worst = rows.iter().map(|r| r.2).fold(0.0, f64::max);
    let claims = vec![
        Compared::new("serial gather growth k, ∝ p^k (16 → 4096 ranks)", 1.0, growth, "", 0.95..=1.05),
        Compared::at_least("serial / two-level gather at 4096 ranks", last.0 / last.1, "x", 4.0),
        Compared::new("worst two-level / serial partition imbalance", f64::NAN, worst, "x", 0.0..=1.05),
    ];
    outcome(t, claims)
}

fn let_export() -> Outcome {
    const N: usize = 24_000;
    let ic = milky_way_snapshot(N, 13);
    let cfg = ClusterConfig { eps: 0.05, g: units::G, ..ClusterConfig::default() };
    let mut t = String::new();
    out!(t, "{N}-particle Milky Way: the bytes one step sends under each strategy");
    out!(t, " ranks     export bytes        LET bytes   boundary bytes    LET pairs");
    let mut let_over_export = 0.0;
    for p in [4usize, 8, 16, 24] {
        let m = Cluster::new(ic.clone(), p, cfg.clone()).last_measurements;
        // Particle export ships every rank's whole particle set to all others:
        // gravity is all-to-all.
        let export = p * (N / p) * PARTICLE_WIRE_SIZE * (p - 1);
        let lets: usize = m.let_bytes_sent.iter().sum();
        let boundaries = m.boundary_bytes.iter().sum::<usize>() * (p - 1); // the allgather
        let pairs: usize = m.let_neighbors.iter().sum();
        out!(t, "{p:>6} {export:>16} {lets:>16} {boundaries:>16} {pairs:>9}/{:<3}", p * (p - 1));
        let_over_export = lets as f64 / export as f64;
    }
    // Production scale: 13M particles a rank, 18600 ranks, ~40 dedicated LETs
    // of ~2 MB each plus one boundary allgather.
    let export = 13.0e6 * PARTICLE_WIRE_SIZE as f64 * 18599.0;
    let let_bytes = 40.0 * 2.0e6 + 18600.0 * BOUNDARY_BYTES as f64;
    let (tb, gb) = (export / 1e12, let_bytes / 1e9);
    out!(t, "13M particles × 18600 ranks: export {tb:.1} TB, LET {gb:.1} GB per rank per step");
    let claims = vec![
        Compared::new("LET / export bytes at 24 ranks", f64::NAN, let_over_export, "x", 0.0..=1.0),
        Compared::at_least("export / LET bytes, 13M × 18600", export / let_bytes, "x", 1e4),
    ];
    outcome(t, claims)
}

fn overlap() -> Outcome {
    let mut t = String::new();
    let mut claims = Vec::new();
    for model in [ScalingModel::titan(), ScalingModel::piz_daint()] {
        let net = NetworkModel::new(model.machine);
        out!(t, "{} at 13M particles/GPU", model.machine.name);
        out!(t, "   GPUs      overlap s   no-overlap s       slowdown   eff loss");
        let mut loss = 0.0;
        for p in [64u32, 256, 1024, 4096, 18600].into_iter().filter(|&p| p <= model.machine.nodes_used) {
            let b = model.predict(p, M13);
            let with_overlap = b.total();
            // Without overlap, what the paper hides inside the gravity window
            // lands on the critical path: the CPU construction of ~40
            // dedicated LETs over the 13M-particle tree (~1 s on the Xeon,
            // slower on the Opteron) plus the wire time of the LET exchange
            // and of the boundary allgather.
            let cpu_let_build = 1.0 / model.machine.cpu_let_rate;
            let let_comm =
                net.let_exchange_time(40.min(p - 1), 2_000_000) + net.allgatherv_time(p, BOUNDARY_BYTES);
            let without = with_overlap - b[Phase::NonHiddenComm] + cpu_let_build + let_comm;
            loss = 1.0 - with_overlap / without;
            let (slowdown, lost) = (100.0 * (without / with_overlap - 1.0), 100.0 * loss);
            out!(t, "{p:>7} {with_overlap:>14.2} {without:>14.2} {slowdown:>13.1}% {lost:>9.1}%");
        }
        // Above 5% the loss alone would break the >95% weak-scaling efficiency.
        let label = format!("{} efficiency lost without overlap", model.machine.name);
        claims.push(Compared::new(label, f64::NAN, loss, "", 0.05..=1.0));
    }
    outcome(t, claims)
}

fn placement() -> Outcome {
    let mut t = String::new();
    out!(t, "Titan's 3D torus (Gemini, 25x16x24): mean hops to the 20 nearest SFC neighbours");
    out!(t, "  ranks   row-major hops     hilbert hops      ratio    LET latency saved");
    let mut ratio = 0.0;
    for p in [256usize, 1024, 4096, 16384, 18600] {
        let hops = |strategy| Placement::new(&TITAN.topology, p, strategy).mean_neighbor_hops(20);
        let (a, b) = (hops(PlacementStrategy::RowMajor), hops(PlacementStrategy::HilbertWalk));
        ratio = a / b.max(1e-9);
        // The latency of the ~40 LET messages scales with hops.
        let saved = 40.0 * TITAN.latency_us / 3.0 * (a - b);
        out!(t, "{p:>7} {a:>16.2} {b:>16.2} {ratio:>10.2} {saved:>17.1} us");
    }
    out!(t, "uniform-traffic mean hops on this torus: {:.1}", TITAN.topology.mean_hops());
    outcome(t, vec![Compared::at_least("row-major / Hilbert-walk hops, 18600 ranks", ratio, "x", 2.0)])
}
