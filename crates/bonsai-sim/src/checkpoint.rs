//! Distributed checkpointing (§VI-C).
//!
//! "…there was a few percent I/O-related overhead related to storing
//! intermediate simulation snapshots (for the dual purpose of restarting
//! and detailed analysis)." Each rank writes its own shard (as the real
//! code does: 18600 files, no serial gather), plus a small manifest. On
//! restart the shards are read back and the cluster rebuilt — rank count
//! may even *change* between runs, since the first decomposition rebalances
//! everything anyway.
//!
//! The format is built to survive faults: every file is written to a temp
//! name and atomically renamed (a torn write never corrupts an existing
//! checkpoint), the manifest is written *last* so it only ever names shards
//! that are fully on disk, and it records each shard's particle count and
//! CRC-64 so any torn, truncated or bit-flipped shard is detected at read
//! time with an error naming the exact file and field.

use crate::cluster::{Cluster, ClusterConfig};
use bonsai_core::snapshot::{snapshot_from_bytes, snapshot_to_bytes, write_atomic, RECORD_LEN};
use bonsai_tree::{Forces, Particles};
use bonsai_util::crc64;
use std::io;
use std::path::{Path, PathBuf};

const MANIFEST_HEADER: &str = "bonsai-checkpoint v2";

/// Everything a checkpoint restores.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// All particles, concatenated across shards.
    pub particles: Particles,
    /// Simulation time at the checkpoint.
    pub time: f64,
    /// Completed steps at the checkpoint.
    pub steps: u64,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn shard_name(rank: usize) -> String {
    format!("shard_{rank}.bin")
}

fn shard_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(shard_name(rank))
}

fn forces_name(rank: usize) -> String {
    format!("forces_{rank}.bin")
}

/// Serialize one rank's forces as 32 bytes per particle (little endian:
/// acc.x, acc.y, acc.z, pot).
fn forces_to_bytes(forces: &Forces) -> Vec<u8> {
    let mut out = Vec::with_capacity(forces.len() * 32);
    for (a, &phi) in forces.acc.iter().zip(&forces.pot) {
        for v in [a.x, a.y, a.z, phi] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

fn forces_from_bytes(bytes: &[u8], count: usize) -> io::Result<Forces> {
    if bytes.len() != count * 32 {
        return Err(bad(format!(
            "forces shard: {} bytes, expected {} for {count} particles",
            bytes.len(),
            count * 32
        )));
    }
    let f = |i: usize| f64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
    let mut forces = Forces { acc: Vec::with_capacity(count), pot: Vec::with_capacity(count) };
    for i in 0..count {
        forces.acc.push(bonsai_util::Vec3::new(f(4 * i), f(4 * i + 1), f(4 * i + 2)));
        forces.pot.push(f(4 * i + 3));
    }
    Ok(forces)
}

/// Write a per-rank sharded checkpoint under `dir`.
///
/// Layout: `dir/manifest.txt` + `dir/shard_<rank>.bin`. Shards land first,
/// the manifest last; each manifest shard line carries the particle count
/// and CRC-64 of the shard's bytes.
///
/// After the shard lines the manifest carries *exact-resume* state as
/// trailing `domain` / `weight` / `forces` lines (readers of the base
/// format stop after the shard lines, so the extension is backward
/// compatible). Force shards are written only when the cluster holds
/// accelerations for every rank — a pre-force initial checkpoint omits
/// them, and [`resume_cluster_exact`] reports that a rebalancing restart
/// via [`restore_cluster`] is needed instead.
pub fn write_checkpoint(cluster: &Cluster, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let p = cluster.rank_count();
    let mut manifest = format!(
        "{MANIFEST_HEADER}\nranks {p}\ntime {}\nsteps {}\n",
        cluster.time(),
        cluster.step_count()
    );
    for r in 0..p {
        let particles = cluster.rank_particles(r);
        let bytes = snapshot_to_bytes(particles, cluster.time());
        let crc = crc64(&bytes);
        write_atomic(&shard_path(dir, r), &bytes)?;
        manifest.push_str(&format!(
            "{} {} {crc:016x}\n",
            shard_name(r),
            particles.len()
        ));
    }
    for (r, d) in cluster.domains().iter().enumerate() {
        manifest.push_str(&format!("domain {r} {} {}\n", d.start, d.end));
    }
    for (r, w) in cluster.weights().iter().enumerate() {
        manifest.push_str(&format!("weight {r} {w:?}\n"));
    }
    let forces_ready =
        (0..p).all(|r| cluster.rank_forces(r).len() == cluster.rank_particles(r).len());
    if forces_ready {
        for r in 0..p {
            let bytes = forces_to_bytes(cluster.rank_forces(r));
            let crc = crc64(&bytes);
            write_atomic(&dir.join(forces_name(r)), &bytes)?;
            manifest.push_str(&format!("forces {r} {} {crc:016x}\n", forces_name(r)));
        }
    }
    write_atomic(&dir.join("manifest.txt"), manifest.as_bytes())
}

/// Parse one `key value` manifest line, reporting which field is missing or
/// malformed.
fn parse_field<T: std::str::FromStr>(line: Option<&str>, key: &str) -> io::Result<T> {
    let l = line.ok_or_else(|| bad(format!("manifest truncated: missing '{key}' line")))?;
    let v = l
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| bad(format!("manifest field '{key}': malformed line '{l}'")))?;
    v.trim()
        .parse()
        .map_err(|_| bad(format!("manifest field '{key}': invalid value '{v}'")))
}

/// The base format, validated: every rank's shard kept apart, plus the
/// manifest lines that follow the shard lines (the exact-resume extension).
struct Shards<'m> {
    per_rank: Vec<Particles>,
    time: f64,
    steps: u64,
    rest: std::str::Lines<'m>,
}

/// The one reader of the manifest header and shard lines. Every shard's
/// file name and bytes (CRC-64) are checked against the manifest before the
/// snapshot itself is parsed (which re-validates length and its own
/// checksum), and its particle count after, so torn or corrupted shards
/// surface as descriptive errors rather than bad particle data.
fn read_shards<'m>(dir: &Path, manifest: &'m str) -> io::Result<Shards<'m>> {
    let mut lines = manifest.lines();
    let header = lines.next().unwrap_or("");
    if header != MANIFEST_HEADER {
        return Err(bad(format!(
            "bad manifest header '{header}' (expected '{MANIFEST_HEADER}')"
        )));
    }
    let ranks: usize = parse_field(lines.next(), "ranks")?;
    let time: f64 = parse_field(lines.next(), "time")?;
    let steps: u64 = parse_field(lines.next(), "steps")?;
    let mut per_rank = Vec::with_capacity(ranks);
    for r in 0..ranks {
        let line = lines
            .next()
            .ok_or_else(|| bad(format!("manifest truncated: missing shard line {r}")))?;
        let mut parts = line.split_whitespace();
        let (name, count, crc_hex) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(n), Some(c), Some(x), None) => (n, c, x),
            _ => return Err(bad(format!("manifest shard line {r} malformed: '{line}'"))),
        };
        if name != shard_name(r) {
            return Err(bad(format!(
                "manifest shard line {r}: unexpected file '{name}' (expected '{}')",
                shard_name(r)
            )));
        }
        let count: usize = count
            .parse()
            .map_err(|_| bad(format!("shard {name}: invalid particle count '{count}'")))?;
        let stated = u64::from_str_radix(crc_hex, 16)
            .map_err(|_| bad(format!("shard {name}: invalid checksum '{crc_hex}'")))?;
        let bytes = std::fs::read(shard_path(dir, r))?;
        let actual = crc64(&bytes);
        if actual != stated {
            return Err(bad(format!(
                "shard {name}: checksum mismatch (manifest {stated:016x}, file {actual:016x}) — \
                 torn or corrupted write"
            )));
        }
        let (shard, _t) = snapshot_from_bytes(&bytes)
            .map_err(|e| bad(format!("shard {name}: {e}")))?;
        if shard.len() != count {
            return Err(bad(format!(
                "shard {name}: {} particles, manifest declares {count}",
                shard.len()
            )));
        }
        per_rank.push(shard);
    }
    Ok(Shards { per_rank, time, steps, rest: lines })
}

/// Read and validate a sharded checkpoint, the shards concatenated in rank
/// order.
pub fn read_checkpoint_full(dir: &Path) -> io::Result<Checkpoint> {
    let manifest = std::fs::read_to_string(dir.join("manifest.txt"))?;
    let shards = read_shards(dir, &manifest)?;
    let mut particles = Particles::new();
    for shard in &shards.per_rank {
        particles.extend_from(shard);
    }
    Ok(Checkpoint { particles, time: shards.time, steps: shards.steps })
}

/// Restore a cluster from a checkpoint with a (possibly different) rank
/// count: the particles are re-decomposed over `ranks` ranks and forces
/// evaluated afresh, while `time` and `steps` continue from the manifest,
/// so a run checkpointed at R = 4 carries straight on at R = 6. (Contrast
/// with [`resume_cluster_exact`], which keeps the rank count and the
/// checkpointed forces to the bit.)
pub fn restore_cluster(dir: &Path, ranks: usize, cfg: ClusterConfig) -> io::Result<Cluster> {
    let ck = read_checkpoint_full(dir)?;
    Ok(Cluster::from_checkpoint(ck, ranks, cfg))
}

/// Resume a cluster *exactly* from a checkpoint: same rank count, same
/// per-rank particle assignment, and the checkpointed domains, load
/// weights, accelerations and potentials adopted verbatim. No fresh
/// decomposition or force phase runs, so every subsequent [`Cluster::step`]
/// is bit-for-bit identical to the run that wrote the checkpoint — the
/// property the force-accuracy conformance suite gates on (DESIGN.md §6f).
///
/// Requires the exact-resume manifest extension (`domain`/`weight`/`forces`
/// lines); checkpoints written before the first force evaluation lack the
/// force shards and are rejected with a descriptive error — restart those
/// through [`restore_cluster`], which rebalances from scratch.
pub fn resume_cluster_exact(dir: &Path, cfg: ClusterConfig) -> io::Result<Cluster> {
    let manifest = std::fs::read_to_string(dir.join("manifest.txt"))?;
    // Per-rank particle shards (the base format, kept per rank this time).
    let Shards { per_rank: parts, time, steps, rest: lines } = read_shards(dir, &manifest)?;
    let ranks = parts.len();

    // Exact-resume extension lines.
    let mut domains = vec![None; ranks];
    let mut weights = vec![None; ranks];
    let mut forces: Vec<Option<Forces>> = vec![None; ranks];
    for line in lines {
        let mut f = line.split_whitespace();
        match f.next() {
            Some("domain") => {
                let (r, start, end) = parse3(&mut f, line, "domain")?;
                let r = in_range(r as usize, ranks, line)?;
                domains[r] = Some(bonsai_sfc::KeyRange::new(start, end));
            }
            Some("weight") => {
                let r: usize = parse_tok(f.next(), line, "weight rank")?;
                let r = in_range(r, ranks, line)?;
                weights[r] = Some(parse_tok::<f64>(f.next(), line, "weight value")?);
            }
            Some("forces") => {
                let r: usize = parse_tok(f.next(), line, "forces rank")?;
                let r = in_range(r, ranks, line)?;
                let name: String = parse_tok(f.next(), line, "forces file")?;
                let crc_hex: String = parse_tok(f.next(), line, "forces checksum")?;
                let stated = u64::from_str_radix(&crc_hex, 16)
                    .map_err(|_| bad(format!("forces {name}: invalid checksum '{crc_hex}'")))?;
                let bytes = std::fs::read(dir.join(&name))?;
                if crc64(&bytes) != stated {
                    return Err(bad(format!(
                        "forces {name}: checksum mismatch — torn or corrupted write"
                    )));
                }
                forces[r] = Some(forces_from_bytes(&bytes, parts[r].len())?);
            }
            _ => {} // Unknown trailing lines: future extensions.
        }
    }
    let domains = every_rank(domains, "domain")?;
    let weights = every_rank(weights, "weight")?;
    let forces = every_rank(forces, "forces")?;
    Ok(Cluster::from_exact_state(parts, forces, domains, weights, time, steps, cfg))
}

/// One exact-resume field per rank, or the error naming the lines missing.
fn every_rank<T>(per_rank: Vec<Option<T>>, what: &str) -> io::Result<Vec<T>> {
    per_rank.into_iter().collect::<Option<_>>().ok_or_else(|| {
        bad(format!(
            "checkpoint lacks exact-resume {what} lines (written before the first force \
             evaluation, or by an older version); use restore_cluster to restart with a \
             fresh decomposition"
        ))
    })
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, line: &str, what: &str) -> io::Result<T> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| bad(format!("manifest line '{line}': bad {what}")))
}

fn parse3<'a>(
    f: &mut impl Iterator<Item = &'a str>,
    line: &str,
    what: &str,
) -> io::Result<(u64, u64, u64)> {
    Ok((
        parse_tok(f.next(), line, what)?,
        parse_tok(f.next(), line, what)?,
        parse_tok(f.next(), line, what)?,
    ))
}

fn in_range(r: usize, ranks: usize, line: &str) -> io::Result<usize> {
    if r < ranks {
        Ok(r)
    } else {
        Err(bad(format!("manifest line '{line}': rank {r} out of range")))
    }
}

/// I/O-overhead model: the paper reports a "few percent" of step time for
/// snapshot writes. Given a snapshot cadence and per-rank data volume,
/// estimate the fractional overhead on a parallel filesystem with
/// `fs_bandwidth_per_node` bytes/s per node.
pub fn io_overhead_fraction(
    particles_per_rank: u64,
    step_seconds: f64,
    steps_per_snapshot: u64,
    fs_bandwidth_per_node: f64,
) -> f64 {
    let bytes = particles_per_rank as f64 * RECORD_LEN as f64;
    let write_time = bytes / fs_bandwidth_per_node;
    write_time / (step_seconds * steps_per_snapshot as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_ic::plummer_sphere;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("bonsai_ckpt").join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpoint_round_trip_preserves_everything() {
        let ic = plummer_sphere(1200, 1);
        let mut c = Cluster::new(ic, 4, ClusterConfig::default());
        c.step();
        c.step();
        let dir = tmp("round_trip");
        write_checkpoint(&c, &dir).unwrap();
        let ck = read_checkpoint_full(&dir).unwrap();
        assert_eq!(ck.particles.len(), 1200);
        assert!((ck.time - c.time()).abs() < 1e-15);
        assert_eq!(ck.steps, 2);
        let mut ids = ck.particles.id.clone();
        ids.sort_unstable();
        assert_eq!(ids, (0..1200).collect::<Vec<u64>>());
        assert!((ck.particles.total_mass() - 1.0).abs() < 1e-9);
        // Atomic writes leave no temp files behind.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "stray temp file {name:?}"
            );
        }
    }

    #[test]
    fn restart_with_different_rank_count() {
        let ic = plummer_sphere(800, 2);
        let mut c = Cluster::new(ic, 3, ClusterConfig::default());
        c.step();
        let dir = tmp("rescale");
        write_checkpoint(&c, &dir).unwrap();
        let c2 = restore_cluster(&dir, 7, ClusterConfig::default()).unwrap();
        assert_eq!(c2.rank_count(), 7);
        assert_eq!(c2.total_particles(), 800);
        assert_eq!(c2.step_count(), 1, "restore reset the step count");
        assert_eq!(c2.time(), c.time(), "restore reset the clock");
    }

    #[test]
    fn restart_trajectory_matches_uninterrupted_run() {
        // Physics must continue identically: compare particle positions of
        // (run 4 steps) vs (run 2, checkpoint, restore, run 2).
        let ic = plummer_sphere(600, 3);
        let cfg = ClusterConfig::default();
        let mut a = Cluster::new(ic.clone(), 4, cfg.clone());
        for _ in 0..4 {
            a.step();
        }

        let mut b = Cluster::new(ic, 4, cfg.clone());
        b.step();
        b.step();
        let dir = tmp("traj");
        write_checkpoint(&b, &dir).unwrap();
        let mut b2 = restore_cluster(&dir, 4, cfg).unwrap();
        b2.step();
        b2.step();

        // Compare by id. Restart re-runs the decomposition on the same
        // state; positions should agree to tight tolerance.
        let mut pa: Vec<(u64, bonsai_util::Vec3)> = {
            let g = a.gather();
            g.id.iter().copied().zip(g.pos.iter().copied()).collect()
        };
        let mut pb: Vec<(u64, bonsai_util::Vec3)> = {
            let g = b2.gather();
            g.id.iter().copied().zip(g.pos.iter().copied()).collect()
        };
        pa.sort_by_key(|(i, _)| *i);
        pb.sort_by_key(|(i, _)| *i);
        // The restored cluster re-decomposes from fresh load weights, so
        // force summation *order* differs at the 1e-15 level; two steps of
        // N-body dynamics amplify that slightly. Positions must still agree
        // to far better than any physical scale (softening is 1e-2).
        for ((ia, xa), (ib, xb)) in pa.iter().zip(&pb) {
            assert_eq!(ia, ib);
            assert!(
                (*xa - *xb).norm() < 1e-6,
                "id {ia} diverged after restart: {xa} vs {xb}"
            );
        }
    }

    #[test]
    fn exact_resume_restores_identical_state() {
        let ic = plummer_sphere(900, 8);
        let cfg = ClusterConfig::default();
        let mut c = Cluster::new(ic, 4, cfg.clone());
        c.step();
        c.step();
        let dir = tmp("exact");
        write_checkpoint(&c, &dir).unwrap();
        let r = resume_cluster_exact(&dir, cfg).unwrap();
        assert_eq!(r.rank_count(), 4);
        assert_eq!(r.step_count(), 2);
        assert_eq!(r.time().to_bits(), c.time().to_bits());
        assert_eq!(r.domains(), c.domains());
        // Per-rank state is adopted verbatim: same particles in the same
        // order, same accelerations to the bit.
        for rank in 0..4 {
            let (a, b) = (c.rank_particles(rank), r.rank_particles(rank));
            assert_eq!(a.id, b.id);
            assert_eq!(a.pos, b.pos);
            assert_eq!(a.vel, b.vel);
        }
        let (ca, ra) = (c.accelerations_by_id(), r.accelerations_by_id());
        for (id, acc) in &ca {
            assert_eq!(acc, &ra[id], "acc of particle {id} not bit-identical");
        }
    }

    #[test]
    fn exact_resume_rejects_pre_force_checkpoints() {
        // The constructor writes an initial checkpoint before the first
        // force evaluation; it has no forces shards and must be refused
        // with a pointer at restore_cluster.
        let ic = plummer_sphere(300, 12);
        let dir = tmp("preforce");
        let _c = Cluster::with_faults(
            ic,
            2,
            ClusterConfig::default(),
            bonsai_net::FaultPlan::new(0),
            Some(crate::cluster::RecoveryConfig {
                dir: dir.clone(),
                every: 0,
            }),
        );
        let err = match resume_cluster_exact(&dir, ClusterConfig::default()) {
            Ok(_) => panic!("pre-force checkpoint must not resume exactly"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("restore_cluster"), "{err}");
    }

    #[test]
    fn exact_resume_detects_corrupt_forces_shard() {
        let ic = plummer_sphere(400, 13);
        let cfg = ClusterConfig::default();
        let mut c = Cluster::new(ic, 3, cfg.clone());
        c.step();
        let dir = tmp("forces_flip");
        write_checkpoint(&c, &dir).unwrap();
        let path = dir.join("forces_2.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        let err = match resume_cluster_exact(&dir, cfg) {
            Ok(_) => panic!("corrupt forces shard must not resume"),
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("forces_2.bin") && err.to_string().contains("checksum"),
            "{err}"
        );
    }

    /// Both readers must refuse `dir` with a message containing `want`.
    fn both_readers_reject(dir: &Path, want: &str) {
        let base = read_checkpoint_full(dir).map(|_| ()).unwrap_err().to_string();
        assert!(base.contains(want), "base reader: {base}");
        let exact = match resume_cluster_exact(dir, ClusterConfig::default()) {
            Ok(_) => panic!("exact resume accepted a manifest the base reader rejects ({base})"),
            Err(e) => e.to_string(),
        };
        assert_eq!(exact, base, "exact resume must reject with the base reader's message");
    }

    /// A one-step checkpoint of 3 ranks in `tmp(name)`, and its manifest
    /// with shard line 0 rewritten by `edit(name, count, crc)`.
    fn checkpoint_with_shard_line_0(
        name: &str,
        edit: impl Fn(&str, usize, &str) -> String,
    ) -> PathBuf {
        let mut c = Cluster::new(plummer_sphere(400, 14), 3, ClusterConfig::default());
        c.step();
        let dir = tmp(name);
        write_checkpoint(&c, &dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        let mut lines: Vec<String> = manifest.lines().map(String::from).collect();
        let f: Vec<&str> = lines[4].split_whitespace().collect();
        assert_eq!(f[0], "shard_0.bin");
        lines[4] = edit(f[0], f[1].parse().unwrap(), f[2]);
        std::fs::write(dir.join("manifest.txt"), lines.join("\n") + "\n").unwrap();
        dir
    }

    #[test]
    fn exact_resume_rejects_a_wrong_declared_particle_count() {
        let dir = checkpoint_with_shard_line_0("exact_count", |name, count, crc| {
            format!("{name} {} {crc}", count + 1)
        });
        both_readers_reject(&dir, "manifest declares");
    }

    #[test]
    fn exact_resume_rejects_a_shard_line_naming_another_file() {
        let dir = checkpoint_with_shard_line_0("exact_name", |_, count, crc| {
            format!("shard_1.bin {count} {crc}")
        });
        both_readers_reject(&dir, "unexpected file 'shard_1.bin' (expected 'shard_0.bin')");
    }

    #[test]
    fn exact_resume_rejects_trailing_fields_on_a_shard_line() {
        let dir = checkpoint_with_shard_line_0("exact_trailing", |name, count, crc| {
            format!("{name} {count} {crc} extra")
        });
        both_readers_reject(&dir, "manifest shard line 0 malformed");
    }

    #[test]
    fn corrupted_manifest_rejected() {
        let dir = tmp("bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.txt"), "not a checkpoint").unwrap();
        let err = read_checkpoint_full(&dir).unwrap_err();
        assert!(err.to_string().contains("manifest header"), "{err}");
    }

    #[test]
    fn manifest_field_errors_name_the_field() {
        let dir = tmp("fields");
        std::fs::create_dir_all(&dir).unwrap();
        let cases = [
            ("bonsai-checkpoint v2\n", "ranks"),
            ("bonsai-checkpoint v2\nranks two\n", "ranks"),
            ("bonsai-checkpoint v2\nranks 1\ntime soon\n", "time"),
            ("bonsai-checkpoint v2\nranks 1\ntime 0.5\nsteps -3\n", "steps"),
        ];
        for (content, field) in cases {
            std::fs::write(dir.join("manifest.txt"), content).unwrap();
            let err = read_checkpoint_full(&dir).unwrap_err();
            assert!(
                err.to_string().contains(field),
                "manifest {content:?}: error '{err}' does not name '{field}'"
            );
        }
    }

    #[test]
    fn torn_shard_write_detected() {
        let ic = plummer_sphere(400, 5);
        let mut c = Cluster::new(ic, 3, ClusterConfig::default());
        c.step();
        let dir = tmp("torn");
        write_checkpoint(&c, &dir).unwrap();
        // Simulate a torn write: shard 1 loses its tail.
        let shard = dir.join("shard_1.bin");
        let bytes = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &bytes[..bytes.len() - 17]).unwrap();
        let err = read_checkpoint_full(&dir).unwrap_err();
        assert!(
            err.to_string().contains("shard_1.bin") && err.to_string().contains("checksum"),
            "{err}"
        );
    }

    #[test]
    fn bit_flipped_shard_detected() {
        let ic = plummer_sphere(300, 6);
        let c = Cluster::new(ic, 2, ClusterConfig::default());
        let dir = tmp("flip");
        write_checkpoint(&c, &dir).unwrap();
        let shard = dir.join("shard_0.bin");
        let mut bytes = std::fs::read(&shard).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&shard, bytes).unwrap();
        let err = read_checkpoint_full(&dir).unwrap_err();
        assert!(err.to_string().contains("shard_0.bin"), "{err}");
    }

    #[test]
    fn io_overhead_is_few_percent_at_paper_scale() {
        // 13M particles/rank, 4.6 s steps, snapshot every 200 steps, ~1 GB/s
        // effective per-node share of the Lustre filesystem.
        let f = io_overhead_fraction(13_000_000, 4.6, 200, 1.0e9);
        assert!((0.0001..0.05).contains(&f), "I/O overhead fraction {f}");
    }
}
