//! Distributed checkpointing (§VI-C).
//!
//! "…there was a few percent I/O-related overhead related to storing
//! intermediate simulation snapshots (for the dual purpose of restarting
//! and detailed analysis)." Each rank writes its own shard (as the real
//! code does: 18600 files, no serial gather), plus a small manifest that
//! also records every rank's domain, load weight and, once forces have been
//! evaluated, its forces. A restart over the rank count that wrote the
//! checkpoint adopts that state verbatim and continues bit for bit; over
//! another count the particles are re-split along the curve and forces
//! evaluated afresh.
//!
//! The format is built to survive faults: every file is written to a temp
//! name and atomically renamed (a torn write never corrupts an existing
//! checkpoint), the manifest is written *last* so it only ever names shards
//! that are fully on disk, and it records each shard's particle count and
//! CRC-64 so any torn, truncated or bit-flipped shard is detected at read
//! time with an error naming the exact file and field.

use crate::cluster::{Cluster, ClusterConfig};
use bonsai_core::snapshot::{snapshot_from_bytes, snapshot_to_bytes, write_atomic, RECORD_LEN};
use bonsai_sfc::KeyRange;
use bonsai_tree::{Forces, Particles};
use bonsai_util::crc64;
use std::io;
use std::path::{Path, PathBuf};

const MANIFEST_HEADER: &str = "bonsai-checkpoint v2";

/// Everything a checkpoint restores, per rank as it was written.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// All particles, the rank shards concatenated in rank order.
    pub particles: Particles,
    /// Simulation time at the checkpoint.
    pub time: f64,
    /// Completed steps at the checkpoint.
    pub steps: u64,
    /// Each writing rank's particles, in the order it held them.
    pub(crate) shards: Vec<Particles>,
    /// Each writing rank's domain.
    pub(crate) domains: Vec<KeyRange>,
    /// Each writing rank's load weight.
    pub(crate) weights: Vec<f64>,
    /// Each writing rank's forces; `None` when the checkpoint was taken
    /// before the first force evaluation.
    pub(crate) forces: Option<Vec<Forces>>,
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
/// After the shard lines the manifest carries every rank's `domain` and
/// `weight`, and `forces` lines naming CRC-checked `forces_<rank>.bin`
/// shards. Force shards are written only when the cluster holds
/// accelerations for every rank: a pre-force initial checkpoint omits them,
/// and a restore from it evaluates forces once before it returns.
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

/// Read and validate a sharded checkpoint: the one reader of a checkpoint,
/// for every restore. Every shard's file name and bytes (CRC-64) are checked
/// against the manifest before the snapshot itself is parsed (which
/// re-validates length and its own checksum), and its particle count after,
/// so torn or corrupted shards surface as descriptive errors rather than
/// bad particle data; the `domain`, `weight` and `forces` lines that follow
/// are range- and CRC-checked the same way.
pub fn read_checkpoint_full(dir: &Path) -> io::Result<Checkpoint> {
    let manifest = std::fs::read_to_string(dir.join("manifest.txt"))?;
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
    // Grown shard by shard: `ranks` is not trusted until every shard line
    // it promises has been read.
    let mut shards = Vec::new();
    let mut particles = Particles::new();
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
        particles.extend_from(&shard);
        shards.push(shard);
    }

    let mut domains = vec![None; ranks];
    let mut weights = vec![None; ranks];
    let mut forces: Vec<Option<Forces>> = vec![None; ranks];
    for line in lines {
        let mut f = line.split_whitespace();
        match f.next() {
            Some("domain") => {
                let r = in_range(parse_tok(f.next(), line, "domain")?, ranks, line)?;
                let start = parse_tok(f.next(), line, "domain")?;
                domains[r] = Some(KeyRange::new(start, parse_tok(f.next(), line, "domain")?));
            }
            Some("weight") => {
                let r = in_range(parse_tok(f.next(), line, "weight rank")?, ranks, line)?;
                weights[r] = Some(parse_tok::<f64>(f.next(), line, "weight value")?);
            }
            Some("forces") => {
                let r = in_range(parse_tok(f.next(), line, "forces rank")?, ranks, line)?;
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
                forces[r] = Some(forces_from_bytes(&bytes, shards[r].len())?);
            }
            _ => {} // Unknown trailing lines: future extensions.
        }
    }
    // A checkpoint taken before the first force evaluation has no forces
    // lines at all; one that has some must have them for every rank.
    let forces = if forces.iter().all(Option::is_none) {
        None
    } else {
        Some(every_rank(forces, "forces")?)
    };
    let (domains, weights) = (every_rank(domains, "domain")?, every_rank(weights, "weight")?);
    Ok(Checkpoint { particles, time, steps, shards, domains, weights, forces })
}

/// One field per rank, or the error naming the lines missing.
fn every_rank<T>(per_rank: Vec<Option<T>>, what: &str) -> io::Result<Vec<T>> {
    per_rank
        .into_iter()
        .collect::<Option<_>>()
        .ok_or_else(|| bad(format!("checkpoint lacks {what} lines for some ranks")))
}

fn parse_tok<T: std::str::FromStr>(tok: Option<&str>, line: &str, what: &str) -> io::Result<T> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| bad(format!("manifest line '{line}': bad {what}")))
}

fn in_range(r: usize, ranks: usize, line: &str) -> io::Result<usize> {
    if r < ranks {
        Ok(r)
    } else {
        Err(bad(format!("manifest line '{line}': rank {r} out of range")))
    }
}

/// Restore a cluster over `ranks` ranks from a checkpoint, the simulation
/// clock carrying on from the manifest. Over the rank count that wrote it,
/// the checkpoint's particles, domains, load weights and forces are adopted
/// verbatim; over another count the particles are re-split and forces
/// evaluated afresh, so a run checkpointed at R = 4 carries straight on at
/// R = 6.
pub fn restore_cluster(dir: &Path, ranks: usize, cfg: ClusterConfig) -> io::Result<Cluster> {
    Ok(Cluster::from_checkpoint(read_checkpoint_full(dir)?, ranks, cfg))
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

        // Compare by id. Restored at the rank count that wrote it, the
        // checkpoint is adopted verbatim; positions must agree to tight
        // tolerance (exact_resume_trajectory_is_bit_identical pins the bits).
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
        // Positions must agree to far better than any physical scale
        // (softening is 1e-2).
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
        let r = restore_cluster(&dir, 4, cfg).unwrap();
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
    fn restoring_a_pre_force_checkpoint_equals_a_fresh_cluster() {
        // The constructor writes an initial checkpoint before the first
        // force evaluation. Restored at its rank count, its shards, domains
        // and weights are adopted and the one missing force epoch runs: the
        // constructor's own state, bit for bit.
        let ic = plummer_sphere(300, 12);
        let dir = tmp("preforce");
        let c = Cluster::with_faults(
            ic,
            2,
            ClusterConfig::default(),
            bonsai_net::FaultPlan::new(0),
            Some(crate::cluster::RecoveryConfig {
                dir: dir.clone(),
                every: 0,
            }),
        );
        let r = restore_cluster(&dir, 2, ClusterConfig::default()).unwrap();
        assert_eq!((r.step_count(), r.time().to_bits()), (0, c.time().to_bits()));
        assert_eq!(r.domains(), c.domains());
        for rank in 0..2 {
            let (a, b) = (c.rank_particles(rank), r.rank_particles(rank));
            assert_eq!((&a.id, &a.pos, &a.vel), (&b.id, &b.pos, &b.vel), "rank {rank}");
            let (fa, fb) = (c.rank_forces(rank), r.rank_forces(rank));
            let bits = |f: &Forces| -> Vec<u64> {
                let acc = f.acc.iter().flat_map(|a| [a.x, a.y, a.z]);
                acc.chain(f.pot.iter().copied()).map(f64::to_bits).collect()
            };
            assert_eq!(bits(fa), bits(fb), "forces of rank {rank}");
        }
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
        let err = match restore_cluster(&dir, 3, cfg) {
            Ok(_) => panic!("corrupt forces shard must not resume"),
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("forces_2.bin") && err.to_string().contains("checksum"),
            "{err}"
        );
    }

    /// The reader and [`restore_cluster`] at the writing rank count must
    /// refuse `dir` with one message containing `want`.
    fn both_readers_reject(dir: &Path, want: &str) {
        let base = read_checkpoint_full(dir).map(|_| ()).unwrap_err().to_string();
        assert!(base.contains(want), "base reader: {base}");
        let exact = match restore_cluster(dir, 3, ClusterConfig::default()) {
            Ok(_) => panic!("restore accepted a manifest the base reader rejects ({base})"),
            Err(e) => e.to_string(),
        };
        assert_eq!(exact, base, "restore must reject with the base reader's message");
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
    fn a_huge_declared_rank_count_is_an_error() {
        // Three shard lines follow, then the exact-resume extension lines:
        // the reader must run out of shard lines, not size anything from
        // the count first.
        let mut c = Cluster::new(plummer_sphere(400, 14), 3, ClusterConfig::default());
        c.step();
        let dir = tmp("huge_ranks");
        write_checkpoint(&c, &dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        let manifest = manifest.replacen("ranks 3\n", &format!("ranks {}\n", usize::MAX), 1);
        std::fs::write(dir.join("manifest.txt"), manifest).unwrap();
        both_readers_reject(&dir, "manifest shard line 3 malformed");
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
