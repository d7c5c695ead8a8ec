//! Distributed checkpointing (§VI-C).
//!
//! "…there was a few percent I/O-related overhead related to storing
//! intermediate simulation snapshots (for the dual purpose of restarting
//! and detailed analysis)." Each rank writes its own shard (as the real
//! code does: 18600 files, no serial gather), and one small manifest is
//! written after them: R + 1 files. A shard is the rank's particle payload
//! ([`Particles::encode`], the snapshot's and the migrant exchange's codec),
//! followed, once forces have been evaluated, by its force payload
//! ([`Forces::encode`]). The manifest is a fixed-layout little-endian record
//! closed by its own CRC-64: magic, rank count, time, steps, a has-forces
//! flag, then per rank its domain, load weight, particle count, and its
//! shard's length and CRC-64. A restart over the rank count that wrote the
//! checkpoint adopts that state verbatim and continues bit for bit; over
//! another count the particles are re-split along the curve and forces
//! evaluated afresh.
//!
//! One CRC-64 covers each file's bytes once, so a torn, truncated or
//! bit-flipped shard or manifest is detected at read time with an error
//! naming the file. Every file is written to a temp name and atomically
//! renamed, but the shards land under fixed names over the previous
//! checkpoint's before the new manifest does, and nothing is `fsync`ed: a
//! writer interrupted between files leaves no readable checkpoint. ROADMAP
//! item 6 (checkpoint generations) is the mend.

use crate::cluster::{Cluster, ClusterConfig};
use bonsai_core::snapshot::write_atomic;
use bonsai_sfc::{KeyRange, KEY_END};
use bonsai_tree::particles::RECORD_LEN;
use bonsai_tree::{Forces, Particles};
use bonsai_util::crc64;
use std::io;
use std::path::Path;

const MANIFEST: &str = "manifest.bin";
const MANIFEST_MAGIC: &[u8; 8] = b"BONSAIC3";
/// Magic, rank count, time, steps, has-forces flag: five 8-byte words.
const MANIFEST_HEAD: usize = 40;
/// Words per rank: domain start and end, weight, particle count, shard
/// length, shard CRC-64.
const ENTRY_WORDS: usize = 6;

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

/// Write a per-rank sharded checkpoint under `dir`: `shard_<rank>.bin` for
/// every rank, then `manifest.bin`. Force payloads are written only when
/// the cluster holds accelerations for every rank: a pre-force initial
/// checkpoint has none, and a restore from it evaluates forces once before
/// it returns.
pub fn write_checkpoint(cluster: &Cluster, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let p = cluster.rank_count();
    let forces = (0..p).all(|r| cluster.rank_forces(r).len() == cluster.rank_particles(r).len());
    let head = [p as u64, cluster.time().to_bits(), cluster.step_count(), u64::from(forces)];
    let mut words = head.to_vec();
    for (r, (d, w)) in cluster.domains().iter().zip(cluster.weights()).enumerate() {
        let particles = cluster.rank_particles(r);
        let mut shard = particles.encode(Vec::new());
        if forces {
            shard = cluster.rank_forces(r).encode(shard);
        }
        write_atomic(&dir.join(shard_name(r)), &shard)?;
        let len = particles.len() as u64;
        words.extend([d.start, d.end, w.to_bits(), len, shard.len() as u64, crc64(&shard)]);
    }
    let mut manifest = MANIFEST_MAGIC.to_vec();
    manifest.extend(words.iter().flat_map(|w| w.to_le_bytes()));
    let crc = crc64(&manifest);
    manifest.extend_from_slice(&crc.to_le_bytes());
    write_atomic(&dir.join(MANIFEST), &manifest)
}

/// Read and validate a sharded checkpoint: the one reader of a checkpoint,
/// for every restore. The manifest's length and CRC-64 are checked before
/// any field is trusted, each shard's length and CRC-64 against the
/// manifest before it is decoded, and its particle and force counts after,
/// so torn or corrupted files surface as descriptive errors rather than bad
/// particle data.
pub fn read_checkpoint_full(dir: &Path) -> io::Result<Checkpoint> {
    let m = std::fs::read(dir.join(MANIFEST))?;
    let Some((body, crc)) = m.split_last_chunk().filter(|(b, _)| b.len() >= MANIFEST_HEAD) else {
        return Err(bad(format!("manifest truncated: {} bytes", m.len())));
    };
    if &body[..8] != MANIFEST_MAGIC {
        return Err(bad("bad manifest header (expected BONSAIC3)".to_string()));
    }
    if crc64(body) != u64::from_le_bytes(*crc) {
        return Err(bad("manifest checksum mismatch — torn or corrupted write".to_string()));
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
    let w: Vec<u64> = body[8..].chunks_exact(8).map(word).collect();
    let ranks = w[0] as usize;
    let need = ranks.checked_mul(8 * ENTRY_WORDS).and_then(|k| k.checked_add(MANIFEST_HEAD));
    if need != Some(body.len()) {
        return Err(bad(format!("manifest of {} bytes cannot hold {ranks} ranks", m.len())));
    }
    let mut ck = Checkpoint {
        particles: Particles::new(),
        time: f64::from_bits(w[1]),
        steps: w[2],
        shards: Vec::with_capacity(ranks),
        domains: Vec::with_capacity(ranks),
        weights: Vec::with_capacity(ranks),
        forces: (w[3] != 0).then(|| Vec::with_capacity(ranks)),
    };
    for (r, entry) in w[4..].chunks_exact(ENTRY_WORDS).enumerate() {
        let [start, end, weight, count, len, crc]: [u64; ENTRY_WORDS] = entry.try_into().unwrap();
        let name = shard_name(r);
        if start > end || end > KEY_END {
            return Err(bad(format!("manifest: shard {name} has domain {start}..{end}")));
        }
        let bytes = std::fs::read(dir.join(&name))?;
        let actual = crc64(&bytes);
        if (bytes.len() as u64, actual) != (len, crc) {
            return Err(bad(format!(
                "shard {name}: checksum mismatch (manifest {len} B {crc:016x}, file {} B \
                 {actual:016x}) — torn or corrupted write",
                bytes.len()
            )));
        }
        let invalid = |e: String| bad(format!("shard {name}: {e}"));
        let (shard, rest) = Particles::decode_prefix(&bytes).map_err(invalid)?;
        if shard.len() as u64 != count {
            return Err(invalid(format!("{} particles, manifest declares {count}", shard.len())));
        }
        match &mut ck.forces {
            Some(forces) => {
                let f = Forces::decode(rest).map_err(invalid)?;
                if f.len() != shard.len() {
                    return Err(invalid(format!("{} forces for {count} particles", f.len())));
                }
                forces.push(f);
            }
            None if !rest.is_empty() => {
                return Err(invalid(format!("{} bytes past its particles", rest.len())))
            }
            None => {}
        }
        ck.particles.extend_from(&shard);
        ck.shards.push(shard);
        ck.domains.push(KeyRange::new(start, end));
        ck.weights.push(f64::from_bits(weight));
    }
    Ok(ck)
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
    use std::path::PathBuf;

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
        // One byte inside the first force record, past the particle payload.
        let path = dir.join("shard_2.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        let n = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        bytes[8 + n * RECORD_LEN + 8 + 7] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        let err = match restore_cluster(&dir, 3, cfg) {
            Ok(_) => panic!("corrupt forces shard must not resume"),
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("shard_2.bin") && err.to_string().contains("checksum"),
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

    /// A one-step checkpoint of 3 ranks in `tmp(name)`.
    fn one_step_checkpoint(name: &str) -> PathBuf {
        let mut c = Cluster::new(plummer_sphere(400, 14), 3, ClusterConfig::default());
        c.step();
        let dir = tmp(name);
        write_checkpoint(&c, &dir).unwrap();
        dir
    }

    /// [`one_step_checkpoint`], its manifest's words (after the magic)
    /// rewritten by `edit` and closed by a fresh CRC-64, so only the
    /// reader's checks past the checksum can refuse it.
    fn checkpoint_with_manifest_words(name: &str, edit: impl Fn(&mut Vec<u64>)) -> PathBuf {
        let dir = one_step_checkpoint(name);
        let m = std::fs::read(dir.join(MANIFEST)).unwrap();
        let body = &m[8..m.len() - 8];
        let mut words: Vec<u64> =
            body.chunks_exact(8).map(|b| u64::from_le_bytes(b.try_into().unwrap())).collect();
        edit(&mut words);
        let mut m = MANIFEST_MAGIC.to_vec();
        m.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        let crc = crc64(&m);
        m.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(dir.join(MANIFEST), m).unwrap();
        dir
    }

    /// Index of word `field` of rank `r`'s manifest entry.
    fn entry(r: usize, field: usize) -> usize {
        4 + r * ENTRY_WORDS + field
    }

    #[test]
    fn exact_resume_rejects_a_wrong_declared_particle_count() {
        let dir = checkpoint_with_manifest_words("exact_count", |w| w[entry(0, 3)] += 1);
        both_readers_reject(&dir, "manifest declares");
    }

    #[test]
    fn exact_resume_rejects_a_manifest_entry_describing_another_shard() {
        // Rank 0's entry carries shard 1's length and checksum.
        let dir = checkpoint_with_manifest_words("exact_other", |w| {
            (w[entry(0, 4)], w[entry(0, 5)]) = (w[entry(1, 4)], w[entry(1, 5)]);
        });
        both_readers_reject(&dir, "shard shard_0.bin: checksum mismatch");
    }

    #[test]
    fn exact_resume_rejects_a_manifest_with_trailing_bytes() {
        let dir = checkpoint_with_manifest_words("exact_trailing", |w| w.push(0));
        both_readers_reject(&dir, "cannot hold 3 ranks");
    }

    #[test]
    fn a_huge_declared_rank_count_is_an_error() {
        // The reader must refuse the count on the manifest's length, not
        // size anything from it first.
        let dir = checkpoint_with_manifest_words("huge_ranks", |w| w[0] = usize::MAX as u64);
        both_readers_reject(&dir, &format!("cannot hold {} ranks", usize::MAX));
    }

    #[test]
    fn corrupted_manifest_rejected() {
        let dir = tmp("bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST), "not a checkpoint".repeat(4)).unwrap();
        let err = read_checkpoint_full(&dir).unwrap_err();
        assert!(err.to_string().contains("manifest header"), "{err}");
    }

    #[test]
    fn every_manifest_cut_and_bit_flip_is_rejected() {
        // A changed bit in any value past the magic (a weight, a domain
        // bound, a count) is refused by the manifest's own checksum.
        let dir = one_step_checkpoint("manifest_cuts");
        let path = dir.join(MANIFEST);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(read_checkpoint_full(&dir).is_err(), "cut at {cut} accepted");
        }
        for byte in 0..full.len() {
            let mut m = full.clone();
            m[byte] ^= 1 << (byte % 8);
            std::fs::write(&path, m).unwrap();
            let want = if byte < 8 { "manifest header" } else { "manifest checksum mismatch" };
            both_readers_reject(&dir, want);
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
