//! Binary snapshot I/O.
//!
//! The production runs write intermediate snapshots "for the dual purpose of
//! restarting and detailed analysis" (§VI-C). A snapshot is little endian:
//! magic, time, the particle payload of [`Particles::encode`] (the codec the
//! migrant exchange and the checkpoint shards use), and a trailing CRC-64
//! over everything before it. The reader rejects wrong magic, a payload
//! whose length disagrees with its declared count (truncation or trailing
//! junk), non-finite or negative-mass records and checksum mismatches, each
//! with a descriptive [`io::Error`], instead of silently yielding garbage
//! particles. Writes go through a temp file + atomic rename, so a torn write
//! never leaves a half-written snapshot under the final name.

use bonsai_tree::particles::RECORD_LEN;
use bonsai_tree::Particles;
use bonsai_util::crc64;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"BONSAI02";
/// magic(8) + time(8).
const HEADER_LEN: usize = 16;

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Serialize `particles` at simulation `time` into the snapshot format.
fn snapshot_to_bytes(particles: &Particles, time: f64) -> Vec<u8> {
    let mut v = Vec::with_capacity(HEADER_LEN + 8 + particles.len() * RECORD_LEN + 8);
    v.extend_from_slice(MAGIC);
    v.extend_from_slice(&time.to_le_bytes());
    let mut v = particles.encode(v);
    let crc = crc64(&v);
    v.extend_from_slice(&crc.to_le_bytes());
    v
}

/// Parse and strictly validate a snapshot; returns `(particles, time)`.
fn snapshot_from_bytes(data: &[u8]) -> io::Result<(Particles, f64)> {
    let Some((body, stored)) = data.split_last_chunk().filter(|(b, _)| b.len() >= HEADER_LEN)
    else {
        return Err(bad(format!("snapshot truncated: {} bytes", data.len())));
    };
    if &body[..8] != MAGIC {
        return Err(bad("bad snapshot magic (expected BONSAI02)".to_string()));
    }
    let particles =
        Particles::decode(&body[HEADER_LEN..]).map_err(|e| bad(format!("snapshot {e}")))?;
    let (stored, computed) = (u64::from_le_bytes(*stored), crc64(body));
    if stored != computed {
        return Err(bad(format!(
            "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x} — \
             the file is corrupted"
        )));
    }
    Ok((particles, f64::from_le_bytes(body[8..16].try_into().unwrap())))
}

/// Write a snapshot of `particles` at simulation `time`, atomically (see
/// [`write_atomic`]).
pub fn write_snapshot<P: AsRef<Path>>(path: P, particles: &Particles, time: f64) -> io::Result<()> {
    write_atomic(path.as_ref(), &snapshot_to_bytes(particles, time))
}

/// Write `bytes` to `path` atomically: they land in a sibling temp file
/// (`<name>.tmp`) which is then renamed over `path`, so a torn write never
/// leaves a half-written file under the final name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Read a snapshot; returns `(particles, time)`.
pub fn read_snapshot<P: AsRef<Path>>(path: P) -> io::Result<(Particles, f64)> {
    snapshot_from_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_ic::plummer_sphere;

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join("bonsai_snap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let p = plummer_sphere(321, 7);
        write_snapshot(&path, &p, 1.25).unwrap();
        let (q, t) = read_snapshot(&path).unwrap();
        assert_eq!(t, 1.25);
        assert_eq!(q.len(), 321);
        assert_eq!(q.pos, p.pos);
        assert_eq!(q.vel, p.vel);
        assert_eq!(q.mass, p.mass);
        assert_eq!(q.id, p.id);
        // No temp file left behind.
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = std::env::temp_dir().join("bonsai_snap_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.bin");
        std::fs::write(&path, b"NOTASNAPxxxxxxxxxxxxxxxxyyyyyyyy").unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn truncated_snapshot_rejected_with_length_error() {
        let p = plummer_sphere(50, 1);
        let full = snapshot_to_bytes(&p, 0.5);
        for cut in [0, 10, HEADER_LEN, full.len() / 2, full.len() - 1] {
            let err = snapshot_from_bytes(&full[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("truncated"), "cut {cut}: {err}");
        }
    }

    #[test]
    fn every_bit_flip_in_body_detected() {
        let p = plummer_sphere(8, 2);
        let full = snapshot_to_bytes(&p, 0.25);
        // Flip one bit in a spread of positions across the payload; the
        // checksum (or magic/length check) must catch each one.
        for byte in (8..full.len()).step_by(37) {
            let mut bad = full.clone();
            bad[byte] ^= 1 << (byte % 8);
            assert!(
                snapshot_from_bytes(&bad).is_err(),
                "flip at byte {byte} not detected"
            );
        }
    }

    #[test]
    fn checksum_error_is_descriptive() {
        let p = plummer_sphere(8, 3);
        let mut full = snapshot_to_bytes(&p, 0.25);
        let mid = full.len() / 2;
        full[mid] ^= 0x40;
        let err = snapshot_from_bytes(&full).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn restart_continues_identically() {
        // Write mid-run, reload, and verify the continued trajectory matches.
        use crate::{Simulation, SimulationConfig};
        let cfg = SimulationConfig::nbody_units(0.4, 0.02, 0.01);
        let ic = plummer_sphere(200, 11);
        let mut a = Simulation::new(ic, cfg);
        a.run(5);
        let dir = std::env::temp_dir().join("bonsai_snap_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("restart.bin");
        write_snapshot(&path, a.particles(), a.time()).unwrap();
        a.run(5);

        let (p, _t) = read_snapshot(&path).unwrap();
        let mut b = Simulation::new(p, cfg);
        b.run(5);

        // Same ids, same positions (deterministic rebuild from identical state).
        let pa = a.particles();
        let pb = b.particles();
        assert_eq!(pa.id, pb.id);
        for i in 0..pa.len() {
            assert!((pa.pos[i] - pb.pos[i]).norm() < 1e-12);
        }
    }

    /// A fixed set of three particles whose encodings are pinned.
    fn three() -> Particles {
        use bonsai_util::Vec3;
        let mut p = Particles::new();
        p.push(Vec3::new(1.5, -2.25, 3.0e-3), Vec3::new(-0.5, 0.125, 7.0), 2.5, 7);
        p.push(Vec3::new(-1.0e5, 0.0, -0.0), Vec3::new(1.0e-9, -3.5, 2.0), 0.0, 1 << 40);
        p.push(Vec3::new(8.0, 8.5, -8.25), Vec3::zero(), 1.0e10, u64::MAX);
        p
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        let bytes = snapshot_to_bytes(&three(), 0.75);
        assert_eq!(bytes.len(), 16 + 8 + 3 * 64 + 8);
        assert_eq!(crc64(&bytes), 0xb66a_7365_4282_cac0, "snapshot layout moved");
    }

    #[test]
    fn a_non_finite_or_negative_mass_record_is_rejected() {
        // Valid checksums over bad particle data: position x of particle 1
        // set to NaN, then particle 2's mass to -1; each CRC recomputed.
        let good = snapshot_to_bytes(&three(), 0.75);
        for (at, value) in [(24 + 64, f64::NAN), (24 + 2 * 64 + 48, -1.0)] {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let n = bad.len() - 8;
            let crc = crc64(&bad[..n]);
            bad[n..].copy_from_slice(&crc.to_le_bytes());
            let err = snapshot_from_bytes(&bad).map(|_| ()).unwrap_err();
            assert!(err.to_string().contains("non-finite or negative"), "{err}");
        }
    }
}
