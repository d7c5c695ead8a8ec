//! Binary snapshot I/O.
//!
//! The production runs write intermediate snapshots "for the dual purpose of
//! restarting and detailed analysis" (§VI-C). The format here is a minimal
//! little-endian binary layout: magic, time, count, per-particle
//! `pos(3×f64) vel(3×f64) mass(f64) id(u64)` records, and a trailing
//! CRC-64 over everything before it. Readers validate the length against
//! the declared count and the checksum against the content, so truncated or
//! bit-flipped files are rejected with a descriptive [`io::Error`] instead
//! of silently yielding garbage particles. Writes go through a temp file +
//! atomic rename, so a torn write never leaves a half-written snapshot
//! under the final name.

use bonsai_tree::Particles;
use bonsai_util::{crc64, Vec3};
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"BONSAI02";
/// magic(8) + time(8) + count(8).
const HEADER_LEN: usize = 24;
/// Bytes of one particle record: pos + vel + mass + id.
pub const RECORD_LEN: usize = 64;
/// Trailing CRC-64.
const TRAILER_LEN: usize = 8;

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Serialize `particles` at simulation `time` into the snapshot format.
pub fn snapshot_to_bytes(particles: &Particles, time: f64) -> Vec<u8> {
    let mut v = Vec::with_capacity(HEADER_LEN + particles.len() * RECORD_LEN + TRAILER_LEN);
    v.extend_from_slice(MAGIC);
    v.extend_from_slice(&time.to_le_bytes());
    v.extend_from_slice(&(particles.len() as u64).to_le_bytes());
    for i in 0..particles.len() {
        for q in [particles.pos[i], particles.vel[i]] {
            v.extend_from_slice(&q.x.to_le_bytes());
            v.extend_from_slice(&q.y.to_le_bytes());
            v.extend_from_slice(&q.z.to_le_bytes());
        }
        v.extend_from_slice(&particles.mass[i].to_le_bytes());
        v.extend_from_slice(&particles.id[i].to_le_bytes());
    }
    let crc = crc64(&v);
    v.extend_from_slice(&crc.to_le_bytes());
    v
}

/// Parse and strictly validate a snapshot; returns `(particles, time)`.
///
/// Rejects wrong magic, lengths inconsistent with the declared particle
/// count (truncation or trailing junk), and checksum mismatches, each with
/// an error message naming the problem.
pub fn snapshot_from_bytes(data: &[u8]) -> io::Result<(Particles, f64)> {
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(bad(format!(
            "snapshot truncated: {} bytes, need at least {}",
            data.len(),
            HEADER_LEN + TRAILER_LEN
        )));
    }
    if &data[..8] != MAGIC {
        return Err(bad("bad snapshot magic (expected BONSAI02)".to_string()));
    }
    let time = f64::from_le_bytes(data[8..16].try_into().unwrap());
    let n = u64::from_le_bytes(data[16..24].try_into().unwrap()) as usize;
    let need = n
        .checked_mul(RECORD_LEN)
        .and_then(|x| x.checked_add(HEADER_LEN + TRAILER_LEN))
        .ok_or_else(|| bad(format!("snapshot particle count {n} overflows")))?;
    if data.len() != need {
        return Err(bad(format!(
            "snapshot truncated or oversized: {} bytes, expected {need} for {n} particles",
            data.len()
        )));
    }
    let body = &data[..data.len() - TRAILER_LEN];
    let stored = u64::from_le_bytes(data[data.len() - TRAILER_LEN..].try_into().unwrap());
    let computed = crc64(body);
    if stored != computed {
        return Err(bad(format!(
            "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x} — \
             the file is corrupted"
        )));
    }
    let mut p = Particles::with_capacity(n);
    let mut off = HEADER_LEN;
    let f64_at = |off: &mut usize| {
        let v = f64::from_le_bytes(data[*off..*off + 8].try_into().unwrap());
        *off += 8;
        v
    };
    for _ in 0..n {
        let pos = Vec3::new(f64_at(&mut off), f64_at(&mut off), f64_at(&mut off));
        let vel = Vec3::new(f64_at(&mut off), f64_at(&mut off), f64_at(&mut off));
        let mass = f64_at(&mut off);
        let id = u64::from_le_bytes(data[off..off + 8].try_into().unwrap());
        off += 8;
        p.push(pos, vel, mass, id);
    }
    Ok((p, time))
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
}
