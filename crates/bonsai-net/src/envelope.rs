//! Versioned, checksummed message framing.
//!
//! Every payload that crosses the fabric is sealed in a fixed-size envelope
//! carrying the message kind, sending rank, step epoch, a unique **flow id**
//! with its attempt sequence number, the payload length and a CRC-64 over
//! header and payload. The receive side validates strictly: truncated
//! frames, bad magic/version, length mismatches and checksum failures are
//! *detected* and reported as [`EnvelopeError`]s instead of being
//! deserialized into garbage, and stale-epoch duplicates can be discarded by
//! comparing [`Envelope::epoch`] against the current step. This is the
//! detection half of the fault-tolerance story; recovery (retransmission,
//! and a checkpoint rollback once a peer stays silent through the retry
//! budget) is driven by the cluster on top of these errors. The flow id ties every frame — original or
//! retransmission — back to one logical message in the
//! [`FlowLedger`](crate::flow::FlowLedger), which is what makes per-message
//! causal tracing possible.
//!
//! Wire layout (little-endian), version 2 — the only one:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "BNET"
//!      4     2  version (currently 2)
//!      6     1  kind    (MsgKind code)
//!      7     1  reserved (0)
//!      8     4  from    (sending rank)
//!     12     8  epoch   (step epoch of the sender)
//!     20     8  flow    (ledger-assigned flow id)
//!     28     4  seq     (attempt number: 0 original, 1.. retransmits)
//!     32     4  payload length
//!     36     8  CRC-64/XZ over bytes [0, 36) ++ payload
//!     44     …  payload
//! ```

use crate::fabric::MsgKind;
use bonsai_util::hash::Crc64;
use bytes::Bytes;

/// Frame magic: `b"BNET"` little-endian.
pub const ENVELOPE_MAGIC: u32 = u32::from_le_bytes(*b"BNET");
/// Current envelope wire version.
pub const ENVELOPE_VERSION: u16 = 2;
/// Fixed header size in bytes.
pub const ENVELOPE_HEADER_LEN: usize = 44;
/// Offset of the stored CRC-64: it covers the header bytes before it.
const CRC_AT: usize = 36;
/// Flow id carried by frames sealed without a ledger: "no recorded flow".
pub const NO_FLOW: u64 = 0;

/// Why a received frame was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Frame shorter than the declared layout.
    Truncated {
        /// Bytes required (header, or header + declared payload).
        need: usize,
        /// Bytes actually received.
        have: usize,
    },
    /// First four bytes are not `b"BNET"`.
    BadMagic(u32),
    /// Unknown wire version.
    BadVersion(u16),
    /// Kind byte does not name a [`MsgKind`].
    BadKind(u8),
    /// Declared payload length disagrees with the frame size.
    LengthMismatch {
        /// Payload length declared in the header.
        declared: usize,
        /// Payload bytes actually present.
        available: usize,
    },
    /// CRC-64 over header + payload does not match the stored checksum.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed from the received bytes.
        computed: u64,
    },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            Self::BadMagic(m) => write!(f, "bad magic {m:#010x} (expected \"BNET\")"),
            Self::BadVersion(v) => {
                write!(f, "unsupported envelope version {v} (expected {ENVELOPE_VERSION})")
            }
            Self::BadKind(k) => write!(f, "unknown message kind code {k}"),
            Self::LengthMismatch {
                declared,
                available,
            } => write!(
                f,
                "payload length mismatch: header declares {declared} bytes, frame carries {available}"
            ),
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Wire code for a [`MsgKind`].
pub fn kind_code(kind: MsgKind) -> u8 {
    match kind {
        MsgKind::Boundary => 0,
        MsgKind::Particles => 1,
        MsgKind::Let => 2,
        MsgKind::Control => 3,
        MsgKind::View => 4,
    }
}

/// Decode a [`MsgKind`] wire code.
pub fn kind_from_code(code: u8) -> Option<MsgKind> {
    match code {
        0 => Some(MsgKind::Boundary),
        1 => Some(MsgKind::Particles),
        2 => Some(MsgKind::Let),
        3 => Some(MsgKind::Control),
        4 => Some(MsgKind::View),
        _ => None,
    }
}

/// A validated, opened envelope borrowing its payload from the frame.
#[derive(Debug, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// Message kind from the header.
    pub kind: MsgKind,
    /// Sending rank from the header.
    pub from: usize,
    /// Sender's step epoch when the frame was sealed.
    pub epoch: u64,
    /// Ledger flow id ([`NO_FLOW`] for untracked sends).
    pub flow: u64,
    /// Attempt number of this frame within its flow (0 = original send).
    pub seq: u32,
    /// The validated payload bytes.
    pub payload: &'a [u8],
}

/// Seal `payload` into a checksummed frame carrying a flow id and an
/// attempt sequence number.
///
/// # Panics
/// If `from` or the payload length does not fit the header's 32-bit field:
/// a truncated value would seal a frame whose CRC still verifies.
pub fn seal_flow(
    kind: MsgKind,
    from: usize,
    epoch: u64,
    flow: u64,
    seq: u32,
    payload: &[u8],
) -> Bytes {
    let mut frame = Vec::with_capacity(ENVELOPE_HEADER_LEN + payload.len());
    frame.extend_from_slice(&ENVELOPE_MAGIC.to_le_bytes());
    frame.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
    frame.push(kind_code(kind));
    frame.push(0); // reserved
    let from = u32::try_from(from).expect("envelope `from` rank exceeds its u32 header field");
    let len = u32::try_from(payload.len())
        .expect("envelope payload length exceeds its u32 header field (4 GiB)");
    frame.extend_from_slice(&from.to_le_bytes());
    frame.extend_from_slice(&epoch.to_le_bytes());
    frame.extend_from_slice(&flow.to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&len.to_le_bytes());
    let mut crc = Crc64::new();
    crc.update(&frame[..CRC_AT]);
    crc.update(payload);
    frame.extend_from_slice(&crc.finish().to_le_bytes());
    frame.extend_from_slice(payload);
    Bytes::from(frame)
}

/// Seal `payload` into a checksummed frame with no recorded flow
/// ([`NO_FLOW`], attempt 0).
pub fn seal(kind: MsgKind, from: usize, epoch: u64, payload: &[u8]) -> Bytes {
    seal_flow(kind, from, epoch, NO_FLOW, 0, payload)
}

/// Open and strictly validate a frame.
pub fn open(frame: &[u8]) -> Result<Envelope<'_>, EnvelopeError> {
    if frame.len() < ENVELOPE_HEADER_LEN {
        return Err(EnvelopeError::Truncated {
            need: ENVELOPE_HEADER_LEN,
            have: frame.len(),
        });
    }
    let magic = u32::from_le_bytes(frame[0..4].try_into().unwrap());
    if magic != ENVELOPE_MAGIC {
        return Err(EnvelopeError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(frame[4..6].try_into().unwrap());
    if version != ENVELOPE_VERSION {
        return Err(EnvelopeError::BadVersion(version));
    }
    let kind = kind_from_code(frame[6]).ok_or(EnvelopeError::BadKind(frame[6]))?;
    let from = u32::from_le_bytes(frame[8..12].try_into().unwrap()) as usize;
    let epoch = u64::from_le_bytes(frame[12..20].try_into().unwrap());
    let flow = u64::from_le_bytes(frame[20..28].try_into().unwrap());
    let seq = u32::from_le_bytes(frame[28..32].try_into().unwrap());
    let declared = u32::from_le_bytes(frame[32..36].try_into().unwrap()) as usize;
    let available = frame.len() - ENVELOPE_HEADER_LEN;
    if declared != available {
        // Distinguish a short (torn) frame from a trailing-garbage frame.
        if declared > available {
            return Err(EnvelopeError::Truncated {
                need: ENVELOPE_HEADER_LEN + declared,
                have: frame.len(),
            });
        }
        return Err(EnvelopeError::LengthMismatch {
            declared,
            available,
        });
    }
    let payload = &frame[ENVELOPE_HEADER_LEN..];
    let stored = u64::from_le_bytes(frame[CRC_AT..ENVELOPE_HEADER_LEN].try_into().unwrap());
    let mut crc = Crc64::new();
    crc.update(&frame[..CRC_AT]);
    crc.update(payload);
    let computed = crc.finish();
    if stored != computed {
        return Err(EnvelopeError::ChecksumMismatch { stored, computed });
    }
    Ok(Envelope {
        kind,
        from,
        epoch,
        flow,
        seq,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let frame = seal(MsgKind::Let, 7, 42, b"let tree bytes");
        let env = open(&frame).unwrap();
        assert_eq!(env.kind, MsgKind::Let);
        assert_eq!(env.from, 7);
        assert_eq!(env.epoch, 42);
        assert_eq!(env.flow, NO_FLOW);
        assert_eq!(env.seq, 0);
        assert_eq!(env.payload, b"let tree bytes");
    }

    #[test]
    fn flow_id_round_trips() {
        let frame = seal_flow(MsgKind::Particles, 3, 11, 0xDEAD_BEEF_0042, 5, b"migrants");
        let env = open(&frame).unwrap();
        assert_eq!(env.flow, 0xDEAD_BEEF_0042);
        assert_eq!(env.seq, 5);
        assert_eq!(env.kind, MsgKind::Particles);
        assert_eq!(env.from, 3);
        assert_eq!(env.epoch, 11);
        assert_eq!(env.payload, b"migrants");
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = seal(MsgKind::Control, 0, 1, b"");
        let env = open(&frame).unwrap();
        assert_eq!(env.payload, b"");
    }

    #[test]
    fn kind_codes_round_trip() {
        for (code, kind) in MsgKind::ALL.into_iter().enumerate() {
            assert_eq!(kind_code(kind), code as u8, "ALL is in wire-code order");
            assert_eq!(kind_from_code(kind_code(kind)), Some(kind));
        }
        assert_eq!(kind_from_code(200), None);
    }

    /// A frame whose payload is long enough that `seal_flow` and `open`
    /// checksum it on the carry-less-multiply fold where the CPU has one.
    fn kibibyte_frame() -> Bytes {
        let payload: Vec<u8> = (0..1100u64)
            .map(|i| (bonsai_util::mix64(i) >> 24) as u8)
            .collect();
        let frame = seal_flow(MsgKind::Let, 6, 11, 4242, 2, &payload);
        assert_eq!(open(&frame).unwrap().payload, &payload[..]);
        frame
    }

    #[test]
    fn truncation_detected_at_every_cut() {
        for frame in [
            seal(MsgKind::Boundary, 3, 9, &[0xAA; 100]),
            kibibyte_frame(),
        ] {
            for cut in 0..frame.len() {
                let err = open(&frame[..cut]).unwrap_err();
                assert!(
                    matches!(err, EnvelopeError::Truncated { .. }),
                    "cut {cut} of {}: got {err}",
                    frame.len()
                );
            }
        }
    }

    #[test]
    fn every_bit_flip_detected() {
        let short = seal_flow(MsgKind::Particles, 2, 5, 77, 1, b"sixteen particles");
        for frame in [short, kibibyte_frame()] {
            for i in 0..frame.len() {
                for bit in 0..8 {
                    let mut bad = frame.to_vec();
                    bad[i] ^= 1 << bit;
                    assert!(
                        open(&bad).is_err(),
                        "flip at byte {i} bit {bit} of {} went undetected",
                        frame.len()
                    );
                }
            }
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut frame = seal(MsgKind::Control, 1, 2, b"abc").to_vec();
        frame.extend_from_slice(b"junk");
        let err = open(&frame).unwrap_err();
        assert!(matches!(err, EnvelopeError::LengthMismatch { .. }), "{err}");
    }

    #[test]
    fn errors_are_descriptive() {
        let err = open(&[0u8; 8]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("truncated") && msg.contains('8'), "{msg}");

        let frame = seal(MsgKind::Let, 0, 0, b"x");
        let mut bad = frame.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let msg = open(&bad).unwrap_err().to_string();
        assert!(msg.contains("checksum mismatch"), "{msg}");

        let mut bad = seal(MsgKind::Let, 0, 0, b"x").to_vec();
        bad[4] = 9;
        bad[5] = 0;
        let msg = open(&bad).unwrap_err().to_string();
        assert!(
            msg.contains("version 9") && msg.contains("expected 2"),
            "{msg}"
        );
    }

    #[test]
    fn header_shorter_than_44_bytes_needs_the_full_header() {
        let frame = seal(MsgKind::Control, 0, 1, b"");
        assert_eq!(frame.len(), ENVELOPE_HEADER_LEN);
        for cut in [0, 31, 32, 43] {
            assert_eq!(
                open(&frame[..cut]).unwrap_err(),
                EnvelopeError::Truncated {
                    need: ENVELOPE_HEADER_LEN,
                    have: cut
                }
            );
        }
    }

    #[test]
    fn version_1_is_rejected() {
        let mut frame = seal(MsgKind::Let, 0, 0, b"x").to_vec();
        frame[4] = 1;
        assert_eq!(open(&frame).unwrap_err(), EnvelopeError::BadVersion(1));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "`from` rank exceeds its u32 header field")]
    fn rank_beyond_u32_is_refused_not_truncated() {
        // `as u32` used to seal rank 2^32 + 7 as rank 7 under a valid CRC.
        seal(MsgKind::Control, (1usize << 32) + 7, 1, b"");
    }
}
