//! In-process message fabric for logical ranks.
//!
//! Ranks exchange real serialized bytes over crossbeam channels: tagged
//! point-to-point sends, received in arrival order. Channels are FIFO per
//! (sender, receiver) pair. Everything above that — which frames a phase
//! expects, retransmission, stale and duplicate frames, the boundary
//! allgather of §III-B2 — is [`collective::exchange`](crate::collective::exchange)'s
//! business, driven in lock step by the cluster.
//!
//! A [`Message`] carries [`Bytes`], a shared immutable buffer, so a send
//! moves a handle, not the bytes. A frame the [`Wire`](crate::fault::Wire)
//! sends is a header sealed for its receiver and attempt beside the
//! sender's payload buffer, which every receiver of a broadcast and every
//! retransmission shares ([`Message::parts`]). A frame is one whole buffer
//! only where a fault mangled a private copy of it, or where a program
//! sends on an [`Endpoint`] directly ([`Endpoint::send`]). No one writes a
//! buffer once it is sent.

use crate::envelope::{Header, ENVELOPE_HEADER_LEN};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};

/// What a message carries (drives receive-side dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Serialized boundary tree (allgather phase).
    Boundary,
    /// Migrating particles (exchange phase).
    Particles,
    /// A dedicated Local Essential Tree.
    Let,
    /// Small control/reduction payloads (bounding boxes, samples, cuts).
    Control,
    /// Membership view proposals (join/leave/death gossip rounds).
    View,
}

impl MsgKind {
    /// Every kind, in wire-code order.
    pub const ALL: [MsgKind; 5] = [
        MsgKind::Boundary,
        MsgKind::Particles,
        MsgKind::Let,
        MsgKind::Control,
        MsgKind::View,
    ];

    /// Stable name, spelled as `Debug` spells it (`"Let"`, …): the `kind`
    /// label of the flow metrics.
    pub fn name(self) -> &'static str {
        match self {
            MsgKind::Boundary => "Boundary",
            MsgKind::Particles => "Particles",
            MsgKind::Let => "Let",
            MsgKind::Control => "Control",
            MsgKind::View => "View",
        }
    }

    /// Trace name of a flow of this kind (`"flow:Let"`, …): the name of
    /// every flow-arrow point the cluster draws for it.
    pub fn flow_name(self) -> &'static str {
        match self {
            MsgKind::Boundary => "flow:Boundary",
            MsgKind::Particles => "flow:Particles",
            MsgKind::Let => "flow:Let",
            MsgKind::Control => "flow:Control",
            MsgKind::View => "flow:View",
        }
    }
}

/// A tagged message between ranks.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sending rank.
    pub from: usize,
    /// Payload semantics.
    pub kind: MsgKind,
    /// The envelope header, when it was sealed apart from `payload`: each
    /// receiver, and each attempt, gets its own header beside the one
    /// payload buffer. `None` when `payload` is the whole frame, header
    /// included (module docs).
    pub header: Option<Header>,
    /// Serialized payload.
    pub payload: Bytes,
}

impl Message {
    /// The frame as `(header, payload)`: the header sent apart, or the
    /// first [`ENVELOPE_HEADER_LEN`] bytes of a whole frame (all of it, if
    /// shorter) — what [`envelope::open_parts`](crate::envelope::open_parts)
    /// reads.
    pub fn parts(&self) -> (&[u8], &[u8]) {
        match &self.header {
            Some(header) => (header, &self.payload),
            None => self.payload.split_at(self.payload.len().min(ENVELOPE_HEADER_LEN)),
        }
    }
}

/// One rank's handle into the fabric.
pub struct Endpoint {
    /// This rank's id.
    pub rank: usize,
    /// Number of ranks.
    pub world: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
}

/// Construct the fully connected fabric.
pub struct Fabric;

impl Fabric {
    /// Create `p` endpoints, one per logical rank.
    // The fabric is its endpoints; the benchmark's replay calls this name.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(p: usize) -> Vec<Endpoint> {
        assert!(p > 0);
        let mut txs = Vec::with_capacity(p);
        let mut rxs = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .enumerate()
            .map(|(rank, receiver)| Endpoint {
                rank,
                world: p,
                senders: txs.clone(),
                receiver,
            })
            .collect()
    }
}

impl Endpoint {
    /// Send `payload` to rank `to`.
    pub fn send(&self, to: usize, kind: MsgKind, payload: Bytes) {
        self.send_frame(to, kind, None, payload);
    }

    /// Send a frame to rank `to`: `payload` alone when it is the whole
    /// frame, or after `header` sealed apart from it.
    pub fn send_frame(&self, to: usize, kind: MsgKind, header: Option<Header>, payload: Bytes) {
        let msg = Message {
            from: self.rank,
            kind,
            header,
            payload,
        };
        self.senders[to].send(msg).expect("receiver dropped");
    }

    /// Blocking receive of the next message.
    pub fn recv(&self) -> Message {
        self.receiver.recv().expect("fabric disconnected")
    }

    /// Non-blocking receive: the next message if one is queued.
    pub fn try_recv(&self) -> Option<Message> {
        self.receiver.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn kind_names_are_the_debug_spelling() {
        for kind in MsgKind::ALL {
            assert_eq!(kind.name(), format!("{kind:?}"));
            assert_eq!(kind.flow_name(), format!("flow:{kind:?}"));
        }
    }

    #[test]
    fn ring_pass() {
        let eps = Fabric::new(4);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                thread::spawn(move || {
                    let next = (ep.rank + 1) % ep.world;
                    ep.send(next, MsgKind::Control, Bytes::from(vec![ep.rank as u8]));
                    let m = ep.recv();
                    assert_eq!(m.kind, MsgKind::Control);
                    assert_eq!(m.from, (ep.rank + ep.world - 1) % ep.world);
                    assert_eq!(m.payload[0] as usize, m.from);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
