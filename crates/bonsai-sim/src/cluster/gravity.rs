//! The gravity epoch: one function per row of the paper's step, in the
//! paper's order, driven by [`Cluster::try_gravity_phase`].
//!
//! | phase | Table II row | paper | what crosses the fabric |
//! |---|---|---|---|
//! | [`bounds`](Cluster::bounds) | Domain update | §III-B1: global bounding box | `Control` allreduce, doubling as the heartbeat: a dead rank's outbox is `Silent`, owed to every peer and never sent |
//! | [`update_domains`](Cluster::update_domains) | Domain update | §III-B1: every particle's PH key, once; two-level sample sort, flop-weighted rates, 30 % cap | — (driver-side) |
//! | [`migrate`](Cluster::migrate) | Domain update | §III-B1: particle exchange; the stayers keep their keys, received migrants are keyed | `Particles`, every pair, possibly empty |
//! | [`build`](Cluster::build) | Sorting, Tree-construction, Tree-properties | §III-A: sorts the carried keys | — |
//! | [`boundaries`](Cluster::boundaries) | Domain update | §III-B2: boundary trees, allgatherv | `Boundary` broadcast, one shared payload with a header per receiver; every receiver validates its frame in place and drops it |
//! | [`lets`](Cluster::lets) | (Non-hidden) LET comm | §III-B2: sufficiency check — a pure function of two boundary trees every rank holds bit-identically, decided once per ordered pair — and dedicated LETs for near neighbours | `Let`, sparse: a receiver waits for exactly the senders whose outbox names it; each LET is encoded once into the buffer its header travels beside, and the receiver validates that buffer in place and keeps it, decoding nothing |
//! | [`walk`](Cluster::walk) | Gravity local, Gravity LETs | §III-A, §III-B2: one walk per rank over the local tree and, per peer, its dedicated LET, read in the frame it arrived in, else (the boundary sufficed) the sender's own boundary tree; then the senders take their frame buffers back | — |
//! | [`store`](Cluster::store) | Unbalance + other | §III-B1: flop weights for the next step's sampling | — |
//!
//! A particle's key is computed once an epoch, where the domains are
//! updated (or where a migrant arrives), and carried to the tree build; at
//! one rank, where nothing is cut or shipped, the build's caller keys the
//! rank.
//!
//! Every exchange is one call of [`bonsai_net::collective::exchange`] through
//! [`Cluster::exchange`], under the one retry budget, and must complete: a
//! phase returns `Err(rank)` for a peer silent through every retry (a
//! missing dedicated LET included), and the driver hands that to recovery
//! in one place. What was sent again is read from the flow ledger once the
//! epoch is done ([`store`](Cluster::store)).

use super::{Cluster, StepMeasurements};
use crate::breakdown::StepBreakdown;
use bonsai_domain::exchange::{particles_from_bytes, particles_to_bytes, ExchangePlan};
use bonsai_domain::letbuild::{boundary_sufficient_within, build_let_into, hull_of};
use bonsai_domain::load::enforce_particle_cap;
use bonsai_domain::sampling::parallel_cuts;
use bonsai_domain::lettree::{self, Invalid};
use bonsai_domain::{boundary_tree, LetFrame, LetTree};
use bonsai_net::collective::{self, received_from, Exchanged, Lanes, Outbox, Reject, Round};
use bonsai_net::MsgKind;
use bonsai_sfc::KeyMap;
use bonsai_tree::build::Tree;
use bonsai_tree::walk::{self, Source, WalkParams};
use bonsai_tree::{Forces, InteractionCounts, Particles};
use bonsai_util::sorted::merge_sorted_runs;
use bonsai_util::{Aabb, Vec3};
use bytes::Bytes;
use rayon::prelude::*;

/// A collective's rank tasks on the current `bonsai-par` pool — the
/// cluster's own inside [`Cluster::step`]. At one lane they run inline.
struct PoolLanes;

impl Lanes for PoolLanes {
    fn map<T: Send, R: Send>(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        items.into_par_iter().map(f).collect()
    }
}

/// The smallest LET frame buffer a sender keeps for its next epoch. A frame
/// buffer of this size or more is one the allocator maps on its own or
/// that sits at the heap top it trims, so freeing it each epoch and writing
/// the next frame into a new one faults its pages in again (`mw_r8`'s
/// frames). Smaller frames come back from the allocator's free lists at no
/// page cost, and keeping them only pins memory between epochs (`mw_r64_thin`'s
/// few-KiB frames: +7 MB of peak resident memory when all were kept).
pub(super) const KEEP_FRAME_BYTES: usize = 64 * 1024;

/// Per sender: the LET frame buffers it kept from the last epoch to encode
/// the next frames to the same receivers into, `(receiver, buffer)`
/// ascending by receiver. A buffer only ever holds one (sender, receiver)
/// pair's frames, so it keeps to that pair's size ([`fit`]).
pub(super) type KeptFrames = Vec<Vec<(usize, Vec<u8>)>>;

/// Size a kept buffer to `len` bytes, its contents left to be overwritten.
/// A buffer too small for the frame, or more than a quarter too large, is
/// replaced by a zeroed one of exactly `len` bytes (what `to_bytes` would
/// allocate), so a kept buffer stays within 1.25× its pair's last frame
/// and its old bytes are never copied.
fn fit(buf: &mut Vec<u8>, len: usize) {
    if buf.capacity() < len || buf.capacity() > len + len / 4 {
        *buf = vec![0; len];
    } else {
        buf.resize(len, 0);
    }
}

/// A sender's dedicated LET for a receiver whose frontier is `geom`, built
/// into `scratch` (the sender's tree for every LET it builds) and encoded
/// straight into `buf` (whatever it held, a frame buffer kept from an
/// earlier epoch), sized to the LET's wire size: the payload the exchange
/// seals a header beside. It equals `build_let(tree, geom, theta).to_bytes()`
/// byte for byte.
pub(super) fn let_frame(tree: &Tree, geom: &[Aabb], theta: f64, scratch: &mut LetTree, mut buf: Vec<u8>) -> Bytes {
    build_let_into(tree, geom, theta, scratch);
    fit(&mut buf, scratch.wire_size());
    scratch.write_to(&mut buf);
    Bytes::from(buf)
}

/// One rank's walk results.
struct RankForces {
    forces: Forces,
    local: InteractionCounts,
    lets: InteractionCounts,
}

impl Cluster {
    /// One gravity epoch: the forces of the current state, with every
    /// inter-rank payload crossing the (possibly faulty) fabric in
    /// validated envelopes. Populates `self.forces` and returns the
    /// breakdown, or `Err(rank)` when a rank stayed silent through every
    /// retry and must be treated as crashed.
    pub(super) fn try_gravity_phase(&mut self) -> Result<StepBreakdown, usize> {
        self.begin_epoch(MsgKind::Control);
        let p = self.ranks.len();
        let mut meas = StepMeasurements {
            let_bytes_sent: vec![0; p],
            let_neighbors: vec![0; p],
            exchange_bytes: vec![0; p],
            counts_local: vec![InteractionCounts::zero(); p],
            counts_lets: vec![InteractionCounts::zero(); p],
            sampled_keys: vec![0; p],
            ..StepMeasurements::default()
        };
        let bounds = self.bounds()?;
        let keymap = KeyMap::new(&bounds, self.cfg.tree.curve);
        // A lone rank owns the whole key space: nothing to cut or ship.
        let keys = if p > 1 {
            let keys = self.update_domains(&keymap, &mut meas);
            self.migrate(&keymap, keys, &mut meas)?
        } else {
            self.rank_keys(&keymap)
        };
        let trees = self.build(&keymap, keys);
        let boundaries = self.boundaries(&trees, &mut meas)?;
        let mut sent = Vec::new();
        // The received frames share the senders' buffers: the walk reads
        // them, and only once it has dropped them are the buffers the
        // senders' alone to keep for the next epoch.
        let forces = (self.lets(&trees, &boundaries, &mut sent, &mut meas))
            .map(|lets| self.walk(&trees, &boundaries, &lets));
        self.kept_frames = keep_frames(sent);
        Ok(self.store(trees, forces?, meas))
    }

    /// One collective among all ranks in the current epoch, logged in the
    /// physics phases' words, its sealing and opening as rank tasks on the
    /// pool. A payload that fails `parse(sender, payload)` is corrupt.
    pub(super) fn exchange<T: Send>(
        &mut self,
        kind: MsgKind,
        outbox: &[Outbox],
        parse: impl Fn(usize, &Bytes) -> Result<T, String> + Sync,
    ) -> Exchanged<T> {
        let everyone: Vec<usize> = (0..self.wire.world()).collect();
        let during = format!("{kind:?} phase");
        let round = Round {
            kind,
            epoch: self.epoch,
            stale_frame: "frame",
            during: &during,
            stranger: "unexpected sender",
            duplicate: "extra copy discarded",
        };
        collective::exchange(&mut self.wire, &PoolLanes, &everyone, &round, outbox, |from, b| {
            parse(from, b).map_err(Reject::Corrupt)
        })
    }

    /// Heartbeat + global bounding box (an allreduce). Every alive rank
    /// broadcasts its local bounds as a Control frame; this doubles as the
    /// liveness probe: a rank missing from every retry round is reported
    /// dead.
    fn bounds(&mut self) -> Result<Aabb, usize> {
        let local = |r: &Particles| if r.is_empty() { Aabb::empty() } else { r.bounds() };
        let outbox: Vec<Outbox> = (self.ranks.iter().zip(&self.dead))
            .map(|(r, &dead)| {
                if dead {
                    Outbox::Silent
                } else {
                    Outbox::Broadcast(Bytes::from(aabb_to_bytes(&local(r))))
                }
            })
            .collect();
        let received = self.exchange(MsgKind::Control, &outbox, |_, b| aabb_from_bytes(b)).complete()?;
        // Every rank derives the same global box; use rank 0's view.
        let mut bounds = local(&self.ranks[0]);
        for (_, b) in &received[0] {
            bounds.merge(b);
        }
        Ok(bounds)
    }

    /// Every rank's keys, parallel to its particles.
    fn rank_keys(&self, keymap: &KeyMap) -> Vec<Vec<u64>> {
        self.ranks.par_iter().map(|r| keymap.keys_of(&r.pos)).collect()
    }

    /// Domain update: two-level sample sort + cap. Returns every rank's
    /// keys, parallel to its particles, for the exchange and the build.
    fn update_domains(&mut self, keymap: &KeyMap, meas: &mut StepMeasurements) -> Vec<Vec<u64>> {
        let p = self.ranks.len();
        let keys = self.rank_keys(keymap);
        let cfg = &self.cfg;
        let per_rank_sorted: Vec<Vec<u64>> = (keys.par_iter())
            .map(|ks| {
                let mut ks = ks.clone();
                ks.sort_unstable();
                ks
            })
            .collect();
        // Sampling-rate correction ∝ previous flop weight (§III-B1).
        let w_mean = self.weights.iter().sum::<f64>() / p as f64;
        let weighted: Vec<Vec<u64>> = per_rank_sorted
            .iter()
            .zip(&self.weights)
            .map(|(ks, &w)| {
                let factor = (w / w_mean.max(1e-30)).clamp(0.25, 4.0);
                let s = ((cfg.sample_s2 as f64 * factor) as usize).max(4);
                bonsai_domain::sampling::systematic_sample(ks, s)
            })
            .collect();
        for (r, ks) in weighted.iter().enumerate() {
            meas.sampled_keys[r] = ks.len();
        }
        let (px, py) = factor_ranks(p);
        let (domains, _stats) = parallel_cuts(&weighted, px, py, cfg.sample_s1, cfg.sample_s2);
        // Enforce the 30% particle cap against the global key multiset:
        // the merge of the ranks' sorted runs.
        let all_keys = merge_sorted_runs(&per_rank_sorted);
        self.domains = enforce_particle_cap(&domains, &all_keys, cfg.cap);
        keys
    }

    /// Particle exchange through the fabric. Every pair exchanges a
    /// (possibly empty) migrant payload, so the receive side knows exactly
    /// what to expect. Takes every rank's keys and returns them for the
    /// ranks' new populations: the stayers' carried, the migrants' computed
    /// as they are absorbed.
    fn migrate(
        &mut self,
        keymap: &KeyMap,
        mut keys: Vec<Vec<u64>>,
        meas: &mut StepMeasurements,
    ) -> Result<Vec<Vec<u64>>, usize> {
        let domains = &self.domains;
        let (exchange_bytes, outbox): (Vec<usize>, Vec<Outbox>) = (self.ranks.par_iter_mut())
            .zip(keys.par_iter_mut())
            .enumerate()
            .map(|(me, (rank, keys))| {
                let plan = ExchangePlan::plan(me, keys, domains);
                plan.retain_stayers(keys);
                let wire_bytes = plan.wire_bytes();
                let shipped = plan.apply(rank).into_iter().enumerate();
                let owed = (shipped.filter(|&(dest, _)| dest != me))
                    .map(|(dest, pk)| (dest, particles_to_bytes(&pk)));
                (wire_bytes, Outbox::To(owed.collect()))
            })
            .collect();
        meas.exchange_bytes = exchange_bytes;
        let received = self.exchange(MsgKind::Particles, &outbox, |_, b| particles_from_bytes(b)).complete()?;
        // In the order `absorb_migrants` appends the particles.
        (keys.par_iter_mut().zip(received.par_iter())).for_each(|(keys, packets)| {
            for (_, pk) in packets {
                keys.extend(keymap.keys_of(&pk.pos));
            }
        });
        self.absorb_migrants(received);
        Ok(keys)
    }

    /// Append every non-empty received packet to its receiver's shard.
    pub(super) fn absorb_migrants(&mut self, received: Vec<Vec<(usize, Particles)>>) {
        for (rank, packets) in self.ranks.iter_mut().zip(received) {
            for (_, pk) in packets.iter().filter(|(_, pk)| !pk.is_empty()) {
                rank.extend_from(pk);
            }
        }
    }

    /// Per-rank trees over the shared key map, from each rank's carried
    /// keys. The trees own the particles until [`Cluster::store`] hands
    /// them back.
    fn build(&mut self, keymap: &KeyMap, keys: Vec<Vec<u64>>) -> Vec<Tree> {
        let tree_params = self.cfg.tree;
        let rank_particles: Vec<Particles> = self.ranks.drain(..).collect();
        (rank_particles.into_par_iter().zip(keys.into_par_iter()))
            .map(|(pr, ks)| Tree::build_with_keys(pr, ks, keymap.clone(), tree_params))
            .collect()
    }

    /// Boundary allgather through the fabric: every rank's own boundary
    /// tree. Receivers validate each frame in place and drop it: a validated
    /// frame carries every field a receiver reads with the sender's bits,
    /// so later phases read the sender's tree. Each sender's encoding is
    /// validated once; a frame beside that encoding's own buffer takes its
    /// verdict (validation is a pure function of the bytes), any other
    /// payload is validated in full.
    fn boundaries(
        &mut self,
        trees: &[Tree],
        meas: &mut StepMeasurements,
    ) -> Result<Vec<LetTree>, usize> {
        let validate = |b: &[u8]| lettree::validate(b).map(drop).map_err(|e| refusal("boundary", e));
        let ((payloads, verdicts), boundaries): ((Vec<Bytes>, Vec<_>), Vec<LetTree>) =
            (trees.par_iter().zip(self.domains.par_iter()))
                .map(|(t, d)| {
                    let b = boundary_tree(t, d);
                    let bytes = b.to_bytes();
                    let verdict = validate(&bytes);
                    ((bytes, verdict), b)
                })
                .collect();
        meas.boundary_bytes = payloads.iter().map(Bytes::len).collect();
        let outbox: Vec<Outbox> = payloads.iter().cloned().map(Outbox::Broadcast).collect();
        let got = self.exchange(MsgKind::Boundary, &outbox, |from, b| {
            match (payloads.get(from), verdicts.get(from)) {
                // The shared payload itself: every frame of it that arrives
                // intact, retransmissions included, carries this buffer.
                (Some(bytes), Some(verdict)) if (bytes.as_ptr(), bytes.len()) == (b.as_ptr(), b.len()) => {
                    verdict.clone()
                }
                _ => validate(b),
            }
        });
        got.complete()?;
        Ok(boundaries)
    }

    /// Sufficiency checks + dedicated LETs. Whether sender i owes receiver
    /// j a LET is a pure function of two trees every rank holds
    /// bit-identically, decided once per ordered pair: the senders'
    /// outboxes are all a receiver waits for, so no message says which LETs
    /// are in flight. Returns the LETs each rank received, ascending by sender,
    /// each validated in the frame it arrived in, or `Err(sender)` for a
    /// sender whose LET stayed missing through the retry budget: the same
    /// event as a peer silent on the heartbeat. `sent` is left holding the
    /// senders' outboxes, whose buffers the received frames share.
    fn lets(
        &mut self,
        trees: &[Tree],
        boundaries: &[LetTree],
        sent: &mut Vec<Outbox>,
        meas: &mut StepMeasurements,
    ) -> Result<Vec<Vec<(usize, LetFrame)>>, usize> {
        let theta = self.cfg.theta;
        // Each rank's frontier geometry and its hull, once: what its
        // senders build for and check their boundaries against.
        let geoms: Vec<Vec<Aabb>> = boundaries.par_iter().map(LetTree::frontier_boxes).collect();
        let hulls: Vec<Aabb> = geoms.iter().map(|geom| hull_of(geom)).collect();
        let owed: Vec<Vec<usize>> = (boundaries.par_iter())
            .enumerate()
            .map(|(i, bi)| {
                if bi.is_empty() {
                    return Vec::new();
                }
                (geoms.iter().zip(&hulls).enumerate())
                    .filter(|&(j, (geom_j, _))| j != i && !geom_j.is_empty())
                    .filter(|(_, (geom_j, hull_j))| !boundary_sufficient_within(bi, geom_j, hull_j, theta))
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        let mut kept = std::mem::take(&mut self.kept_frames);
        kept.resize_with(trees.len(), Vec::new);
        let encoded: Vec<Vec<(usize, Bytes)>> = (trees.par_iter().zip(owed.par_iter()))
            .zip(kept.into_par_iter())
            .map(|((tree, owed), kept)| {
                let mut kept = kept.into_iter().peekable();
                let mut scratch = LetTree::default();
                (owed.iter())
                    .map(|&j| {
                        while kept.next_if(|&(to, _)| to < j).is_some() {}
                        let buf = kept.next_if(|&(to, _)| to == j).map(|(_, buf)| buf);
                        (j, let_frame(tree, &geoms[j], theta, &mut scratch, buf.unwrap_or_default()))
                    })
                    .collect()
            })
            .collect();
        for (i, frames) in encoded.iter().enumerate() {
            meas.let_bytes_sent[i] = frames.iter().map(|(_, f)| f.len()).sum();
            meas.let_neighbors[i] = frames.len();
        }
        *sent = encoded.into_iter().map(Outbox::To).collect();
        self.exchange(MsgKind::Let, sent, |_, b| LetFrame::new(b.clone()).map_err(|e| refusal("LET", e))).complete()
    }

    /// Force walks, one [`walk::walk_sources`] call per rank over its
    /// sources in order: the local tree, then each peer with a non-empty
    /// boundary in sender order — its dedicated LET, read in the frame it
    /// arrived in, if it owed one, else its boundary, which sufficed. No
    /// walk opens a `Cut` node: a boundary is walked only where it
    /// sufficed, and a dedicated LET was built for the receiver's frontier
    /// (checked in debug builds).
    fn walk(
        &self,
        trees: &[Tree],
        boundaries: &[LetTree],
        received: &[Vec<(usize, LetFrame)>],
    ) -> Vec<RankForces> {
        let params = WalkParams {
            theta: self.cfg.theta,
            eps: self.cfg.eps,
            g: self.cfg.g,
            use_quadrupole: true,
        };
        (trees.par_iter().zip(received.par_iter()))
            .enumerate()
            .map(|(me, (tree, dedicated))| {
                let peers = boundaries.iter().enumerate();
                let remote = (peers.filter(|&(i, bi)| i != me && !bi.is_empty())).map(|(i, bi)| {
                    match received_from(dedicated, i) {
                        Some(frame) => Source::Records(frame.records()),
                        None => Source::Tree(bi.view()),
                    }
                });
                let sources: Vec<Source> = std::iter::once(Source::Tree(tree.view())).chain(remote).collect();
                let (forces, stats) =
                    walk::walk_sources(&sources, &tree.particles.pos, &tree.groups, &params);
                debug_assert!(stats.iter().all(|st| st.forced_cuts == 0), "rank {me} forced a cut");
                RankForces {
                    forces,
                    local: stats[0].counts,
                    lets: stats[1..].iter().map(|st| st.counts).sum(),
                }
            })
            .collect()
    }

    /// Store state back, update the flop weights, charge the measurements
    /// to the machine models and record the epoch.
    fn store(
        &mut self,
        trees: Vec<Tree>,
        results: Vec<RankForces>,
        mut meas: StepMeasurements,
    ) -> StepBreakdown {
        self.ranks = trees.into_iter().map(|t| t.particles).collect();
        // Imbalance after the exchange.
        let mean_n = self.total_particles() as f64 / self.ranks.len() as f64;
        let max_n = self.ranks.iter().map(Particles::len).max().unwrap_or(0) as f64;
        meas.imbalance = if mean_n > 0.0 { max_n / mean_n } else { 1.0 };
        for (i, r) in results.iter().enumerate() {
            meas.counts_local[i] = r.local;
            meas.counts_lets[i] = r.lets;
            let flops = (r.local + r.lets).flops() as f64;
            self.weights[i] = flops / self.ranks[i].len().max(1) as f64;
        }
        self.forces = results.into_iter().map(|r| r.forces).collect();

        meas.recovery_actions = self.wire.log.for_epoch(self.epoch).1.len();
        meas.retransmit_bytes = self.wire.flows.retransmit_bytes(self.epoch);
        let costs = self.price_ranks(&meas);
        let breakdown = self.assemble_breakdown(&meas, &costs);
        self.record_observability(&meas, &costs, &breakdown);
        self.last_measurements = meas;
        breakdown
    }
}

fn aabb_to_bytes(b: &Aabb) -> Vec<u8> {
    let mut v = Vec::with_capacity(48);
    for f in [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z] {
        v.extend_from_slice(&f.to_le_bytes());
    }
    v
}

fn aabb_from_bytes(d: &[u8]) -> Result<Aabb, String> {
    if d.len() != 48 {
        return Err(format!("bounds payload is {} bytes, expected 48", d.len()));
    }
    let f = |i: usize| f64::from_le_bytes(d[i * 8..i * 8 + 8].try_into().unwrap());
    for k in 0..6 {
        if f(k).is_nan() {
            return Err("bounds contain NaN".to_string());
        }
    }
    Ok(Aabb {
        min: Vec3::new(f(0), f(1), f(2)),
        max: Vec3::new(f(3), f(4), f(5)),
    })
}

/// The fault log's words for a `what` payload [`lettree::validate`] refused.
fn refusal(what: &str, invalid: Invalid) -> String {
    match invalid {
        Invalid::Encoding => format!("{what} wire decode failed"),
        Invalid::Invariant(why) => format!("{what} invariants: {why}"),
    }
}

/// Each sender's LET frame buffers worth keeping for its next epoch
/// ([`KeptFrames`]): a buffer of at least [`KEEP_FRAME_BYTES`] that nothing
/// else holds. Every receiver's handle is gone once the walk has run, unless
/// a fault holds the frame into the next epoch; such a buffer is dropped.
fn keep_frames(sent: Vec<Outbox>) -> KeptFrames {
    (sent.into_iter())
        .map(|sent| match sent {
            Outbox::To(frames) => (frames.into_iter())
                .filter_map(|(to, frame)| Some((to, frame.try_into_vec().ok()?)))
                .filter(|(_, buf)| buf.capacity() >= KEEP_FRAME_BYTES)
                .collect(),
            _ => Vec::new(),
        })
        .collect()
}

/// Factor `p = px·py` with `px ≈ √p` (the paper's DD-process grid).
pub fn factor_ranks(p: usize) -> (usize, usize) {
    let mut px = (p as f64).sqrt() as usize;
    while px > 1 && !p.is_multiple_of(px) {
        px -= 1;
    }
    (px.max(1), p / px.max(1))
}
