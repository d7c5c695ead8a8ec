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
//! | [`let_rounds`](Cluster::let_rounds) | (Non-hidden) LET comm, Gravity local, Gravity LETs | §III-B2: sufficiency check — a pure function of two boundary trees every rank holds bit-identically, decided once per ordered pair; then one round per receiver, as many receivers at a time as the pool has lanes: their near neighbours' dedicated LETs, then one walk (§III-A) per receiver of the batch over its local tree and, per peer, that LET, read in the frame it arrived in, else (the boundary sufficed) the sender's own boundary tree; then the senders take their frame buffers back | `Let`, one round per receiver: it waits for exactly the senders whose outbox names it; each LET is encoded once into the buffer its header travels beside, and the receiver validates that buffer in place and keeps it through its walk, decoding nothing |
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

/// A sender's dedicated LET for a receiver whose frontier is `geom`, built
/// into `scratch` (whatever LET it held) and encoded straight into `buf`, a
/// frame buffer of the sender's: the payload the exchange seals a header
/// beside, equal to `build_let(tree, geom, theta).to_bytes()`. A too small
/// buffer is replaced by a zeroed one of the LET's size, a larger one keeps
/// its capacity (frames to near and far receivers differ in size), and old
/// bytes are never copied.
pub(super) fn let_frame(tree: &Tree, geom: &[Aabb], theta: f64, scratch: &mut LetTree, mut buf: Vec<u8>) -> Bytes {
    build_let_into(tree, geom, theta, scratch);
    let len = scratch.wire_size();
    if buf.capacity() < len {
        buf = vec![0; len];
    } else {
        buf.resize(len, 0);
    }
    scratch.write_to(&mut buf);
    Bytes::from(buf)
}

/// One receiver's LET frames, ascending by sender: each of `senders` writes
/// its LET for the receiver's frontier `geom` into its frame buffer `slot`,
/// on the pool. A round's k-th sender builds into the k-th `scratch` tree.
fn let_frames(
    trees: &[Tree],
    geom: &[Aabb],
    theta: f64,
    senders: &[usize],
    bufs: &mut [Vec<Vec<u8>>],
    slot: usize,
    scratch: &mut Vec<LetTree>,
) -> Vec<(usize, Bytes)> {
    scratch.resize_with(scratch.len().max(senders.len()), LetTree::default);
    let jobs: Vec<_> = (senders.iter().zip(scratch.iter_mut()))
        .map(|(&i, scratch)| (i, scratch, std::mem::take(&mut bufs[i][slot])))
        .collect();
    (jobs.into_par_iter())
        .map(|(i, scratch, buf)| (i, let_frame(&trees[i], geom, theta, scratch, buf)))
        .collect()
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
        let forces = self.let_rounds(&trees, &boundaries, &mut meas)?;
        Ok(self.store(trees, forces, meas))
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

    /// Sufficiency checks, then the dedicated LETs a few receivers at a time.
    /// Whether sender i owes receiver j a LET is a pure function of two
    /// trees every rank holds bit-identically, decided once per ordered
    /// pair: the senders' outboxes are all a receiver waits for. Then, as
    /// many receivers at a time as the pool has lanes, each receiver j in
    /// turn: its senders write their LETs ([`let_frames`]) and one `Let`
    /// round carries exactly those, validated in place; then each lane walks
    /// one of the receivers ([`walk_rank`]), and their frames are dropped,
    /// the buffers going back to their senders (a sender keeps one buffer
    /// per lane). At one lane, one receiver's frames exist at a time.
    /// `Err(sender)` for a LET missing through the retry budget, as for a
    /// peer silent on the heartbeat; no later round runs.
    fn let_rounds(
        &mut self,
        trees: &[Tree],
        boundaries: &[LetTree],
        meas: &mut StepMeasurements,
    ) -> Result<Vec<RankForces>, usize> {
        let (p, theta, lanes) = (trees.len(), self.cfg.theta, rayon::current_num_threads());
        let params = WalkParams { theta, eps: self.cfg.eps, g: self.cfg.g, use_quadrupole: true };
        // Each rank's frontier geometry, once: what its senders build for.
        let geoms: Vec<Vec<Aabb>> = boundaries.par_iter().map(LetTree::frontier_boxes).collect();
        // Per receiver, ascending, the senders whose boundary does not
        // suffice for it, each checked against the receiver's hull first.
        let owing: Vec<Vec<usize>> = (geoms.par_iter().enumerate())
            .map(|(j, geom)| {
                if geom.is_empty() {
                    return Vec::new();
                }
                let hull = hull_of(geom);
                (boundaries.iter().enumerate())
                    .filter(|&(i, bi)| i != j && !bi.is_empty())
                    .filter(|(_, bi)| !boundary_sufficient_within(bi, geom, &hull, theta))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let mut bufs = std::mem::take(&mut self.let_buffers);
        bufs.resize_with(p, Vec::new);
        bufs.iter_mut().for_each(|b| b.resize_with(lanes, Vec::new));
        let (mut largest, mut scratch) = (vec![0; p], Vec::new());
        let mut forces = Vec::with_capacity(p);
        let receivers: Vec<_> = (geoms.iter().zip(&owing)).enumerate().collect();
        for batch in receivers.chunks(lanes) {
            let mut delivered = Vec::with_capacity(batch.len());
            for &(j, (geom, senders)) in batch {
                let frames = let_frames(trees, geom, theta, senders, &mut bufs, j % lanes, &mut scratch);
                for (i, frame) in &frames {
                    meas.let_bytes_sent[*i] += frame.len();
                    meas.let_neighbors[*i] += 1;
                    largest[*i] = largest[*i].max(frame.len());
                }
                let mut frames = frames.into_iter().peekable();
                let sent: Vec<Outbox> = (0..p)
                    .map(|i| Outbox::To(frames.next_if(|f| f.0 == i).map(|(_, f)| (j, f)).into_iter().collect()))
                    .collect();
                let parse = |_, b: &Bytes| LetFrame::new(b.clone()).map_err(|e| refusal("LET", e));
                let received = self.exchange(MsgKind::Let, &sent, parse).complete()?.swap_remove(j);
                delivered.push((j, received, sent));
            }
            let walked: Vec<(usize, RankForces, Vec<Outbox>)> = (delivered.into_par_iter())
                .map(|(j, received, sent)| (j, walk_rank(&params, j, &trees[j], boundaries, &received), sent))
                .collect();
            for (j, rank_forces, sent) in walked {
                forces.push(rank_forces);
                // Every receiver's handle is gone; a frame a fault still
                // holds keeps its buffer, and the sender writes its next
                // frame in that slot into a new one.
                for (buf, sent) in bufs.iter_mut().zip(sent) {
                    let Outbox::To(sent) = sent else { continue };
                    if let Some(Ok(back)) = sent.into_iter().next().map(|(_, f)| f.try_into_vec()) {
                        buf[j % lanes] = back;
                    }
                }
            }
        }
        // A buffer more than a quarter larger than its sender's largest
        // frame of the epoch is let go: a kept one stays within 1.25× of it.
        for (slots, &len) in bufs.iter_mut().zip(&largest) {
            slots.iter_mut().filter(|buf| buf.capacity() > len + len / 4).for_each(|buf| *buf = Vec::new());
        }
        self.let_buffers = bufs;
        Ok(forces)
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

/// Rank `me`'s forces: one [`walk::walk_sources`] call over its sources in
/// order — the local tree, then each peer with a non-empty boundary in
/// sender order: its dedicated LET, read in the frame it arrived in, if it
/// owed one, else its boundary, which sufficed. No walk opens a `Cut` node:
/// a boundary is walked only where it sufficed, and a dedicated LET was
/// built for the receiver's frontier (checked in debug builds).
fn walk_rank(
    params: &WalkParams,
    me: usize,
    tree: &Tree,
    boundaries: &[LetTree],
    dedicated: &[(usize, LetFrame)],
) -> RankForces {
    let peers = boundaries.iter().enumerate();
    let remote = (peers.filter(|&(i, bi)| i != me && !bi.is_empty())).map(|(i, bi)| match received_from(dedicated, i) {
        Some(frame) => Source::Records(frame.records()),
        None => Source::Tree(bi.view()),
    });
    let sources: Vec<Source> = std::iter::once(Source::Tree(tree.view())).chain(remote).collect();
    let (forces, stats) = walk::walk_sources(&sources, &tree.particles.pos, &tree.groups, params);
    debug_assert!(stats.iter().all(|st| st.forced_cuts == 0), "rank {me} forced a cut");
    RankForces {
        forces,
        local: stats[0].counts,
        lets: stats[1..].iter().map(|st| st.counts).sum(),
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

/// Factor `p = px·py` with `px ≈ √p` (the paper's DD-process grid).
pub fn factor_ranks(p: usize) -> (usize, usize) {
    let mut px = (p as f64).sqrt() as usize;
    while px > 1 && !p.is_multiple_of(px) {
        px -= 1;
    }
    (px.max(1), p / px.max(1))
}
