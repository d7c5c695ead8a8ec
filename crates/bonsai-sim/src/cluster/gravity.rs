//! The gravity epoch: one function per row of the paper's step, in the
//! paper's order, driven by [`Cluster::try_gravity_phase`].
//!
//! | phase | Table II row | paper | what crosses the fabric |
//! |---|---|---|---|
//! | [`bounds`](Cluster::bounds) | Domain update | §III-B1: global bounding box | `Control` allreduce, doubling as the heartbeat |
//! | [`update_domains`](Cluster::update_domains) | Domain update | §III-B1: every particle's PH key, once; two-level sample sort, flop-weighted rates, 30 % cap | — (driver-side) |
//! | [`migrate`](Cluster::migrate) | Domain update | §III-B1: particle exchange; the stayers keep their keys, received migrants are keyed | `Particles`, every pair, possibly empty |
//! | [`build`](Cluster::build) | Sorting, Tree-construction, Tree-properties | §III-A: sorts the carried keys | — |
//! | [`boundaries`](Cluster::boundaries) | Domain update | §III-B2: boundary trees, allgatherv | `Boundary` broadcast; every receiver validates its copy and drops it |
//! | [`lets`](Cluster::lets) | (Non-hidden) LET comm | §III-B2: sufficiency check — a pure function of two boundary trees every rank holds bit-identically, decided once per ordered pair — and dedicated LETs for near neighbours | `Let`, sparse |
//! | [`walk`](Cluster::walk) | Gravity local, Gravity LETs | §III-A, §III-B2: one walk per rank over the local tree and, per peer, its dedicated LET, else (the boundary sufficed) the sender's own boundary tree | — |
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
//! in one place.

use super::{Cluster, StepMeasurements, MAX_RETRIES};
use crate::breakdown::StepBreakdown;
use bonsai_domain::exchange::{particles_from_bytes, particles_to_bytes, ExchangePlan};
use bonsai_domain::letbuild::{boundary_sufficient_for, build_let};
use bonsai_domain::load::enforce_particle_cap;
use bonsai_domain::sampling::parallel_cuts;
use bonsai_domain::{boundary_tree, LetTree};
use bonsai_net::collective::{self, received_from, Exchanged, Expect, Lanes, Outbox, Reject, Round};
use bonsai_net::MsgKind;
use bonsai_sfc::KeyMap;
use bonsai_tree::build::Tree;
use bonsai_tree::walk::{self, WalkParams};
use bonsai_tree::{Forces, InteractionCounts, Particles, TreeView};
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

/// One rank's walk results.
struct RankForces {
    forces: Forces,
    local: InteractionCounts,
    lets: InteractionCounts,
}

impl Cluster {
    /// The distributed force computation, with every inter-rank payload
    /// crossing the (possibly faulty) fabric in validated envelopes.
    /// Populates `self.forces` and returns the breakdown, or `Err(rank)` when a
    /// rank stayed silent through every retry and must be treated as
    /// crashed.
    pub(super) fn try_gravity_phase(&mut self) -> Result<StepBreakdown, usize> {
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
        let bounds = self.bounds(&mut meas)?;
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
        let lets = self.lets(&trees, &boundaries, &mut meas)?;
        let forces = self.walk(&trees, &boundaries, &lets);
        Ok(self.store(trees, forces, meas))
    }

    /// One collective among all ranks in the current epoch, logged in the
    /// physics phases' words, its sealing and opening as rank tasks on the
    /// pool. A payload that fails `parse` is corrupt.
    pub(super) fn exchange<T: Send>(
        &mut self,
        kind: MsgKind,
        outbox: &[Outbox],
        expect: Expect<'_>,
        parse: impl Fn(&[u8]) -> Result<T, String> + Sync,
    ) -> Exchanged<T> {
        let everyone: Vec<usize> = (0..self.wire.world()).collect();
        let during = format!("{kind:?} phase");
        let round = Round {
            kind,
            epoch: self.epoch,
            max_retries: MAX_RETRIES,
            stale_frame: "frame",
            during: &during,
            stranger: "unexpected sender",
            duplicate: "extra copy discarded",
        };
        collective::exchange(&mut self.wire, &PoolLanes, &everyone, &round, outbox, expect, |b| {
            parse(b).map_err(Reject::Corrupt)
        })
    }

    /// Heartbeat + global bounding box (an allreduce). Every alive rank
    /// broadcasts its local bounds as a Control frame; this doubles as the
    /// liveness probe: a rank missing from every retry round is reported
    /// dead.
    fn bounds(&mut self, meas: &mut StepMeasurements) -> Result<Aabb, usize> {
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
        let got = self.exchange(MsgKind::Control, &outbox, Expect::AllPeers, aabb_from_bytes);
        meas.retransmit_bytes += got.retransmit_bytes;
        let received = got.complete()?;
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
        let got = self.exchange(MsgKind::Particles, &outbox, Expect::AllPeers, particles_from_bytes);
        meas.retransmit_bytes += got.retransmit_bytes;
        let received = got.complete()?;
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
    /// tree. Receivers validate each frame and drop their copy: a validated
    /// frame carries every field a receiver reads with the sender's bits,
    /// so later phases read the sender's tree.
    fn boundaries(
        &mut self,
        trees: &[Tree],
        meas: &mut StepMeasurements,
    ) -> Result<Vec<LetTree>, usize> {
        let (encoded, boundaries): (Vec<Bytes>, Vec<LetTree>) = (trees.par_iter())
            .zip(self.domains.par_iter())
            .map(|(t, d)| {
                let b = boundary_tree(t, d);
                (b.to_bytes(), b)
            })
            .collect();
        meas.boundary_bytes = encoded.iter().map(Bytes::len).collect();
        let outbox: Vec<Outbox> = encoded.into_iter().map(Outbox::Broadcast).collect();
        let got = self.exchange(MsgKind::Boundary, &outbox, Expect::AllPeers, |b| {
            parse_let_tree(b, "boundary").map(drop)
        });
        meas.retransmit_bytes += got.retransmit_bytes;
        got.complete()?;
        Ok(boundaries)
    }

    /// Sufficiency checks + dedicated LETs. Whether sender i owes receiver
    /// j a LET is a pure function of two trees every rank holds
    /// bit-identically, decided once per ordered pair: the outboxes and the
    /// expect lists are the same pairs, so no message says which LETs are
    /// in flight. Returns the LETs each rank received, ascending by sender,
    /// or `Err(sender)` for a sender whose LET stayed missing through the
    /// retry budget: the same event as a peer silent on the heartbeat.
    fn lets(
        &mut self,
        trees: &[Tree],
        boundaries: &[LetTree],
        meas: &mut StepMeasurements,
    ) -> Result<Vec<Vec<(usize, LetTree)>>, usize> {
        let theta = self.cfg.theta;
        // Each rank's frontier geometry, once: what its senders build for.
        let geoms: Vec<Vec<Aabb>> = boundaries.par_iter().map(LetTree::frontier_boxes).collect();
        let encoded: Vec<Vec<(usize, Bytes)>> = (trees.par_iter().zip(boundaries.par_iter()))
            .enumerate()
            .map(|(i, (tree, bi))| {
                if bi.is_empty() {
                    return Vec::new();
                }
                (geoms.iter().enumerate())
                    .filter(|&(j, geom_j)| j != i && !geom_j.is_empty())
                    .filter(|(_, geom_j)| !boundary_sufficient_for(bi, geom_j, theta))
                    .map(|(j, geom_j)| (j, build_let(tree, geom_j, theta).to_bytes()))
                    .collect()
            })
            .collect();
        // The receivers' lists are the same pairs transposed, ascending by
        // sender because the senders are read in order.
        let mut expected: Vec<Vec<usize>> = vec![Vec::new(); trees.len()];
        for (i, lets) in encoded.iter().enumerate() {
            meas.let_bytes_sent[i] = lets.iter().map(|(_, bytes)| bytes.len()).sum();
            meas.let_neighbors[i] = lets.len();
            for &(j, _) in lets {
                expected[j].push(i);
            }
        }
        let outbox: Vec<Outbox> = encoded.into_iter().map(Outbox::To).collect();
        let got = self.exchange(MsgKind::Let, &outbox, Expect::From(&expected), |b| {
            parse_let_tree(b, "LET")
        });
        meas.retransmit_bytes += got.retransmit_bytes;
        got.complete()
    }

    /// Force walks, one [`walk::walk_sources`] call per rank over its
    /// sources in order: the local tree, then each peer with a non-empty
    /// boundary in sender order — its dedicated LET if it owed one, else
    /// its boundary, which sufficed. No walk opens a `Cut` node: a boundary
    /// is walked only where it sufficed, and a dedicated LET was built for
    /// the receiver's frontier (checked in debug builds).
    fn walk(
        &self,
        trees: &[Tree],
        boundaries: &[LetTree],
        received: &[Vec<(usize, LetTree)>],
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
                let remote = (peers.filter(|&(i, bi)| i != me && !bi.is_empty()))
                    .map(|(i, bi)| received_from(dedicated, i).unwrap_or(bi).view());
                let sources: Vec<TreeView> = std::iter::once(tree.view()).chain(remote).collect();
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

fn parse_let_tree(b: &[u8], what: &str) -> Result<LetTree, String> {
    let lt = LetTree::from_bytes(b).ok_or_else(|| format!("{what} wire decode failed"))?;
    lt.check_invariants()
        .map_err(|e| format!("{what} invariants: {e}"))?;
    Ok(lt)
}

/// Factor `p = px·py` with `px ≈ √p` (the paper's DD-process grid).
pub fn factor_ranks(p: usize) -> (usize, usize) {
    let mut px = (p as f64).sqrt() as usize;
    while px > 1 && !p.is_multiple_of(px) {
        px -= 1;
    }
    (px.max(1), p / px.max(1))
}
