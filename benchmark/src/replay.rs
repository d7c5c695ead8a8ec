//! Replay of one gravity epoch through each layer's public functions, with
//! a wall-clock span around every call.
//!
//! After a real `step()` returns, the engine still holds the positions the
//! epoch computed forces at. The replay takes those (`rank_particles`,
//! `domains()`), and runs the same sequence of public calls the step makes
//! — keys, sort, sampling and cuts, exchange plan, tree build, boundary
//! tree, encode, seal, fabric, open, decode, sufficiency, LET build, walks
//! — on the harness thread, over a clean fabric. Nothing is written back to
//! the engine. What the step does between those calls (payload matrices,
//! receive-side validation, flow ledger, observability recording, model
//! pricing, integration) is not replayed and shows up as the residual.

use crate::trace::Recorder;
use bonsai_core::Simulation;
use bonsai_domain::exchange::{particles_from_bytes, particles_to_bytes, ExchangePlan};
use bonsai_domain::load::enforce_particle_cap;
use bonsai_domain::sampling::{parallel_cuts, systematic_sample};
use bonsai_domain::{boundary_sufficient_for, boundary_tree, build_let, LetTree};
use bonsai_net::{envelope, Endpoint, Fabric, MsgKind};
use bonsai_obs::span::SpanId;
use bonsai_sfc::KeyMap;
use bonsai_sim::cluster::factor_ranks;
use bonsai_sim::Cluster;
use bonsai_tree::walk::{self, WalkParams, WalkStats};
use bonsai_tree::{Particles, Tree};
use bonsai_util::Aabb;
use std::hint::black_box;

/// What one replayed epoch did, as counts. Every field repeats exactly for
/// a given seed and step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochCounts {
    /// Particle-particle interactions of the local-tree walks.
    pub pp_local: u64,
    /// Particle-cell interactions of the local-tree walks.
    pub pc_local: u64,
    /// Particle-particle interactions of the remote-source walks.
    pub pp_let: u64,
    /// Particle-cell interactions of the remote-source walks.
    pub pc_let: u64,
    /// Nodes popped from traversal stacks, all walks.
    pub nodes_visited: u64,
    /// `Cut` nodes that failed the receiver's MAC, all walks.
    pub forced_cuts: u64,
    /// Dedicated LETs built.
    pub lets: u64,
    /// Serialized bytes of those LETs.
    pub let_bytes: u64,
    /// Serialized bytes of the boundary trees, one copy per rank.
    pub boundary_bytes: u64,
    /// Envelopes sealed.
    pub frames: u64,
    /// Bytes of those envelopes, headers included.
    pub wire_bytes: u64,
    /// SFC keys computed outside the tree build.
    pub keys: u64,
}

impl EpochCounts {
    fn add_walk(&mut self, local: bool, st: &WalkStats) {
        if local {
            self.pp_local += st.counts.pp;
            self.pc_local += st.counts.pc;
        } else {
            self.pp_let += st.counts.pp;
            self.pc_let += st.counts.pc;
        }
        self.nodes_visited += st.nodes_visited;
        self.forced_cuts += st.forced_cuts;
    }

    /// All interactions evaluated.
    pub fn interactions(&self) -> u64 {
        self.pp_local + self.pc_local + self.pp_let + self.pc_let
    }

    /// Flops under the paper's 23/65 convention.
    pub fn flops(&self) -> u64 {
        bonsai_tree::PP_FLOPS * (self.pp_local + self.pp_let)
            + bonsai_tree::PC_FLOPS * (self.pc_local + self.pc_let)
    }
}

/// Where in the trace a replayed call is recorded.
#[derive(Clone, Copy)]
struct At {
    step: u64,
    root: SpanId,
}

/// Replay one single-process epoch: keys, sort, build, walk.
///
/// `Tree::build` derives its own keys and sorts them, so on this engine the
/// `sfc.*` spans measure work the `tree.build` span contains again.
pub fn replay_single(sim: &Simulation, rec: &mut Recorder, step: u64, root: SpanId) -> EpochCounts {
    let cfg = sim.config();
    let parts = sim.particles().clone();
    let mut counts = EpochCounts::default();
    let keymap = KeyMap::new(&parts.bounds(), cfg.tree_params().curve);

    let id = rec.open(0, step, "sfc.keys", Some(root));
    let mut keys = keymap.keys_of(&parts.pos);
    rec.close(id);
    counts.keys = keys.len() as u64;
    rec.arg(id, "keys", counts.keys);
    let id = rec.open(0, step, "sfc.sort", Some(root));
    keys.sort_unstable();
    rec.close(id);
    black_box(&keys);

    let id = rec.open(0, step, "tree.build", Some(root));
    let tree = Tree::build(parts, cfg.tree_params());
    rec.close(id);
    rec.arg(id, "nodes", tree.nodes.len() as u64);

    let id = rec.open(0, step, "tree.walk_local", Some(root));
    let (forces, st) = walk::self_gravity(&tree, &cfg.walk_params());
    rec.close(id);
    black_box(&forces);
    rec.arg(id, "pp", st.counts.pp);
    rec.arg(id, "pc", st.counts.pc);
    counts.add_walk(true, &st);
    counts
}

/// Replays cluster epochs over its own clean fabric, reused across steps.
pub struct ClusterReplayer {
    endpoints: Vec<Endpoint>,
}

impl ClusterReplayer {
    /// A replayer for a `ranks`-rank cluster.
    pub fn new(ranks: usize) -> Self {
        Self {
            endpoints: Fabric::new(ranks),
        }
    }

    /// One all-to-all: `outgoing[from]` lists `(to, payload)`. Each sender
    /// seals and sends its burst, each receiver drains, opens and (under a
    /// `decode_span`, when given) decodes its burst: one span per rank and
    /// phase, because a span per 48-byte heartbeat would time the clock.
    /// Returns `received[to]` as `(from, decoded)` in arrival order.
    #[allow(clippy::too_many_arguments)]
    fn exchange<B: AsRef<[u8]>, T>(
        &self,
        rec: &mut Recorder,
        at: At,
        kind: MsgKind,
        outgoing: &[Vec<(usize, B)>],
        decode_span: Option<&str>,
        counts: &mut EpochCounts,
        mut decode: impl FnMut(&[u8]) -> T,
    ) -> Vec<Vec<(usize, T)>> {
        for (from, burst) in outgoing.iter().enumerate() {
            let id = rec.open(from, at.step, "net.seal", Some(at.root));
            let frames: Vec<_> = burst
                .iter()
                .map(|(to, pl)| (*to, envelope::seal(kind, from, at.step, pl.as_ref())))
                .collect();
            rec.close(id);
            let bytes: usize = frames.iter().map(|(_, f)| f.len()).sum();
            rec.arg(id, "frames", frames.len() as u64);
            rec.arg(id, "bytes", bytes as u64);
            counts.frames += frames.len() as u64;
            counts.wire_bytes += bytes as u64;

            let id = rec.open(from, at.step, "net.fabric", Some(at.root));
            for (to, frame) in frames {
                self.endpoints[from].send(to, kind, frame);
            }
            rec.close(id);
        }
        let mut received = Vec::with_capacity(outgoing.len());
        for (to, ep) in self.endpoints.iter().enumerate() {
            let id = rec.open(to, at.step, "net.fabric", Some(at.root));
            let mut msgs = Vec::new();
            while let Some(msg) = ep.try_recv() {
                msgs.push(msg);
            }
            rec.close(id);

            let id = rec.open(to, at.step, "net.open", Some(at.root));
            let envs: Vec<_> = msgs
                .iter()
                .map(|m| envelope::open(&m.payload).expect("clean fabric delivers valid frames"))
                .collect();
            rec.close(id);
            rec.arg(id, "frames", envs.len() as u64);

            let id = decode_span.map(|name| rec.open(to, at.step, name, Some(at.root)));
            let decoded: Vec<(usize, T)> =
                envs.iter().map(|e| (e.from, decode(e.payload))).collect();
            if let Some(id) = id {
                rec.close(id);
            }
            received.push(decoded);
        }
        received
    }

    /// Replay the epoch the cluster's last `step()` completed.
    pub fn replay(
        &self,
        cluster: &Cluster,
        rec: &mut Recorder,
        step: u64,
        root: SpanId,
    ) -> EpochCounts {
        let cfg = &cluster.cfg;
        let p = cluster.rank_count();
        assert_eq!(p, self.endpoints.len(), "replayer sized for another world");
        let at = At { step, root };
        let domains = cluster.domains();
        let mut parts: Vec<Particles> = (0..p).map(|r| cluster.rank_particles(r).clone()).collect();
        let mut counts = EpochCounts::default();

        // 1. Heartbeat + global bounds: every rank broadcasts its box.
        let mut bounds = Aabb::empty();
        let mut outgoing: Vec<Vec<(usize, Vec<u8>)>> = Vec::with_capacity(p);
        for (r, shard) in parts.iter().enumerate() {
            let local = if shard.is_empty() {
                Aabb::empty()
            } else {
                shard.bounds()
            };
            bounds.merge(&local);
            let mut enc = Vec::with_capacity(48);
            for f in [
                local.min.x,
                local.min.y,
                local.min.z,
                local.max.x,
                local.max.y,
                local.max.z,
            ] {
                enc.extend_from_slice(&f.to_le_bytes());
            }
            outgoing.push(others(p, r).map(|to| (to, enc.clone())).collect());
        }
        if p > 1 {
            self.exchange(
                rec,
                at,
                MsgKind::Control,
                &outgoing,
                None,
                &mut counts,
                |_| (),
            );
        }
        let keymap = KeyMap::new(&bounds, cfg.tree.curve);

        if p > 1 {
            // 2. Domain update: sort, two-level sample sort, particle cap.
            //    Timed, never applied: the epoch's own cuts are `domains`.
            let mut sorted: Vec<Vec<u64>> = Vec::with_capacity(p);
            for (r, shard) in parts.iter().enumerate() {
                let id = rec.open(r, step, "sfc.keys", Some(root));
                let mut ks = keymap.keys_of(&shard.pos);
                rec.close(id);
                rec.arg(id, "keys", ks.len() as u64);
                counts.keys += ks.len() as u64;
                let id = rec.open(r, step, "sfc.sort", Some(root));
                ks.sort_unstable();
                rec.close(id);
                sorted.push(ks);
            }
            let mut samples: Vec<Vec<u64>> = Vec::with_capacity(p);
            for (r, ks) in sorted.iter().enumerate() {
                let id = rec.open(r, step, "domain.sampling", Some(root));
                samples.push(systematic_sample(ks, cfg.sample_s2.max(4)));
                rec.close(id);
            }
            let id = rec.open(0, step, "domain.sampling", Some(root));
            let (px, py) = factor_ranks(p);
            let (cuts, _) = parallel_cuts(&samples, px, py, cfg.sample_s1, cfg.sample_s2);
            let mut all_keys: Vec<u64> = sorted.iter().flatten().copied().collect();
            all_keys.sort_unstable();
            black_box(enforce_particle_cap(&cuts, &all_keys, cfg.cap));
            rec.close(id);

            // 3. Particle exchange. The shards already sit in the epoch's
            //    domains, so every pair exchanges an empty payload, which is
            //    also the common case of the real step.
            let mut outgoing = Vec::with_capacity(p);
            for (me, shard) in parts.iter_mut().enumerate() {
                let id = rec.open(me, step, "domain.exchange", Some(root));
                let kid = rec.open(me, step, "sfc.keys", Some(id));
                let ks = keymap.keys_of(&shard.pos);
                rec.close(kid);
                counts.keys += ks.len() as u64;
                let plan = ExchangePlan::plan(me, &ks, domains);
                let shipped = plan.apply(shard);
                let burst: Vec<_> = shipped
                    .iter()
                    .enumerate()
                    .filter(|&(dest, _)| dest != me)
                    .map(|(dest, pk)| (dest, particles_to_bytes(pk)))
                    .collect();
                rec.close(id);
                rec.arg(id, "emigrants", plan.emigrant_count() as u64);
                outgoing.push(burst);
            }
            let arrived = self.exchange(
                rec,
                at,
                MsgKind::Particles,
                &outgoing,
                Some("domain.exchange"),
                &mut counts,
                |b| particles_from_bytes(b).expect("particle payload round-trips"),
            );
            for (shard, row) in parts.iter_mut().zip(arrived) {
                for (_, pk) in row.iter().filter(|(_, pk)| !pk.is_empty()) {
                    shard.extend_from(pk);
                }
            }
        }

        // 4. Per-rank trees over the shared key map.
        let mut trees: Vec<Tree> = Vec::with_capacity(p);
        for (r, shard) in parts.into_iter().enumerate() {
            let id = rec.open(r, step, "tree.build", Some(root));
            let tree = Tree::build_with_keymap(shard, keymap.clone(), cfg.tree);
            rec.close(id);
            rec.arg(id, "nodes", tree.nodes.len() as u64);
            trees.push(tree);
        }

        // 5. Boundary trees and their allgather.
        let mut boundaries: Vec<LetTree> = Vec::with_capacity(p);
        let mut outgoing = Vec::with_capacity(p);
        for (r, tree) in trees.iter().enumerate() {
            let id = rec.open(r, step, "domain.boundary", Some(root));
            let b = boundary_tree(tree, &domains[r]);
            rec.close(id);
            counts.boundary_bytes += b.wire_size() as u64;
            let id = rec.open(r, step, "domain.let_encode", Some(root));
            let enc = b.to_bytes();
            rec.close(id);
            rec.arg(id, "bytes", enc.len() as u64);
            outgoing.push(others(p, r).map(|to| (to, enc.clone())).collect::<Vec<_>>());
            boundaries.push(b);
        }
        // held[to][from]: rank `to`'s decoded wire copy of `from`'s boundary.
        let mut held: Vec<Vec<Option<LetTree>>> = (0..p).map(|_| vec![None; p]).collect();
        if p > 1 {
            let arrived = self.exchange(
                rec,
                at,
                MsgKind::Boundary,
                &outgoing,
                Some("domain.let_decode"),
                &mut counts,
                decode_let,
            );
            for (to, row) in arrived.into_iter().enumerate() {
                for (from, lt) in row {
                    held[to][from] = Some(lt);
                }
            }
        }

        // 6. Sufficiency checks on both sides, then dedicated LETs.
        let mut outgoing = Vec::with_capacity(p);
        for i in 0..p {
            let mut burst = Vec::new();
            if boundaries[i].is_empty() {
                outgoing.push(burst);
                continue;
            }
            // Sender side: whom must rank i build a dedicated LET for?
            let id = rec.open(i, step, "domain.sufficiency", Some(root));
            let wanted: Vec<(usize, Vec<Aabb>)> = others(p, i)
                .filter_map(|j| {
                    let geom = held[i][j].as_ref()?.frontier_boxes();
                    (!geom.is_empty() && !boundary_sufficient_for(&boundaries[i], &geom, cfg.theta))
                        .then_some((j, geom))
                })
                .collect();
            // Receiver side: rank i re-derives which LETs it must wait for.
            let own = boundaries[i].frontier_boxes();
            let expected = others(p, i)
                .filter(|&j| {
                    held[i][j].as_ref().is_some_and(|bj| {
                        !bj.is_empty() && !boundary_sufficient_for(bj, &own, cfg.theta)
                    })
                })
                .count();
            rec.close(id);
            black_box(expected);
            let mut lets = Vec::with_capacity(wanted.len());
            for (j, geom) in &wanted {
                let id = rec.open(i, step, "domain.let_build", Some(root));
                let lt = build_let(&trees[i], geom, cfg.theta);
                rec.close(id);
                rec.arg(id, "bytes", lt.wire_size() as u64);
                counts.lets += 1;
                counts.let_bytes += lt.wire_size() as u64;
                lets.push((*j, lt));
            }
            let id = rec.open(i, step, "domain.let_encode", Some(root));
            burst.extend(lets.iter().map(|(j, lt)| (*j, lt.to_bytes())));
            rec.close(id);
            outgoing.push(burst);
        }
        let mut dedicated: Vec<Vec<Option<LetTree>>> = (0..p).map(|_| vec![None; p]).collect();
        if p > 1 {
            let arrived = self.exchange(
                rec,
                at,
                MsgKind::Let,
                &outgoing,
                Some("domain.let_decode"),
                &mut counts,
                decode_let,
            );
            for (to, row) in arrived.into_iter().enumerate() {
                for (from, lt) in row {
                    dedicated[to][from] = Some(lt);
                }
            }
        }

        // 7. Force walks: local tree, then every remote source.
        let params = WalkParams {
            theta: cfg.theta,
            eps: cfg.eps,
            g: cfg.g,
            use_quadrupole: true,
        };
        for (j, tree) in trees.iter().enumerate() {
            let id = rec.open(j, step, "tree.walk_local", Some(root));
            let (mut forces, st) = walk::self_gravity(tree, &params);
            rec.close(id);
            rec.arg(id, "pp", st.counts.pp);
            rec.arg(id, "pc", st.counts.pc);
            counts.add_walk(true, &st);
            for i in others(p, j) {
                let Some(boundary) = held[j][i].as_ref().filter(|b| !b.is_empty()) else {
                    continue;
                };
                let source = dedicated[j][i].as_ref().unwrap_or(boundary);
                let id = rec.open(j, step, "tree.walk_let", Some(root));
                let (f, st) =
                    walk::walk_tree(&source.view(), &tree.particles.pos, &tree.groups, &params);
                forces.accumulate(&f);
                rec.close(id);
                rec.arg(id, "from", i as u64);
                rec.arg(id, "pp", st.counts.pp);
                rec.arg(id, "pc", st.counts.pc);
                counts.add_walk(false, &st);
            }
            black_box(&forces);
        }
        counts
    }
}

/// Every rank but `me`, ascending.
fn others(p: usize, me: usize) -> impl Iterator<Item = usize> {
    (0..p).filter(move |&r| r != me)
}

/// Decode and validate a boundary tree or LET, as the receiving rank does.
fn decode_let(b: &[u8]) -> LetTree {
    let lt = LetTree::from_bytes(b).expect("LET payload round-trips");
    lt.check_invariants().expect("decoded LET is well-formed");
    lt
}
