//! Group-based tree walk with on-the-fly, lane-parallel force evaluation.
//!
//! This is the CPU analogue of Bonsai's fused tree-walk + force kernel
//! (§III-A, Fig. 1): interaction lists are never written to memory; each
//! accepted cell or opened leaf is consumed immediately, and the only outputs
//! are the accumulated `(φ, a)` per target plus the interaction counts that
//! feed the performance model.
//!
//! **Lane = target.** On the GPU every thread of a warp owns one target
//! particle of a group and each accepted cell or leaf particle is broadcast
//! to all of them (`__shfl`). Here a SIMD lane plays the thread:
//! [`walk_sources`] transposes the targets once per call into per-group
//! structure-of-arrays lane blocks (x, y, z, padded to a whole number of
//! 16-lane blocks by repeating the group's last target), keeps the
//! accumulators (φ, ax, ay, az) in the same layout, and hands every
//! interaction to a lane kernel ([`crate::kernels`]) whose loop over lanes
//! is a plain map — one broadcast source, no reduction across lanes — which
//! the compiler vectorises at whatever width the instruction set offers. The
//! traversal itself (stack order, one MAC test per node against the group's
//! bounding box) is scalar and shared by the whole group, as on the GPU.
//!
//! **Determinism contract.** Every lane performs exactly the scalar walk's
//! operation sequence on its own target: `p_c`'s expression tree per cell,
//! `p_p_batch`'s masked sum per leaf (started from zero, then added to the
//! accumulator), in traversal order. All of it is lane-wise IEEE-754 `f64`
//! arithmetic: the kernels fuse where they say `mul_add` — IEEE
//! fusedMultiplyAdd, the same value from one `vfmadd` lane as from libm's
//! `fma` — and nowhere else, because Rust neither contracts `a * b + c` on
//! its own nor reassociates; so a lane's result does not depend on how many
//! lanes run beside it or on which instantiation ran it. Padding lanes
//! compute ordinary values that are never read back and never counted.
//! Forces are therefore `to_bits`-identical at every vector width and on
//! every machine (and, through the `bonsai-par` contract, every thread
//! count); the lane-conformance test below holds every instantiation the
//! CPU runs to the scalar reference walk.
//!
//! **Dispatch.** On x86_64 the one `#[inline(always)]` group-walk body is
//! instantiated three times: at the build's baseline (SSE2), under
//! `#[target_feature(enable = "avx2,fma")]`, and under
//! `#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]`. [`walk_sources`]
//! picks once per call with `Isa::detect` — the detection the scalar
//! kernels share — and each target-feature instantiation is entered only
//! where the CPU reported every feature it enables, which is what makes its
//! `unsafe` call sound. The baseline instantiation is the portable
//! conformance path, not a fast one: without the `fma` feature every
//! `mul_add` is a libm call (≈ 20× slower in p-c, and p-p's `rsqrt` makes
//! nine). Other targets use the baseline instantiation, where `mul_add` is
//! whatever the target's baseline offers. There is nothing to configure.
//!
//! Work fans out over target groups onto the `bonsai-par` thread pool
//! — the role the GPU's warps play in the paper — with each group owning a
//! disjoint window of the lane buffer.
//!
//! The walk takes *any* [`TreeView`] as a source — a rank's own local tree,
//! a received Local Essential Tree, or a boundary tree — down this one path,
//! and [`walk_sources`] takes a list of them: a rank's local tree and every
//! remote source, walked in one call against targets transposed once. Each
//! source is still walked on its own, as the paper processes each LET
//! separately (§III-B2): per group, its partial sum starts from zero, and
//! `partial × G` is folded into the group's running sum in source order, so
//! the result is `to_bits`-equal to one [`walk_tree`] per source added up
//! with [`Forces::accumulate`]. [`walk_tree`] is the one-source case. Summed
//! over all sources, the forces reproduce the global gravitational field —
//! the key correctness property the integration tests assert.

use crate::forces::{Forces, InteractionCounts};
use crate::kernels::{p_c_lanes, p_p_lanes, Isa, LANES};
use crate::mac::OpeningCriterion;
use crate::node::{Group, NodeKind, TreeView};
use bonsai_util::Vec3;
use rayon::prelude::*;
use std::cell::RefCell;

/// Parameters of a force walk.
#[derive(Clone, Copy, Debug)]
pub struct WalkParams {
    /// Opening angle; the paper's production value is 0.4.
    pub theta: f64,
    /// Plummer softening length (same units as positions).
    pub eps: f64,
    /// Gravitational constant applied to the results (1 for N-body units,
    /// `bonsai_util::units::G` for galactic units).
    pub g: f64,
    /// Evaluate quadrupole corrections in particle-cell interactions (the
    /// paper's 65-flop kernel). Disable for the monopole-only ablation.
    pub use_quadrupole: bool,
}

impl WalkParams {
    /// N-body-unit parameters (G = 1), quadrupoles on.
    pub fn new(theta: f64, eps: f64) -> Self {
        Self {
            theta,
            eps,
            g: 1.0,
            use_quadrupole: true,
        }
    }

    /// Disable quadrupole corrections (monopole-only cells).
    pub fn monopole_only(mut self) -> Self {
        self.use_quadrupole = false;
        self
    }
}

impl Default for WalkParams {
    fn default() -> Self {
        Self {
            theta: 0.4,
            eps: 0.0,
            g: 1.0,
            use_quadrupole: true,
        }
    }
}

/// Per-walk diagnostics beyond the raw interaction counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalkStats {
    /// Interactions evaluated.
    pub counts: InteractionCounts,
    /// Nodes popped from traversal stacks.
    pub nodes_visited: u64,
    /// `Cut` LET nodes that *failed* the MAC and were force-used as p-c;
    /// nonzero only where a receiver walks a tree that was not built for
    /// its groups — the sender's boundary in place of a lost LET.
    pub forced_cuts: u64,
}

impl WalkStats {
    /// Merge another stats record.
    pub fn merge(&mut self, o: &WalkStats) {
        self.counts += o.counts;
        self.nodes_visited += o.nodes_visited;
        self.forced_cuts += o.forced_cuts;
    }
}

/// Compute forces exerted by `src` on the targets `tgt_pos`, walking one
/// interaction list per `group`. Returns per-target forces (G applied) and
/// walk statistics. The one-source case of [`walk_sources`].
///
/// `groups` must tile `0..tgt_pos.len()` contiguously and in order.
pub fn walk_tree(
    src: &TreeView<'_>,
    tgt_pos: &[Vec3],
    groups: &[Group],
    params: &WalkParams,
) -> (Forces, WalkStats) {
    let (forces, stats) = walk_sources(std::slice::from_ref(src), tgt_pos, groups, params);
    (forces, stats[0])
}

/// Compute the summed forces of every source in `srcs` on the targets
/// `tgt_pos`, in one pass: the targets are transposed once, and each group
/// walks every source in order. Returns the forces (G applied) and one
/// [`WalkStats`] per source.
///
/// The forces are `to_bits`-equal to [`walk_tree`] per source followed by
/// [`Forces::accumulate`] in source order: each source's partial sum starts
/// from zero as it would in its own call, and `partial × G` is then
/// assigned to the running sum (first source) or added to it (every later
/// one).
///
/// `groups` must tile `0..tgt_pos.len()` contiguously and in order.
pub fn walk_sources(
    srcs: &[TreeView<'_>],
    tgt_pos: &[Vec3],
    groups: &[Group],
    params: &WalkParams,
) -> (Forces, Vec<WalkStats>) {
    walk_sources_on(Isa::detect(), srcs, tgt_pos, groups, params)
}

/// [`walk_sources`] on a given instantiation (one feature test per call,
/// not per group).
fn walk_sources_on(
    isa: Isa,
    srcs: &[TreeView<'_>],
    tgt_pos: &[Vec3],
    groups: &[Group],
    params: &WalkParams,
) -> (Forces, Vec<WalkStats>) {
    let n = tgt_pos.len();
    let mut cursor = 0u32;
    for g in groups {
        assert_eq!(g.begin, cursor, "groups must tile the targets in order");
        cursor = g.end;
    }
    assert_eq!(cursor as usize, n, "groups must cover every target");
    let mut forces = Forces::zeros(n);
    let mut stats = vec![WalkStats::default(); srcs.len()];
    if n == 0 || srcs.iter().all(TreeView::is_empty) {
        return (forces, stats);
    }
    let mac = OpeningCriterion::new(params.theta);
    let eps2 = params.eps * params.eps;

    // Transpose the targets into per-group lane blocks: each group owns one
    // contiguous window of `rows` rows, each `padded(g.len())` lanes long —
    // target x, y, z, then the walk's φ, ax, ay, az, then (for more than one
    // source) the running sums of φ, ax, ay, az. The last four rows are read
    // back. Padding lanes repeat the group's last target so they compute
    // ordinary finite values; they are never read back and never counted.
    let rows = if srcs.len() == 1 { LANE_ROWS } else { LANE_ROWS + 4 };
    let total: usize = groups.iter().map(|g| rows * padded(g.len())).sum();
    let mut lanes = vec![0.0f64; total];
    let mut windows: Vec<&mut [f64]> = Vec::with_capacity(groups.len());
    let mut rest: &mut [f64] = &mut lanes;
    for g in groups {
        let p = padded(g.len());
        let (window, tail) = rest.split_at_mut(rows * p);
        rest = tail;
        let members = &tgt_pos[g.begin as usize..g.end as usize];
        if let Some(last) = members.last() {
            for l in 0..p {
                let t = members.get(l).unwrap_or(last);
                window[l] = t.x;
                window[p + l] = t.y;
                window[2 * p + l] = t.z;
            }
        }
        windows.push(window);
    }

    // One fan-out over the groups; each group walks every source in order
    // and records one stats entry per source.
    let quad = params.use_quadrupole;
    let mut group_stats = vec![WalkStats::default(); groups.len() * srcs.len()];
    groups
        .par_iter()
        .zip(windows.into_par_iter())
        .zip(group_stats.chunks_mut(srcs.len()).collect::<Vec<_>>().into_par_iter())
        .for_each(|((group, window), per_source)| {
            let p = padded(group.len());
            let (walked, sum) = window.split_at_mut(LANE_ROWS * p);
            for (k, (src, st)) in srcs.iter().zip(per_source).enumerate() {
                if k > 0 {
                    walked[3 * p..].fill(0.0);
                }
                if !src.is_empty() {
                    *st = walk_group_on(isa, src, group, &mac, eps2, quad, walked);
                }
                let partial = &mut walked[3 * p..];
                if sum.is_empty() {
                    // One source: its rows are the ones read back.
                    if params.g != 1.0 {
                        partial.iter_mut().for_each(|v| *v *= params.g);
                    }
                } else {
                    fold(sum, partial, params.g, k == 0);
                }
            }
        });
    for per_source in group_stats.chunks(srcs.len()) {
        for (total, st) in stats.iter_mut().zip(per_source) {
            total.merge(st);
        }
    }

    // Transpose the results back, dropping the padding lanes.
    let mut at = 0usize;
    for g in groups {
        let p = padded(g.len());
        let out = &lanes[at + (rows - 4) * p..at + rows * p];
        for l in 0..g.len() {
            let i = g.begin as usize + l;
            forces.pot[i] = out[l];
            forces.acc[i] = Vec3::new(out[p + l], out[2 * p + l], out[3 * p + l]);
        }
        at += rows * p;
    }
    (forces, stats)
}

/// Fold one source's partial (φ, ax, ay, az) rows into the running sum, as
/// `partial × G` — the value [`walk_tree`] would have returned for that
/// source — with G applied only when it is not 1. The first source is
/// assigned, not added to +0.0, so a −0.0 partial keeps its sign, exactly as
/// when its `Forces` started the sum; later sources are added in order, as
/// [`Forces::accumulate`] adds them.
fn fold(sum: &mut [f64], partial: &[f64], g: f64, first: bool) {
    let terms = sum.iter_mut().zip(partial);
    match (first, g != 1.0) {
        (true, false) => terms.for_each(|(s, &x)| *s = x),
        (true, true) => terms.for_each(|(s, &x)| *s = x * g),
        (false, false) => terms.for_each(|(s, &x)| *s += x),
        (false, true) => terms.for_each(|(s, &x)| *s += x * g),
    }
}

/// Rows of a group's walk window: target x, y, z, then accumulated φ, ax,
/// ay, az.
const LANE_ROWS: usize = 7;

/// Lane count of a group of `len` targets: `len` rounded up to whole blocks.
fn padded(len: usize) -> usize {
    len.div_ceil(LANES) * LANES
}

/// [`walk_group`] on instantiation `isa`; `window` holds exactly the group's
/// `LANE_ROWS` rows.
fn walk_group_on(
    isa: Isa,
    src: &TreeView<'_>,
    group: &Group,
    mac: &OpeningCriterion,
    eps2: f64,
    quad: bool,
    window: &mut [f64],
) -> WalkStats {
    match isa {
        Isa::Plain => walk_group(src, group, mac, eps2, quad, window),
        // SAFETY: `walk_group_avx2_fma` requires only that the CPU supports
        // AVX2 and FMA, and `Isa::Avx2Fma` exists only where `Isa::detect`
        // saw `is_x86_feature_detected!` report both on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { walk_group_avx2_fma(src, group, mac, eps2, quad, window) },
        // SAFETY: `walk_group_avx512` requires only that the CPU supports
        // AVX-512 F and VL, AVX2 and FMA, and `Isa::Avx512` exists only
        // where `Isa::detect` saw `is_x86_feature_detected!` report all four.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { walk_group_avx512(src, group, mac, eps2, quad, window) },
    }
}

thread_local! {
    /// Traversal stack, reused by every group a worker walks.
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// [`walk_group`] compiled a second time with AVX2 and FMA enabled, so its
/// lane loops use 256-bit vectors and the kernels' `mul_add`s are single
/// instructions. Same source, same IEEE operations per lane, same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn walk_group_avx2_fma(
    src: &TreeView<'_>,
    group: &Group,
    mac: &OpeningCriterion,
    eps2: f64,
    use_quadrupole: bool,
    window: &mut [f64],
) -> WalkStats {
    walk_group(src, group, mac, eps2, use_quadrupole, window)
}

/// [`walk_group`] compiled a third time with AVX-512 as well, so a 16-lane
/// block is two 512-bit vectors. Same source, same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
fn walk_group_avx512(
    src: &TreeView<'_>,
    group: &Group,
    mac: &OpeningCriterion,
    eps2: f64,
    use_quadrupole: bool,
    window: &mut [f64],
) -> WalkStats {
    walk_group(src, group, mac, eps2, use_quadrupole, window)
}

/// Walk a single group: iterative stack traversal against the group's
/// bounding box, every accepted cell and opened leaf evaluated at once on
/// all of the group's target lanes.
#[inline(always)]
fn walk_group(
    src: &TreeView<'_>,
    group: &Group,
    mac: &OpeningCriterion,
    eps2: f64,
    use_quadrupole: bool,
    window: &mut [f64],
) -> WalkStats {
    const ZERO_QUAD: bonsai_util::Sym3 = bonsai_util::Sym3 { m: [0.0; 6] };
    let mut stats = WalkStats::default();
    let targets = group.len() as u64;
    // Separate slices per row: the lane kernels need to know that targets
    // and accumulators cannot alias.
    let p = window.len() / LANE_ROWS;
    let (tx, rest) = window.split_at_mut(p);
    let (ty, rest) = rest.split_at_mut(p);
    let (tz, rest) = rest.split_at_mut(p);
    let (phi, rest) = rest.split_at_mut(p);
    let (ax, rest) = rest.split_at_mut(p);
    let (ay, az) = rest.split_at_mut(p);

    let mut stack = STACK.take();
    stack.clear();
    stack.push(0);
    while let Some(ni) = stack.pop() {
        let node = &src.nodes[ni as usize];
        stats.nodes_visited += 1;
        if node.mass == 0.0 {
            continue;
        }
        let open = mac.must_open(&group.bbox, node);
        match node.kind {
            NodeKind::Internal if open => {
                for c in node.first..node.first + node.count {
                    stack.push(c);
                }
            }
            NodeKind::Leaf if open => {
                let (b, e) = (node.first as usize, (node.first + node.count) as usize);
                p_p_lanes(tx, ty, tz, &src.pos[b..e], &src.mass[b..e], eps2, phi, ax, ay, az);
                stats.counts.pp += targets * (e - b) as u64;
            }
            kind => {
                // Accepted — or a `Cut` node the LET promised would never be
                // opened: honour the promise with a p-c but record the
                // violation. One particle-cell interaction per target.
                let quad = if use_quadrupole { &node.quad } else { &ZERO_QUAD };
                p_c_lanes(tx, ty, tz, node.com, node.mass, quad, eps2, phi, ax, ay, az);
                stats.counts.pc += targets;
                stats.forced_cuts += u64::from(open && kind == NodeKind::Cut);
            }
        }
    }
    STACK.set(stack);
    stats
}

/// Convenience: forces of a tree on its *own* particles (sorted order).
pub fn self_gravity(tree: &crate::build::Tree, params: &WalkParams) -> (Forces, WalkStats) {
    walk_tree(&tree.view(), &tree.particles.pos, &tree.groups, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{Tree, TreeParams};
    use crate::direct::direct_self_forces;
    use crate::kernels::{p_c, p_p};
    use crate::node::Node;
    use crate::particles::Particles;
    use bonsai_util::rng::Xoshiro256;
    use bonsai_util::Aabb;

    /// The scalar reference: the group walk as it was before targets became
    /// lanes — one target at a time, the public scalar `p_c` per accepted
    /// cell, a `p_p` sum per opened leaf started from zero. The lane walk
    /// must match it bit for bit.
    fn reference_walk_group(
        src: &TreeView<'_>,
        tgt_pos: &[Vec3],
        group: &Group,
        mac: &OpeningCriterion,
        eps2: f64,
        use_quadrupole: bool,
        acc: &mut [Vec3],
        pot: &mut [f64],
    ) -> WalkStats {
        const ZERO_QUAD: bonsai_util::Sym3 = bonsai_util::Sym3 { m: [0.0; 6] };
        let mut stats = WalkStats::default();
        let targets = &tgt_pos[group.begin as usize..group.end as usize];
        let mut stack: Vec<u32> = vec![0];
        while let Some(ni) = stack.pop() {
            let node = &src.nodes[ni as usize];
            stats.nodes_visited += 1;
            if node.mass == 0.0 {
                continue;
            }
            let open = mac.must_open(&group.bbox, node);
            match node.kind {
                _ if !open => {
                    let quad = if use_quadrupole { &node.quad } else { &ZERO_QUAD };
                    for (i, &t) in targets.iter().enumerate() {
                        let (dphi, da) = p_c(t, node.com, node.mass, quad, eps2);
                        pot[i] += dphi;
                        acc[i] += da;
                    }
                    stats.counts.pc += targets.len() as u64;
                }
                NodeKind::Internal => {
                    for c in node.first..node.first + node.count {
                        stack.push(c);
                    }
                }
                NodeKind::Leaf => {
                    let (b, e) = (node.first as usize, (node.first + node.count) as usize);
                    for (i, &t) in targets.iter().enumerate() {
                        let (mut dphi, mut da) = (0.0, Vec3::zero());
                        for j in b..e {
                            let (p, a) = p_p(t, src.pos[j], src.mass[j], eps2);
                            dphi += p;
                            da += a;
                        }
                        pot[i] += dphi;
                        acc[i] += da;
                    }
                    stats.counts.pp += (targets.len() * (e - b)) as u64;
                }
                NodeKind::Cut => {
                    let quad = if use_quadrupole { &node.quad } else { &ZERO_QUAD };
                    for (i, &t) in targets.iter().enumerate() {
                        let (dphi, da) = p_c(t, node.com, node.mass, quad, eps2);
                        pot[i] += dphi;
                        acc[i] += da;
                    }
                    stats.counts.pc += targets.len() as u64;
                    stats.forced_cuts += 1;
                }
            }
        }
        stats
    }

    /// [`walk_tree`] over [`reference_walk_group`], sequentially. An empty
    /// source exerts no force.
    fn reference_walk_tree(
        src: &TreeView<'_>,
        tgt_pos: &[Vec3],
        groups: &[Group],
        params: &WalkParams,
    ) -> (Forces, WalkStats) {
        let mut forces = Forces::zeros(tgt_pos.len());
        let mut stats = WalkStats::default();
        if src.is_empty() {
            return (forces, stats);
        }
        let mac = OpeningCriterion::new(params.theta);
        for g in groups {
            let (b, e) = (g.begin as usize, g.end as usize);
            stats.merge(&reference_walk_group(
                src,
                tgt_pos,
                g,
                &mac,
                params.eps * params.eps,
                params.use_quadrupole,
                &mut forces.acc[b..e],
                &mut forces.pot[b..e],
            ));
        }
        if params.g != 1.0 {
            forces.scale(params.g);
        }
        (forces, stats)
    }

    /// A source tree as it arrives from another rank: nodes at `cut_level`
    /// and deeper become multipole-only `Cut` nodes; leaves above it keep
    /// their particles in a compacted payload (`ship_leaves`, a LET) or are
    /// cut as well (a boundary tree).
    struct Pruned {
        nodes: Vec<Node>,
        pos: Vec<Vec3>,
        mass: Vec<f64>,
    }

    impl Pruned {
        fn of(tree: &Tree, cut_level: u32, ship_leaves: bool) -> Pruned {
            let mut out = Pruned {
                nodes: vec![tree.nodes[0]],
                pos: Vec::new(),
                mass: Vec::new(),
            };
            let mut head = 0;
            while head < out.nodes.len() {
                let node = out.nodes[head];
                let (b, e) = (node.first as usize, (node.first + node.count) as usize);
                match node.kind {
                    NodeKind::Internal if node.level < cut_level => {
                        out.nodes[head].first = out.nodes.len() as u32;
                        out.nodes.extend_from_slice(&tree.nodes[b..e]);
                    }
                    NodeKind::Leaf if ship_leaves => {
                        out.nodes[head].first = out.pos.len() as u32;
                        out.pos.extend_from_slice(&tree.particles.pos[b..e]);
                        out.mass.extend_from_slice(&tree.particles.mass[b..e]);
                    }
                    _ => {
                        out.nodes[head].kind = NodeKind::Cut;
                        out.nodes[head].first = 0;
                        out.nodes[head].count = 0;
                    }
                }
                head += 1;
            }
            out
        }

        fn view(&self) -> TreeView<'_> {
            TreeView {
                nodes: &self.nodes,
                pos: &self.pos,
                mass: &self.mass,
            }
        }
    }

    /// Tile `pos` with groups of `len` targets (the last may be shorter).
    fn groups_of_len(pos: &[Vec3], len: usize) -> Vec<Group> {
        (0..pos.len())
            .step_by(len)
            .map(|b| {
                let e = (b + len).min(pos.len());
                Group {
                    begin: b as u32,
                    end: e as u32,
                    bbox: Aabb::from_points(&pos[b..e]),
                }
            })
            .collect()
    }

    fn assert_same_bits(what: &str, got: &Forces, want: &Forces) {
        assert_eq!(got.len(), want.len(), "{what}");
        for i in 0..want.len() {
            assert!(want.acc[i].is_finite() && want.pot[i].is_finite(), "{what}: target {i}");
            let g = [got.pot[i], got.acc[i].x, got.acc[i].y, got.acc[i].z].map(f64::to_bits);
            let w = [want.pot[i], want.acc[i].x, want.acc[i].y, want.acc[i].z].map(f64::to_bits);
            assert_eq!(g, w, "{what}: target {i}");
        }
    }

    fn assert_same_stats(what: &str, got: &WalkStats, want: &WalkStats) {
        assert_eq!(got.counts, want.counts, "{what}");
        assert_eq!(got.nodes_visited, want.nodes_visited, "{what}");
        assert_eq!(got.forced_cuts, want.forced_cuts, "{what}");
    }

    #[test]
    fn lane_walk_is_bit_identical_to_the_scalar_reference() {
        let n = 300;
        // `bonsai-ic` links its own copy of this crate, so its particles
        // cross over field by field.
        let mw = bonsai_ic::MilkyWayModel::paper().generate(n, 12);
        let milky_way = Particles {
            pos: mw.pos,
            vel: mw.vel,
            mass: mw.mass,
            id: mw.id,
        };
        // Every instantiation this CPU runs, each called directly: the
        // baseline one, whose `mul_add`s are libm calls unless the build
        // enables `fma`, then `avx2,fma` and AVX-512 where the CPU has them.
        // The reference's scalar `p_c` and `p_p` dispatch like the walk does.
        let isas = Isa::supported();
        for (ic, particles) in [("clustered", plummer_like(n, 8)), ("milky-way", milky_way)] {
            let tree = Tree::build(particles, TreeParams::default());
            let targets = &tree.particles.pos;
            let let_tree = Pruned::of(&tree, 3, true);
            let boundary = Pruned::of(&tree, 2, false);
            let sources = [
                ("local", tree.view()),
                ("let", let_tree.view()),
                ("boundary", boundary.view()),
            ];
            for (source, view) in sources {
                // Every target is also a source particle of the local tree
                // and of the LET payload: at eps = 0 the coincident pair
                // must be masked, not divided by zero. (A boundary tree has
                // one-particle `Cut` cells, and p-c has no such mask.)
                let softenings: &[f64] = if source == "boundary" { &[0.01] } else { &[0.0, 0.01] };
                for &eps in softenings {
                    for quad in [true, false] {
                        let params = WalkParams {
                            g: bonsai_util::units::G,
                            use_quadrupole: quad,
                            ..WalkParams::new(0.4, eps)
                        };
                        // Every lane remainder and every amount of padding.
                        for len in 1..=48 {
                            let groups = groups_of_len(targets, len);
                            let want = reference_walk_tree(&view, targets, &groups, &params);
                            if source != "local" {
                                assert!(want.1.forced_cuts > 0, "{ic}/{source}: no Cut node forced");
                            }
                            if source != "boundary" {
                                assert!(want.1.counts.pp > 0, "{ic}/{source}: no leaf opened");
                            }
                            for &isa in &isas {
                                let (f, st) = walk_sources_on(isa, &[view], targets, &groups, &params);
                                let what = format!("{ic}/{source} eps={eps} quad={quad} len={len} {isa:?}");
                                assert_same_bits(&what, &f, &want.0);
                                assert_same_stats(&what, &st[0], &want.1);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multi_source_walk_is_bit_identical_to_per_source_walks_folded() {
        let n = 300;
        let isas = Isa::supported();
        let tree = Tree::build(plummer_like(n, 8), TreeParams::default());
        let targets = &tree.particles.pos;
        let let_tree = Pruned::of(&tree, 3, true);
        let boundary = Pruned::of(&tree, 2, false);
        let empty = TreeView {
            nodes: &[],
            pos: &[],
            mass: &[],
        };
        let forward = [tree.view(), let_tree.view(), boundary.view(), empty];
        let mut backward = forward;
        backward.reverse();
        // A boundary tree has one-particle `Cut` cells, and p-c has no mask
        // for a coincident pair: soften.
        let galactic = WalkParams { g: bonsai_util::units::G, ..WalkParams::new(0.4, 0.01) };
        for params in [WalkParams::new(0.4, 0.01), galactic] {
            for len in 1..=48 {
                let groups = groups_of_len(targets, len);
                for srcs in [&forward, &backward] {
                    // Today's cluster path: one walk per source, each result
                    // added to the first in source order.
                    let per_source: Vec<(Forces, WalkStats)> =
                        (srcs.iter()).map(|s| reference_walk_tree(s, targets, &groups, &params)).collect();
                    let mut want = per_source[0].0.clone();
                    for (f, _) in &per_source[1..] {
                        want.accumulate(f);
                    }
                    for &isa in &isas {
                        let (got, stats) = walk_sources_on(isa, srcs, targets, &groups, &params);
                        let what = format!("g={} len={len} {isa:?}", params.g);
                        assert_same_bits(&what, &got, &want);
                        assert_eq!(stats.len(), srcs.len(), "{what}");
                        for (k, (st, (_, want_st))) in stats.iter().zip(&per_source).enumerate() {
                            assert_same_stats(&format!("{what} source {k}"), st, want_st);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_negative_zero_first_partial_keeps_its_sign() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for g in [1.0, bonsai_util::units::G] {
            // The first source is assigned, as its `Forces` started the sum:
            // added to +0.0 instead, −0.0 would come out +0.0.
            let mut sum = [7.0; 4];
            fold(&mut sum, &[-0.0; 4], g, true);
            assert_eq!(bits(&sum), bits(&[-0.0; 4]), "g = {g}");
            // A later source is added, as `Forces::accumulate` adds it.
            fold(&mut sum, &[0.0; 4], g, false);
            assert_eq!(bits(&sum), bits(&[0.0; 4]), "g = {g}");
        }
    }

    fn plummer_like(n: usize, seed: u64) -> Particles {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut p = Particles::with_capacity(n);
        for i in 0..n {
            // Centrally concentrated blob: exponential radii.
            let r = -0.3 * rng.uniform_open0().ln();
            let dir = rng.unit_sphere();
            p.push(dir * r, Vec3::zero(), 1.0 / n as f64, i as u64);
        }
        p
    }

    #[test]
    fn tree_forces_converge_to_direct_as_theta_shrinks() {
        let n = 800;
        let tree = Tree::build(plummer_like(n, 1), TreeParams::default());
        let (direct, _) = direct_self_forces(&tree.particles, 0.01, 1.0);
        let mut prev_err = f64::INFINITY;
        for &theta in &[0.8, 0.4, 0.2] {
            let (forces, _) = self_gravity(&tree, &WalkParams::new(theta, 0.01));
            let err = forces.rms_rel_acc_error(&direct);
            assert!(err < prev_err, "error must shrink with theta: {err} !< {prev_err}");
            prev_err = err;
        }
        // θ = 0.4 should already be quite accurate with quadrupoles.
        let (forces, _) = self_gravity(&tree, &WalkParams::new(0.4, 0.01));
        assert!(forces.rms_rel_acc_error(&direct) < 2e-3);
    }

    #[test]
    fn zero_theta_walk_equals_direct() {
        let tree = Tree::build(plummer_like(200, 2), TreeParams::default());
        let (direct, dc) = direct_self_forces(&tree.particles, 0.05, 1.0);
        let (forces, ws) = self_gravity(&tree, &WalkParams::new(0.0, 0.05));
        assert!(forces.max_rel_acc_error(&direct) < 1e-12);
        // All interactions degenerate to p-p and the counts agree with
        // direct summation (including self-pairs the kernel skips).
        assert_eq!(ws.counts.pc, 0);
        assert_eq!(ws.counts.pp, dc.pp + tree.len() as u64); // walk visits self too
    }

    /// CRC-64 over the bits of every `(φ, ax, ay, az)`, in target order.
    fn force_digest(f: &Forces) -> u64 {
        let mut crc = bonsai_util::hash::Crc64::new();
        for i in 0..f.len() {
            for v in [f.pot[i], f.acc[i].x, f.acc[i].y, f.acc[i].z] {
                crc.update(&v.to_bits().to_le_bytes());
            }
        }
        crc.finish()
    }

    #[test]
    fn division_free_particle_particle_digests_are_pinned() {
        // Direct summation and a θ = 0 walk run nothing but p-p, whose
        // `1/√r²` is the division-free `rsqrt` (see `kernels`). These digests
        // were taken when it replaced the `sqrt` + `div` pair; an edit that
        // changes p-p's arithmetic or its order has to change them knowingly.
        let ic = bonsai_ic::plummer_sphere(512, 2014);
        let particles = Particles {
            pos: ic.pos,
            vel: ic.vel,
            mass: ic.mass,
            id: ic.id,
        };
        let tree = Tree::build(particles, TreeParams::default());
        let digests = [0.0, 0.01].map(|eps| {
            let (direct, _) = direct_self_forces(&tree.particles, eps, 1.0);
            let (walk, ws) = self_gravity(&tree, &WalkParams::new(0.0, eps));
            assert_eq!(ws.counts.pc, 0, "θ = 0 accepts no cell");
            [force_digest(&direct), force_digest(&walk)]
        });
        let pinned = [
            [0xb2fff6c0c252ae34_u64, 0xf71cdacb64c11342],
            [0x643360dde109cfd8, 0xbc2cbe95d2b6c25c],
        ];
        assert_eq!(digests, pinned, "[direct, θ = 0 walk] at ε = 0, 0.01: {digests:#018x?}");
    }

    #[test]
    fn interaction_cost_grows_as_theta_shrinks() {
        let tree = Tree::build(plummer_like(3000, 3), TreeParams::default());
        let mut prev = 0u64;
        for &theta in &[0.8, 0.55, 0.4] {
            let (_, ws) = self_gravity(&tree, &WalkParams::new(theta, 0.01));
            assert!(ws.counts.flops() > prev, "flops must grow as theta shrinks");
            prev = ws.counts.flops();
        }
    }

    #[test]
    fn forces_are_finite_and_sum_to_zero() {
        // Momentum conservation: Σ m a ≈ 0 for self-gravity at θ=0 (exact
        // pairwise antisymmetry); small at finite θ.
        let tree = Tree::build(plummer_like(500, 4), TreeParams::default());
        let (forces, _) = self_gravity(&tree, &WalkParams::new(0.0, 0.02));
        let mut net = Vec3::zero();
        let mut scale = 0.0;
        for i in 0..tree.len() {
            assert!(forces.acc[i].is_finite());
            net += forces.acc[i] * tree.particles.mass[i];
            scale += (forces.acc[i] * tree.particles.mass[i]).norm();
        }
        assert!(net.norm() < 1e-12 * scale, "net force {net} vs scale {scale}");
    }

    #[test]
    fn g_scaling_applies() {
        let tree = Tree::build(plummer_like(100, 5), TreeParams::default());
        let (f1, _) = self_gravity(&tree, &WalkParams::new(0.4, 0.01));
        let p2 = WalkParams {
            g: 2.0,
            ..WalkParams::new(0.4, 0.01)
        };
        let (f2, _) = self_gravity(&tree, &p2);
        for i in 0..tree.len() {
            assert!((f2.acc[i] - f1.acc[i] * 2.0).norm() < 1e-12 * f1.acc[i].norm().max(1e-30));
            assert!((f2.pot[i] - f1.pot[i] * 2.0).abs() < 1e-12 * f1.pot[i].abs().max(1e-30));
        }
    }

    #[test]
    fn monopole_only_is_less_accurate_at_same_theta() {
        let tree = Tree::build(plummer_like(1500, 9), TreeParams::default());
        let (direct, _) = direct_self_forces(&tree.particles, 0.01, 1.0);
        let params = WalkParams::new(0.5, 0.01);
        let (fq, cq) = self_gravity(&tree, &params);
        let (fm, cm) = self_gravity(&tree, &params.monopole_only());
        let eq = fq.rms_rel_acc_error(&direct);
        let em = fm.rms_rel_acc_error(&direct);
        assert!(
            em > 3.0 * eq,
            "monopole ({em}) should be much worse than quadrupole ({eq})"
        );
        // Same traversal, same interaction counts — only the kernel differs.
        assert_eq!(cq.counts, cm.counts);
    }

    #[test]
    fn empty_inputs() {
        let tree = Tree::build(Particles::new(), TreeParams::default());
        let (f, ws) = self_gravity(&tree, &WalkParams::default());
        assert!(f.is_empty());
        assert_eq!(ws.counts, InteractionCounts::zero());
    }

    #[test]
    fn walk_against_foreign_targets() {
        // Source tree and an unrelated set of probe targets: compare with a
        // brute-force sum over the sources.
        let src_tree = Tree::build(plummer_like(600, 6), TreeParams::default());
        let mut rng = Xoshiro256::seed_from(7);
        let probes: Vec<Vec3> = (0..64).map(|_| rng.unit_sphere() * 3.0).collect();
        let groups = vec![crate::node::Group {
            begin: 0,
            end: probes.len() as u32,
            bbox: bonsai_util::Aabb::from_points(&probes),
        }];
        let (f, _) = walk_tree(&src_tree.view(), &probes, &groups, &WalkParams::new(0.3, 0.0));
        // brute force
        for (i, &t) in probes.iter().enumerate() {
            let mut a = Vec3::zero();
            for j in 0..src_tree.len() {
                let (_, da) = p_p(t, src_tree.particles.pos[j], src_tree.particles.mass[j], 0.0);
                a += da;
            }
            let err = (f.acc[i] - a).norm() / a.norm();
            assert!(err < 5e-3, "probe {i}: err {err}");
        }
    }
}
