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
//! to all of them (`__shfl`). Here a SIMD lane plays the thread: each group
//! transposes its targets into structure-of-arrays lane rows (x, y, z in
//! `f64`, padded to a whole number of 16-lane blocks by repeating the
//! group's last target), keeps its sums (φ, ax, ay, az) in `f32` rows of
//! the same layout, and hands every interaction to a lane kernel
//! ([`crate::kernels`]) whose loop over lanes is a plain map — one
//! broadcast source, no reduction across lanes — which the compiler
//! vectorises at whatever width the instruction set offers. The kernels do
//! the paper's single-precision arithmetic: each lane takes its separation
//! from the source in `f64`, rounds it once to `f32`, and evaluates the p-p
//! or p-c term in `f32`. One walk of one source sums in `f32`; the sums are
//! widened to `f64` once, at the end of it, and G is applied there. The
//! traversal itself (stack order, one MAC test per node against the
//! group's bounding box) is scalar and shared by the whole group, as on the
//! GPU.
//!
//! **Determinism contract.** Every lane performs exactly the scalar walk's
//! operation sequence on its own target: the rounded separation, then
//! `p_c_add32` per accepted cell, and per opened leaf a `p_p_add32` sum
//! started from zero and then added to the lane's sum, in traversal order.
//! All of it is lane-wise IEEE-754 arithmetic — the `f64` subtraction, its
//! rounding to the nearest `f32`, and `f32` multiplies, adds and
//! `mul_add`s, which are IEEE fusedMultiplyAdd, the same value from one
//! `vfmadd…ps` lane as from libm's `fmaf`. The kernels fuse where they say
//! `mul_add` and nowhere else, because Rust neither contracts `a * b + c` on
//! its own nor reassociates, and `1/√r²` is the software `rsqrt32`, never
//! a hardware estimate whose bits differ between instruction sets; so a
//! lane's result does not depend on how many lanes run beside it or on
//! which instantiation ran it. Padding lanes compute ordinary values that
//! are never read back and never counted. Forces are therefore
//! `to_bits`-identical at every vector width and on every machine (and,
//! through the `bonsai-par` contract, every thread count); the
//! lane-conformance test below holds every instantiation the CPU runs to a
//! scalar `f32` reference walk.
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
//! `mul_add` is a libm call (28 in p-c, and p-p's `rsqrt32` makes six).
//! Other targets use the baseline instantiation, where `mul_add` is
//! whatever the target's baseline offers. There is nothing to configure:
//! no precision switch either — the walk is `f32`, direct summation `f64`.
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
//! separately (§III-B2): per group, its `f32` sum starts from zero, and
//! `sum × G` in `f64` is folded into the group's running sum in source order, so
//! the result is `to_bits`-equal to one [`walk_tree`] per source added up
//! with [`Forces::accumulate`]. [`walk_tree`] is the one-source case. Summed
//! over all sources, the forces reproduce the global gravitational field —
//! the key correctness property the integration tests assert.

use crate::forces::{Forces, InteractionCounts};
use crate::kernels::{p_c_lanes32, p_p_lanes32, Isa, LANES};
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
/// `tgt_pos`, in one pass: each group transposes its targets once and
/// walks every source in order. Returns the forces (G applied) and one
/// [`WalkStats`] per source.
///
/// The forces are `to_bits`-equal to [`walk_tree`] per source followed by
/// [`Forces::accumulate`] in source order: each source's `f32` sum starts
/// from zero as it would in its own call, and `sum × G`, widened to `f64`,
/// is then assigned to the running sum (first source) or added to it
/// (every later one).
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
    let eps2 = (params.eps * params.eps) as f32;

    // Each group owns its slice of the output and, while it walks, one
    // window of lane rows `padded(g.len())` lanes long: target x, y, z in
    // `f64`, and the `f32` sums φ, ax, ay, az of the source being walked.
    // Padding lanes repeat the group's last target so they compute ordinary
    // finite values; they are never read back and never counted.
    let mut group_stats = vec![WalkStats::default(); groups.len() * srcs.len()];
    let mut work = Vec::with_capacity(groups.len());
    let (mut pot_rest, mut acc_rest) = (&mut forces.pot[..], &mut forces.acc[..]);
    let mut st_rest = &mut group_stats[..];
    for g in groups {
        let (pot, tail) = pot_rest.split_at_mut(g.len());
        pot_rest = tail;
        let (acc, tail) = acc_rest.split_at_mut(g.len());
        acc_rest = tail;
        let (st, tail) = st_rest.split_at_mut(srcs.len());
        st_rest = tail;
        work.push((g, pot, acc, st));
    }

    // One fan-out over the groups; each group walks every source in order
    // and records one stats entry per source.
    let quad = params.use_quadrupole;
    work.into_par_iter().for_each(|(group, pot, acc, per_source)| {
        let p = padded(group.len());
        let members = &tgt_pos[group.begin as usize..group.end as usize];
        let mut t = vec![0.0f64; 3 * p];
        for l in 0..p {
            let m = members.get(l).unwrap_or(&members[members.len() - 1]);
            [t[l], t[p + l], t[2 * p + l]] = [m.x, m.y, m.z];
        }
        let mut s = vec![0.0f32; 4 * p];
        for (k, (src, st)) in srcs.iter().zip(per_source).enumerate() {
            s.fill(0.0);
            if !src.is_empty() {
                *st = walk_group_on(isa, src, group, &mac, eps2, quad, &t, &mut s);
            }
            for (l, (pot, acc)) in pot.iter_mut().zip(acc.iter_mut()).enumerate() {
                let [phi, ax, ay, az] = [0, 1, 2, 3].map(|r| f64::from(s[r * p + l]) * params.g);
                fold(pot, phi, k == 0);
                fold(&mut acc.x, ax, k == 0);
                fold(&mut acc.y, ay, k == 0);
                fold(&mut acc.z, az, k == 0);
            }
        }
    });
    for per_source in group_stats.chunks(srcs.len()) {
        for (total, st) in stats.iter_mut().zip(per_source) {
            total.merge(st);
        }
    }
    (forces, stats)
}

/// Fold one source's term `x` — its `f32` sum widened and multiplied by G,
/// the value [`walk_tree`] would have returned for that source — into the
/// running sum. The first source is assigned, not added to +0.0, so a −0.0
/// term keeps its sign, exactly as when its `Forces` started the sum; later
/// sources are added in order, as [`Forces::accumulate`] adds them.
fn fold(sum: &mut f64, x: f64, first: bool) {
    if first {
        *sum = x;
    } else {
        *sum += x;
    }
}

/// Lane count of a group of `len` targets: `len` rounded up to whole blocks.
fn padded(len: usize) -> usize {
    len.div_ceil(LANES) * LANES
}

/// [`walk_group`] on instantiation `isa`; `targets` holds the group's three
/// target rows and `sums` its four `f32` sum rows.
#[allow(clippy::too_many_arguments)]
fn walk_group_on(
    isa: Isa,
    src: &TreeView<'_>,
    group: &Group,
    mac: &OpeningCriterion,
    eps2: f32,
    quad: bool,
    targets: &[f64],
    sums: &mut [f32],
) -> WalkStats {
    match isa {
        Isa::Plain => walk_group(src, group, mac, eps2, quad, targets, sums),
        // SAFETY: `walk_group_avx2_fma` requires only that the CPU supports
        // AVX2 and FMA, and `Isa::Avx2Fma` exists only where `Isa::detect`
        // saw `is_x86_feature_detected!` report both on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { walk_group_avx2_fma(src, group, mac, eps2, quad, targets, sums) },
        // SAFETY: `walk_group_avx512` requires only that the CPU supports
        // AVX-512 F and VL, AVX2 and FMA, and `Isa::Avx512` exists only
        // where `Isa::detect` saw `is_x86_feature_detected!` report all four.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { walk_group_avx512(src, group, mac, eps2, quad, targets, sums) },
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
    eps2: f32,
    use_quadrupole: bool,
    targets: &[f64],
    sums: &mut [f32],
) -> WalkStats {
    walk_group(src, group, mac, eps2, use_quadrupole, targets, sums)
}

/// [`walk_group`] compiled a third time with AVX-512 as well, so a 16-lane
/// block is one 512-bit vector of `f32` (two of `f64` targets). Same
/// source, same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
fn walk_group_avx512(
    src: &TreeView<'_>,
    group: &Group,
    mac: &OpeningCriterion,
    eps2: f32,
    use_quadrupole: bool,
    targets: &[f64],
    sums: &mut [f32],
) -> WalkStats {
    walk_group(src, group, mac, eps2, use_quadrupole, targets, sums)
}

/// Walk a single group: iterative stack traversal against the group's
/// bounding box, every accepted cell and opened leaf evaluated at once on
/// all of the group's target lanes, summed into `sums` in `f32`.
#[inline(always)]
fn walk_group(
    src: &TreeView<'_>,
    group: &Group,
    mac: &OpeningCriterion,
    eps2: f32,
    use_quadrupole: bool,
    targets: &[f64],
    sums: &mut [f32],
) -> WalkStats {
    const ZERO_QUAD: bonsai_util::Sym3 = bonsai_util::Sym3 { m: [0.0; 6] };
    let mut stats = WalkStats::default();
    let count = group.len() as u64;
    // Separate slices per row: the lane kernels need to know that targets
    // and sums cannot alias.
    let p = targets.len() / 3;
    let (tx, rest) = targets.split_at(p);
    let (ty, tz) = rest.split_at(p);
    let (phi, rest) = sums.split_at_mut(p);
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
                p_p_lanes32(tx, ty, tz, &src.pos[b..e], &src.mass[b..e], eps2, phi, ax, ay, az);
                stats.counts.pp += count * (e - b) as u64;
            }
            kind => {
                // Accepted — or a `Cut` node the LET promised would never be
                // opened: honour the promise with a p-c but record the
                // violation. One particle-cell interaction per target.
                let quad = if use_quadrupole { &node.quad } else { &ZERO_QUAD };
                p_c_lanes32(tx, ty, tz, node.com, node.mass, quad, eps2, phi, ax, ay, az);
                stats.counts.pc += count;
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
    use crate::kernels::{p_c_add32, p_p, p_p_add32, Cell32};
    use crate::node::Node;
    use crate::particles::Particles;
    use bonsai_util::rng::Xoshiro256;
    use bonsai_util::Aabb;

    /// The scalar reference: the group walk one target at a time, with the
    /// lane kernels' per-lane `f32` operations — the separation taken in
    /// `f64` and rounded once, [`p_c_add32`] per accepted cell, a
    /// [`p_p_add32`] sum per opened leaf started from zero and then added —
    /// into one `f32` sum per target. The lane walk must match it bit for
    /// bit.
    fn reference_walk_group(
        src: &TreeView<'_>,
        tgt_pos: &[Vec3],
        group: &Group,
        mac: &OpeningCriterion,
        eps2: f32,
        use_quadrupole: bool,
        sums: &mut [[f32; 4]],
    ) -> WalkStats {
        const ZERO_QUAD: bonsai_util::Sym3 = bonsai_util::Sym3 { m: [0.0; 6] };
        let d = |s: Vec3, t: Vec3| [(s.x - t.x) as f32, (s.y - t.y) as f32, (s.z - t.z) as f32];
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
            let cell = Cell32::new(node.mass, if use_quadrupole { &node.quad } else { &ZERO_QUAD });
            match node.kind {
                _ if !open => {
                    for (s, &t) in sums.iter_mut().zip(targets) {
                        *s = p_c_add32(d(node.com, t), &cell, eps2, *s);
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
                    for (s, &t) in sums.iter_mut().zip(targets) {
                        let mut part = [0.0f32; 4];
                        for j in b..e {
                            part = p_p_add32(d(src.pos[j], t), src.mass[j] as f32, eps2, part);
                        }
                        *s = [0, 1, 2, 3].map(|r| s[r] + part[r]);
                    }
                    stats.counts.pp += (targets.len() * (e - b)) as u64;
                }
                NodeKind::Cut => {
                    for (s, &t) in sums.iter_mut().zip(targets) {
                        *s = p_c_add32(d(node.com, t), &cell, eps2, *s);
                    }
                    stats.counts.pc += targets.len() as u64;
                    stats.forced_cuts += 1;
                }
            }
        }
        stats
    }

    /// [`walk_tree`] over [`reference_walk_group`], sequentially: each
    /// target's `f32` sums widened, then G applied. An empty source exerts
    /// no force.
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
        let mut sums = vec![[0.0f32; 4]; tgt_pos.len()];
        for g in groups {
            let (b, e) = (g.begin as usize, g.end as usize);
            let eps2 = (params.eps * params.eps) as f32;
            stats.merge(&reference_walk_group(src, tgt_pos, g, &mac, eps2, params.use_quadrupole, &mut sums[b..e]));
        }
        for (i, [phi, ax, ay, az]) in sums.into_iter().enumerate() {
            forces.pot[i] = f64::from(phi);
            forces.acc[i] = Vec3::new(f64::from(ax), f64::from(ay), f64::from(az));
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
        // The first source is assigned, as its `Forces` started the sum:
        // added to +0.0 instead, −0.0 would come out +0.0.
        let mut sum = 7.0;
        fold(&mut sum, -0.0, true);
        assert_eq!(sum.to_bits(), (-0.0f64).to_bits());
        // A later source is added, as `Forces::accumulate` adds it.
        fold(&mut sum, 0.0, false);
        assert_eq!(sum.to_bits(), 0.0f64.to_bits());
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
        // The walk's p-p terms are `f32`: about eight roundings of 2⁻²⁴ each
        // (separation, r², rsqrt, three products, the fused add), and a
        // further 8× for cancellation in a 200-term sum.
        let err = forces.max_rel_acc_error(&direct);
        assert!(err < 64.0 * F32_ROUNDOFF, "max relative error {err:e}");
        // All interactions degenerate to p-p and the counts agree with
        // direct summation (including self-pairs the kernel skips).
        assert_eq!(ws.counts.pc, 0);
        assert_eq!(ws.counts.pp, dc.pp + tree.len() as u64); // walk visits self too
    }

    #[test]
    fn the_separation_is_taken_in_f64() {
        // Three pairs 1e-7, 1e-8 and 1e-9 apart inside a group 0.1 wide
        // about 1 from the origin, among a background that gives the walk
        // cells to accept. At ε = 0 each pair's mutual force dominates its
        // members' field, so their walk force is as exact as the pair term:
        // a separation rounded once from `f64` holds it to a few `f32`
        // ulps, where `f32` positions relative to any point of the group
        // (a few 1e-9 off) would lose most of a 1e-9 separation.
        let mut rng = Xoshiro256::seed_from(43);
        let centre = Vec3::new(0.6, 0.7, 0.3);
        let mut p = Particles::new();
        for i in 0..400 {
            p.push(rng.unit_sphere() * rng.uniform_in(0.3, 3.0), Vec3::zero(), 1.0 / 512.0, i);
        }
        let mut targets: Vec<Vec3> = (0..40).map(|_| centre + rng.unit_sphere() * 0.05).collect();
        for sep in [1e-7, 1e-8, 1e-9] {
            let a = centre + rng.unit_sphere() * 0.04;
            targets.extend([a, a + rng.unit_sphere() * sep]);
        }
        for (i, &t) in targets.iter().enumerate() {
            p.push(t, Vec3::zero(), 1.0 / 512.0, 400 + i as u64);
        }
        let tree = Tree::build(p, TreeParams::default());
        let groups = [Group {
            begin: 0,
            end: targets.len() as u32,
            bbox: Aabb::from_points(&targets),
        }];
        let (walk, stats) = walk_tree(&tree.view(), &targets, &groups, &WalkParams::new(0.4, 0.0));
        assert!(stats.counts.pc > 0, "no cell accepted");
        let (direct, _) =
            crate::direct::direct_forces(&targets, &tree.particles.pos, &tree.particles.mass, 0.0, 1.0, false);
        for i in 40..targets.len() {
            let err = (walk.acc[i] - direct.acc[i]).norm() / direct.acc[i].norm();
            assert!(err < 1e-5, "pair member {i}: relative error {err:e}");
        }
    }

    /// The unit round-off of `f32` arithmetic, 2⁻²⁴: the scale of the walk's
    /// error against `f64` direct summation at θ = 0.
    const F32_ROUNDOFF: f64 = f32::EPSILON as f64 / 2.0;

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
        // `1/√r²` is the division-free `rsqrt` (see `kernels`): `f64` for
        // direct summation, `rsqrt32` in the walk's `f32` kernel. The direct
        // digests were taken when `rsqrt` replaced the `sqrt` + `div` pair,
        // the walk's when its kernels became `f32`; an edit that changes
        // either arithmetic or its order has to change them knowingly.
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
            [0xb2fff6c0c252ae34_u64, 0xdb3d9f8b6f6f2580],
            [0x643360dde109cfd8, 0xe9dbaeaaae0c470d],
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
        // Momentum conservation: Σ m a ≈ 0 for self-gravity at θ=0. The
        // pair terms cancel exactly (the rounded separation is odd in s − t
        // and the masses are equal), so what is left is each target's `f32`
        // summation round-off: a few units of 2⁻²⁴ of the scale.
        let tree = Tree::build(plummer_like(500, 4), TreeParams::default());
        let (forces, _) = self_gravity(&tree, &WalkParams::new(0.0, 0.02));
        let mut net = Vec3::zero();
        let mut scale = 0.0;
        for i in 0..tree.len() {
            assert!(forces.acc[i].is_finite());
            net += forces.acc[i] * tree.particles.mass[i];
            scale += (forces.acc[i] * tree.particles.mass[i]).norm();
        }
        assert!(net.norm() < 8.0 * F32_ROUNDOFF * scale, "net force {net} vs scale {scale}");
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
