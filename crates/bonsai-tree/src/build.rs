//! Octree construction over SFC-sorted particles.
//!
//! Mirrors the paper's GPU pipeline (§III-A): particles are sorted by their
//! space-filling-curve keys, then key ranges are split by successive 3-bit
//! octant digits until a range holds at most [`crate::NLEAF`] particles. A
//! breadth-first layout keeps the children of every internal node contiguous.
//! Two upward passes then compute (mass, centre of mass, tight boxes) and the
//! quadrupole moments about each cell's own centre of mass via the parallel
//! axis theorem.
//!
//! Because the keys are SFC keys over a *global* root cube, every local tree
//! built with a shared [`KeyMap`] is a non-overlapping branch of a
//! hypothetical global octree — the property (§III-B1) that lets ranks use
//! boundary trees as LETs and process remote LETs without merging.

use crate::node::{Group, Node, NodeKind, TreeView};
use crate::particles::Particles;
use crate::NLEAF;
use bonsai_sfc::{Curve, KeyMap, MAX_LEVEL};
use bonsai_util::{Aabb, Sym3, Vec3};
use rayon::prelude::*;

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Leaf capacity; the paper uses 16.
    pub nleaf: usize,
    /// Space-filling curve used for the sort.
    pub curve: Curve,
    /// Target size of walk groups (consecutive leaves are merged up to this).
    pub group_size: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            nleaf: NLEAF,
            curve: Curve::Hilbert,
            group_size: 2 * NLEAF,
        }
    }
}

/// A built octree owning its (key-sorted) particles.
#[derive(Clone, Debug)]
pub struct Tree {
    /// Build parameters.
    pub params: TreeParams,
    /// Global key geometry used for the sort.
    pub keymap: KeyMap,
    /// Nodes in BFS order; `nodes[0]` is the root.
    pub nodes: Vec<Node>,
    /// Particles sorted by key.
    pub particles: Particles,
    /// Sorted keys, parallel to `particles`.
    pub keys: Vec<u64>,
    /// `origin[i]` = index the sorted particle `i` had in the input.
    pub origin: Vec<u32>,
    /// Walk groups tiling `0..n` in sorted order.
    pub groups: Vec<Group>,
}

impl Tree {
    /// Build a tree over `particles`, deriving the root cube from their
    /// bounding box.
    pub fn build(particles: Particles, params: TreeParams) -> Tree {
        let bounds = if particles.is_empty() {
            Aabb::cube(Vec3::zero(), 1.0)
        } else {
            particles.bounds()
        };
        let keymap = KeyMap::new(&bounds, params.curve);
        Self::build_with_keymap(particles, keymap, params)
    }

    /// Build with an externally supplied (e.g. globally agreed) key map.
    pub fn build_with_keymap(particles: Particles, keymap: KeyMap, params: TreeParams) -> Tree {
        let keys: Vec<u64> = particles.pos.par_iter().map(|&p| keymap.key_of(p)).collect();
        Self::build_with_keys(particles, keys, keymap, params)
    }

    /// Build from the particles' keys under `keymap`, computed by the
    /// caller (`keys[i]` is `keymap.key_of(particles.pos[i])`, which debug
    /// builds check): a distributed step keys each particle once, when it
    /// updates the domains, and carries the keys to the build.
    pub fn build_with_keys(
        mut particles: Particles,
        raw_keys: Vec<u64>,
        keymap: KeyMap,
        params: TreeParams,
    ) -> Tree {
        assert!(params.nleaf > 0);
        let n = particles.len();
        assert_eq!(raw_keys.len(), n, "one key per particle");
        debug_assert!(
            (raw_keys.iter().zip(&particles.pos)).all(|(&k, &p)| k == keymap.key_of(p)),
            "a supplied key is not its particle's key under the key map"
        );

        // --- SFC sort -----------------------------------------------------
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_unstable_by_key(|&i| raw_keys[i as usize]);
        particles.permute(&perm);
        let keys: Vec<u64> = perm.iter().map(|&i| raw_keys[i as usize]).collect();

        // --- topology: BFS split by octant digits --------------------------
        let mut nodes: Vec<Node> = Vec::new();
        if n > 0 {
            nodes.push(Self::blank_node(&keymap, &keys, 0, n as u32, 0));
            let mut head = 0usize;
            while head < nodes.len() {
                let (begin, end, level) =
                    (nodes[head].first, nodes[head].first + nodes[head].count, nodes[head].level);
                let count = (end - begin) as usize;
                if count <= params.nleaf || level == MAX_LEVEL {
                    nodes[head].kind = NodeKind::Leaf;
                    head += 1;
                    continue;
                }
                // Split `begin..end` at octant-digit boundaries of `level+1`.
                let shift = 3 * (MAX_LEVEL - (level + 1));
                let first_child = nodes.len() as u32;
                let mut nchild = 0u32;
                let mut lo = begin;
                for digit in 0..8u64 {
                    let upper = (digit + 1) << shift;
                    // First key value whose level-(L+1) digit exceeds `digit`:
                    // the node's common prefix plus (digit+1)·8^(MAX-L-1).
                    // Addition, not OR — the prefix may have the carry bit set.
                    let prefix = keys[begin as usize] >> (shift + 3) << (shift + 3);
                    let bound = prefix + upper;
                    let hi = begin
                        + keys[begin as usize..end as usize].partition_point(|&k| k < bound) as u32;
                    if hi > lo {
                        nodes.push(Self::blank_node(&keymap, &keys, lo, hi - lo, level + 1));
                        nchild += 1;
                    }
                    lo = hi;
                    if lo == end {
                        break;
                    }
                }
                debug_assert_eq!(lo, end, "octant split lost particles");
                nodes[head].first = first_child;
                nodes[head].count = nchild;
                nodes[head].kind = NodeKind::Internal;
                head += 1;
            }
        }

        // --- upward passes --------------------------------------------------
        Self::compute_moments(&mut nodes, &particles);

        // --- walk groups ----------------------------------------------------
        let groups = Self::compute_groups(&nodes, &particles, params.group_size);

        Tree {
            params,
            keymap,
            nodes,
            particles,
            keys,
            origin: perm,
            groups,
        }
    }

    fn blank_node(keymap: &KeyMap, keys: &[u64], first: u32, count: u32, level: u32) -> Node {
        let cell = keymap.cell_aabb(keys[first as usize], level);
        Node {
            com: Vec3::zero(),
            mass: 0.0,
            quad: Sym3::zero(),
            bbox: Aabb::empty(),
            geo_center: cell.center(),
            geo_half: 0.5 * cell.size().x,
            first,
            count,
            kind: NodeKind::Leaf, // provisional; flipped to Internal when split
            level,
        }
    }

    /// Upward passes: (mass, COM, tight box) then quadrupoles about own COM.
    ///
    /// BFS order makes every level a contiguous node range with children of
    /// level-L nodes living strictly after the level's end, so the pass runs
    /// level-synchronized from the deepest level up: nodes *within* a level
    /// have no dependencies on each other and are processed in parallel.
    /// Each node's arithmetic is identical to the old sequential reverse
    /// sweep, so the resulting moments are bit-identical at any thread count.
    fn compute_moments(nodes: &mut [Node], particles: &Particles) {
        // Level ranges (BFS appends children in nondecreasing level order).
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut start = 0usize;
        for i in 1..=nodes.len() {
            if i == nodes.len() || nodes[i].level != nodes[start].level {
                ranges.push((start, i));
                start = i;
            }
        }
        for &(b, e) in ranges.iter().rev() {
            // Children of this level sit at indices >= e: borrow them
            // immutably while the level itself is mutated in parallel.
            let (head, deeper) = nodes.split_at_mut(e);
            let level_nodes = &mut head[b..e];
            let deeper = &*deeper;
            level_nodes.par_iter_mut().for_each(|node| match node.kind {
                NodeKind::Leaf => Self::leaf_moments(node, particles),
                NodeKind::Internal => {
                    debug_assert!(node.first as usize >= e, "child before level end");
                    Self::internal_moments(node, deeper, e);
                }
                NodeKind::Cut => unreachable!("local trees have no Cut nodes"),
            });
        }
    }

    /// Moments of a leaf from its particle range.
    fn leaf_moments(node: &mut Node, particles: &Particles) {
        let (b, e) = (node.first as usize, (node.first + node.count) as usize);
        let mut mass = 0.0;
        let mut com = Vec3::zero();
        let mut bbox = Aabb::empty();
        for j in b..e {
            mass += particles.mass[j];
            com += particles.pos[j] * particles.mass[j];
            bbox.grow(particles.pos[j]);
        }
        com /= mass.max(f64::MIN_POSITIVE);
        let mut quad = Sym3::zero();
        for j in b..e {
            quad += Sym3::outer(particles.pos[j] - com, particles.mass[j]);
        }
        node.mass = mass;
        node.com = com;
        node.bbox = bbox;
        node.quad = quad;
    }

    /// Moments of an internal node from its (already finished) children,
    /// which live in `deeper` at indices offset by `base`.
    fn internal_moments(node: &mut Node, deeper: &[Node], base: usize) {
        let (b, e) = (node.first as usize - base, (node.first + node.count) as usize - base);
        let mut mass = 0.0;
        let mut com = Vec3::zero();
        let mut bbox = Aabb::empty();
        let children = &deeper[b..e];
        for child in children {
            mass += child.mass;
            com += child.com * child.mass;
            bbox.merge(&child.bbox);
        }
        com /= mass.max(f64::MIN_POSITIVE);
        // Parallel axis theorem: shift each child quadrupole from the child
        // COM to this node's COM.
        let mut quad = Sym3::zero();
        for child in children {
            let d = child.com - com;
            quad += child.quad + Sym3::outer(d, child.mass);
        }
        node.mass = mass;
        node.com = com;
        node.bbox = bbox;
        node.quad = quad;
    }

    /// Merge consecutive leaves into walk groups of at most `group_size`
    /// particles (leaves never split, so a group is a whole number of leaves).
    fn compute_groups(nodes: &[Node], particles: &Particles, group_size: usize) -> Vec<Group> {
        let mut leaves: Vec<(u32, u32)> = nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Leaf)
            .map(|n| (n.first, n.first + n.count))
            .collect();
        leaves.sort_unstable();
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        let mut begin = 0u32;
        let mut end = 0u32;
        for (b, e) in leaves {
            debug_assert_eq!(b, end, "leaves must tile the particle range");
            if (e - begin) as usize > group_size && end > begin {
                ranges.push((begin, end));
                begin = b;
            }
            end = e;
        }
        if end > begin {
            ranges.push((begin, end));
        }
        // Tight boxes touch every particle once — fan the groups out.
        ranges
            .par_iter()
            .map(|&(b, e)| Self::make_group(particles, b, e))
            .collect()
    }

    fn make_group(particles: &Particles, begin: u32, end: u32) -> Group {
        let mut bbox = Aabb::empty();
        for j in begin..end {
            bbox.grow(particles.pos[j as usize]);
        }
        Group { begin, end, bbox }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// `true` if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Borrow as a walkable view.
    pub fn view(&self) -> TreeView<'_> {
        TreeView {
            nodes: &self.nodes,
            pos: &self.particles.pos,
            mass: &self.particles.mass,
        }
    }

    /// Scatter a per-sorted-particle array back to input order.
    pub fn unsort<T: Copy + Default>(&self, sorted_values: &[T]) -> Vec<T> {
        assert_eq!(sorted_values.len(), self.len());
        let mut out = vec![T::default(); self.len()];
        for (i, &o) in self.origin.iter().enumerate() {
            out[o as usize] = sorted_values[i];
        }
        out
    }

    /// Structural invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.len();
        if n == 0 {
            if !self.nodes.is_empty() {
                return Err("empty tree with nodes".into());
            }
            return Ok(());
        }
        // keys sorted
        if !self.keys.windows(2).all(|w| w[0] <= w[1]) {
            return Err("keys not sorted".into());
        }
        // leaves tile 0..n exactly
        let mut leaves: Vec<(u32, u32)> = self
            .nodes
            .iter()
            .filter(|x| x.kind == NodeKind::Leaf)
            .map(|x| (x.first, x.first + x.count))
            .collect();
        leaves.sort_unstable();
        let mut cursor = 0u32;
        for (b, e) in &leaves {
            if *b != cursor {
                return Err(format!("leaf gap at {cursor}"));
            }
            cursor = *e;
        }
        if cursor != n as u32 {
            return Err("leaves do not cover all particles".into());
        }
        // mass conservation
        let root_mass = self.nodes[0].mass;
        let total = self.particles.total_mass();
        if (root_mass - total).abs() > 1e-9 * total.abs().max(1.0) {
            return Err(format!("root mass {root_mass} != total {total}"));
        }
        // root COM
        let com = self.particles.center_of_mass();
        if (self.nodes[0].com - com).norm() > 1e-9 * (com.norm() + 1.0) {
            return Err("root COM mismatch".into());
        }
        // parent boxes contain children; particles inside leaf boxes
        for (i, node) in self.nodes.iter().enumerate() {
            match node.kind {
                NodeKind::Internal => {
                    for c in node.first..node.first + node.count {
                        let child = &self.nodes[c as usize];
                        if child.level != node.level + 1 {
                            return Err(format!("child level wrong at node {i}"));
                        }
                        let padded = node.bbox.padded(1e-12);
                        if !padded.contains_box(&child.bbox) {
                            return Err(format!("child bbox escapes parent at node {i}"));
                        }
                    }
                }
                NodeKind::Leaf => {
                    for j in node.first..node.first + node.count {
                        if !node.bbox.contains(self.particles.pos[j as usize]) {
                            return Err(format!("particle {j} outside leaf bbox"));
                        }
                    }
                    if node.count as usize > self.params.nleaf && node.level < MAX_LEVEL {
                        return Err(format!("over-full leaf at node {i}"));
                    }
                }
                NodeKind::Cut => return Err("Cut node in local tree".into()),
            }
        }
        // groups tile 0..n
        let mut cursor = 0u32;
        for g in &self.groups {
            if g.begin != cursor {
                return Err("group gap".into());
            }
            cursor = g.end;
        }
        if cursor != n as u32 {
            return Err("groups do not cover".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_util::rng::Xoshiro256;

    fn random_particles(n: usize, seed: u64) -> Particles {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut p = Particles::with_capacity(n);
        for i in 0..n {
            p.push(
                Vec3::new(rng.uniform(), rng.uniform(), rng.uniform()),
                Vec3::zero(),
                rng.uniform_in(0.5, 1.5),
                i as u64,
            );
        }
        p
    }

    #[test]
    fn build_satisfies_invariants() {
        for &n in &[1usize, 2, 15, 16, 17, 100, 1000, 5000] {
            let tree = Tree::build(random_particles(n, n as u64), TreeParams::default());
            tree.check_invariants().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(tree.len(), n);
        }
    }

    #[test]
    fn build_with_morton_satisfies_invariants() {
        let params = TreeParams {
            curve: Curve::Morton,
            ..Default::default()
        };
        let tree = Tree::build(random_particles(2000, 7), params);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn empty_tree() {
        let tree = Tree::build(Particles::new(), TreeParams::default());
        assert!(tree.is_empty());
        assert!(tree.nodes.is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn single_particle_tree_is_one_leaf() {
        let mut p = Particles::new();
        p.push(Vec3::splat(0.5), Vec3::zero(), 3.0, 0);
        let tree = Tree::build(p, TreeParams::default());
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.nodes[0].kind, NodeKind::Leaf);
        assert_eq!(tree.nodes[0].mass, 3.0);
        assert_eq!(tree.nodes[0].com, Vec3::splat(0.5));
    }

    #[test]
    fn coincident_particles_bottom_out_at_max_level() {
        // NLEAF+1 particles at the same point can never be split; the builder
        // must stop at MAX_LEVEL instead of recursing forever.
        let mut p = Particles::new();
        for i in 0..(NLEAF + 5) {
            p.push(Vec3::splat(0.25), Vec3::zero(), 1.0, i as u64);
        }
        // plus one elsewhere so the box is not degenerate
        p.push(Vec3::splat(0.75), Vec3::zero(), 1.0, 99);
        let tree = Tree::build(p, TreeParams::default());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn quadrupole_of_leaf_matches_definition() {
        let mut p = Particles::new();
        p.push(Vec3::new(1.0, 0.0, 0.0), Vec3::zero(), 1.0, 0);
        p.push(Vec3::new(-1.0, 0.0, 0.0), Vec3::zero(), 1.0, 1);
        let tree = Tree::build(p, TreeParams::default());
        let root = &tree.nodes[0];
        assert_eq!(root.com, Vec3::zero());
        // Q = Σ m d dᵀ = 2·diag(1,0,0)
        assert!((root.quad.xx() - 2.0).abs() < 1e-12);
        assert!(root.quad.yy().abs() < 1e-12);
        assert!(root.quad.trace() - 2.0 < 1e-12);
    }

    #[test]
    fn internal_quadrupole_equals_direct_quadrupole() {
        // Parallel-axis accumulation must equal the straight definition
        // Σ m (r - com)(r - com)ᵀ at the root.
        let p = random_particles(500, 3);
        let tree = Tree::build(p, TreeParams::default());
        let root = tree.nodes[0];
        let mut q = Sym3::zero();
        for i in 0..tree.len() {
            q += Sym3::outer(tree.particles.pos[i] - root.com, tree.particles.mass[i]);
        }
        let err = (root.quad - q).frobenius() / q.frobenius();
        assert!(err < 1e-10, "quad err {err}");
    }

    #[test]
    fn unsort_round_trips() {
        let p = random_particles(300, 5);
        let ids_before = p.id.clone();
        let tree = Tree::build(p, TreeParams::default());
        let ids_sorted = tree.particles.id.clone();
        let restored = tree.unsort(&ids_sorted);
        assert_eq!(restored, ids_before);
    }

    #[test]
    fn groups_respect_size_bound() {
        let tree = Tree::build(random_particles(5000, 9), TreeParams::default());
        for g in &tree.groups {
            // A group may exceed group_size only if a single leaf does.
            assert!(g.len() <= tree.params.group_size + tree.params.nleaf);
            assert!(!g.is_empty());
        }
    }

    #[test]
    fn deterministic_build() {
        let a = Tree::build(random_particles(1000, 11), TreeParams::default());
        let b = Tree::build(random_particles(1000, 11), TreeParams::default());
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.nodes.len(), b.nodes.len());
        assert_eq!(a.particles.id, b.particles.id);
    }
}
