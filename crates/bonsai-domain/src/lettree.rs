//! Local Essential Trees as standalone, serializable structures.
//!
//! A [`LetTree`] is a pruned copy of a sender's local tree: internal nodes
//! that the receiver may open, leaves whose particles are shipped, and `Cut`
//! nodes carrying only multipole data because the multipole acceptance
//! criterion guarantees the receiver will never open them. Because every
//! local tree is a branch of the same hypothetical global octree (§III-B1),
//! the receiver walks a LET *directly* — no merging into the local tree —
//! which is what lets the paper hide LET exchange behind GPU work.
//!
//! The byte encoding is deliberately explicit (fixed-width little-endian
//! fields, one fixed-stride record per node): the cluster simulator charges
//! the network model with `to_bytes().len()`, so the sizes driving the
//! Table II communication rows are real serialized sizes, not estimates.
//! A node record ships what a receiver reads and nothing else. The walk
//! reads `com`, `mass`, `quad`, `geo_center`, `geo_half`, `first`, `count`
//! and `kind`; `level` ships as one byte. The tight `bbox` ships only on
//! [`Role::Boundary`] records, because receivers build their LETs against a
//! boundary's [`LetTree::frontier_boxes`] and nobody reads a LET's boxes. The
//! round trip is exact in every shipped field (signed zeros and subnormals
//! included), so walking a decoded frame gives the sender's forces bit for
//! bit, and a receiver that decoded and checked a boundary frame may drop
//! its copy and walk the sender's tree.
//!
//! ```text
//! header   17 B  node count u64 · particle count u64 · role u8 (0 LET, 1 boundary)
//! node    122 B  com 3×f64 · mass f64 · quad 6×f64 · geo_center 3×f64 · geo_half f64
//!                · first u32 · count u32 · kind u8 · level u8
//!          +48 B  bbox min 3×f64 · max 3×f64            (boundary records only)
//! particle 32 B  pos 3×f64 · mass f64
//! ```

use bonsai_sfc::MAX_LEVEL;
use bonsai_tree::node::{Node, NodeKind, TreeView};
use bonsai_util::{Aabb, Sym3, Vec3};
use bytes::Bytes;

/// What a tree is for, which picks its node record on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Role {
    /// A dedicated LET: its receiver only walks it.
    #[default]
    Let,
    /// A boundary tree: receivers also read its frontier's tight boxes.
    Boundary,
}

impl Role {
    /// Bytes per node record of this role.
    pub const fn record_size(self) -> usize {
        match self {
            Role::Let => LET_RECORD_SIZE,
            Role::Boundary => BOUNDARY_RECORD_SIZE,
        }
    }
}

/// Bytes of the frame header: node count, particle count, role.
pub const HEADER_SIZE: usize = 8 + 8 + 1;
/// Bytes per node record of a LET.
pub const LET_RECORD_SIZE: usize = 8 * (3 + 1 + 6 + 3 + 1) + 4 + 4 + 1 + 1;
/// Bytes per node record of a boundary tree: a LET record plus the tight box.
pub const BOUNDARY_RECORD_SIZE: usize = LET_RECORD_SIZE + 8 * 6;
/// Bytes per shipped particle: position and mass.
pub const PARTICLE_RECORD_SIZE: usize = 8 * 4;

/// A self-contained pruned tree: nodes in BFS order plus the particle payload
/// referenced by its leaf nodes.
#[derive(Clone, Debug, Default)]
pub struct LetTree {
    /// Nodes in BFS order, `nodes[0]` the root (empty if the sender owned
    /// nothing). A decoded LET carries no tight boxes: each node's `bbox` is
    /// its octree cell.
    pub nodes: Vec<Node>,
    /// Positions of shipped leaf particles.
    pub pos: Vec<Vec3>,
    /// Masses of shipped leaf particles.
    pub mass: Vec<f64>,
    /// LET or boundary tree: picks the node record on the wire.
    pub role: Role,
}

impl LetTree {
    /// Borrow as a walkable view.
    pub fn view(&self) -> TreeView<'_> {
        TreeView {
            nodes: &self.nodes,
            pos: &self.pos,
            mass: &self.mass,
        }
    }

    /// `true` if there is nothing in the tree.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total mass advertised by the root.
    pub fn total_mass(&self) -> f64 {
        self.nodes.first().map_or(0.0, |n| n.mass)
    }

    /// Bounding boxes of the `Cut` and `Leaf` frontier — on a boundary tree,
    /// the domain geometry a receiver uses when it builds LETs *for* this
    /// sender.
    pub fn frontier_boxes(&self) -> Vec<Aabb> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Cut | NodeKind::Leaf))
            .map(|n| n.bbox)
            .collect()
    }

    /// Number of shipped particles.
    pub fn particle_count(&self) -> usize {
        self.pos.len()
    }

    /// Structural invariants: child ranges valid, leaf ranges inside payload,
    /// internal mass equals the sum of child masses, every multipole, cell
    /// and particle value finite, cells of positive size no deeper than
    /// [`MAX_LEVEL`], and a boundary tree's boxes finite and not inverted.
    /// Receivers run this on every tree that crosses the wire, so a frame
    /// that passes the envelope checksum but carries semantically broken data
    /// — anything the walk or the LET builder reads — is still rejected.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            let finite = n.mass.is_finite() && finite3(n.com) && n.quad.m.iter().all(|q| q.is_finite());
            if !finite {
                return Err(format!("node {i}: non-finite multipole data"));
            }
            if !finite3(n.geo_center) {
                return Err(format!("node {i}: non-finite cell centre"));
            }
            if !(n.geo_half.is_finite() && n.geo_half > 0.0) {
                let half = n.geo_half;
                return Err(format!("node {i}: cell half-size {half} is not finite and positive"));
            }
            if n.level > MAX_LEVEL {
                return Err(format!("node {i}: level {} deeper than MAX_LEVEL {MAX_LEVEL}", n.level));
            }
            if self.role == Role::Boundary {
                let b = &n.bbox;
                if !(finite3(b.min) && finite3(b.max)) {
                    return Err(format!("node {i}: non-finite bounding box"));
                }
                if b.is_empty() {
                    return Err(format!("node {i}: inverted bounding box"));
                }
            }
            // Widened: `first + count` must not wrap in `u32`.
            let (b, e) = (n.first as usize, n.first as usize + n.count as usize);
            match n.kind {
                NodeKind::Internal => {
                    if e > self.nodes.len() || b <= i {
                        return Err(format!("node {i}: bad child range {b}..{e}"));
                    }
                    let child_mass: f64 = self.nodes[b..e].iter().map(|c| c.mass).sum();
                    if (child_mass - n.mass).abs() > 1e-9 * n.mass.abs().max(1.0) {
                        return Err(format!(
                            "node {i}: mass {} != child sum {child_mass}",
                            n.mass
                        ));
                    }
                }
                NodeKind::Leaf => {
                    if e > self.pos.len() {
                        return Err(format!("node {i}: leaf range beyond payload"));
                    }
                }
                NodeKind::Cut => {}
            }
        }
        for (i, (p, &m)) in self.pos.iter().zip(&self.mass).enumerate() {
            if !(finite3(*p) && m.is_finite()) {
                return Err(format!("particle {i}: non-finite payload data"));
            }
        }
        Ok(())
    }

    /// Serialize to bytes: the header, one fixed-stride record per node, then
    /// the particles (module docs). One buffer of [`wire_size`](Self::wire_size)
    /// bytes is written in place by [`write_to`](Self::write_to) and adopted
    /// by the returned [`Bytes`].
    ///
    /// # Panics
    /// If a node's level does not fit its one-byte field.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = vec![0u8; self.wire_size()];
        self.write_to(&mut buf);
        Bytes::from(buf)
    }

    /// Serialize into `out`, which must be exactly
    /// [`wire_size`](Self::wire_size) bytes: every byte is written, so `out`
    /// may hold anything before (a frame buffer kept from an earlier epoch).
    /// The bytes are those of [`to_bytes`](Self::to_bytes).
    ///
    /// # Panics
    /// If `out` has another length, or a node's level does not fit its
    /// one-byte field.
    pub fn write_to(&self, out: &mut [u8]) {
        debug_assert_eq!(self.pos.len(), self.mass.len());
        assert_eq!(out.len(), self.wire_size(), "a LET is written into a buffer of its wire size");
        let stride = self.role.record_size();
        let (header, body) = out.split_at_mut(HEADER_SIZE);
        header[0..8].copy_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        header[8..16].copy_from_slice(&(self.pos.len() as u64).to_le_bytes());
        header[16] = match self.role {
            Role::Let => 0,
            Role::Boundary => 1,
        };
        let (node_part, particle_part) = body.split_at_mut(self.nodes.len() * stride);
        for (n, rec) in self.nodes.iter().zip(node_part.chunks_exact_mut(stride)) {
            encode_node(n, rec);
        }
        let particles = self.pos.iter().zip(&self.mass);
        for ((p, &m), rec) in particles.zip(particle_part.chunks_exact_mut(PARTICLE_RECORD_SIZE)) {
            put_f64s(rec, 0, &[p.x, p.y, p.z, m]);
        }
    }

    /// Deserialize; returns `None` on malformed input: an unknown role or
    /// node kind, or a payload longer or shorter than its header declares
    /// for that role.
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        let (header, body) = b.split_first_chunk::<HEADER_SIZE>()?;
        let n_nodes = u64_at(header, 0) as usize;
        let n_part = u64_at(header, 8) as usize;
        let role = match header[16] {
            0 => Role::Let,
            1 => Role::Boundary,
            _ => return None,
        };
        let stride = role.record_size();
        // Checked arithmetic: adversarial headers must not overflow (found
        // by the garbage-input fuzz test — debug builds panic on mul
        // overflow otherwise).
        let node_bytes = n_nodes.checked_mul(stride)?;
        let need = n_part
            .checked_mul(PARTICLE_RECORD_SIZE)
            .and_then(|p| p.checked_add(node_bytes))?;
        if body.len() != need {
            return None;
        }
        let (node_part, particle_part) = body.split_at(node_bytes);
        let mut nodes = Vec::with_capacity(n_nodes);
        for rec in node_part.chunks_exact(stride) {
            nodes.push(decode_node(rec, role)?);
        }
        let mut pos = Vec::with_capacity(n_part);
        let mut mass = Vec::with_capacity(n_part);
        for rec in particle_part.chunks_exact(PARTICLE_RECORD_SIZE) {
            pos.push(vec3_at(rec, 0));
            mass.push(f64_at(rec, 24));
        }
        Some(Self { nodes, pos, mass, role })
    }

    /// Serialized size in bytes without materializing the buffer.
    pub fn wire_size(&self) -> usize {
        let nodes = self.nodes.len() * self.role.record_size();
        HEADER_SIZE + nodes + self.pos.len() * PARTICLE_RECORD_SIZE
    }
}

fn finite3(v: Vec3) -> bool {
    v.x.is_finite() && v.y.is_finite() && v.z.is_finite()
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn f64_at(b: &[u8], at: usize) -> f64 {
    f64::from_bits(u64_at(b, at))
}

fn vec3_at(b: &[u8], at: usize) -> Vec3 {
    Vec3::new(f64_at(b, at), f64_at(b, at + 8), f64_at(b, at + 16))
}

fn put_f64s(rec: &mut [u8], at: usize, vals: &[f64]) {
    for (k, v) in vals.iter().enumerate() {
        rec[at + 8 * k..at + 8 * k + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Write `n` as a record of `rec.len()` bytes: a LET record, or a boundary
/// record, which is a LET record followed by the tight box.
fn encode_node(n: &Node, rec: &mut [u8]) {
    put_f64s(rec, 0, &[n.com.x, n.com.y, n.com.z, n.mass]);
    put_f64s(rec, 32, &n.quad.m);
    put_f64s(rec, 80, &[n.geo_center.x, n.geo_center.y, n.geo_center.z, n.geo_half]);
    rec[112..116].copy_from_slice(&n.first.to_le_bytes());
    rec[116..120].copy_from_slice(&n.count.to_le_bytes());
    rec[120] = match n.kind {
        NodeKind::Internal => 0,
        NodeKind::Leaf => 1,
        NodeKind::Cut => 2,
    };
    rec[121] = u8::try_from(n.level).expect("node level exceeds its u8 wire field");
    if rec.len() == BOUNDARY_RECORD_SIZE {
        let (lo, hi) = (n.bbox.min, n.bbox.max);
        put_f64s(rec, LET_RECORD_SIZE, &[lo.x, lo.y, lo.z, hi.x, hi.y, hi.z]);
    }
}

/// Read one record of `role`'s stride; `None` on an unknown node kind.
fn decode_node(rec: &[u8], role: Role) -> Option<Node> {
    let r: &[u8; LET_RECORD_SIZE] = rec[..LET_RECORD_SIZE].try_into().unwrap();
    let mut quad = Sym3::zero();
    for (k, q) in quad.m.iter_mut().enumerate() {
        *q = f64_at(r, 32 + 8 * k);
    }
    let geo_center = vec3_at(r, 80);
    let geo_half = f64_at(r, 104);
    let kind = match r[120] {
        0 => NodeKind::Internal,
        1 => NodeKind::Leaf,
        2 => NodeKind::Cut,
        _ => return None,
    };
    let bbox = match role {
        Role::Let => Aabb::cube(geo_center, geo_half),
        Role::Boundary => Aabb {
            min: vec3_at(rec, LET_RECORD_SIZE),
            max: vec3_at(rec, LET_RECORD_SIZE + 24),
        },
    };
    Some(Node {
        com: vec3_at(r, 0),
        mass: f64_at(r, 24),
        quad,
        bbox,
        geo_center,
        geo_half,
        first: u32::from_le_bytes(r[112..116].try_into().unwrap()),
        count: u32::from_le_bytes(r[116..120].try_into().unwrap()),
        kind,
        level: u32::from(r[121]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> LetTree {
        let leaf = Node {
            com: Vec3::new(0.5, 0.5, 0.5),
            mass: 2.0,
            quad: Sym3::outer(Vec3::new(0.1, 0.0, 0.0), 2.0),
            bbox: Aabb::cube(Vec3::splat(0.5), 0.1),
            geo_center: Vec3::splat(0.5),
            geo_half: 0.25,
            first: 0,
            count: 2,
            kind: NodeKind::Leaf,
            level: 1,
        };
        let cut = Node {
            com: Vec3::new(1.5, 0.5, 0.5),
            mass: 3.0,
            quad: Sym3::zero(),
            bbox: Aabb::cube(Vec3::new(1.5, 0.5, 0.5), 0.2),
            geo_center: Vec3::new(1.5, 0.5, 0.5),
            geo_half: 0.25,
            first: 0,
            count: 0,
            kind: NodeKind::Cut,
            level: 1,
        };
        let root = Node {
            com: Vec3::new(1.1, 0.5, 0.5),
            mass: 5.0,
            quad: Sym3::zero(),
            bbox: Aabb::new(Vec3::zero(), Vec3::new(2.0, 1.0, 1.0)),
            geo_center: Vec3::new(1.0, 1.0, 1.0),
            geo_half: 1.0,
            first: 1,
            count: 2,
            kind: NodeKind::Internal,
            level: 0,
        };
        LetTree {
            nodes: vec![root, leaf, cut],
            pos: vec![Vec3::new(0.45, 0.5, 0.5), Vec3::new(0.55, 0.5, 0.5)],
            mass: vec![1.0, 1.0],
            role: Role::Let,
        }
    }

    fn sample_boundary() -> LetTree {
        LetTree {
            role: Role::Boundary,
            ..sample_tree()
        }
    }

    #[test]
    fn record_sizes() {
        assert_eq!(LET_RECORD_SIZE, 122);
        assert_eq!(BOUNDARY_RECORD_SIZE, 170);
        let (t, b) = (sample_tree(), sample_boundary());
        assert_eq!(t.wire_size(), HEADER_SIZE + 3 * 122 + 2 * 32);
        assert_eq!(b.wire_size(), HEADER_SIZE + 3 * 170 + 2 * 32);
    }

    #[test]
    fn round_trip_serialization() {
        for mut t in [sample_tree(), sample_boundary()] {
            // A third root child: a signed zero and a subnormal keep every bit.
            let mut odd = t.nodes[2];
            odd.com.x = -0.0;
            odd.mass = f64::MIN_POSITIVE / 4.0;
            t.nodes.push(odd);
            t.nodes[0].count = 3;
            let bytes = t.to_bytes();
            assert_eq!(bytes.len(), t.wire_size());
            let u = LetTree::from_bytes(&bytes).expect("decode");
            assert_eq!(u.role, t.role);
            let bits = |n: &Node| [n.com.x, n.com.y, n.com.z, n.mass].map(f64::to_bits);
            assert_eq!(bits(&u.nodes[3]), bits(&odd));
            assert_eq!(u.to_bytes(), bytes);
            assert_eq!(u.nodes.len(), 4);
            assert_eq!(u.pos.len(), 2);
            assert_eq!(u.nodes[0].mass, 5.0);
            assert_eq!(u.nodes[1].kind, NodeKind::Leaf);
            assert_eq!(u.nodes[2].kind, NodeKind::Cut);
            assert_eq!(u.nodes[1].level, 1);
            assert_eq!(u.pos[1], Vec3::new(0.55, 0.5, 0.5));
            assert_eq!(u.nodes[1].quad.xx(), t.nodes[1].quad.xx());
            u.check_invariants().unwrap();
        }
    }

    #[test]
    fn write_to_overwrites_every_byte_of_a_dirty_buffer() {
        for t in [sample_tree(), sample_boundary(), LetTree::default()] {
            for fill in [0x00, 0xFF, 0xA5] {
                let mut buf = vec![fill; t.wire_size()];
                t.write_to(&mut buf);
                assert_eq!(buf, t.to_bytes().to_vec(), "{:?} over 0x{fill:02x}", t.role);
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer of its wire size")]
    fn write_to_refuses_a_buffer_of_another_size() {
        let t = sample_tree();
        t.write_to(&mut vec![0; t.wire_size() + 1]);
    }

    #[test]
    fn only_boundary_records_carry_the_tight_box() {
        let b = LetTree::from_bytes(&sample_boundary().to_bytes()).unwrap();
        assert_eq!(b.frontier_boxes(), sample_boundary().frontier_boxes());
        // A LET record carries no box: decode gives the octree cell.
        let t = LetTree::from_bytes(&sample_tree().to_bytes()).unwrap();
        assert_eq!(t.nodes[2].bbox, Aabb::cube(Vec3::new(1.5, 0.5, 0.5), 0.25));
    }

    #[test]
    fn invariants_catch_mass_mismatch() {
        let mut t = sample_tree();
        t.nodes[0].mass = 10.0;
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_bad_ranges() {
        let mut t = sample_tree();
        t.nodes[1].count = 99;
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_a_non_finite_cell_centre() {
        let mut t = sample_tree();
        t.nodes[2].geo_center.y = f64::NAN;
        assert!(t.check_invariants().unwrap_err().contains("cell centre"));
    }

    #[test]
    fn invariants_catch_a_nan_cell_half_size() {
        // `must_open` compares `d2 <= NaN`, false: the cell would be accepted
        // as a p-c by every target.
        let mut t = sample_tree();
        t.nodes[1].geo_half = f64::NAN;
        assert!(t.check_invariants().unwrap_err().contains("half-size"));
    }

    #[test]
    fn invariants_catch_a_cell_half_size_that_is_not_positive() {
        for half in [0.0, -0.25, f64::INFINITY] {
            let mut t = sample_tree();
            t.nodes[0].geo_half = half;
            assert!(t.check_invariants().is_err(), "half-size {half} accepted");
        }
    }

    #[test]
    fn invariants_catch_a_level_deeper_than_max_level() {
        let mut t = sample_tree();
        t.nodes[1].level = MAX_LEVEL + 1;
        assert!(t.check_invariants().unwrap_err().contains("level"));
    }

    #[test]
    fn invariants_catch_a_non_finite_boundary_box() {
        let mut b = sample_boundary();
        b.nodes[2].bbox.max.z = f64::INFINITY;
        assert!(b.check_invariants().unwrap_err().contains("non-finite bounding box"));
    }

    #[test]
    fn invariants_catch_an_inverted_boundary_box() {
        let mut b = sample_boundary();
        b.nodes[2].bbox.min.x = b.nodes[2].bbox.max.x + 1.0;
        assert!(b.check_invariants().unwrap_err().contains("inverted"));
    }

    #[test]
    #[should_panic(expected = "u8 wire field")]
    fn a_level_past_its_byte_refuses_to_encode() {
        let mut t = sample_tree();
        t.nodes[1].level = 256;
        let _ = t.to_bytes();
    }

    #[test]
    fn frontier_boxes_cover_leaf_and_cut() {
        let t = sample_tree();
        assert_eq!(t.frontier_boxes().len(), 2);
    }

    #[test]
    fn malformed_bytes_rejected() {
        for t in [sample_tree(), sample_boundary()] {
            let b = t.to_bytes();
            for cut in 0..b.len() {
                let role = t.role;
                let decoded = LetTree::from_bytes(&b[..cut]);
                assert!(decoded.is_none(), "{role:?} prefix of {cut} bytes decoded");
            }
        }
    }

    #[test]
    fn a_role_flag_that_disagrees_with_the_body_is_rejected() {
        for (t, other) in [(sample_tree(), 1u8), (sample_boundary(), 0u8)] {
            let mut b = t.to_bytes().to_vec();
            b[HEADER_SIZE - 1] = other;
            assert!(LetTree::from_bytes(&b).is_none(), "{:?} frame read as the other role", t.role);
            b[HEADER_SIZE - 1] = 2;
            assert!(LetTree::from_bytes(&b).is_none(), "unknown role accepted");
        }
    }

    #[test]
    fn empty_tree_round_trips() {
        for role in [Role::Let, Role::Boundary] {
            let t = LetTree { role, ..LetTree::default() };
            let u = LetTree::from_bytes(&t.to_bytes()).unwrap();
            assert!(u.is_empty());
            assert_eq!(u.role, role);
            assert_eq!(u.total_mass(), 0.0);
        }
    }
}
