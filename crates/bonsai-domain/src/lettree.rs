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
//! fields via `bytes`): the cluster simulator charges the network model with
//! `to_bytes().len()`, so the sizes driving the Table II communication rows
//! are real serialized sizes, not estimates. It is an exact round trip
//! (signed zeros and subnormals included), so a receiver that decoded and
//! checked a boundary frame may drop its copy and walk the sender's tree.

use bonsai_tree::node::{Node, NodeKind, TreeView};
use bonsai_util::{Aabb, Sym3, Vec3};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A self-contained pruned tree: nodes in BFS order plus the particle payload
/// referenced by its leaf nodes.
#[derive(Clone, Debug, Default)]
pub struct LetTree {
    /// Nodes in BFS order, `nodes[0]` the root (empty if the sender owned
    /// nothing).
    pub nodes: Vec<Node>,
    /// Positions of shipped leaf particles.
    pub pos: Vec<Vec3>,
    /// Masses of shipped leaf particles.
    pub mass: Vec<f64>,
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

    /// Tight bounding boxes of the `Cut` and `Leaf` frontier — the domain
    /// geometry a receiver uses when it builds LETs *for* this sender.
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
    /// internal mass equals the sum of child masses, every multipole and
    /// particle value finite. Receivers run this on every tree that crosses
    /// the wire, so a frame that passes the envelope checksum but carries
    /// semantically broken data is still rejected.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            let finite = n.mass.is_finite()
                && n.com.x.is_finite()
                && n.com.y.is_finite()
                && n.com.z.is_finite()
                && n.quad.m.iter().all(|q| q.is_finite());
            if !finite {
                return Err(format!("node {i}: non-finite multipole data"));
            }
            match n.kind {
                NodeKind::Internal => {
                    let (b, e) = (n.first as usize, n.first as usize + n.count as usize);
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
                    let e = n.first as usize + n.count as usize;
                    if e > self.pos.len() {
                        return Err(format!("node {i}: leaf range beyond payload"));
                    }
                }
                NodeKind::Cut => {}
            }
        }
        for (i, (p, &m)) in self.pos.iter().zip(&self.mass).enumerate() {
            if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite() && m.is_finite()) {
                return Err(format!("particle {i}: non-finite payload data"));
            }
        }
        Ok(())
    }

    /// Serialize to bytes (fixed-width little-endian).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.nodes.len() * NODE_WIRE_SIZE + self.pos.len() * 32);
        buf.put_u64_le(self.nodes.len() as u64);
        buf.put_u64_le(self.pos.len() as u64);
        for n in &self.nodes {
            put_node(&mut buf, n);
        }
        for (&p, &m) in self.pos.iter().zip(&self.mass) {
            put_vec3(&mut buf, p);
            buf.put_f64_le(m);
        }
        buf.freeze()
    }

    /// Deserialize; returns `None` on malformed input, including a payload
    /// longer or shorter than its header declares.
    pub fn from_bytes(mut b: &[u8]) -> Option<Self> {
        if b.remaining() < 16 {
            return None;
        }
        let n_nodes = b.get_u64_le() as usize;
        let n_part = b.get_u64_le() as usize;
        // Checked arithmetic: adversarial headers must not overflow (found
        // by the garbage-input fuzz test — debug builds panic on mul
        // overflow otherwise).
        let need = n_nodes
            .checked_mul(NODE_WIRE_SIZE)
            .and_then(|a| n_part.checked_mul(32).and_then(|p| a.checked_add(p)))?;
        if b.remaining() != need {
            return None;
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            nodes.push(get_node(&mut b)?);
        }
        let mut pos = Vec::with_capacity(n_part);
        let mut mass = Vec::with_capacity(n_part);
        for _ in 0..n_part {
            pos.push(get_vec3(&mut b));
            mass.push(b.get_f64_le());
        }
        Some(Self { nodes, pos, mass })
    }

    /// Serialized size in bytes without materializing the buffer.
    pub fn wire_size(&self) -> usize {
        16 + self.nodes.len() * NODE_WIRE_SIZE + self.pos.len() * 32
    }
}

/// Bytes per node on the wire.
pub const NODE_WIRE_SIZE: usize = 8 * (3 + 1 + 6 + 6 + 3 + 1) + 4 + 4 + 1 + 4 + 3;

fn put_vec3(buf: &mut BytesMut, v: Vec3) {
    buf.put_f64_le(v.x);
    buf.put_f64_le(v.y);
    buf.put_f64_le(v.z);
}

fn get_vec3(b: &mut &[u8]) -> Vec3 {
    let x = b.get_f64_le();
    let y = b.get_f64_le();
    let z = b.get_f64_le();
    Vec3::new(x, y, z)
}

fn put_node(buf: &mut BytesMut, n: &Node) {
    put_vec3(buf, n.com);
    buf.put_f64_le(n.mass);
    for &q in &n.quad.m {
        buf.put_f64_le(q);
    }
    put_vec3(buf, n.bbox.min);
    put_vec3(buf, n.bbox.max);
    put_vec3(buf, n.geo_center);
    buf.put_f64_le(n.geo_half);
    buf.put_u32_le(n.first);
    buf.put_u32_le(n.count);
    buf.put_u8(match n.kind {
        NodeKind::Internal => 0,
        NodeKind::Leaf => 1,
        NodeKind::Cut => 2,
    });
    buf.put_u32_le(n.level);
    buf.put_bytes(0, 3); // pad for alignment-stable size accounting
}

fn get_node(b: &mut &[u8]) -> Option<Node> {
    let com = get_vec3(b);
    let mass = b.get_f64_le();
    let mut quad = Sym3::zero();
    for q in &mut quad.m {
        *q = b.get_f64_le();
    }
    let bmin = get_vec3(b);
    let bmax = get_vec3(b);
    let geo_center = get_vec3(b);
    let geo_half = b.get_f64_le();
    let first = b.get_u32_le();
    let count = b.get_u32_le();
    let kind = match b.get_u8() {
        0 => NodeKind::Internal,
        1 => NodeKind::Leaf,
        2 => NodeKind::Cut,
        _ => return None,
    };
    let level = b.get_u32_le();
    b.advance(3);
    Some(Node {
        com,
        mass,
        quad,
        bbox: Aabb { min: bmin, max: bmax },
        geo_center,
        geo_half,
        first,
        count,
        kind,
        level,
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
        }
    }

    #[test]
    fn round_trip_serialization() {
        let mut t = sample_tree();
        // A third root child: a signed zero and a subnormal keep every bit.
        let mut odd = t.nodes[2];
        odd.com.x = -0.0;
        odd.mass = f64::MIN_POSITIVE / 4.0;
        t.nodes.push(odd);
        t.nodes[0].count = 3;
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), t.wire_size());
        let u = LetTree::from_bytes(&bytes).expect("decode");
        let bits = |n: &Node| [n.com.x, n.com.y, n.com.z, n.mass].map(f64::to_bits);
        assert_eq!(bits(&u.nodes[3]), bits(&odd));
        assert_eq!(u.to_bytes(), bytes);
        assert_eq!(u.nodes.len(), 4);
        assert_eq!(u.pos.len(), 2);
        assert_eq!(u.nodes[0].mass, 5.0);
        assert_eq!(u.nodes[1].kind, NodeKind::Leaf);
        assert_eq!(u.nodes[2].kind, NodeKind::Cut);
        assert_eq!(u.pos[1], Vec3::new(0.55, 0.5, 0.5));
        assert_eq!(u.nodes[1].quad.xx(), t.nodes[1].quad.xx());
        u.check_invariants().unwrap();
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
    fn frontier_boxes_cover_leaf_and_cut() {
        let t = sample_tree();
        assert_eq!(t.frontier_boxes().len(), 2);
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(LetTree::from_bytes(&[0u8; 4]).is_none());
        let t = sample_tree();
        let b = t.to_bytes();
        assert!(LetTree::from_bytes(&b[..b.len() - 1]).is_none());
    }

    #[test]
    fn empty_tree_round_trips() {
        let t = LetTree::default();
        let u = LetTree::from_bytes(&t.to_bytes()).unwrap();
        assert!(u.is_empty());
        assert_eq!(u.total_mass(), 0.0);
    }
}
