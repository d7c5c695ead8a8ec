//! The wire records of a pruned tree, and a walkable view over them.
//!
//! A Local Essential Tree crosses the fabric as fixed-stride records: one
//! per node, in BFS order, then one per shipped particle. [`encode_node`]
//! and [`decode_node`] are the node record's one writer and reader, and a
//! [`RecordView`] reads the records where they lie — in the frame a LET
//! arrived in — so a receiver walks it without decoding a copy (§III-B2:
//! each LET is processed as it arrives). The frame around the records (its
//! header and role) is `bonsai-domain`'s.
//!
//! ```text
//! node    122 B  com 3×f64 · mass f64 · quad 6×f64 · geo_center 3×f64 · geo_half f64
//!                · first u32 · count u32 · kind u8 · level u8
//!          +48 B  bbox min 3×f64 · max 3×f64            (boundary records only)
//! particle 32 B  pos 3×f64 · mass f64
//! ```
//!
//! All fields are little endian. A record ships what a receiver reads and
//! nothing else; the round trip is exact in every shipped field (signed
//! zeros and subnormals included).

use crate::node::{Node, NodeKind};
use bonsai_util::{Aabb, Sym3, Vec3};

/// Bytes per node record of a LET.
pub const LET_RECORD_SIZE: usize = 8 * (3 + 1 + 6 + 3 + 1) + 4 + 4 + 1 + 1;
/// Bytes per node record of a boundary tree: a LET record plus the tight box.
pub const BOUNDARY_RECORD_SIZE: usize = LET_RECORD_SIZE + 8 * 6;
/// Bytes per shipped particle: position and mass.
pub const PARTICLE_RECORD_SIZE: usize = 8 * 4;

const COM: usize = 0;
const MASS: usize = 24;
const QUAD: usize = 32;
const GEO_CENTER: usize = 80;
const GEO_HALF: usize = 104;
const FIRST: usize = 112;
const COUNT: usize = 116;
const KIND: usize = 120;
const LEVEL: usize = 121;

#[inline(always)]
fn f64_at(b: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

#[inline(always)]
fn vec3_at(b: &[u8], at: usize) -> Vec3 {
    Vec3::new(f64_at(b, at), f64_at(b, at + 8), f64_at(b, at + 16))
}

#[inline(always)]
fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn put_f64s(rec: &mut [u8], at: usize, vals: &[f64]) {
    for (k, v) in vals.iter().enumerate() {
        rec[at + 8 * k..at + 8 * k + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// The node kind a record's kind byte names; `None` for an unknown code.
#[inline(always)]
fn kind_of(code: u8) -> Option<NodeKind> {
    match code {
        0 => Some(NodeKind::Internal),
        1 => Some(NodeKind::Leaf),
        2 => Some(NodeKind::Cut),
        _ => None,
    }
}

/// Write `n` as a record of `rec.len()` bytes: a LET record, or a boundary
/// record, which is a LET record followed by the tight box.
///
/// # Panics
/// If the node's level does not fit its one-byte field.
pub fn encode_node(n: &Node, rec: &mut [u8]) {
    put_f64s(rec, COM, &[n.com.x, n.com.y, n.com.z, n.mass]);
    put_f64s(rec, QUAD, &n.quad.m);
    put_f64s(
        rec,
        GEO_CENTER,
        &[n.geo_center.x, n.geo_center.y, n.geo_center.z, n.geo_half],
    );
    rec[FIRST..FIRST + 4].copy_from_slice(&n.first.to_le_bytes());
    rec[COUNT..COUNT + 4].copy_from_slice(&n.count.to_le_bytes());
    rec[KIND] = match n.kind {
        NodeKind::Internal => 0,
        NodeKind::Leaf => 1,
        NodeKind::Cut => 2,
    };
    rec[LEVEL] = u8::try_from(n.level).expect("node level exceeds its u8 wire field");
    if rec.len() == BOUNDARY_RECORD_SIZE {
        let (lo, hi) = (n.bbox.min, n.bbox.max);
        put_f64s(rec, LET_RECORD_SIZE, &[lo.x, lo.y, lo.z, hi.x, hi.y, hi.z]);
    }
}

/// Read one record of `rec.len()` bytes (LET or boundary stride); `None` on
/// an unknown node kind. A LET record carries no tight box: the node's
/// `bbox` is its octree cell.
pub fn decode_node(rec: &[u8]) -> Option<Node> {
    let r = NodeRecord::of(rec);
    let bbox = if rec.len() == BOUNDARY_RECORD_SIZE {
        boundary_box(rec)
    } else {
        Aabb::cube(r.geo_center(), r.geo_half())
    };
    Some(Node {
        com: r.com(),
        mass: r.mass(),
        quad: r.quad(),
        bbox,
        geo_center: r.geo_center(),
        geo_half: r.geo_half(),
        first: r.first(),
        count: r.count(),
        kind: r.kind()?,
        level: r.level(),
    })
}

/// The tight box of a boundary record.
fn boundary_box(rec: &[u8]) -> Aabb {
    Aabb {
        min: vec3_at(rec, LET_RECORD_SIZE),
        max: vec3_at(rec, LET_RECORD_SIZE + 24),
    }
}

/// One node record, read field by field where it lies.
#[derive(Clone, Copy, Debug)]
pub struct NodeRecord<'a>(&'a [u8; LET_RECORD_SIZE]);

impl<'a> NodeRecord<'a> {
    /// The LET fields at the front of `rec` (of either stride).
    #[inline(always)]
    fn of(rec: &'a [u8]) -> Self {
        Self(
            rec[..LET_RECORD_SIZE]
                .try_into()
                .expect("a whole node record"),
        )
    }

    /// Centre of mass.
    #[inline(always)]
    pub fn com(self) -> Vec3 {
        vec3_at(self.0, COM)
    }

    /// Total mass.
    #[inline(always)]
    pub fn mass(self) -> f64 {
        f64_at(self.0, MASS)
    }

    /// Quadrupole about the centre of mass.
    #[inline(always)]
    pub fn quad(self) -> Sym3 {
        // Six reads, not `array::map`: the walk's instruction-set
        // instantiations must inline every read. An out-of-line `map` called
        // from the AVX-512 walk made large LETs walk about 9 % slower (Xeon
        // host, 16 384 particles over 8 ranks).
        let q = |k: usize| f64_at(self.0, QUAD + 8 * k);
        Sym3 {
            m: [q(0), q(1), q(2), q(3), q(4), q(5)],
        }
    }

    /// Geometric centre of the octree cell.
    #[inline(always)]
    pub fn geo_center(self) -> Vec3 {
        vec3_at(self.0, GEO_CENTER)
    }

    /// Half side length of the octree cell.
    #[inline(always)]
    pub fn geo_half(self) -> f64 {
        f64_at(self.0, GEO_HALF)
    }

    /// First child node / first particle.
    #[inline(always)]
    pub fn first(self) -> u32 {
        u32_at(self.0, FIRST)
    }

    /// Child node count / particle count.
    #[inline(always)]
    pub fn count(self) -> u32 {
        u32_at(self.0, COUNT)
    }

    /// The node kind; `None` for an unknown kind byte.
    #[inline(always)]
    pub fn kind(self) -> Option<NodeKind> {
        kind_of(self.0[KIND])
    }

    /// Depth below the root.
    #[inline(always)]
    pub fn level(self) -> u32 {
        u32::from(self.0[LEVEL])
    }
}

/// A borrowed pruned tree in its wire records: `nodes` holds whole node
/// records of one stride ([`LET_RECORD_SIZE`] or [`BOUNDARY_RECORD_SIZE`]),
/// BFS order, the root first; `particles` whole particle records. The walk
/// reads it where it lies, as it reads a [`TreeView`](crate::TreeView).
///
/// The view only slices; whoever makes one from received bytes validates
/// them first (`bonsai-domain`'s frame validator), because the walk trusts
/// every child and leaf range and reads an unknown kind byte as `Cut`.
#[derive(Clone, Copy, Debug)]
pub struct RecordView<'a> {
    nodes: &'a [u8],
    stride: usize,
    particles: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// View `nodes` as records of `stride` bytes and `particles` as
    /// particle records.
    ///
    /// # Panics
    /// If `stride` is neither record size, or either slice is not a whole
    /// number of its records.
    pub fn new(nodes: &'a [u8], stride: usize, particles: &'a [u8]) -> Self {
        assert!(
            stride == LET_RECORD_SIZE || stride == BOUNDARY_RECORD_SIZE,
            "a node record is {LET_RECORD_SIZE} or {BOUNDARY_RECORD_SIZE} bytes, not {stride}"
        );
        assert!(
            nodes.len().is_multiple_of(stride),
            "node records of {stride} bytes"
        );
        assert!(
            particles.len().is_multiple_of(PARTICLE_RECORD_SIZE),
            "particle records"
        );
        Self {
            nodes,
            stride,
            particles,
        }
    }

    /// Number of node records.
    pub fn len(&self) -> usize {
        self.nodes.len() / self.stride
    }

    /// `true` if there is nothing to walk.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of particle records.
    pub fn particle_count(&self) -> usize {
        self.particles.len() / PARTICLE_RECORD_SIZE
    }

    /// The bytes of node record `i`, whole ([`decode_node`] reads them).
    pub fn record(&self, i: usize) -> &'a [u8] {
        &self.nodes[i * self.stride..(i + 1) * self.stride]
    }

    /// Node record `i`.
    #[inline(always)]
    pub fn node(&self, i: usize) -> NodeRecord<'a> {
        NodeRecord::of(&self.nodes[i * self.stride..])
    }

    /// The tight box of node `i`, on boundary records; `None` on LET
    /// records, which carry none.
    pub fn bbox(&self, i: usize) -> Option<Aabb> {
        (self.stride == BOUNDARY_RECORD_SIZE).then(|| boundary_box(&self.nodes[i * self.stride..]))
    }

    /// Position and mass of particles `b..e`, in order.
    #[inline(always)]
    pub fn particles(&self, b: usize, e: usize) -> impl Iterator<Item = (Vec3, f64)> + Clone + 'a {
        let (records, _) =
            self.particles[b * PARTICLE_RECORD_SIZE..e * PARTICLE_RECORD_SIZE].as_chunks();
        records
            .iter()
            .map(|r: &[u8; PARTICLE_RECORD_SIZE]| (vec3_at(r, 0), f64_at(r, 24)))
    }
}

/// Write one particle record: position, then mass.
pub fn encode_particle(pos: Vec3, mass: f64, rec: &mut [u8]) {
    put_f64s(rec, 0, &[pos.x, pos.y, pos.z, mass]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(kind: NodeKind) -> Node {
        Node {
            com: Vec3::new(1.0, -0.0, 3.0),
            mass: f64::MIN_POSITIVE / 4.0,
            quad: Sym3 {
                m: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            },
            bbox: Aabb::new(Vec3::new(0.5, 0.0, 2.5), Vec3::new(1.5, 0.5, 3.5)),
            geo_center: Vec3::new(1.0, 0.25, 3.0),
            geo_half: 0.75,
            first: 7,
            count: 3,
            kind,
            level: 5,
        }
    }

    fn same(a: &Node, b: &Node) -> bool {
        let bits = |n: &Node| {
            let mut v: Vec<u64> = [
                n.com.x,
                n.com.y,
                n.com.z,
                n.mass,
                n.geo_center.x,
                n.geo_center.y,
            ]
            .into_iter()
            .chain([n.geo_center.z, n.geo_half])
            .chain(n.quad.m)
            .chain([
                n.bbox.min.x,
                n.bbox.min.y,
                n.bbox.min.z,
                n.bbox.max.x,
                n.bbox.max.y,
                n.bbox.max.z,
            ])
            .map(f64::to_bits)
            .collect();
            v.extend([u64::from(n.first), u64::from(n.count), u64::from(n.level)]);
            v
        };
        bits(a) == bits(b) && a.kind == b.kind
    }

    #[test]
    fn a_record_of_either_stride_round_trips_every_field() {
        for kind in [NodeKind::Internal, NodeKind::Leaf, NodeKind::Cut] {
            let n = node(kind);
            let mut rec = [0u8; BOUNDARY_RECORD_SIZE];
            encode_node(&n, &mut rec);
            assert!(same(&decode_node(&rec).unwrap(), &n), "{kind:?}");
            let mut rec = [0u8; LET_RECORD_SIZE];
            encode_node(&n, &mut rec);
            let cell = Node {
                bbox: Aabb::cube(n.geo_center, n.geo_half),
                ..n
            };
            assert!(
                same(&decode_node(&rec).unwrap(), &cell),
                "{kind:?}: a LET record's box is its cell"
            );
        }
    }

    #[test]
    fn an_unknown_kind_byte_does_not_decode() {
        let mut rec = [0u8; LET_RECORD_SIZE];
        encode_node(&node(NodeKind::Leaf), &mut rec);
        rec[KIND] = 3;
        assert!(decode_node(&rec).is_none());
    }

    #[test]
    fn a_view_reads_the_records_in_place() {
        let nodes = [node(NodeKind::Internal), node(NodeKind::Cut)];
        for stride in [LET_RECORD_SIZE, BOUNDARY_RECORD_SIZE] {
            let mut bytes = vec![0u8; 2 * stride];
            for (n, rec) in nodes.iter().zip(bytes.chunks_exact_mut(stride)) {
                encode_node(n, rec);
            }
            let mut particles = vec![0u8; 2 * PARTICLE_RECORD_SIZE];
            encode_particle(Vec3::new(1.0, 2.0, 3.0), 4.0, &mut particles[..32]);
            encode_particle(Vec3::new(5.0, 6.0, 7.0), 8.0, &mut particles[32..]);
            let view = RecordView::new(&bytes, stride, &particles);
            assert_eq!((view.len(), view.particle_count()), (2, 2));
            assert_eq!(view.node(1).kind(), Some(NodeKind::Cut));
            assert_eq!(view.node(0).first(), 7);
            assert_eq!(view.bbox(1).is_some(), stride == BOUNDARY_RECORD_SIZE);
            let got: Vec<_> = view.particles(1, 2).collect();
            assert_eq!(got, [(Vec3::new(5.0, 6.0, 7.0), 8.0)]);
        }
    }

    #[test]
    #[should_panic(expected = "not 100")]
    fn a_view_refuses_a_stride_that_is_no_record() {
        let _ = RecordView::new(&[], 100, &[]);
    }
}
