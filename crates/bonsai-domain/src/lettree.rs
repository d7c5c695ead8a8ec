//! Local Essential Trees as standalone, serializable structures.
//!
//! A LET is a pruned copy of a sender's local tree: internal nodes that the
//! receiver may open, leaves whose particles are shipped, and `Cut` nodes
//! carrying only multipole data because the multipole acceptance criterion
//! guarantees the receiver will never open them. Because every local tree
//! is a branch of the same hypothetical global octree (§III-B1), the
//! receiver walks a LET *directly* — no merging into the local tree —
//! which is what lets the paper hide LET exchange behind GPU work.
//!
//! The byte encoding is deliberately explicit: a header, then fixed-width
//! little-endian records, one per node and one per particle
//! ([`bonsai_tree::records`] owns the record layout). A node record ships
//! what a receiver reads and nothing else. The walk reads `com`, `mass`,
//! `quad`, `geo_center`, `geo_half`, `first`, `count` and `kind`; `level`
//! ships as one byte. The tight `bbox` ships only on [`Role::Boundary`]
//! records, because receivers build their LETs against a boundary's
//! [`LetFrame::frontier_boxes`] and nobody reads a LET's boxes.
//!
//! One writer sizes every frame and writes its header. Its records are
//! filled in frame order by the pruning traversal, straight from the
//! sender's tree into its frame buffer ([`crate::letbuild::write_let`],
//! [`crate::boundary::write_boundary`]), or by [`LetTree::to_bytes`] from a
//! tree in memory.
//!
//! A receiver decodes nothing. [`validate`] checks an encoding where it lies
//! — lengths, kinds, finiteness, ranges, mass sums, levels, boxes, in one
//! pass — and a [`LetFrame`] keeps a validated LET or boundary in the frame
//! it arrived in, for the walk, the frontier boxes and the sufficiency check
//! to read its records there. The round trip is exact in every shipped
//! field (signed zeros and subnormals included), so walking a received
//! frame gives the sender's forces bit for bit. A [`LetTree`] is what
//! [`LetTree::from_bytes`] decodes, for programs that want a tree in memory.
//!
//! ```text
//! header   17 B  node count u64 · particle count u64 · role u8 (0 LET, 1 boundary)
//! node    122 B  (LET) or 170 B (boundary, + tight bbox) — bonsai_tree::records
//! particle 32 B  pos 3×f64 · mass f64
//! ```

use bonsai_sfc::MAX_LEVEL;
use bonsai_tree::node::{Node, NodeKind, TreeView};
use bonsai_tree::records::{
    decode_node, encode_node, encode_particle, NodeRecord, RecordView, BOUNDARY_RECORD_SIZE,
    LET_RECORD_SIZE, PARTICLE_RECORD_SIZE,
};
use bonsai_util::{Aabb, Vec3};
use bytes::Bytes;
use std::slice::ChunksExactMut;

/// What a tree is for, which picks its node record on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum Role {
    /// A dedicated LET: its receiver only walks it.
    #[default]
    Let = 0,
    /// A boundary tree: receivers also read its frontier's tight boxes.
    Boundary = 1,
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

/// A decoded pruned tree: nodes in BFS order plus the particle payload
/// referenced by its leaf nodes, as [`from_bytes`](Self::from_bytes) returns
/// it.
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

    /// Bounding boxes of the `Cut` and `Leaf` frontier, as
    /// [`LetFrame::frontier_boxes`] reads them from a boundary's records.
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

    /// Structural invariants of a tree in memory: child ranges valid, leaf
    /// ranges inside payload, internal mass equals the sum of child masses,
    /// every multipole, cell and particle value finite, cells of positive
    /// size no deeper than [`MAX_LEVEL`], and a boundary tree's boxes finite
    /// and not inverted. It is [`validate`] of the tree's encoding, verdict
    /// and text, but that a node deeper than [`MAX_LEVEL`] is refused first,
    /// before encoding: its level may not fit the record's byte.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            within_max_level(i, n.level)?;
        }
        match validate(&self.to_bytes()) {
            Ok(_) => Ok(()),
            Err(Invalid::Invariant(why)) => Err(why),
            Err(Invalid::Encoding) => unreachable!("the frame writer writes encodings"),
        }
    }

    /// Serialize to bytes: the header, one fixed-stride record per node, then
    /// the particles (module docs), written by the one frame writer.
    ///
    /// # Panics
    /// If a node's level does not fit its one-byte field.
    pub fn to_bytes(&self) -> Bytes {
        debug_assert_eq!(self.pos.len(), self.mass.len());
        let counts = (self.nodes.len(), self.pos.len());
        Bytes::from(write_frame(self.role, counts, Vec::new(), |node_recs, particle_recs| {
            for (n, rec) in self.nodes.iter().zip(node_recs) {
                encode_node(n, rec);
            }
            for ((&p, &m), rec) in self.pos.iter().zip(&self.mass).zip(particle_recs) {
                encode_particle(p, m, rec);
            }
        }))
    }

    /// Validate, then copy: the tree `b` encodes, or `None` for any
    /// encoding [`validate`] refuses — malformed, or breaking an invariant.
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        let (role, view) = validate(b).ok()?;
        let mut nodes = Vec::with_capacity(view.len());
        for i in 0..view.len() {
            nodes.push(decode_node(view.record(i)).expect("a validated record has a known kind"));
        }
        let mut pos = Vec::with_capacity(view.particle_count());
        let mut mass = Vec::with_capacity(view.particle_count());
        for (p, m) in view.particles(0, view.particle_count()) {
            pos.push(p);
            mass.push(m);
        }
        Some(Self { nodes, pos, mass, role })
    }

    /// Serialized size in bytes without materializing the buffer.
    pub fn wire_size(&self) -> usize {
        let nodes = self.nodes.len() * self.role.record_size();
        HEADER_SIZE + nodes + self.pos.len() * PARTICLE_RECORD_SIZE
    }
}

/// Write a frame of `role` into `buf`: the header for `counts` (nodes,
/// particles), then `records` fills the node and particle record slots, in
/// frame order, and must write every one of them. The frame's size is known
/// before anything is written: a `buf` too small for it is replaced by a
/// zeroed one of its size, a larger one keeps its capacity (frames to near
/// and far receivers differ in size), and old bytes are never copied.
pub(crate) fn write_frame(
    role: Role,
    counts: (usize, usize),
    mut buf: Vec<u8>,
    records: impl FnOnce(ChunksExactMut<'_, u8>, ChunksExactMut<'_, u8>),
) -> Vec<u8> {
    let stride = role.record_size();
    let len = HEADER_SIZE + counts.0 * stride + counts.1 * PARTICLE_RECORD_SIZE;
    if buf.capacity() < len {
        buf = vec![0; len];
    } else {
        buf.resize(len, 0);
    }
    let (header, body) = buf.split_at_mut(HEADER_SIZE);
    header[0..8].copy_from_slice(&(counts.0 as u64).to_le_bytes());
    header[8..16].copy_from_slice(&(counts.1 as u64).to_le_bytes());
    header[16] = role as u8;
    let (node_part, particle_part) = body.split_at_mut(counts.0 * stride);
    records(node_part.chunks_exact_mut(stride), particle_part.chunks_exact_mut(PARTICLE_RECORD_SIZE));
    buf
}

/// Why [`validate`] refused an encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Invalid {
    /// Not an encoding: a short header, an unknown role or node kind, or a
    /// body longer or shorter than the header declares for that role.
    Encoding,
    /// An encoding that breaks a structural invariant, in the words of
    /// [`validate`]'s checks (listed at [`LetTree::check_invariants`]).
    Invariant(String),
}

/// The header's role and the records of an encoding whose body has exactly
/// the length the header declares for that role.
fn layout(b: &[u8]) -> Result<(Role, RecordView<'_>), Invalid> {
    let (header, body) = b.split_first_chunk::<HEADER_SIZE>().ok_or(Invalid::Encoding)?;
    let count = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().unwrap()) as usize;
    let (n_nodes, n_part) = (count(0), count(8));
    let role = match header[16] {
        0 => Role::Let,
        1 => Role::Boundary,
        _ => return Err(Invalid::Encoding),
    };
    let stride = role.record_size();
    // Checked arithmetic: adversarial headers must not overflow (found by
    // the garbage-input fuzz test — debug builds panic on mul overflow
    // otherwise).
    let node_bytes = n_nodes.checked_mul(stride).ok_or(Invalid::Encoding)?;
    let need = (n_part.checked_mul(PARTICLE_RECORD_SIZE))
        .and_then(|p| p.checked_add(node_bytes))
        .ok_or(Invalid::Encoding)?;
    if body.len() != need {
        return Err(Invalid::Encoding);
    }
    let (nodes, particles) = body.split_at(node_bytes);
    Ok((role, RecordView::new(nodes, stride, particles)))
}

/// Check an encoding where it lies, in one pass over its records: the
/// header and lengths, every node's kind, then the structural invariants
/// (listed at [`LetTree::check_invariants`]) node by node, then the
/// particles; the first broken one is the verdict. A record of unknown kind
/// anywhere makes it [`Invalid::Encoding`], whatever else is broken.
/// Returns the role and the records to read in place.
pub fn validate(b: &[u8]) -> Result<(Role, RecordView<'_>), Invalid> {
    let (role, view) = layout(b)?;
    let mut broken = None;
    for i in 0..view.len() {
        let n = view.node(i);
        let Some(kind) = n.kind() else {
            return Err(Invalid::Encoding);
        };
        if broken.is_none() {
            broken = node_invariants(&view, i, n, kind).err();
        }
    }
    if let Some(why) = broken {
        return Err(Invalid::Invariant(why));
    }
    for (i, (p, m)) in view.particles(0, view.particle_count()).enumerate() {
        if !(finite3(p) && m.is_finite()) {
            return Err(Invalid::Invariant(format!("particle {i}: non-finite payload data")));
        }
    }
    Ok((role, view))
}

/// The structural invariants of node `i`, `n`, read from its record.
#[inline]
fn node_invariants(view: &RecordView<'_>, i: usize, n: NodeRecord<'_>, kind: NodeKind) -> Result<(), String> {
    let (mass, quad) = (n.mass(), n.quad());
    if !(mass.is_finite() && finite3(n.com()) && quad.m.iter().all(|q| q.is_finite())) {
        return Err(format!("node {i}: non-finite multipole data"));
    }
    if !finite3(n.geo_center()) {
        return Err(format!("node {i}: non-finite cell centre"));
    }
    let half = n.geo_half();
    if !(half.is_finite() && half > 0.0) {
        return Err(format!("node {i}: cell half-size {half} is not finite and positive"));
    }
    within_max_level(i, n.level())?;
    if let Some(b) = view.bbox(i) {
        if !(finite3(b.min) && finite3(b.max)) {
            return Err(format!("node {i}: non-finite bounding box"));
        }
        if b.is_empty() {
            return Err(format!("node {i}: inverted bounding box"));
        }
    }
    // Widened: `first + count` must not wrap in `u32`.
    let (b, e) = (n.first() as usize, n.first() as usize + n.count() as usize);
    match kind {
        NodeKind::Internal => {
            if e > view.len() || b <= i {
                return Err(format!("node {i}: bad child range {b}..{e}"));
            }
            let child_mass: f64 = (b..e).map(|c| view.node(c).mass()).sum();
            if (child_mass - mass).abs() > 1e-9 * mass.abs().max(1.0) {
                return Err(format!("node {i}: mass {mass} != child sum {child_mass}"));
            }
        }
        NodeKind::Leaf => {
            if e > view.particle_count() {
                return Err(format!("node {i}: leaf range beyond payload"));
            }
        }
        NodeKind::Cut => {}
    }
    Ok(())
}

/// A received LET or boundary, validated in the buffer it arrived in: the
/// sender's own. Nothing is copied; the walk reads
/// [`records`](Self::records) where they lie, and the buffer goes back to
/// its sender once every handle is dropped.
#[derive(Debug)]
pub struct LetFrame(Bytes);

impl LetFrame {
    /// Keep `frame` if it passes [`validate`].
    pub fn new(frame: Bytes) -> Result<Self, Invalid> {
        validate(&frame)?;
        Ok(Self(frame))
    }

    /// The LET's records, in place.
    pub fn records(&self) -> RecordView<'_> {
        layout(&self.0).expect("a validated encoding").1
    }

    /// Bounding boxes of the `Cut` and `Leaf` frontier of a boundary: the
    /// domain geometry a receiver uses when it builds LETs *for* this
    /// sender. A LET's records carry no boxes, so it has none.
    pub fn frontier_boxes(&self) -> Vec<Aabb> {
        let view = self.records();
        (0..view.len())
            .filter(|&i| matches!(view.node(i).kind(), Some(NodeKind::Cut | NodeKind::Leaf)))
            .filter_map(|i| view.bbox(i))
            .collect()
    }
}

/// Node `i`'s `level` is no deeper than [`MAX_LEVEL`].
fn within_max_level(i: usize, level: u32) -> Result<(), String> {
    match level > MAX_LEVEL {
        true => Err(format!("node {i}: level {level} deeper than MAX_LEVEL {MAX_LEVEL}")),
        false => Ok(()),
    }
}

fn finite3(v: Vec3) -> bool {
    v.x.is_finite() && v.y.is_finite() && v.z.is_finite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_util::Sym3;

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
    fn a_frame_written_over_a_dirty_buffer_is_its_encoding() {
        for t in [sample_tree(), sample_boundary(), LetTree::default()] {
            let want = t.to_bytes().to_vec();
            // Stale buffers shorter than, as long as and longer than the frame.
            for (fill, len) in [(0x00, 0), (0xFF, want.len() / 2), (0xA5, want.len()), (0x5A, 2 * want.len() + 9)] {
                let got = encode(&t, vec![fill; len]);
                assert_eq!(got, want, "{:?} over {len} bytes of 0x{fill:02x}", t.role);
            }
            assert_eq!(want.len(), t.wire_size());
        }
    }

    /// `t`'s records through the frame writer, into `buf`.
    fn encode(t: &LetTree, buf: Vec<u8>) -> Vec<u8> {
        write_frame(t.role, (t.nodes.len(), t.pos.len()), buf, |node_recs, particle_recs| {
            for (n, rec) in t.nodes.iter().zip(node_recs) {
                encode_node(n, rec);
            }
            for ((&p, &m), rec) in t.pos.iter().zip(&t.mass).zip(particle_recs) {
                encode_particle(p, m, rec);
            }
        })
    }

    #[test]
    fn only_boundary_records_carry_the_tight_box() {
        let b = LetTree::from_bytes(&sample_boundary().to_bytes()).unwrap();
        assert_eq!(b.frontier_boxes(), sample_boundary().frontier_boxes());
        let frame = LetFrame::new(sample_boundary().to_bytes()).unwrap();
        assert_eq!(frame.frontier_boxes(), sample_boundary().frontier_boxes());
        // A LET record carries no box: decode gives the octree cell.
        let t = LetTree::from_bytes(&sample_tree().to_bytes()).unwrap();
        assert_eq!(t.nodes[2].bbox, Aabb::cube(Vec3::new(1.5, 0.5, 0.5), 0.25));
        assert!(LetFrame::new(sample_tree().to_bytes()).unwrap().frontier_boxes().is_empty());
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
    fn a_level_past_its_byte_is_refused_before_encoding() {
        let mut t = sample_tree();
        (t.nodes[0].mass, t.nodes[2].level) = (10.0, 256);
        assert_eq!(t.check_invariants(), Err(format!("node 2: level 256 deeper than MAX_LEVEL {MAX_LEVEL}")));
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

    /// The in-memory check's verdict on `t`, and the validator's on its
    /// encoding.
    fn both_verdicts(t: &LetTree) -> (Result<(), String>, Result<(), String>) {
        let bytes = t.to_bytes();
        let in_place = validate(&bytes).map(drop).map_err(|e| match e {
            Invalid::Invariant(why) => why,
            Invalid::Encoding => "not an encoding".to_string(),
        });
        (t.check_invariants(), in_place)
    }

    /// A break of a sample tree, and the text its check refuses it with.
    type Break = (fn(&mut LetTree), &'static str);

    #[test]
    fn validating_in_place_gives_the_in_memory_verdict() {
        // Each break, and the text both checks refuse it with (a LET ships
        // no box, so its last break breaks nothing).
        let breaks: [Break; 11] = [
            (|_| {}, ""),
            (|t| t.nodes[0].mass = 10.0, "node 0: mass 10 != child sum 5"),
            (|t| t.nodes[1].count = 99, "node 1: leaf range beyond payload"),
            (|t| t.nodes[0].first = 0, "node 0: bad child range 0..2"),
            (|t| t.nodes[2].geo_center.y = f64::NAN, "node 2: non-finite cell centre"),
            (|t| t.nodes[1].geo_half = f64::NAN, "node 1: cell half-size NaN is not finite and positive"),
            (|t| t.nodes[0].geo_half = -0.25, "node 0: cell half-size -0.25 is not finite and positive"),
            (|t| t.nodes[1].level = MAX_LEVEL + 1, "node 1: level 22 deeper than MAX_LEVEL 21"),
            (|t| t.nodes[1].quad.m[4] = f64::INFINITY, "node 1: non-finite multipole data"),
            (|t| t.pos[1].z = f64::NAN, "particle 1: non-finite payload data"),
            (|t| t.nodes[2].bbox.min.x = t.nodes[2].bbox.max.x + 1.0, "node 2: inverted bounding box"),
        ];
        for (k, &(breaks, text)) in breaks.iter().enumerate() {
            for mut t in [sample_tree(), sample_boundary()] {
                breaks(&mut t);
                let (want, got) = both_verdicts(&t);
                assert_eq!(got, want, "mutation {k}, {:?}", t.role);
                let text = if k == 10 && t.role == Role::Let { "" } else { text };
                assert_eq!(want.clone().err().unwrap_or_default(), text, "mutation {k}, {:?}", t.role);
                assert_eq!(LetTree::from_bytes(&t.to_bytes()).is_some(), want.is_ok(), "mutation {k}");
            }
        }
    }

    #[test]
    fn an_unknown_kind_anywhere_is_not_an_encoding() {
        // Node 0's mass is broken too, but decoding fails first.
        let mut t = sample_tree();
        t.nodes[0].mass = 10.0;
        let mut b = t.to_bytes().to_vec();
        b[HEADER_SIZE + 2 * LET_RECORD_SIZE + 120] = 3;
        assert_eq!(validate(&b).map(drop), Err(Invalid::Encoding));
    }

    #[test]
    fn a_frame_keeps_its_buffer_and_walks_its_records_in_place() {
        let t = sample_tree();
        let frame = t.to_bytes();
        let kept = LetFrame::new(frame.clone()).expect("valid");
        let records = kept.records();
        assert_eq!((records.len(), records.particle_count()), (3, 2));
        assert_eq!(records.node(0).mass(), 5.0);
        // The frame is shared, not copied: the sender's handle is not the last.
        drop(kept);
        assert!(frame.try_into_vec().is_ok(), "dropping the frame gives the buffer back");
        let mut broken = t.clone();
        broken.nodes[0].mass = 10.0;
        assert!(matches!(LetFrame::new(broken.to_bytes()), Err(Invalid::Invariant(_))));
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
