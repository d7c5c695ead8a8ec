//! Tree node representation shared by local trees and Local Essential Trees.
//!
//! Nodes are stored in breadth-first order with the children of every
//! internal node contiguous, so the walk touches memory near-sequentially —
//! the CPU analogue of the texture-cache-friendly layout Bonsai uses on the
//! GPU. A node can be:
//!
//! * **Internal** — `first..first+count` indexes child *nodes*;
//! * **Leaf** — `first..first+count` indexes *particles*;
//! * **Cut** — a pruned LET node: its multipole data is valid but neither
//!   children nor particles were shipped, because the multipole acceptance
//!   criterion guarantees the receiving domain will never open it.

use bonsai_util::{Aabb, Sym3, Vec3};

/// What `first`/`count` of a [`Node`] refer to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Children are nodes `first..first+count`.
    Internal,
    /// Children are particles `first..first+count`.
    Leaf,
    /// LET-pruned: no children shipped; must be used as a particle-cell
    /// interaction.
    Cut,
}

/// One octree cell with multipole moments.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Centre of mass.
    pub com: Vec3,
    /// Total mass.
    pub mass: f64,
    /// Un-detraced quadrupole `Σ m d dᵀ` about [`Node::com`].
    pub quad: Sym3,
    /// Tight bounding box of the contained particles.
    pub bbox: Aabb,
    /// Geometric centre of the octree cell.
    pub geo_center: Vec3,
    /// Half side length of the (cubic) octree cell.
    pub geo_half: f64,
    /// First child node / first particle (see [`NodeKind`]).
    pub first: u32,
    /// Child node count / particle count.
    pub count: u32,
    /// Node role.
    pub kind: NodeKind,
    /// Depth below the root (root = 0).
    pub level: u32,
}


/// A borrowed, walkable tree in memory: nodes plus the particle fields the
/// kernels read.
///
/// A rank's local tree and a boundary tree expose this view; a received LET
/// is walked in its wire records instead
/// ([`RecordView`](crate::records::RecordView)), through the same group-walk
/// body ([`walk::Source`](crate::walk::Source)). LETs are not merged: each is
/// walked as a source of its own (§III-B2: LETs are "processed separately as
/// soon as they arrive"), though a rank walks all of its sources in one call.
#[derive(Clone, Copy, Debug)]
pub struct TreeView<'a> {
    /// Nodes in BFS order; `nodes[0]` is the root (if non-empty).
    pub nodes: &'a [Node],
    /// Source particle positions (leaf `first`/`count` index into these).
    pub pos: &'a [Vec3],
    /// Source particle masses.
    pub mass: &'a [f64],
}

impl<'a> TreeView<'a> {
    /// `true` if there is nothing to walk.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node; panics on an empty tree.
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }
}

/// A contiguous run of *target* particles walked together, the CPU analogue
/// of the warp-sized particle groups of the GPU tree-walk (§III-A): one
/// interaction list is built per group against the group's tight bounding
/// box, then evaluated for every member.
#[derive(Clone, Copy, Debug)]
pub struct Group {
    /// First target particle index.
    pub begin: u32,
    /// One past the last target particle index.
    pub end: u32,
    /// Tight bounding box of the member particles.
    pub bbox: Aabb,
}

impl Group {
    /// Number of members.
    pub fn len(&self) -> usize {
        (self.end - self.begin) as usize
    }

    /// `true` if the group is empty.
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }
}
