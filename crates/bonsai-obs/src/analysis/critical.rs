//! Critical-path extraction over the per-step phase DAG spanning all ranks.
//!
//! The step wall-time is set by one chain of work: some rank's sort feeds
//! its tree build, gravity waits on the LET exchange, the closing barrier
//! waits on the straggler. This module recovers that chain from the span
//! store alone — no scheduler metadata — using interval reasoning: walking
//! backward from the span that ends last, the predecessor of a span is the
//! latest-ending span that finished by the time it started (on any rank:
//! a cross-rank dependency shows up as the predecessor living on another
//! rank). Where no span abuts, the gap itself is the dependency — a
//! cross-rank wait — and becomes a synthetic node, so the node durations
//! always sum *exactly* to the measured wall-time.

use std::collections::BTreeMap;

use crate::span::{ArgValue, Lane, Span, TraceStore};

/// Tolerance when deciding whether two spans abut on the simulated clock.
const EPS: f64 = 1e-12;

/// Cause label for wait nodes no recorded barrier span explains.
pub const UNATTRIBUTED: &str = "unattributed";

/// One link of the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathNode {
    /// Rank the time was spent on (for waits: the rank that sat idle).
    pub rank: u32,
    /// Lane the span ran on (waits are charged to the CPU lane).
    pub lane: Lane,
    /// Phase name; synthetic waits are named `"wait"`.
    pub phase: String,
    /// Start, seconds on the global simulated clock.
    pub start: f64,
    /// End, seconds on the global simulated clock.
    pub end: f64,
    /// True for synthetic cross-rank wait (slack) nodes.
    pub wait: bool,
    /// Causal attribution. Work nodes carry the empty string; wait nodes
    /// carry the wait-attribution taxonomy label (`"late-sender"`,
    /// `"retransmission"`, `"stall"`, `"fallback"`) harvested from the
    /// `cause` arg of the producer's overlapping explicit `"wait"` span,
    /// or [`UNATTRIBUTED`] when no recorded barrier explains the gap.
    pub cause: String,
}

impl PathNode {
    /// Node duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The critical path of one step: a gapless chronological chain of nodes
/// covering `[start, start + wall]`.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Step the path was extracted for.
    pub step: u64,
    /// Clock time the step started (min span start).
    pub start: f64,
    /// Measured step wall-time (max span end − min span start).
    pub wall: f64,
    /// Chain of nodes, chronological; durations sum to `wall`.
    pub nodes: Vec<PathNode>,
}

impl CriticalPath {
    /// Sum of node durations — equals [`CriticalPath::wall`] by
    /// construction (the acceptance invariant; tested to 1e-9 relative).
    /// (Sums fold from +0.0: `Iterator::sum` yields −0.0 on empty input,
    /// which would leak a sign bit into byte-deterministic exports.)
    pub fn total(&self) -> f64 {
        self.nodes.iter().map(PathNode::duration).fold(0.0, |a, d| a + d)
    }

    /// Critical seconds spent doing work (non-wait nodes).
    pub fn work_seconds(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| !n.wait)
            .map(PathNode::duration)
            .fold(0.0, |a, d| a + d)
    }

    /// Critical seconds spent waiting on other ranks (slack on the path).
    pub fn wait_seconds(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.wait)
            .map(PathNode::duration)
            .fold(0.0, |a, d| a + d)
    }

    /// Critical wait seconds broken down by attributed cause
    /// (deterministically ordered; unexplained time lands under
    /// [`UNATTRIBUTED`]). Values sum to [`CriticalPath::wait_seconds`].
    pub fn wait_seconds_by_cause(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for n in self.nodes.iter().filter(|n| n.wait) {
            let cause = if n.cause.is_empty() {
                UNATTRIBUTED.to_string()
            } else {
                n.cause.clone()
            };
            *out.entry(cause).or_insert(0.0) += n.duration();
        }
        out
    }

    /// Critical-path seconds per phase name (waits under `"wait"`),
    /// deterministically ordered.
    pub fn phase_seconds(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for n in &self.nodes {
            *out.entry(n.phase.clone()).or_insert(0.0) += n.duration();
        }
        out
    }
}

/// Candidate ordering for the backward walk: latest end wins; ties prefer
/// staying on the same rank (a serial chain), then the lowest rank and the
/// latest start for determinism.
fn better(cand: &Span, best: &Span, on_rank: u32) -> bool {
    if (cand.end - best.end).abs() > EPS {
        return cand.end > best.end;
    }
    let (c_same, b_same) = (cand.rank == on_rank, best.rank == on_rank);
    if c_same != b_same {
        return c_same;
    }
    if cand.rank != best.rank {
        return cand.rank < best.rank;
    }
    cand.start > best.start
}

/// Extract the critical path of `step`, or `None` when the store holds no
/// spans for it.
///
/// Explicitly recorded `"wait"` spans (barrier fills) are ignored as work
/// candidates — the walk re-derives waiting as the gaps between real work,
/// which also catches waits the producer never recorded.
pub fn critical_path(store: &TraceStore, step: u64) -> Option<CriticalPath> {
    let spans: Vec<&Span> = store
        .spans()
        .iter()
        .filter(|s| s.step == step && s.end > s.start + EPS && s.name != "wait")
        .collect();
    let first = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
    let last = spans.iter().map(|s| s.end).fold(f64::NEG_INFINITY, f64::max);
    if spans.is_empty() {
        return None;
    }

    // Terminal node: the span that ends last (lowest rank on ties).
    let mut cur = *spans.iter().fold(None::<&&Span>, |acc, s| match acc {
        Some(b) if !better(s, b, b.rank) => acc,
        _ => Some(s),
    })?;

    let mut rev: Vec<PathNode> = Vec::new();
    rev.push(PathNode {
        rank: cur.rank,
        lane: cur.lane,
        phase: cur.name.clone(),
        start: cur.start,
        end: cur.end,
        wait: false,
        cause: String::new(),
    });
    // Backward walk to the step start.
    while cur.start > first + EPS {
        let pred = spans
            .iter()
            .filter(|s| s.end <= cur.start + EPS && !std::ptr::eq(**s, cur))
            .fold(None::<&&Span>, |acc, s| match acc {
                Some(b) if !better(s, b, cur.rank) => acc,
                _ => Some(s),
            });
        let Some(&pred) = pred else {
            // Nothing finished before us: the head of the chain started
            // mid-step (should not happen with per-rank chains from base);
            // close the cover with a leading wait.
            rev.push(PathNode {
                rank: cur.rank,
                lane: Lane::Cpu,
                phase: "wait".into(),
                start: first,
                end: cur.start,
                wait: true,
                cause: String::new(),
            });
            break;
        };
        if cur.start - pred.end > EPS {
            // Gap: the chain's next span idled between pred's finish and its
            // own start — a cross-rank wait charged to the waiting rank.
            rev.push(PathNode {
                rank: cur.rank,
                lane: Lane::Cpu,
                phase: "wait".into(),
                start: pred.end,
                end: cur.start,
                wait: true,
                cause: String::new(),
            });
        }
        rev.push(PathNode {
            rank: pred.rank,
            lane: pred.lane,
            phase: pred.name.clone(),
            start: pred.start,
            end: pred.end,
            wait: false,
            cause: String::new(),
        });
        cur = pred;
    }
    rev.reverse();
    // Clamp the cover so durations telescope to exactly `last - first` even
    // when spans overlap (concurrent lanes): each node is charged only the
    // time past its predecessor's end.
    let mut nodes = Vec::with_capacity(rev.len());
    let mut clock = first;
    for mut n in rev {
        if n.end <= clock + EPS {
            continue; // fully shadowed by earlier critical work
        }
        n.start = n.start.max(clock);
        clock = n.end;
        nodes.push(n);
    }
    // Attribute wait nodes: the producer records explicit `"wait"` barrier
    // spans carrying a `cause` arg (from the flow-ledger wait attribution);
    // each synthetic wait adopts the cause of the same-rank explicit wait
    // span it overlaps most.
    let explicit: Vec<&Span> = store
        .spans()
        .iter()
        .filter(|s| s.step == step && s.name == "wait")
        .collect();
    for n in nodes.iter_mut().filter(|n| n.wait) {
        let mut best = 0.0;
        let mut cause = UNATTRIBUTED.to_string();
        for s in explicit.iter().filter(|s| s.rank == n.rank) {
            let overlap = (n.end.min(s.end) - n.start.max(s.start)).max(0.0);
            if overlap > best + EPS {
                if let Some(c) = s.args.iter().find_map(|(k, v)| match (k, v) {
                    (&"cause", ArgValue::Str(c)) => Some(c.clone()),
                    _ => None,
                }) {
                    best = overlap;
                    cause = c;
                }
            }
        }
        n.cause = cause;
    }
    Some(CriticalPath {
        step,
        start: first,
        wall: last - first,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Lane, TraceStore};

    /// Two ranks: rank 1 is the straggler through "local"; its "lets" chain
    /// sets the wall time; rank 0's early finish is off-path.
    fn two_rank_store() -> TraceStore {
        let mut t = TraceStore::new();
        for (r, d) in [(0u32, 1.0), (1u32, 2.0)] {
            t.span(r, 1, Lane::Gpu, "sort", 0.0, 0.5);
            t.span(r, 1, Lane::Gpu, "local", 0.5, 0.5 + d);
        }
        t.span(0, 1, Lane::Gpu, "lets", 1.5, 2.0);
        t.span(1, 1, Lane::Gpu, "lets", 2.5, 3.5);
        t
    }

    #[test]
    fn path_covers_wall_time_exactly() {
        let t = two_rank_store();
        let cp = critical_path(&t, 1).unwrap();
        assert_eq!(cp.step, 1);
        assert!((cp.wall - 3.5).abs() < 1e-12);
        assert!((cp.total() - cp.wall).abs() < 1e-9 * cp.wall.max(1.0));
        // Chain is gapless and chronological.
        for w in cp.nodes.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-12, "gap in path");
        }
        assert!((cp.nodes[0].start - cp.start).abs() < 1e-12);
    }

    #[test]
    fn straggler_rank_owns_the_path() {
        let t = two_rank_store();
        let cp = critical_path(&t, 1).unwrap();
        // Terminal work is rank 1's "lets"; the whole chain stays on rank 1.
        let names: Vec<&str> = cp.nodes.iter().map(|n| n.phase.as_str()).collect();
        assert_eq!(names, ["sort", "local", "lets"]);
        assert!(cp.nodes.iter().all(|n| n.rank == 1));
        assert_eq!(cp.wait_seconds(), 0.0);
        assert!((cp.work_seconds() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn cross_rank_gap_becomes_wait_node() {
        let mut t = TraceStore::new();
        // Rank 0 finishes its work at 1.0; rank 1's consumer starts at 1.4:
        // the 0.4 s between is a cross-rank wait on rank 1.
        t.span(0, 3, Lane::Gpu, "local", 0.0, 1.0);
        t.span(1, 3, Lane::Gpu, "lets", 1.4, 2.0);
        let cp = critical_path(&t, 3).unwrap();
        let names: Vec<&str> = cp.nodes.iter().map(|n| n.phase.as_str()).collect();
        assert_eq!(names, ["local", "wait", "lets"]);
        assert_eq!(cp.nodes[1].rank, 1, "wait charged to the waiting rank");
        assert!((cp.wait_seconds() - 0.4).abs() < 1e-12);
        assert!((cp.total() - cp.wall).abs() < 1e-12);
    }

    #[test]
    fn overlapping_lanes_are_clamped_not_double_counted() {
        let mut t = TraceStore::new();
        // Comm overlaps the first half of the consumer: path must charge
        // the consumer only its unshadowed tail.
        t.span(0, 1, Lane::Comm, "let-comm", 0.0, 1.0);
        t.span(0, 1, Lane::Gpu, "lets", 0.5, 1.5);
        let cp = critical_path(&t, 1).unwrap();
        assert!((cp.wall - 1.5).abs() < 1e-12);
        assert!((cp.total() - cp.wall).abs() < 1e-12);
    }

    #[test]
    fn explicit_wait_spans_are_not_work() {
        let mut t = TraceStore::new();
        t.span(0, 1, Lane::Gpu, "local", 0.0, 2.0);
        t.span(1, 1, Lane::Gpu, "local", 0.0, 1.0);
        t.span(1, 1, Lane::Cpu, "wait", 1.0, 2.0); // barrier fill
        let cp = critical_path(&t, 1).unwrap();
        // The path is rank 0's straggling local, not rank 1's wait.
        assert_eq!(cp.nodes.len(), 1);
        assert_eq!(cp.nodes[0].rank, 0);
        assert!(!cp.nodes[0].wait);
    }

    #[test]
    fn empty_step_yields_none() {
        let t = TraceStore::new();
        assert!(critical_path(&t, 7).is_none());
    }

    #[test]
    fn wait_nodes_adopt_explicit_span_causes() {
        let mut t = TraceStore::new();
        t.span(0, 3, Lane::Gpu, "local", 0.0, 1.0);
        t.span(1, 3, Lane::Gpu, "lets", 1.4, 2.0);
        // The producer recorded rank 1's barrier fill with an attribution.
        let w = t.span(1, 3, Lane::Cpu, "wait", 1.0, 1.4);
        t.arg_str(w, "cause", "retransmission");
        let cp = critical_path(&t, 3).unwrap();
        let wait = cp.nodes.iter().find(|n| n.wait).unwrap();
        assert_eq!(wait.cause, "retransmission");
        assert!(cp.nodes.iter().filter(|n| !n.wait).all(|n| n.cause.is_empty()));
        let by_cause = cp.wait_seconds_by_cause();
        assert!((by_cause["retransmission"] - 0.4).abs() < 1e-12);
        let sum: f64 = by_cause.values().sum();
        assert!((sum - cp.wait_seconds()).abs() < 1e-12);
    }

    #[test]
    fn unexplained_waits_are_unattributed() {
        let mut t = TraceStore::new();
        t.span(0, 3, Lane::Gpu, "local", 0.0, 1.0);
        t.span(1, 3, Lane::Gpu, "lets", 1.4, 2.0);
        let cp = critical_path(&t, 3).unwrap();
        let wait = cp.nodes.iter().find(|n| n.wait).unwrap();
        assert_eq!(wait.cause, UNATTRIBUTED);
        assert!(cp.wait_seconds_by_cause().contains_key(UNATTRIBUTED));
    }

    #[test]
    fn phase_seconds_partition_the_wall() {
        let t = two_rank_store();
        let cp = critical_path(&t, 1).unwrap();
        let sum: f64 = cp.phase_seconds().values().sum();
        assert!((sum - cp.wall).abs() < 1e-9);
    }
}
