//! The span/event model: hierarchical timed spans keyed by
//! rank × step × phase, plus instant events, collected in a [`TraceStore`].
//!
//! Times are *simulated seconds* (the workspace charges measured counts and
//! byte volumes to calibrated device/network models), expressed on a single
//! global clock: the cluster advances a base offset per step so consecutive
//! steps render side by side in Perfetto.
//!
//! History is bounded: a run keeps the last [`TRACE_WINDOW`] epochs (the
//! cluster evicts the one that leaves the window with
//! [`TraceStore::retain_steps`] as each epoch begins), and an
//! [`Incident`](crate::flight::Incident) freezes exactly that window.

use bonsai_util::sorted::{equal_run, EpochRuns};

/// Epochs of full-fidelity trace a run keeps. As each epoch begins the
/// cluster evicts the one that leaves the window, so its store holds
/// exactly the last window, the epoch just begun included; an incident
/// freezes the same window.
pub const TRACE_WINDOW: u64 = 8;

/// Execution lane inside one rank's track.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Device (GPU) work: sort, build, properties, gravity.
    Gpu,
    /// Network activity: LET exchange, retransmissions, fault events.
    Comm,
    /// Host CPU work (LET construction, key classification).
    Cpu,
}

impl Lane {
    /// Stable display name (also the Chrome-trace thread name).
    pub fn name(self) -> &'static str {
        match self {
            Lane::Gpu => "GPU",
            Lane::Comm => "COMM",
            Lane::Cpu => "CPU",
        }
    }

    /// Stable thread id inside the rank's process.
    pub fn tid(self) -> u32 {
        match self {
            Lane::Gpu => 0,
            Lane::Comm => 1,
            Lane::Cpu => 2,
        }
    }
}

/// A typed span/event argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Floating-point argument (seconds, fractions, Gflops).
    F64(f64),
    /// Integer argument (counts, bytes).
    U64(u64),
    /// Free-form text argument.
    Str(String),
}

/// Index of a span in its [`TraceStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub usize);

/// One timed interval on a rank's lane.
#[derive(Clone, Debug)]
pub struct Span {
    /// Rank (track) the span belongs to.
    pub rank: u32,
    /// Step (gravity epoch) the span belongs to.
    pub step: u64,
    /// Lane inside the rank's track.
    pub lane: Lane,
    /// Phase name (`"sort"`, `"local"`, `"let-comm"`, …).
    pub name: String,
    /// Start, seconds on the global simulated clock.
    pub start: f64,
    /// End, seconds on the global simulated clock.
    pub end: f64,
    /// Enclosing span, if any (folded-stack hierarchy).
    pub parent: Option<SpanId>,
    /// Typed annotations (occupancy, flops, bytes, …).
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A zero-duration event (fault injection, recovery action).
#[derive(Clone, Debug)]
pub struct Instant {
    /// Rank (track) the event belongs to.
    pub rank: u32,
    /// Step the event belongs to.
    pub step: u64,
    /// Lane the event is drawn on.
    pub lane: Lane,
    /// Event name.
    pub name: String,
    /// Timestamp, seconds on the global simulated clock.
    pub at: f64,
    /// Typed annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Which end of a cross-track flow arrow a [`FlowPoint`] marks
/// (Chrome-trace `ph` values `s`, `t`, `f`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowPhase {
    /// The producing end (`ph: "s"`).
    Start,
    /// An intermediate hop (`ph: "t"`).
    Step,
    /// The consuming end (`ph: "f"`).
    Finish,
}

/// One end of a flow arrow: a message leaving or landing on a rank's lane.
/// Points sharing an `id` are joined by Perfetto into an arrow from the
/// `Start` point to the `Finish` point, binding to whatever span encloses
/// each point on its track.
///
/// A run draws one or more points per sealed message when its arrows are
/// read (a live cluster keeps no points: they are a function of its flow
/// ledger and its exchange windows), and a store that does hold them — an
/// incident, a drawn export, a test — may hold a whole history window, so
/// a point is fixed-size (48 B) and owns nothing on the heap: its name is
/// a static string. The store holds them one buffer per step
/// ([`EpochRuns`]), so evicting a step moves no point of the steps it
/// keeps.
#[derive(Clone, Debug)]
pub struct FlowPoint {
    /// Flow id shared by all points of one arrow (the ledger flow id).
    pub id: u64,
    /// Rank (track) this end sits on.
    pub rank: u32,
    /// Step the flow belongs to.
    pub step: u64,
    /// Lane this end is drawn on.
    pub lane: Lane,
    /// Arrow name (e.g. `"flow:Let"`).
    pub name: &'static str,
    /// Timestamp, seconds on the global simulated clock.
    pub at: f64,
    /// Which end of the arrow this point is.
    pub phase: FlowPhase,
}

/// Append-only store of spans, instant events and flow-arrow points. A live
/// run records spans and instants only; flow points are for stores that
/// hold arrows drawn from elsewhere (incidents, drawn exports, tests).
#[derive(Clone, Debug, Default)]
pub struct TraceStore {
    spans: Vec<Span>,
    instants: Vec<Instant>,
    flows: EpochRuns<FlowPoint>,
    /// Spans evicted by [`TraceStore::retain_steps`], not part of the
    /// store: the next spans recorded reuse their name and argument
    /// buffers, so a store evicted once per epoch records without
    /// allocating.
    recycled: Vec<Span>,
    /// Latest span end recorded so far: [`TraceStore::makespan`] is asked
    /// several times a step and must not fold over the run's history.
    makespan: f64,
}

/// Everything a [`TraceStore`] holds for one step, borrowed.
#[derive(Clone, Copy, Debug)]
pub struct StepRecords<'a> {
    /// Store-wide index of `spans[0]`: `parent` ids are store-wide, so a
    /// parent inside the step is `spans[parent.0 - first_span]`.
    pub first_span: usize,
    /// The step's spans, in record order.
    pub spans: &'a [Span],
    /// The step's instant events, in record order.
    pub instants: &'a [Instant],
    /// The step's flow-arrow points, in record order.
    pub flow_points: &'a [FlowPoint],
}

fn latest_end(spans: &[Span]) -> f64 {
    spans.iter().map(|s| s.end).fold(0.0, f64::max)
}

/// `parent` after the first `cut` spans of its store are cut away: shifted
/// down by `cut`, or `None` when it was among them.
pub(crate) fn shift_parent(parent: Option<SpanId>, cut: usize) -> Option<SpanId> {
    parent.and_then(|p| p.0.checked_sub(cut)).map(SpanId)
}

impl TraceStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a store from pre-assembled spans, instants and flow points
    /// (an incident materialises its window with this). Any `parent` ids
    /// must index into `spans`.
    ///
    /// # Panics
    /// If `flows` is not in non-decreasing step order.
    pub fn from_parts(spans: Vec<Span>, instants: Vec<Instant>, flows: Vec<FlowPoint>) -> Self {
        debug_assert!(spans
            .iter()
            .all(|s| s.parent.is_none_or(|p| p.0 < spans.len())));
        let mut runs = EpochRuns::new();
        for f in flows {
            runs.push(f.step, f);
        }
        Self {
            makespan: latest_end(&spans),
            spans,
            instants,
            flows: runs,
            recycled: Vec::new(),
        }
    }

    /// Drop every span, instant and flow point with `step < min_step`: one
    /// prefix of the step-ordered span and instant arrays (see
    /// [`TraceStore::step_records`]), and the oldest steps' flow buffers,
    /// leaving the flow points kept where they are. Parent ids shift down by
    /// the dropped count; a parent that was dropped becomes `None`. The
    /// dropped spans' buffers are kept for the spans recorded next. The
    /// cluster bounds its history with this.
    pub fn retain_steps(&mut self, min_step: u64) {
        let cut = self.spans.partition_point(|s| s.step < min_step);
        // Reversed, so `pop` hands them out in record order: every epoch
        // records its spans in the same order, so each buffer goes back to
        // a span of its own kind, whose arguments fit it.
        self.recycled.extend(self.spans.drain(..cut).rev());
        for s in &mut self.spans {
            s.parent = shift_parent(s.parent, cut);
        }
        self.makespan = latest_end(&self.spans);
        self.instants
            .drain(..self.instants.partition_point(|i| i.step < min_step));
        self.flows.evict_before(min_step);
    }

    /// Bring this store's steps `≥ from` level with `src`'s: append copies
    /// of the spans and instants `src` holds of them beyond those this store
    /// already holds. What this store holds of those steps must be the
    /// first records `src` holds of them, in order — true of a store that
    /// only ever syncs from one `src` with a non-decreasing `from`, since a
    /// recorder only appends, and only to its latest step. Parents inside
    /// the copied steps are kept, at this store's indices; one before them
    /// becomes `None`. Flow points are not copied. The arrays grow to fit
    /// exactly, so a store that syncs rarely holds no spare capacity.
    pub fn sync_from(&mut self, src: &TraceStore, from: u64) {
        let (mine, theirs) = (
            self.spans.partition_point(|s| s.step < from),
            src.spans.partition_point(|s| s.step < from),
        );
        let held = self.spans.len() - mine;
        debug_assert!(
            (self.spans[mine..].iter().zip(&src.spans[theirs..])).all(|(a, b)| (a.step, &a.name) == (b.step, &b.name)),
            "the spans held from step {from} on are not the first of the source's"
        );
        let new = &src.spans[theirs + held..];
        self.spans.reserve_exact(new.len());
        for s in new {
            let parent = shift_parent(s.parent, theirs).map(|p| SpanId(mine + p.0));
            self.makespan = self.makespan.max(s.end);
            self.spans.push(Span { parent, ..s.clone() });
        }
        let held = self.instants.len() - self.instants.partition_point(|i| i.step < from);
        let new = &src.instants[src.instants.partition_point(|i| i.step < from) + held..];
        self.instants.reserve_exact(new.len());
        self.instants.extend_from_slice(new);
    }

    /// Record a root span; returns its id for annotation or parenting.
    pub fn span(
        &mut self,
        rank: u32,
        step: u64,
        lane: Lane,
        name: impl AsRef<str>,
        start: f64,
        end: f64,
    ) -> SpanId {
        debug_assert!(end >= start, "span must not end before it starts");
        self.makespan = self.makespan.max(end);
        let (mut buf, mut args) = (self.recycled.pop())
            .map(|s| (s.name, s.args))
            .unwrap_or_default();
        buf.clear();
        buf.push_str(name.as_ref());
        args.clear();
        self.spans.push(Span {
            rank,
            step,
            lane,
            name: buf,
            start,
            end,
            parent: None,
            args,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Record a child span nested under `parent` (same rank/step/lane).
    pub fn child_span(
        &mut self,
        parent: SpanId,
        name: impl AsRef<str>,
        start: f64,
        end: f64,
    ) -> SpanId {
        let p = &self.spans[parent.0];
        let (rank, step, lane) = (p.rank, p.step, p.lane);
        let id = self.span(rank, step, lane, name, start, end);
        self.spans[id.0].parent = Some(parent);
        id
    }

    /// Record an instant event.
    pub fn instant(
        &mut self,
        rank: u32,
        step: u64,
        lane: Lane,
        name: impl Into<String>,
        at: f64,
    ) -> &mut Instant {
        self.instants.push(Instant {
            rank,
            step,
            lane,
            name: name.into(),
            at,
            args: Vec::new(),
        });
        self.instants.last_mut().unwrap()
    }

    /// Attach a float argument to a span.
    pub fn arg_f64(&mut self, id: SpanId, key: &'static str, v: f64) {
        self.spans[id.0].args.push((key, ArgValue::F64(v)));
    }

    /// Attach an integer argument to a span.
    pub fn arg_u64(&mut self, id: SpanId, key: &'static str, v: u64) {
        self.spans[id.0].args.push((key, ArgValue::U64(v)));
    }

    /// Attach a string argument to a span.
    pub fn arg_str(&mut self, id: SpanId, key: &'static str, v: impl Into<String>) {
        self.spans[id.0].args.push((key, ArgValue::Str(v.into())));
    }

    /// Record one end of a flow arrow.
    ///
    /// # Panics
    /// If `step` is older than the latest flow point's.
    #[allow(clippy::too_many_arguments)]
    pub fn flow_point(
        &mut self,
        id: u64,
        rank: u32,
        step: u64,
        lane: Lane,
        name: &'static str,
        at: f64,
        phase: FlowPhase,
    ) {
        self.flows.push(step, FlowPoint {
            id,
            rank,
            step,
            lane,
            name,
            at,
            phase,
        });
    }

    /// All spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All instant events, in record order.
    pub fn instants(&self) -> &[Instant] {
        &self.instants
    }

    /// All flow-arrow points, in record order.
    pub fn flow_points(&self) -> &EpochRuns<FlowPoint> {
        &self.flows
    }

    /// Everything recorded for `step`, found by binary search: the cost is
    /// that step's records, not the run's. Requires what every recorder in
    /// the workspace does — records appended in non-decreasing step order
    /// (the cluster stamps them with its epoch, which never goes back);
    /// on a store filled out of order the slices are unspecified.
    pub fn step_records(&self, step: u64) -> StepRecords<'_> {
        let spans = equal_run(&self.spans, step, |s| s.step);
        StepRecords {
            first_span: spans.start,
            spans: &self.spans[spans],
            instants: &self.instants[equal_run(&self.instants, step, |i| i.step)],
            flow_points: self.flows.epoch(step),
        }
    }

    /// Spans of one rank × step, in record order.
    pub fn spans_for(&self, rank: u32, step: u64) -> impl Iterator<Item = &Span> {
        self.spans
            .iter()
            .filter(move |s| s.rank == rank && s.step == step)
    }

    /// The highest step number with any span (`None` when empty): the last
    /// span's, under the non-decreasing step order that
    /// [`step_records`](Self::step_records) requires.
    pub fn last_step(&self) -> Option<u64> {
        self.spans.last().map(|s| s.step)
    }

    /// Ranks present in the store, ascending.
    pub fn ranks(&self) -> Vec<u32> {
        let mut r: Vec<u32> = self.spans.iter().map(|s| s.rank).collect();
        r.sort_unstable();
        r.dedup();
        r
    }

    /// Latest span end across the whole store (0 when empty).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Total spans + instants + flow points recorded.
    pub fn len(&self) -> usize {
        self.spans.len() + self.instants.len() + self.flows.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.instants.is_empty() && self.flows.is_empty()
    }
}

/// Merge `(start, end)` intervals into a sorted, disjoint union.
pub fn interval_union(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|&(s, e)| e > s);
    iv.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of `(start, end)` covered by a disjoint sorted `union`
/// (as produced by [`interval_union`]).
pub fn overlap_with_union(start: f64, end: f64, union: &[(f64, f64)]) -> f64 {
    union
        .iter()
        .map(|&(s, e)| (end.min(e) - start.max(s)).max(0.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_children() {
        let mut t = TraceStore::new();
        let root = t.span(0, 1, Lane::Gpu, "gravity", 0.0, 2.0);
        let child = t.child_span(root, "local", 0.0, 1.2);
        t.arg_f64(child, "gflops", 1770.0);
        t.arg_u64(root, "pp", 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[child.0].parent, Some(root));
        assert_eq!(t.spans()[child.0].lane, Lane::Gpu);
        assert_eq!(t.last_step(), Some(1));
        assert_eq!(t.ranks(), vec![0]);
        assert!((t.makespan() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn a_flow_point_is_fixed_size() {
        assert!(std::mem::size_of::<FlowPoint>() <= 48);
    }

    #[test]
    fn instants_recorded() {
        let mut t = TraceStore::new();
        t.instant(3, 2, Lane::Comm, "fault:drop", 0.5)
            .args
            .push(("detail", ArgValue::Str("drop 0->1".into())));
        assert_eq!(t.instants().len(), 1);
        assert_eq!(t.instants()[0].rank, 3);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn retain_steps_drops_old_and_remaps_parents() {
        let mut t = TraceStore::new();
        let old = t.span(0, 1, Lane::Gpu, "old", 0.0, 1.0);
        t.child_span(old, "old-child", 0.0, 0.5);
        let keep = t.span(0, 2, Lane::Gpu, "keep", 1.0, 2.0);
        t.child_span(keep, "keep-child", 1.0, 1.5);
        // Pathological cross-step parent: span in the window, parent not.
        let orphan = t.span(0, 2, Lane::Cpu, "orphan", 1.0, 1.1);
        t.spans[orphan.0].parent = Some(old);
        t.instant(0, 1, Lane::Comm, "old-ev", 0.2);
        t.instant(0, 2, Lane::Comm, "keep-ev", 1.2);
        t.flow_point(7, 0, 1, Lane::Comm, "flow:Let", 0.3, FlowPhase::Start);
        t.flow_point(9, 0, 2, Lane::Comm, "flow:Let", 1.3, FlowPhase::Start);
        t.flow_point(9, 1, 2, Lane::Comm, "flow:Let", 1.4, FlowPhase::Finish);
        t.retain_steps(2);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[0].name, "keep");
        assert_eq!(t.spans()[1].parent, Some(SpanId(0)));
        assert_eq!(t.spans()[2].parent, None, "cross-window parent dropped");
        assert_eq!(t.instants().len(), 1);
        assert_eq!(t.instants()[0].name, "keep-ev");
        assert_eq!(t.flow_points().len(), 2, "out-of-window flow point dropped");
        assert!(t.flow_points().iter().all(|f| f.id == 9));
        // Round-trip through from_parts preserves everything.
        let rebuilt = TraceStore::from_parts(
            t.spans().to_vec(),
            t.instants().to_vec(),
            t.flow_points().iter().cloned().collect(),
        );
        assert_eq!(rebuilt.len(), t.len());
        assert_eq!(rebuilt.last_step(), Some(2));
    }

    #[test]
    fn spans_recorded_after_an_eviction_reuse_its_buffers_in_record_order() {
        let mut t = TraceStore::new();
        let gpu = t.span(0, 1, Lane::Gpu, "local", 0.0, 1.0);
        t.arg_str(gpu, "device", "K20X");
        t.arg_u64(gpu, "pp", 7);
        t.span(0, 1, Lane::Cpu, "balance", 0.0, 1.0);
        let buffers: Vec<*const u8> = t.spans().iter().map(|s| s.name.as_ptr()).collect();
        t.retain_steps(2);
        assert!(t.is_empty() && t.spans().is_empty());
        let lets = t.span(1, 2, Lane::Gpu, "lets", 1.0, 2.0);
        t.child_span(lets, "walk", 1.0, 1.5);
        let got: Vec<_> = (t.spans().iter())
            .map(|s| (s.name.as_str(), s.rank, s.step, s.args.len(), s.parent))
            .collect();
        assert_eq!(got, [("lets", 1, 2, 0, None), ("walk", 1, 2, 0, Some(lets))]);
        let reused: Vec<*const u8> = t.spans().iter().map(|s| s.name.as_ptr()).collect();
        assert_eq!(reused, buffers, "buffers handed out out of record order");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn step_records_equal_the_filtered_store() {
        let mut t = TraceStore::new();
        for step in [1u64, 2, 2, 5] {
            let at = step as f64;
            let root = t.span(0, step, Lane::Gpu, "gravity", at, at + 0.5);
            t.child_span(root, "local", at, at + 0.25);
            t.instant(1, step, Lane::Comm, "fault:drop", at);
            t.flow_point(step, 1, step, Lane::Comm, "flow:Let", at, FlowPhase::Start);
        }
        for step in 0..=6 {
            let recs = t.step_records(step);
            let starts = |spans: &[Span]| spans.iter().map(|s| s.start).collect::<Vec<_>>();
            let want: Vec<Span> = t
                .spans()
                .iter()
                .filter(|s| s.step == step)
                .cloned()
                .collect();
            assert_eq!(starts(recs.spans), starts(&want), "step {step}");
            assert!(recs.spans.iter().all(|s| s.step == step));
            assert_eq!(
                recs.instants.len(),
                t.instants().iter().filter(|i| i.step == step).count()
            );
            assert_eq!(
                recs.flow_points.len(),
                t.flow_points().iter().filter(|f| f.step == step).count()
            );
            if let Some(first) = recs.spans.first() {
                assert!(std::ptr::eq(first, &t.spans()[recs.first_span]));
            }
        }
        assert_eq!(t.step_records(2).spans.len(), 4);
        assert_eq!(t.step_records(2).first_span, 2);
    }

    #[test]
    fn makespan_tracks_recording_pruning_and_rebuilding() {
        let fold = |t: &TraceStore| t.spans().iter().map(|s| s.end).fold(0.0, f64::max);
        let mut t = TraceStore::new();
        assert_eq!(t.makespan(), 0.0);
        let long = t.span(0, 1, Lane::Gpu, "long", 0.0, 9.0);
        t.child_span(long, "child", 0.0, 1.0);
        t.span(0, 2, Lane::Gpu, "short", 1.0, 2.0);
        assert_eq!(t.makespan(), 9.0);
        assert_eq!(t.makespan(), fold(&t));
        // Pruning the step that held the latest end lowers the makespan.
        t.retain_steps(2);
        assert_eq!(t.makespan(), 2.0);
        assert_eq!(t.makespan(), fold(&t));
        let rebuilt = TraceStore::from_parts(t.spans().to_vec(), Vec::new(), Vec::new());
        assert_eq!(rebuilt.makespan(), 2.0);
    }

    #[test]
    fn union_merges_overlaps() {
        let u = interval_union(vec![(2.0, 3.0), (0.0, 1.0), (0.5, 2.5), (5.0, 5.0)]);
        assert_eq!(u, vec![(0.0, 3.0)]);
        let u2 = interval_union(vec![(0.0, 1.0), (2.0, 3.0)]);
        assert_eq!(u2, vec![(0.0, 1.0), (2.0, 3.0)]);
    }

    #[test]
    fn overlap_against_union() {
        let u = interval_union(vec![(0.0, 1.0), (2.0, 3.0)]);
        assert!((overlap_with_union(0.5, 2.5, &u) - 1.0).abs() < 1e-15);
        assert_eq!(overlap_with_union(1.0, 2.0, &u), 0.0);
        assert!((overlap_with_union(-1.0, 4.0, &u) - 2.0).abs() < 1e-15);
    }
}
