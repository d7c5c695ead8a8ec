//! The live heap a long run holds once its history window is full, and the
//! most one step holds at once, counted by this binary's own global
//! allocator.
//!
//! A run keeps the last [`TRACE_WINDOW`] epochs of trace, flow ledger and
//! exchange windows, so once the window fills its live heap should stop
//! growing — and what the window holds per epoch is what a thin run (many
//! ranks, few particles each, tens of thousands of flows an epoch at
//! R = 64) pays for its history. The bound below is what the cluster holds
//! with one 16 B record per flow (the ledger's) and no stored arrow points;
//! whole 56 B records, or a second per-flow copy in the window, break it.
//!
//! Within a step, the largest transient would be the epoch's dedicated
//! LETs, but the receivers get their LETs a batch at a time (one receiver
//! per pool lane) and release them once walked, so the step's high water
//! stays far below the epoch's LET bytes; building every LET of the epoch
//! before the first walk breaks the second test's bound.
//!
//! A monitored run keeps one more history: the epochs its incidents froze.
//! Incident windows overlap, and the monitor holds each epoch they cover
//! once, with no drawn arrow; one copy of the window per incident, its
//! arrows drawn, breaks the third test's bound.
//!
//! What the ledger pays per flow is pinned on its own: a copy of a thin
//! run's ledger allocates 16 B a held flow and a few kibibytes more.
//!
//! The counters are process-wide, so the tests of this binary take turns
//! (`one_at_a_time`).

use bonsai_ic::plummer_sphere;
use bonsai_net::{FaultKind, FaultPlan, MsgKind};
use bonsai_obs::{Condition, Rule, Severity, TRACE_WINDOW};
use bonsai_sim::{Cluster, ClusterConfig, LongRunConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// The system allocator, counting the bytes it has handed out and not had
/// back.
struct Counting;

/// Bytes allocated and not yet freed: a statistic that publishes no other
/// data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The most `LIVE` has been since it was last reset ([`reset_high_water`]).
static HIGH: AtomicUsize = AtomicUsize::new(0);

/// Count `size` more bytes live and raise the high water to the new total.
fn grow(size: usize) {
    let now = LIVE.fetch_add(size, Relaxed) + size;
    HIGH.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract under the same caller guarantees; the
// counting touches no memory it hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` has a non-zero size, as `alloc` requires.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (so `System`)
        // handed out, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, and `new_size` is what the caller vouches
        // for under `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated and not yet freed, process-wide (every allocation of the
/// process goes through the counter, so it never goes below zero).
fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Start a new high-water mark at the current live heap; returns it.
fn reset_high_water() -> usize {
    let now = live();
    HIGH.store(now, Relaxed);
    now
}

/// Serialises the tests of this binary: each reads a process-wide counter.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn a_thin_run_holds_its_window_in_a_bounded_heap() {
    let _turn = one_at_a_time();
    // Thin: 32 ranks of 64 particles each, about 4 000 flows an epoch.
    let (n, ranks) = (2048, 32);
    let before = live();
    let mut c = Cluster::new(plummer_sphere(n, 7), ranks, ClusterConfig::default());
    for _ in 0..TRACE_WINDOW + 4 {
        c.step();
    }
    let full = live() - before;
    // The window is full: two more steps evict as much as they record.
    c.step();
    c.step();
    let later = live() - before;
    let flows = c.flow_ledger().len();
    eprintln!("live heap {full} B with the window full, {later} B two steps later; {flows} flows held");
    assert!(flows > 8 * 2_000, "not a thin run: {flows} flows in the window");
    // About 2.55 MB (2.70 MB at three lanes), a fifth of it the ledger's
    // 16 B records, under a bound with 0.55 MB to spare. With whole 56 B
    // records it read 3.86 MB; storing the arrows' 48 B points beside those
    // took it to 6.7 MB.
    const BOUND: usize = 3_100_000;
    assert!(full <= BOUND && later <= BOUND, "live heap {full} B / {later} B over {BOUND} B");
}

#[test]
fn a_held_flow_costs_16_bytes() {
    let _turn = one_at_a_time();
    // Thin: 32 ranks of 64 particles each, the window full. A copy of the
    // ledger allocates its held flows, one buffer per epoch, and the list
    // of those epochs.
    let mut c = Cluster::new(plummer_sphere(2048, 7), 32, ClusterConfig::default());
    for _ in 0..TRACE_WINDOW + 1 {
        c.step();
    }
    let flows = c.flow_ledger().len();
    let before = live();
    let copy = c.flow_ledger().clone();
    let cost = live() - before;
    drop(copy);
    eprintln!("a copy of the ledger allocated {cost} B for {flows} flows");
    assert!(flows > 8 * 2_000, "not a thin run: {flows} flows in the window");
    let bound = 16 * flows + 4096;
    assert!(cost <= bound, "{flows} flows cost {cost} B, over {bound} B");
}

#[test]
fn lets_are_released_receiver_by_receiver() {
    let _turn = one_at_a_time();
    // Thin: 32 ranks of 64 particles each; the window fills first, so the
    // measured step evicts as much history as it records. Two lanes, so two
    // receivers' LETs at a time on any host (a receiver per lane).
    let (n, ranks) = (2048, 32);
    let cfg = ClusterConfig { threads: Some(2), ..ClusterConfig::default() };
    let mut c = Cluster::new(plummer_sphere(n, 7), ranks, cfg);
    for _ in 0..TRACE_WINDOW {
        c.step();
    }
    let before = reset_high_water();
    c.step();
    let rise = HIGH.load(Relaxed) - before;
    let epoch = c.current_epoch();
    let lets = c.flow_ledger().records().iter().filter(|r| r.epoch == epoch && r.kind == MsgKind::Let);
    let let_bytes: usize = lets.map(|r| r.bytes).sum();
    eprintln!("one step rose {rise} B above its {before} B start; the epoch's LETs are {let_bytes} B");
    assert!(rise < let_bytes / 2, "the step's heap rose {rise} B for {let_bytes} B of LETs");
}

#[test]
fn a_faulty_monitored_run_holds_each_incident_epoch_once() {
    let _turn = one_at_a_time();
    // Thin with faults: 16 ranks of 128 particles each, 1 % of messages
    // dropped. Four rules on a signal that is always positive open at
    // steps 3, 5, 7 and 9, so the four incident windows overlap.
    let plan = FaultPlan::new(3).with_rate(FaultKind::Drop, 0.01);
    let mut c = Cluster::with_faults(plummer_sphere(2048, 7), 16, ClusterConfig::default(), plan, None);
    let rule = |after: u32| {
        let name = format!("after-{after}");
        Rule::new(&name, "bonsai_step_seconds", Condition::Above(0.0), Severity::Info, after, 1)
    };
    let rules = [3, 5, 7, 9].map(rule).to_vec();
    c.enable_longrun(LongRunConfig { rules, ..LongRunConfig::default() });
    for _ in 0..10 {
        c.step();
    }
    let flows = c.flow_ledger().len();
    let monitor = c.take_monitor().expect("monitor enabled");
    let windows: Vec<(u64, u64)> = monitor.incidents().iter().map(|i| i.window).collect();
    let before = live();
    drop(monitor);
    let held = before - live();
    eprintln!("the monitor held {held} B for incident windows {windows:?}; the live window holds {flows} flows");
    assert_eq!(windows.len(), 4);
    assert!(windows.windows(2).all(|w| w[1].0 <= w[0].1), "windows {windows:?} do not overlap");
    // About 0.83 MB: epochs 1..=10 held once, as spans, instants, 16 B
    // ledger records and exchange windows, beside the series and the alert
    // log (1.2 MB with whole 56 B records). A copy of each window per
    // incident, its arrows drawn, is 4.2 MB.
    const BOUND: usize = 2_000_000;
    assert!(held <= BOUND, "the monitor held {held} B over {BOUND} B");
}
