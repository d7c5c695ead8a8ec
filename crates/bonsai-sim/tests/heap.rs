//! The live heap a long run holds once its history window is full, and the
//! most one step holds at once, counted by this binary's own global
//! allocator.
//!
//! A run keeps the last [`TRACE_WINDOW`] epochs of trace, flow ledger and
//! exchange windows, so once the window fills its live heap should stop
//! growing — and what the window holds per epoch is what a thin run (many
//! ranks, few particles each, tens of thousands of flows an epoch at
//! R = 64) pays for its history. The bound below is what the cluster holds
//! with one record per flow (the ledger's) and no stored arrow points; a
//! second per-flow copy in the window breaks it.
//!
//! Within a step, the largest transient would be the epoch's dedicated
//! LETs, but the receivers get their LETs a batch at a time (one receiver
//! per pool lane) and release them once walked, so the step's high water
//! stays far below the epoch's LET bytes; building every LET of the epoch
//! before the first walk breaks the second test's bound.
//!
//! The counters are process-wide, so the tests of this binary take turns
//! (`one_at_a_time`).

use bonsai_ic::plummer_sphere;
use bonsai_net::MsgKind;
use bonsai_obs::TRACE_WINDOW;
use bonsai_sim::{Cluster, ClusterConfig};
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
    // About 3.6 MB, half of it the ledger's 56 B records; storing the
    // arrows' 48 B points beside them takes it to 6.7 MB.
    const BOUND: usize = 4_500_000;
    assert!(full <= BOUND && later <= BOUND, "live heap {full} B / {later} B over {BOUND} B");
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
