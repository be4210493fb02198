//! The recording path allocates nothing of its own for static labels.
//!
//! A counting global allocator tallies the calling thread's allocations
//! (so tests running in parallel do not see each other's). With
//! observability on, metric updates with literal names and spans with
//! literal labels may allocate only when a record buffer grows, which
//! for `n` records is O(log n) times; with it off they allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System` upholds the allocator contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const ROUNDS: u32 = 10_000;

/// One round of every instrument, with literal names and labels.
fn record_round(i: u32) {
    let t = f64::from(i);
    ipso_obs::counter_add("tasks", 1);
    ipso_obs::gauge_add("overhead_s", 0.5);
    ipso_obs::gauge_set("depth", t);
    ipso_obs::histogram_record("delay_us", u64::from(i));
    ipso_obs::record_span("driver", "map", "mapreduce", t, t + 1.0);
    ipso_obs::record_instant("executor-0", "straggler", "mapreduce", t);
}

/// Reallocations a buffer makes while growing by doubling to `n`
/// elements, plus its first allocation.
fn growth_bound(n: u32) -> u64 {
    u64::from(u32::BITS - n.leading_zeros()) + 1
}

#[test]
fn enabled_recording_allocates_only_to_grow_its_buffers() {
    ipso_obs::set_enabled(true);
    ipso_obs::reset();
    // The first update of each instrument registers its name.
    record_round(0);

    // Straight into the recorder: the event buffer grows, nothing else.
    let direct = allocations_in(|| (0..ROUNDS).for_each(record_round));
    assert!(
        direct <= growth_bound(2 * ROUNDS),
        "{direct} allocations for {ROUNDS} rounds"
    );

    // Inside a capture scope, then merged: the scope's event and
    // gauge-update buffers grow, its counter and histogram sums take a
    // map node each, and the merge grows the recorder's event buffer
    // once.
    let captured = allocations_in(|| {
        let ((), records) = ipso_obs::capture(|| (0..ROUNDS).for_each(record_round));
        ipso_obs::merge(records);
    });
    assert!(
        captured <= 2 * growth_bound(2 * ROUNDS) + 3,
        "{captured} allocations for {ROUNDS} captured rounds"
    );

    assert_eq!(ipso_obs::counter_value("tasks"), u64::from(2 * ROUNDS + 1));
    assert_eq!(
        ipso_obs::snapshot_events().len(),
        2 * (2 * ROUNDS as usize + 1)
    );
    ipso_obs::set_enabled(false);
    ipso_obs::reset();
}

#[test]
fn disabled_recording_allocates_nothing() {
    ipso_obs::set_enabled(false);
    // A thread's first capture scope allocates its frame stack.
    ipso_obs::merge(ipso_obs::capture(|| ()).1);
    let disabled = allocations_in(|| {
        (0..ROUNDS).for_each(record_round);
        let ((), records) = ipso_obs::capture(|| (0..ROUNDS).for_each(record_round));
        assert!(records.is_empty());
        ipso_obs::merge(records);
    });
    assert_eq!(disabled, 0, "{disabled} allocations with observability off");
}
