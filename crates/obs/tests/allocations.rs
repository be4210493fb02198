//! The recording path allocates nothing of its own for static labels.
//!
//! A counting global allocator (`counting/mod.rs`) tallies the calling
//! thread's allocations. With observability on, metric updates with
//! literal names and spans with literal labels may allocate only when a
//! record buffer grows, which for `n` records is O(log n) times; with
//! it off they allocate nothing.

mod counting;

use counting::allocations_in;

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
