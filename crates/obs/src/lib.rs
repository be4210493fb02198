//! Unified observability for the IPSO engines.
//!
//! Three pieces, shared by every engine crate:
//!
//! * [`span`] — span recording. Engines record *virtual-time* spans (the
//!   simulated clock the engines compute analytically) via
//!   [`record_span`] and zero-duration markers via [`record_instant`].
//!   Labels are taken by value: a literal is borrowed, a label built at
//!   run time (`executor-3`, `task-17`) is moved in.
//! * [`metrics`] — counters, gauges and log₂-bucketed histograms, named
//!   by `&'static str` literals.
//! * [`perfetto`] — a Chrome trace-event (Perfetto-loadable) JSON
//!   exporter over the recorded spans: one track per executor, `ph:"X"`
//!   duration events and `ph:"i"` instants. Its string escaper,
//!   [`escape_json`], is the one the workspace's other JSON writers use.
//!
//! Every thread has its own recorder and its own switch, so concurrent
//! runs (and concurrent tests) never see each other's records. A thread
//! starts disabled; when the switch is off (the default) every
//! instrumentation call reduces to one thread-local load and allocates
//! nothing, so the engines pay essentially nothing; see the
//! `obs_overhead` bench in `crates/bench`. When it is on, recording
//! allocates only for labels built at run time and to grow the record
//! buffers. The engines record on their caller's thread; the
//! sweep runner in `ipso-bench`, which fans sweep points out to other
//! threads, runs each point inside [`capture`] and hands the records
//! back to the spawning thread, which [`merge`]s them in point order.
//!
//! # Example
//!
//! ```
//! ipso_obs::set_enabled(true);
//! ipso_obs::reset();
//! ipso_obs::record_span("executor-0", "map", "mapreduce", 0.0, 1.5);
//! ipso_obs::counter_add("tasks_launched", 1);
//! let json = ipso_obs::perfetto::export_chrome_trace(&ipso_obs::take_events());
//! assert!(json.contains("\"ph\":\"X\""));
//! ipso_obs::set_enabled(false);
//! ```

use std::cell::{Cell, RefCell};

pub mod metrics;
pub mod perfetto;
pub mod span;

pub use metrics::{
    counter_add, counter_value, gauge_add, gauge_set, gauge_value, histogram_record, snapshot,
    MetricsSnapshot,
};
pub use perfetto::{escape_json, export_chrome_trace, write_chrome_trace};
pub use span::{record_instant, record_span, snapshot_events, take_events, SpanKind, TraceEvent};

/// This thread's recorder: the base frame holds the recorded events and
/// metric values; each open [`capture`] scope pushes an op-log frame on
/// top, which receives everything recorded until the scope closes.
struct Recorder {
    events: Vec<TraceEvent>,
    metrics: metrics::Registry,
    frames: Vec<LocalRecords>,
}

impl Recorder {
    fn event(&mut self, event: TraceEvent) {
        match self.frames.last_mut() {
            Some(frame) => frame.events.push(event),
            None => self.events.push(event),
        }
    }

    /// Where counter and histogram updates go: the innermost scope's
    /// sums, or this thread's values.
    fn metrics(&mut self) -> &mut metrics::Registry {
        match self.frames.last_mut() {
            Some(frame) => &mut frame.metrics,
            None => &mut self.metrics,
        }
    }

    fn gauge(&mut self, op: metrics::GaugeOp) {
        match self.frames.last_mut() {
            Some(frame) => frame.gauge_ops.push(op),
            None => self.metrics.gauge(op),
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            events: Vec::new(),
            metrics: metrics::Registry::new(),
            frames: Vec::new(),
        })
    };
}

fn with_recorder<T>(f: impl FnOnce(&mut Recorder) -> T) -> T {
    RECORDER.with(|r| f(&mut r.borrow_mut()))
}

/// Turns instrumentation on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether instrumentation is enabled on the calling thread.
///
/// This is the only cost instrumented code pays when tracing is off: a
/// single thread-local load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Clears this thread's recorded spans and metrics (the switch is
/// untouched).
pub fn reset() {
    with_recorder(|r| {
        r.events.clear();
        r.metrics = metrics::Registry::new();
    });
}

/// Spans and metric updates recorded inside one [`capture`] scope,
/// waiting to be [`merge`]d into a recorder.
///
/// Events and gauge updates keep recording order, and counter and
/// histogram updates are summed (they commute), so merging a set of
/// captures in a deterministic order (e.g. sweep-point index order)
/// reproduces the exact state a sequential run would have produced —
/// the mechanism behind the parallel sweep runner's determinism
/// guarantee.
#[derive(Debug, Default)]
#[must_use = "captured records are lost unless merged"]
pub struct LocalRecords {
    events: Vec<TraceEvent>,
    metrics: metrics::Registry,
    gauge_ops: Vec<metrics::GaugeOp>,
}

impl LocalRecords {
    /// Number of captured span events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.metrics.is_empty() && self.gauge_ops.is_empty()
    }
}

/// Runs `f` with everything this thread records redirected into a
/// private buffer, and returns `f`'s result together with the captured
/// records.
///
/// Captures nest: an inner capture takes over recording and the outer
/// buffer resumes when it finishes.
///
/// # Example
///
/// ```
/// ipso_obs::set_enabled(true);
/// ipso_obs::reset();
/// let (value, records) = ipso_obs::capture(|| {
///     ipso_obs::record_span("executor-0", "map", "mr", 0.0, 1.0);
///     42
/// });
/// assert_eq!(value, 42);
/// assert_eq!(records.event_count(), 1);
/// assert!(ipso_obs::snapshot_events().is_empty()); // not yet merged
/// ipso_obs::merge(records);
/// assert_eq!(ipso_obs::snapshot_events().len(), 1);
/// ipso_obs::set_enabled(false);
/// ```
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, LocalRecords) {
    /// Pops the scope's frame if `f` unwinds, so the thread's recorder
    /// stays consistent.
    struct PopOnUnwind;
    impl Drop for PopOnUnwind {
        fn drop(&mut self) {
            let _ = RECORDER.try_with(|r| {
                if let Ok(mut r) = r.try_borrow_mut() {
                    r.frames.pop();
                }
            });
        }
    }
    with_recorder(|r| r.frames.push(LocalRecords::default()));
    let guard = PopOnUnwind;
    let result = f();
    std::mem::forget(guard);
    let records = with_recorder(|r| r.frames.pop()).expect("capture frame missing");
    (result, records)
}

/// Replays captured records on this thread: events are appended in one
/// move, counter and histogram sums added, and gauge updates applied in
/// capture order. Inside a [`capture`] scope the records go to that
/// scope's buffers instead, so nested parallel sections compose.
pub fn merge(mut records: LocalRecords) {
    with_recorder(|r| match r.frames.last_mut() {
        Some(frame) => {
            frame.events.append(&mut records.events);
            frame.metrics.absorb(records.metrics);
            frame.gauge_ops.append(&mut records.gauge_ops);
        }
        None => {
            r.events.append(&mut records.events);
            r.metrics.absorb(records.metrics);
            for op in records.gauge_ops {
                r.metrics.gauge(op);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_redirects_and_merge_replays_in_order() {
        set_enabled(true);
        reset();
        record_span("t", "outside-before", "c", 0.0, 1.0);
        let ((), records) = capture(|| {
            record_span("t", "inside", "c", 1.0, 2.0);
            counter_add("tasks", 2);
            histogram_record("delay", 5);
            gauge_set("depth", 3.0);
            gauge_set("depth", 7.0); // order-sensitive: last write wins
        });
        // Nothing visible in the base frame until merged.
        assert_eq!(snapshot_events().len(), 1);
        assert_eq!(counter_value("tasks"), 0);
        merge(records);
        let events = take_events();
        set_enabled(false);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].name, "inside");
        assert_eq!(counter_value("tasks"), 2);
        assert_eq!(snapshot().histograms["delay"].sum, 5);
        assert_eq!(gauge_value("depth"), 7.0);
        reset();
    }

    #[test]
    fn nested_captures_compose() {
        set_enabled(true);
        reset();
        let ((), outer) = capture(|| {
            record_span("t", "outer", "c", 0.0, 1.0);
            let ((), inner) = capture(|| {
                record_span("t", "inner", "c", 1.0, 2.0);
            });
            // Merging inside an active capture lands in that capture.
            merge(inner);
        });
        assert_eq!(outer.event_count(), 2);
        merge(outer);
        let events = take_events();
        set_enabled(false);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[1].name, "inner");
        reset();
    }

    #[test]
    fn cross_thread_captures_merge_deterministically() {
        set_enabled(true);
        reset();
        let mut handles = Vec::new();
        for i in 0..4u32 {
            handles.push(std::thread::spawn(move || {
                set_enabled(true);
                capture(|| {
                    record_span(
                        "t",
                        format!("point-{i}"),
                        "c",
                        f64::from(i),
                        f64::from(i) + 1.0,
                    );
                    counter_add("points", 1);
                })
                .1
            }));
        }
        // Merge in point order regardless of completion order.
        for h in handles {
            merge(h.join().expect("worker"));
        }
        let events = take_events();
        set_enabled(false);
        let names: Vec<&str> = events.iter().map(|e| &*e.name).collect();
        assert_eq!(names, ["point-0", "point-1", "point-2", "point-3"]);
        assert_eq!(counter_value("points"), 4);
        reset();
    }

    #[test]
    fn another_threads_recording_stays_on_that_thread() {
        std::thread::spawn(|| {
            set_enabled(true);
            record_span("t", "elsewhere", "c", 0.0, 1.0);
            counter_add("elsewhere", 1);
        })
        .join()
        .expect("worker");
        assert!(!enabled());
        assert!(snapshot_events().is_empty());
        assert_eq!(snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn a_panicking_capture_restores_the_recorder() {
        set_enabled(true);
        reset();
        let unwound = std::panic::catch_unwind(|| capture(|| -> u32 { panic!("boom") }));
        assert!(unwound.is_err());
        record_span("t", "after", "c", 0.0, 1.0);
        assert_eq!(snapshot_events().len(), 1);
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_by_default_and_toggleable() {
        assert!(!enabled(), "a fresh thread starts disabled");
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
