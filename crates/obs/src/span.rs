//! Span recording.
//!
//! A span is a named interval on a *track* (one track per executor, plus
//! a `driver` track for phase-level spans). The engines operate on a
//! simulated clock, so spans carry virtual times supplied by the caller.
//!
//! Labels are taken by value as `Cow<'static, str>`: a literal is
//! borrowed, and a label built at run time (`format!("task-{id}")`)
//! moves into the event without a second copy. The category is always
//! a literal.
//!
//! All recording is gated on [`crate::enabled`]: when tracing is off a
//! call is a single thread-local load and an immediate return. A caller
//! that builds a label at run time checks [`crate::enabled`] first, so
//! a disabled run does not build it.

use std::borrow::Cow;

/// The temporal shape of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanKind {
    /// A duration event: `[start, end]` in seconds.
    Complete {
        /// Span start, seconds on the track's clock.
        start: f64,
        /// Span end, seconds on the track's clock.
        end: f64,
    },
    /// A zero-duration marker (straggler kill, retry, speculative copy).
    Instant {
        /// Event time, seconds on the track's clock.
        at: f64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Track (timeline row) the event belongs to, e.g. `"executor-3"`.
    pub track: Cow<'static, str>,
    /// Event name, e.g. `"map"` or `"straggler"`.
    pub name: Cow<'static, str>,
    /// Category tag, e.g. `"mapreduce"` — filterable in the trace viewer.
    pub cat: &'static str,
    /// Duration or instant.
    pub kind: SpanKind,
}

impl TraceEvent {
    /// The span duration (zero for instants).
    pub fn duration(&self) -> f64 {
        match self.kind {
            SpanKind::Complete { start, end } => end - start,
            SpanKind::Instant { .. } => 0.0,
        }
    }

    /// The event's start (or instant) time.
    pub fn start(&self) -> f64 {
        match self.kind {
            SpanKind::Complete { start, .. } => start,
            SpanKind::Instant { at } => at,
        }
    }

    /// The event's end (or instant) time.
    pub fn end(&self) -> f64 {
        match self.kind {
            SpanKind::Complete { end, .. } => end,
            SpanKind::Instant { at } => at,
        }
    }
}

/// Records a completed span with caller-supplied (virtual) times.
///
/// No-op unless tracing is enabled. `end` is clamped to `start` so a
/// degenerate interval never yields a negative duration.
pub fn record_span(
    track: impl Into<Cow<'static, str>>,
    name: impl Into<Cow<'static, str>>,
    cat: &'static str,
    start: f64,
    end: f64,
) {
    if !crate::enabled() {
        return;
    }
    record(TraceEvent {
        track: track.into(),
        name: name.into(),
        cat,
        kind: SpanKind::Complete {
            start,
            end: end.max(start),
        },
    });
}

/// Records an instant marker at a caller-supplied (virtual) time.
///
/// No-op unless tracing is enabled.
pub fn record_instant(
    track: impl Into<Cow<'static, str>>,
    name: impl Into<Cow<'static, str>>,
    cat: &'static str,
    at: f64,
) {
    if !crate::enabled() {
        return;
    }
    record(TraceEvent {
        track: track.into(),
        name: name.into(),
        cat,
        kind: SpanKind::Instant { at },
    });
}

fn record(event: TraceEvent) {
    crate::with_recorder(|r| r.event(event));
}

/// Returns a copy of this thread's recorded events, in recording order.
pub fn snapshot_events() -> Vec<TraceEvent> {
    crate::with_recorder(|r| r.events.clone())
}

/// Drains and returns this thread's recorded events.
pub fn take_events() -> Vec<TraceEvent> {
    crate::with_recorder(|r| std::mem::take(&mut r.events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        crate::set_enabled(false);
        crate::reset();
        record_span("t", "a", "c", 0.0, 1.0);
        record_instant("t", "b", "c", 0.5);
        assert!(snapshot_events().is_empty());
    }

    #[test]
    fn virtual_and_instant_events_record_in_order() {
        crate::set_enabled(true);
        crate::reset();
        record_span("driver", "init", "mr", 0.0, 1.0);
        record_instant("executor-0", "straggler", "mr", 3.5);
        record_span("executor-0", "map", "mr", 1.0, 4.0);
        let events = take_events();
        crate::set_enabled(false);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "init");
        assert_eq!(events[0].duration(), 1.0);
        assert_eq!(events[1].kind, SpanKind::Instant { at: 3.5 });
        assert_eq!(
            events[2].kind,
            SpanKind::Complete {
                start: 1.0,
                end: 4.0
            }
        );
    }

    #[test]
    fn degenerate_spans_are_clamped_non_negative() {
        crate::set_enabled(true);
        crate::reset();
        record_span("t", "backwards", "c", 5.0, 2.0);
        let events = take_events();
        crate::set_enabled(false);
        assert_eq!(
            events[0].kind,
            SpanKind::Complete {
                start: 5.0,
                end: 5.0
            }
        );
    }
}
