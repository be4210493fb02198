//! Property tests of the span recorder: recorded spans always have
//! non-negative durations, and recording a nested structure keeps it
//! well-nested (any two spans on a track are disjoint or contained).

use ipso_obs::{record_span, snapshot_events, SpanKind};
use proptest::prelude::*;

fn complete_bounds(events: &[ipso_obs::TraceEvent]) -> Vec<(f64, f64)> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            SpanKind::Complete { start, end } => Some((start, end)),
            SpanKind::Instant { .. } => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever (start, delta) pairs are thrown at it — including
    /// negative deltas and reversed endpoints — every recorded span
    /// comes back with a non-negative duration.
    #[test]
    fn recorded_spans_never_have_negative_durations(
        pairs in prop::collection::vec((0.0f64..1e6, -1e3f64..1e3), 1..40),
    ) {
        ipso_obs::set_enabled(true);
        ipso_obs::reset();
        for (start, delta) in &pairs {
            record_span("track", "span", "prop", *start, start + delta);
        }
        let events = snapshot_events();
        ipso_obs::set_enabled(false);
        ipso_obs::reset();
        prop_assert_eq!(events.len(), pairs.len());
        for e in &events {
            prop_assert!(e.duration() >= 0.0, "negative duration {}", e.duration());
        }
    }

    /// Recording a chain of nested spans (each child strictly inside its
    /// parent) preserves well-nestedness: every pair of recorded spans is
    /// either disjoint or one contains the other.
    #[test]
    fn nested_recording_stays_well_nested(
        insets in prop::collection::vec((0.01f64..0.4, 0.01f64..0.4), 1..8),
        siblings in prop::collection::vec(0.1f64..0.9, 0..6),
    ) {
        ipso_obs::set_enabled(true);
        ipso_obs::reset();
        // A chain of strictly nested spans under a [0, 100] root…
        let (mut s, mut e) = (0.0f64, 100.0f64);
        record_span("track", "root", "prop", s, e);
        for (a, b) in &insets {
            let w = e - s;
            s += w * a;
            e -= w * b;
            record_span("track", "child", "prop", s, e);
        }
        // …plus sibling leaves inside the innermost span.
        let w = e - s;
        for f in &siblings {
            let mid = s + w * f;
            record_span("track", "leaf", "prop", mid, mid);
        }
        let bounds = complete_bounds(&snapshot_events());
        ipso_obs::set_enabled(false);
        ipso_obs::reset();
        for (i, &(s1, e1)) in bounds.iter().enumerate() {
            prop_assert!(e1 >= s1);
            for &(s2, e2) in &bounds[i + 1..] {
                let disjoint = e1 <= s2 || e2 <= s1;
                let contains = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
                prop_assert!(
                    disjoint || contains,
                    "spans [{s1}, {e1}] and [{s2}, {e2}] partially overlap"
                );
            }
        }
    }
}
