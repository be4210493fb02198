//! Chrome trace-event (Perfetto) export.
//!
//! Serializes recorded [`TraceEvent`]s into the JSON object format
//! understood by `chrome://tracing` and [ui.perfetto.dev]: a single
//! process (`pid` 1) with one thread per track, named via `ph:"M"`
//! `thread_name` metadata, `ph:"X"` complete events for spans and
//! `ph:"i"` thread-scoped instants. Timestamps are microseconds.
//!
//! The output is deterministic: tracks are numbered in first-seen order
//! and events appear in recording order, which keeps golden-file tests
//! stable.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::span::{SpanKind, TraceEvent};

/// Appends `s` to `out` as the body of a JSON string literal, without
/// the quotes: `"`, `\`, newline, carriage return and tab as their
/// two-character escapes, other bytes below 0x20 as `\u00xx`, and
/// everything else as is. A string with nothing to escape (the common
/// case) is copied in one piece; otherwise the runs between escapes are.
///
/// The one escaper of the workspace: the Spark event log and the bench
/// records write their strings through it too.
pub fn escape_json(s: &str, out: &mut String) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("string write"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Serializes events into Chrome trace-event JSON.
///
/// Track ids (`tid`) are assigned in order of first appearance, starting
/// at 1; each track gets a `thread_name` metadata record so the viewer
/// shows the track label (`driver`, `executor-0`, …). Every record is
/// written straight into the output; timestamps are microseconds with
/// three decimals.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    let mut tids: BTreeMap<&str, u32> = BTreeMap::new();
    let mut order: Vec<&str> = Vec::new();
    for e in events {
        if !tids.contains_key(&*e.track) {
            tids.insert(&e.track, tids.len() as u32 + 1);
            order.push(&e.track);
        }
    }

    let mut out = String::from("{\"traceEvents\":[");
    let mut sep = "\n";
    for (tid, track) in (1u32..).zip(&order) {
        out.push_str(sep);
        sep = ",\n";
        write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\""
        )
        .expect("string write");
        escape_json(track, &mut out);
        out.push_str("\"}}");
    }

    for e in events {
        let tid = tids[&*e.track];
        out.push_str(sep);
        sep = ",\n";
        out.push_str("{\"name\":\"");
        escape_json(&e.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(e.cat, &mut out);
        match e.kind {
            SpanKind::Complete { start, end } => write!(
                out,
                "\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
                start * 1e6,
                (end - start) * 1e6,
            ),
            SpanKind::Instant { at } => write!(
                out,
                "\",\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"s\":\"t\"}}",
                at * 1e6,
            ),
        }
        .expect("string write");
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Exports `events` to a file at `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_chrome_trace(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    std::fs::write(path, export_chrome_trace(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: &'static str, name: &'static str, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            track: track.into(),
            name: name.into(),
            cat: "test",
            kind: SpanKind::Complete { start, end },
        }
    }

    #[test]
    fn tracks_numbered_in_first_seen_order() {
        let events = vec![
            span("driver", "init", 0.0, 1.0),
            span("executor-0", "map", 1.0, 2.0),
            span("driver", "merge", 2.0, 3.0),
        ];
        let json = export_chrome_trace(&events);
        // driver first-seen first → tid 1; executor-0 → tid 2.
        assert!(json.contains("\"args\":{\"name\":\"driver\"}"));
        assert!(
            json.contains("\"name\":\"init\",\"cat\":\"test\",\"ph\":\"X\",\"pid\":1,\"tid\":1")
        );
        assert!(json.contains("\"name\":\"map\",\"cat\":\"test\",\"ph\":\"X\",\"pid\":1,\"tid\":2"));
        assert!(
            json.contains("\"name\":\"merge\",\"cat\":\"test\",\"ph\":\"X\",\"pid\":1,\"tid\":1")
        );
    }

    #[test]
    fn timestamps_are_microseconds() {
        let json = export_chrome_trace(&[span("t", "s", 1.5, 2.0)]);
        assert!(json.contains("\"ts\":1500000.000,\"dur\":500000.000"));
    }

    #[test]
    fn instants_use_thread_scope() {
        let events = vec![TraceEvent {
            track: "executor-3".into(),
            name: "straggler".into(),
            cat: "cluster",
            kind: SpanKind::Instant { at: 0.25 },
        }];
        let json = export_chrome_trace(&events);
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":250000.000,\"s\":\"t\""));
    }

    #[test]
    fn names_are_json_escaped() {
        let json = export_chrome_trace(&[span("t\"rack", "na\\me\n", 0.0, 0.0)]);
        assert!(json.contains("t\\\"rack"));
        assert!(json.contains("na\\\\me\\n"));
    }

    #[test]
    fn empty_event_list_is_valid_json() {
        let json = export_chrome_trace(&[]);
        assert_eq!(json, "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
    }
}
