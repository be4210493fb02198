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

/// Appends `v` with three decimals, exactly as `format!("{v:.3}")`
/// writes it, but by integer arithmetic.
///
/// `v` is `m · 2^e` for integers `m < 2^53` and `e`, so `1000 · m` fits
/// a `u64` and `1000 · v` rounds to an integer by one shift: the bits
/// shifted out decide, and a tie goes to the even neighbour, as the
/// formatter rounds. A value of magnitude 2^53 or more, infinite or NaN
/// goes through the formatter.
fn write_micros(v: f64, out: &mut String) {
    if v.is_nan() || v.abs() >= 9_007_199_254_740_992.0 {
        write!(out, "{v:.3}").expect("string write");
        return;
    }
    let bits = v.to_bits();
    let exponent = (bits >> 52 & 0x7FF) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = match exponent {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, exponent - 1075),
    };
    let x = m * 1000;
    // Below 2^53, `e` is at most 0; from a shift of 64 on, `x < 2^63`
    // is below half a unit.
    let thousandths = match e.unsigned_abs() {
        0 => x,
        shift @ 1..=63 => {
            let (q, r, half) = (x >> shift, x & ((1 << shift) - 1), 1 << (shift - 1));
            q + u64::from(r > half || (r == half && q & 1 == 1))
        }
        _ => 0,
    };
    if v.is_sign_negative() {
        out.push('-');
    }
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    let mut rest = thousandths;
    // Three decimals, then the integer part, which has at least one digit.
    while at > digits.len() - 4 || rest > 0 {
        if at == digits.len() - 3 {
            at -= 1;
            digits[at] = b'.';
        }
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Serializes events into Chrome trace-event JSON.
///
/// Track ids (`tid`) are assigned in order of first appearance, starting
/// at 1; each track gets a `thread_name` metadata record so the viewer
/// shows the track label (`driver`, `executor-0`, …). Every record is
/// written straight into the output; timestamps are microseconds with
/// three decimals, the bytes of `{:.3}` written by integer arithmetic.
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
        let ph = match e.kind {
            SpanKind::Complete { .. } => "X",
            SpanKind::Instant { .. } => "i",
        };
        write!(out, "\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":").expect("string write");
        match e.kind {
            SpanKind::Complete { start, end } => {
                write_micros(start * 1e6, &mut out);
                out.push_str(",\"dur\":");
                write_micros((end - start) * 1e6, &mut out);
                out.push('}');
            }
            SpanKind::Instant { at } => {
                write_micros(at * 1e6, &mut out);
                out.push_str(",\"s\":\"t\"}");
            }
        }
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

    /// `v` as [`write_micros`] writes it.
    fn micros(v: f64) -> String {
        let mut out = String::new();
        write_micros(v, &mut out);
        out
    }

    /// Asserts that [`write_micros`] writes `v` and `-v` as `{:.3}` does.
    fn assert_formats_as_std(v: f64) {
        for v in [v, -v] {
            assert_eq!(micros(v), format!("{v:.3}"), "bits {:#018x}", v.to_bits());
        }
    }

    #[test]
    fn fixed_point_ties_round_to_even() {
        // k/16 is exact, and 1000·k/16 ends in .5 for odd k: every one
        // of these is a tie, from the smallest up to near 2^53.
        for k in 0..100_000u64 {
            assert_formats_as_std(k as f64 / 16.0);
        }
        for k in (1u64 << 57) - 100_000..1 << 57 {
            assert_formats_as_std(k as f64 / 16.0);
        }
        assert_eq!(micros(0.0625), "0.062");
        assert_eq!(micros(0.1875), "0.188");
    }

    #[test]
    fn fixed_point_edges_match_std() {
        let two_53 = 9_007_199_254_740_992.0f64;
        let edges = [
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            0.000_5,
            0.000_499_999_999_999_999_9,
            0.999_5,
            1.0,
            1_000_000.0,
            two_53 - 1.0,
            two_53 - 0.5,
            two_53 - 1.5,
            two_53,
            two_53 + 2.0,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
        ];
        for v in edges {
            assert_formats_as_std(v);
        }
        assert_eq!(micros(-0.0), "-0.000");
        assert_eq!(micros(-f64::INFINITY), "-inf");
        assert_eq!(micros(f64::NAN), "NaN");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]

        /// Any bit pattern, and any with a biased exponent of at most
        /// 1100 (below 2^77, so most take the integer path), writes as
        /// `{:.3}` does.
        #[test]
        fn fixed_point_matches_std(bits in proptest::prelude::any::<u64>(), exponent in 0u64..1101) {
            assert_formats_as_std(f64::from_bits(bits));
            assert_formats_as_std(f64::from_bits(bits & !(0x7FF << 52) | exponent << 52));
        }
    }

    #[test]
    fn empty_event_list_is_valid_json() {
        let json = export_chrome_trace(&[]);
        assert_eq!(json, "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
    }
}
