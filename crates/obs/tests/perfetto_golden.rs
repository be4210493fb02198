//! Golden-file test of the Chrome trace-event exporter: a fixed little
//! timeline must serialize byte-for-byte to the checked-in JSON. Any
//! intentional format change must update `tests/golden/mini.trace.json`
//! (run with `BLESS_GOLDEN=1` to rewrite it).

use ipso_obs::{export_chrome_trace, record_instant, record_span, take_events};

const GOLDEN: &str = include_str!("golden/mini.trace.json");

#[test]
fn mini_timeline_matches_golden_file() {
    ipso_obs::set_enabled(true);
    ipso_obs::reset();

    record_span("driver", "init", "mapreduce", 0.0, 2.0);
    record_span("driver", "map", "mapreduce", 2.0, 5.5);
    record_span("executor-0", "task-0", "mapreduce", 2.0, 4.25);
    record_span("executor-1", "task-1", "mapreduce", 2.0, 5.5);
    record_instant("executor-1", "straggler", "mapreduce", 5.5);
    record_span("driver", "reduce", "mapreduce", 5.5, 6.125);

    // Labels that need escaping: a quote, a backslash, a newline, a
    // control character (U+0001) and a non-ASCII character, in the
    // track, the name and the category.
    record_span(
        "exec \"q\"\\\n\u{1}µ",
        "na\"me\\\n\u{1}é",
        "c\"at",
        6.125,
        6.5,
    );
    // An instant that opens a track no span has used yet.
    record_instant("executor-2", "speculative-copy", "mapreduce", 6.25);
    // A zero-length span.
    record_span("executor-0", "task-2", "mapreduce", 6.5, 6.5);
    // Timestamps at and below the exporter's third decimal (µs): half a
    // microsecond, and sub-nanosecond parts that round away or up.
    record_span(
        "driver",
        "rounding",
        "mapreduce",
        1.000_000_5,
        1.000_001_000_6,
    );
    record_instant("driver", "rounding", "mapreduce", 2.000_000_001_5);
    record_span(
        "driver",
        "rounding",
        "mapreduce",
        0.000_001_234_5,
        3.000_000_000_6,
    );

    let events = take_events();
    ipso_obs::set_enabled(false);
    ipso_obs::reset();

    let json = export_chrome_trace(&events);
    if std::env::var("BLESS_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mini.trace.json");
        std::fs::write(path, &json).expect("cannot bless golden file");
    }
    assert_eq!(json, GOLDEN, "exporter output drifted from the golden file");
}
