//! Spark-style JSON event logs.
//!
//! The paper measures its Spark cases by "tracing the timestamps for each
//! stage in the Spark Log files, which are available in the JSON format".
//! Every run emits the same kind of newline-delimited JSON events into
//! `SparkRun::log`, and [`parse_event_log`] recovers from them the same
//! stage latencies and application duration the engine computed. The
//! figures do not read the log: they take `SparkRun::total_time` and
//! `SparkRun::overhead_time` directly.
//!
//! Each line is one flat JSON object: the `"Event"` tag first, then the
//! event's fields in declaration order under their Spark names, e.g.
//!
//! ```text
//! {"Event":"SparkListenerStageCompleted","Stage ID":0,"Stage Name":"train","Number of Tasks":8,"Submission Time":0.5,"Completion Time":4.0}
//! ```
//!
//! Integers are written as integers, timestamps in Rust's shortest
//! round-trip form (`{:?}`, so `4.0`, `1e-7`), which parses back to the
//! same bits, and names through [`ipso_obs::escape_json`]. The reader
//! takes any flat object of string and number values, keys in any order
//! and unknown keys ignored; it reads numbers with Rust's own `u32` and
//! `f64` parsers.

use std::fmt::Write as _;

use ipso_cluster::ClusterError;
use ipso_obs::escape_json;

/// One event in the application log, tagged like Spark listener events.
#[derive(Debug, Clone, PartialEq)]
pub enum SparkEvent {
    /// Application start (`SparkListenerApplicationStart`).
    ApplicationStart {
        /// Application name (`App Name`).
        app_name: String,
        /// Timestamp, seconds since job start (`Timestamp`).
        timestamp: f64,
    },
    /// Stage submitted by the driver (`SparkListenerStageSubmitted`).
    StageSubmitted {
        /// Stage id, the index in the DAG (`Stage ID`).
        stage_id: u32,
        /// Stage name (`Stage Name`).
        stage_name: String,
        /// Number of tasks (`Number of Tasks`).
        num_tasks: u32,
        /// Submission timestamp (`Submission Time`).
        submission_time: f64,
    },
    /// Stage completed (`SparkListenerStageCompleted`).
    StageCompleted {
        /// Stage id (`Stage ID`).
        stage_id: u32,
        /// Stage name (`Stage Name`).
        stage_name: String,
        /// Number of tasks (`Number of Tasks`).
        num_tasks: u32,
        /// Submission timestamp (`Submission Time`).
        submission_time: f64,
        /// Completion timestamp (`Completion Time`).
        completion_time: f64,
    },
    /// Application end (`SparkListenerApplicationEnd`).
    ApplicationEnd {
        /// Timestamp (`Timestamp`).
        timestamp: f64,
    },
}

/// Writes events as newline-delimited JSON, the Spark log format: one
/// compact object per event, with a newline after each.
///
/// # Panics
///
/// Panics on a non-finite timestamp, which JSON cannot represent.
pub fn write_event_log(events: &[SparkEvent]) -> String {
    let mut out = String::new();
    for e in events {
        match e {
            SparkEvent::ApplicationStart {
                app_name,
                timestamp,
            } => {
                out.push_str(r#"{"Event":"SparkListenerApplicationStart""#);
                write_str(&mut out, "App Name", app_name);
                write_time(&mut out, "Timestamp", *timestamp);
            }
            SparkEvent::StageSubmitted {
                stage_id: id,
                stage_name: name,
                num_tasks: tasks,
                submission_time: t,
            } => {
                out.push_str(r#"{"Event":"SparkListenerStageSubmitted""#);
                write_stage(&mut out, *id, name, *tasks, *t);
            }
            SparkEvent::StageCompleted {
                stage_id: id,
                stage_name: name,
                num_tasks: tasks,
                submission_time: t,
                completion_time,
            } => {
                out.push_str(r#"{"Event":"SparkListenerStageCompleted""#);
                write_stage(&mut out, *id, name, *tasks, *t);
                write_time(&mut out, "Completion Time", *completion_time);
            }
            SparkEvent::ApplicationEnd { timestamp } => {
                out.push_str(r#"{"Event":"SparkListenerApplicationEnd""#);
                write_time(&mut out, "Timestamp", *timestamp);
            }
        }
        out.push_str("}\n");
    }
    out
}

/// The four fields both stage events open with.
fn write_stage(out: &mut String, id: u32, name: &str, tasks: u32, submitted: f64) {
    write!(out, r#","Stage ID":{id}"#).expect("string write");
    write_str(out, "Stage Name", name);
    write!(out, r#","Number of Tasks":{tasks}"#).expect("string write");
    write_time(out, "Submission Time", submitted);
}

fn write_str(out: &mut String, key: &str, value: &str) {
    write!(out, r#","{key}":""#).expect("string write");
    escape_json(value, out);
    out.push('"');
}

fn write_time(out: &mut String, key: &str, value: f64) {
    assert!(value.is_finite(), "event log {key} is not finite: {value}");
    write!(out, r#","{key}":{value:?}"#).expect("string write");
}

/// A stage latency extracted from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLatency {
    /// Stage id.
    pub stage_id: u32,
    /// Stage name.
    pub stage_name: String,
    /// Number of tasks.
    pub num_tasks: u32,
    /// Wall-clock latency (completion − submission), seconds.
    pub latency: f64,
}

/// Parses a newline-delimited JSON event log, returning stage latencies in
/// stage order and the total application duration. Blank lines are
/// skipped.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidParameter`] (`what: "event log"`) naming
/// the first bad line, 1-based: malformed JSON, text after the object, an
/// unknown `"Event"`, or a missing or wrongly typed field. The log is
/// machine-generated, so no line is skipped.
pub fn parse_event_log(log: &str) -> Result<(Vec<StageLatency>, Option<f64>), ClusterError> {
    let mut stages = Vec::new();
    let (mut start, mut end) = (None, None);
    for (i, mut line) in log.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut read = || -> Result<(), String> {
            let f = Fields(parse_object(&mut line)?);
            match f.get("Event", true)? {
                "SparkListenerApplicationStart" => {
                    f.get("App Name", true)?;
                    start = Some(f.num("Timestamp")?);
                }
                "SparkListenerStageSubmitted" => {
                    f.num::<u32>("Stage ID")?;
                    f.get("Stage Name", true)?;
                    f.num::<u32>("Number of Tasks")?;
                    f.num::<f64>("Submission Time")?;
                }
                "SparkListenerStageCompleted" => stages.push(StageLatency {
                    stage_id: f.num("Stage ID")?,
                    stage_name: f.get("Stage Name", true)?.into(),
                    num_tasks: f.num("Number of Tasks")?,
                    latency: f.num::<f64>("Completion Time")? - f.num::<f64>("Submission Time")?,
                }),
                "SparkListenerApplicationEnd" => end = Some(f.num("Timestamp")?),
                other => return Err(format!("unknown event {other:?}")),
            }
            Ok(())
        };
        read().map_err(|e| ClusterError::invalid("event log", format!("line {}: {e}", i + 1)))?;
    }
    stages.sort_by_key(|s| s.stage_id);
    Ok((stages, start.zip(end).map(|(s, e): (f64, f64)| e - s)))
}

/// A log line's fields in line order: the key, the value's text (a
/// string unescaped, a number as written), and whether it was a string.
struct Fields(Vec<(String, String, bool)>);

impl Fields {
    /// The text of `key`'s value, which must be a string if `string` and
    /// a number if not.
    fn get(&self, key: &str, string: bool) -> Result<&str, String> {
        let kind = if string { "string" } else { "number" };
        match self.0.iter().find(|(k, ..)| k == key) {
            Some((_, text, quoted)) if *quoted == string => Ok(text),
            Some(_) => Err(format!("field {key:?} is not a {kind}")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// A number field, read by Rust's own parser for `T`.
    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let text = self.get(key, false)?;
        let ty = std::any::type_name::<T>();
        text.parse()
            .map_err(|_| format!("field {key:?} is not a valid {ty}: {text}"))
    }
}

/// Reads a line as a flat JSON object of string and number values. Each
/// step below consumes what it reads from the front of `r`.
fn parse_object(r: &mut &str) -> Result<Vec<(String, String, bool)>, String> {
    let mut fields = Vec::new();
    expect(r, '{')?;
    while !r.trim_start().starts_with('}') {
        if !fields.is_empty() {
            expect(r, ',')?;
        }
        let key = string(r)?;
        expect(r, ':')?;
        let quoted = r.trim_start().starts_with('"');
        let value = if quoted { string(r) } else { number(r) }?;
        fields.push((key, value, quoted));
    }
    expect(r, '}')?;
    match r.trim_start() {
        "" => Ok(fields),
        tail => Err(format!("trailing text {tail:?}")),
    }
}

/// Consumes `c`, after any whitespace.
fn expect(r: &mut &str, c: char) -> Result<(), String> {
    let tail = r.trim_start();
    let rest = tail.strip_prefix(c);
    *r = rest.ok_or_else(|| format!("expected {c:?} before {tail:?}"))?;
    Ok(())
}

/// A string's contents, unescaped.
fn string(r: &mut &str) -> Result<String, String> {
    expect(r, '"')?;
    let mut out = String::new();
    let mut chars = r.chars();
    loop {
        out.push(match chars.next().ok_or("unterminated string")? {
            // The closing quote.
            '"' => break,
            '\\' => match chars.next().ok_or("unterminated string")? {
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                    code.ok_or("bad \\u escape")?
                }
                // JSON's one-character escapes and, in the same order,
                // what they stand for.
                e => match "\"\\/bfnrt".find(e) {
                    Some(i) => char::from(b"\"\\/\x08\x0c\n\r\t"[i]),
                    None => return Err(format!("bad escape \\{e}")),
                },
            },
            c if c < ' ' => return Err("raw control character in a string".into()),
            c => c,
        });
    }
    *r = chars.as_str();
    Ok(out)
}

/// A number's text: the run of characters JSON numbers are made of, which
/// must open with `-` or a digit.
fn number(r: &mut &str) -> Result<String, String> {
    *r = r.trim_start();
    if !r.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
        return Err(format!("expected a string or a number before {r:?}"));
    }
    let len = r.find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'));
    let (text, tail) = r.split_at(len.unwrap_or(r.len()));
    *r = tail;
    Ok(text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<SparkEvent> {
        vec![
            SparkEvent::ApplicationStart {
                app_name: "bayes".into(),
                timestamp: 0.0,
            },
            SparkEvent::StageSubmitted {
                stage_id: 0,
                stage_name: "train".into(),
                num_tasks: 8,
                submission_time: 0.5,
            },
            SparkEvent::StageCompleted {
                stage_id: 0,
                stage_name: "train".into(),
                num_tasks: 8,
                submission_time: 0.5,
                completion_time: 4.0,
            },
            SparkEvent::StageCompleted {
                stage_id: 1,
                stage_name: "aggregate".into(),
                num_tasks: 2,
                submission_time: 4.0,
                completion_time: 5.5,
            },
            SparkEvent::ApplicationEnd { timestamp: 6.0 },
        ]
    }

    /// Events whose timestamps and names exercise every formatting rule.
    fn edge_events() -> Vec<SparkEvent> {
        let name = "t\tab\u{1}é\n\r".to_string();
        vec![
            SparkEvent::ApplicationStart {
                app_name: "a \"quoted\" \\ app".into(),
                timestamp: 0.0,
            },
            SparkEvent::StageSubmitted {
                stage_id: 0,
                stage_name: name.clone(),
                num_tasks: 8,
                submission_time: 0.1 + 0.2,
            },
            SparkEvent::StageCompleted {
                stage_id: 0,
                stage_name: name,
                num_tasks: 8,
                submission_time: 0.1 + 0.2,
                completion_time: 4.0,
            },
            SparkEvent::StageCompleted {
                stage_id: u32::MAX,
                stage_name: "plain".into(),
                num_tasks: 0,
                submission_time: 1e-7,
                completion_time: 1e21,
            },
            SparkEvent::ApplicationEnd { timestamp: 1e21 },
        ]
    }

    /// The bytes the log was written with for [`edge_events`] before this
    /// writer replaced the derive-based one; the format must not drift.
    const EDGE_LOG: &str = concat!(
        r#"{"Event":"SparkListenerApplicationStart","App Name":"a \"quoted\" \\ app","Timestamp":0.0}"#,
        "\n",
        r#"{"Event":"SparkListenerStageSubmitted","Stage ID":0,"Stage Name":"t\tab\u0001é\n\r","Number of Tasks":8,"Submission Time":0.30000000000000004}"#,
        "\n",
        r#"{"Event":"SparkListenerStageCompleted","Stage ID":0,"Stage Name":"t\tab\u0001é\n\r","Number of Tasks":8,"Submission Time":0.30000000000000004,"Completion Time":4.0}"#,
        "\n",
        r#"{"Event":"SparkListenerStageCompleted","Stage ID":4294967295,"Stage Name":"plain","Number of Tasks":0,"Submission Time":1e-7,"Completion Time":1e21}"#,
        "\n",
        r#"{"Event":"SparkListenerApplicationEnd","Timestamp":1e21}"#,
        "\n",
    );

    #[test]
    fn log_bytes_are_pinned() {
        assert_eq!(write_event_log(&edge_events()), EDGE_LOG);
    }

    #[test]
    fn edge_log_parses_back_to_its_events() {
        let (stages, duration) = parse_event_log(EDGE_LOG).unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].stage_name, "t\tab\u{1}é\n\r");
        assert_eq!(
            stages[0].latency.to_bits(),
            (4.0 - (0.1f64 + 0.2)).to_bits()
        );
        assert_eq!(stages[1].stage_id, u32::MAX);
        assert_eq!(stages[1].latency.to_bits(), (1e21f64 - 1e-7).to_bits());
        assert_eq!(duration, Some(1e21));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_timestamp_panics() {
        write_event_log(&[SparkEvent::ApplicationEnd {
            timestamp: f64::NAN,
        }]);
    }

    #[test]
    fn log_roundtrip() {
        let log = write_event_log(&sample_events());
        assert_eq!(log.lines().count(), 5);
        let (stages, duration) = parse_event_log(&log).unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].stage_name, "train");
        assert!((stages[0].latency - 3.5).abs() < 1e-12);
        assert!((stages[1].latency - 1.5).abs() < 1e-12);
        assert_eq!(duration, Some(6.0));
    }

    #[test]
    fn stages_sorted_by_id_even_if_log_is_shuffled() {
        let mut events = sample_events();
        events.swap(2, 3);
        let log = write_event_log(&events);
        let (stages, _) = parse_event_log(&log).unwrap();
        assert_eq!(stages[0].stage_id, 0);
        assert_eq!(stages[1].stage_id, 1);
    }

    #[test]
    fn missing_end_yields_no_duration() {
        let events = &sample_events()[..4];
        let log = write_event_log(events);
        let (_, duration) = parse_event_log(&log).unwrap();
        assert_eq!(duration, None);
    }

    #[test]
    fn keys_in_any_order_whitespace_and_unknown_keys_are_read() {
        let log = concat!(
            r#"{ "Timestamp" : 1 , "Event" : "SparkListenerApplicationStart", "App Name": "x\/yé", "Spark Version": "3.5" }"#,
            "\n",
            r#"{"Completion Time":2.5e0,"Number of Tasks":3,"Submission Time":1.5,"Stage Name":"s","Stage ID":7,"Event":"SparkListenerStageCompleted"}"#,
            "\n",
            r#"{"Event":"SparkListenerApplicationEnd","Timestamp":-0.5E+1}"#,
        );
        let (stages, duration) = parse_event_log(log).unwrap();
        assert_eq!(
            stages,
            [StageLatency {
                stage_id: 7,
                stage_name: "s".into(),
                num_tasks: 3,
                latency: 1.0,
            }]
        );
        assert_eq!(duration, Some(-6.0));
    }

    /// The line number and message of a rejected log.
    fn rejection(log: &str) -> String {
        match parse_event_log(log) {
            Err(ClusterError::InvalidParameter {
                what: "event log",
                message,
            }) => message,
            other => panic!("expected an event log error, got {other:?}"),
        }
    }

    #[test]
    fn each_bad_line_is_an_invalid_parameter_naming_its_line() {
        let good = write_event_log(&sample_events()[..1]);
        let start = good.trim_end();
        let cases = [
            ("not json", r#"line 3: expected '{' before "not json""#),
            (r#"{"Event":"Bogus"}"#, r#"line 3: unknown event "Bogus""#),
            (r#"{"Timestamp":1.0}"#, r#"line 3: missing field "Event""#),
            (
                r#"{"Event":"SparkListenerApplicationEnd"}"#,
                r#"line 3: missing field "Timestamp""#,
            ),
            (
                r#"{"Event":"SparkListenerApplicationEnd","Timestamp":"1.0"}"#,
                r#"line 3: field "Timestamp" is not a number"#,
            ),
            (r#"{"Event":7}"#, r#"line 3: field "Event" is not a string"#),
            (
                r#"{"Event":"SparkListenerStageSubmitted","Stage ID":1.5,"Stage Name":"s","Number of Tasks":1,"Submission Time":0.0}"#,
                r#"line 3: field "Stage ID" is not a valid u32: 1.5"#,
            ),
            (
                r#"{"Event":"SparkListenerApplicationEnd","Timestamp":1.0} x"#,
                r#"line 3: trailing text "x""#,
            ),
            (
                r#"{"Event":"SparkListenerApplicationEnd","Timestamp":1e}"#,
                r#"line 3: field "Timestamp" is not a valid f64: 1e"#,
            ),
            (
                r#"{"Event":"SparkListenerApplicationEnd","Timestamp":true}"#,
                r#"line 3: expected a string or a number before "true}""#,
            ),
            (
                r#"{"Event":"SparkListenerApplicationEnd","Timestamp":1.0"#,
                r#"line 3: expected ',' before """#,
            ),
            (
                r#"{"Event":"SparkListenerApplicationEnd"#,
                "line 3: unterminated string",
            ),
            (r#"{"Ev\q":1}"#, r#"line 3: bad escape \q"#),
            (r#"{"\ud800":1}"#, r#"line 3: bad \u escape"#),
        ];
        for (bad, expected) in cases {
            assert_eq!(rejection(&format!("{start}\n\n{bad}\n{start}\n")), expected);
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let log = format!("\n{}\n\n", write_event_log(&sample_events()));
        assert!(parse_event_log(&log).is_ok());
    }
}
