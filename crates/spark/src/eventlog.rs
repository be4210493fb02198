//! Spark-style JSON event logs.
//!
//! The paper measures its Spark cases by "tracing the timestamps for each
//! stage in the Spark Log files, which are available in the JSON format".
//! Every run emits the same kind of newline-delimited JSON events into
//! `SparkRun::log`, and [`parse_event_log`] recovers from them the same
//! stage latencies and application duration the engine computed. The
//! figures do not read the log: they take `SparkRun::total_time` and
//! `SparkRun::overhead_time` directly.

use serde::{Deserialize, Serialize};

/// One event in the application log, tagged like Spark listener events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "Event")]
pub enum SparkEvent {
    /// Application start.
    #[serde(rename = "SparkListenerApplicationStart")]
    ApplicationStart {
        /// Application name.
        #[serde(rename = "App Name")]
        app_name: String,
        /// Timestamp, seconds since job start.
        #[serde(rename = "Timestamp")]
        timestamp: f64,
    },
    /// Stage submitted by the driver.
    #[serde(rename = "SparkListenerStageSubmitted")]
    StageSubmitted {
        /// Stage id (index in the DAG).
        #[serde(rename = "Stage ID")]
        stage_id: u32,
        /// Stage name.
        #[serde(rename = "Stage Name")]
        stage_name: String,
        /// Number of tasks.
        #[serde(rename = "Number of Tasks")]
        num_tasks: u32,
        /// Submission timestamp.
        #[serde(rename = "Submission Time")]
        submission_time: f64,
    },
    /// Stage completed.
    #[serde(rename = "SparkListenerStageCompleted")]
    StageCompleted {
        /// Stage id.
        #[serde(rename = "Stage ID")]
        stage_id: u32,
        /// Stage name.
        #[serde(rename = "Stage Name")]
        stage_name: String,
        /// Number of tasks.
        #[serde(rename = "Number of Tasks")]
        num_tasks: u32,
        /// Submission timestamp.
        #[serde(rename = "Submission Time")]
        submission_time: f64,
        /// Completion timestamp.
        #[serde(rename = "Completion Time")]
        completion_time: f64,
    },
    /// Application end.
    #[serde(rename = "SparkListenerApplicationEnd")]
    ApplicationEnd {
        /// Timestamp.
        #[serde(rename = "Timestamp")]
        timestamp: f64,
    },
}

/// Serializes events as newline-delimited JSON, the Spark log format.
///
/// # Errors
///
/// Propagates JSON serialization errors.
pub fn write_event_log(events: &[SparkEvent]) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e)?);
        out.push('\n');
    }
    Ok(out)
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
/// stage order and the total application duration.
///
/// Unknown lines are rejected (the log is machine-generated).
///
/// # Errors
///
/// Returns JSON errors for malformed lines.
pub fn parse_event_log(log: &str) -> Result<(Vec<StageLatency>, Option<f64>), serde_json::Error> {
    let mut stages = Vec::new();
    let mut start = None;
    let mut end = None;
    for line in log.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str::<SparkEvent>(line)? {
            SparkEvent::StageCompleted {
                stage_id,
                stage_name,
                num_tasks,
                submission_time,
                completion_time,
            } => stages.push(StageLatency {
                stage_id,
                stage_name,
                num_tasks,
                latency: completion_time - submission_time,
            }),
            SparkEvent::ApplicationStart { timestamp, .. } => start = Some(timestamp),
            SparkEvent::ApplicationEnd { timestamp } => end = Some(timestamp),
            SparkEvent::StageSubmitted { .. } => {}
        }
    }
    stages.sort_by_key(|s| s.stage_id);
    let duration = match (start, end) {
        (Some(s), Some(e)) => Some(e - s),
        _ => None,
    };
    Ok((stages, duration))
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

    #[test]
    fn log_roundtrip() {
        let log = write_event_log(&sample_events()).unwrap();
        assert_eq!(log.lines().count(), 5);
        let (stages, duration) = parse_event_log(&log).unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].stage_name, "train");
        assert!((stages[0].latency - 3.5).abs() < 1e-12);
        assert!((stages[1].latency - 1.5).abs() < 1e-12);
        assert_eq!(duration, Some(6.0));
    }

    #[test]
    fn log_format_matches_spark_naming() {
        let log = write_event_log(&sample_events()).unwrap();
        assert!(log.contains("\"Event\":\"SparkListenerStageCompleted\""));
        assert!(log.contains("\"Stage ID\":0"));
        assert!(log.contains("\"Completion Time\":4.0"));
    }

    #[test]
    fn stages_sorted_by_id_even_if_log_is_shuffled() {
        let mut events = sample_events();
        events.swap(2, 3);
        let log = write_event_log(&events).unwrap();
        let (stages, _) = parse_event_log(&log).unwrap();
        assert_eq!(stages[0].stage_id, 0);
        assert_eq!(stages[1].stage_id, 1);
    }

    #[test]
    fn missing_end_yields_no_duration() {
        let events = &sample_events()[..4];
        let log = write_event_log(events).unwrap();
        let (_, duration) = parse_event_log(&log).unwrap();
        assert_eq!(duration, None);
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(parse_event_log("{\"Event\":\"Bogus\"}\n").is_err());
        assert!(parse_event_log("not json\n").is_err());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let log = format!("\n{}\n\n", write_event_log(&sample_events()).unwrap());
        assert!(parse_event_log(&log).is_ok());
    }
}
