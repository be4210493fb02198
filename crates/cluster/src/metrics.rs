//! Job traces and phase breakdowns produced by the engines.

use serde::{Deserialize, Serialize};

use crate::fault::FaultSummary;
use crate::scheduler::CentralScheduler;
use crate::straggler::StragglerModel;

/// Engine configuration recorded alongside a trace so a run can be
/// reproduced from its serialized form alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Scheduler cost parameters in effect.
    pub scheduler: CentralScheduler,
    /// Straggler model in effect.
    pub straggler: StragglerModel,
    /// The RNG seed of the run.
    pub seed: u64,
}

/// Wall-clock time per job phase, mirroring the paper's four-part
/// decomposition (with the reduce phase split into its shuffle / merge /
/// reduce stages).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Environment initialization and job scheduling (s).
    pub init: f64,
    /// Map / split phase (s) — in a scale-out run, the slowest task.
    pub map: f64,
    /// Shuffle stage: reducer pulls mapper output (s).
    pub shuffle: f64,
    /// Merge stage of the reduce phase (s).
    pub merge: f64,
    /// Final reduce stage (s).
    pub reduce: f64,
}

impl PhaseTimes {
    /// Total job wall-clock time.
    pub fn total(&self) -> f64 {
        self.init + self.map + self.shuffle + self.merge + self.reduce
    }

    /// The serial (post-map) portion: shuffle + merge + reduce.
    pub fn serial_portion(&self) -> f64 {
        self.shuffle + self.merge + self.reduce
    }
}

/// One executed task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Task index within its stage.
    pub task_id: u32,
    /// Executor (worker slot) that ran it.
    pub executor: u32,
    /// Start time (s since job start).
    pub start: f64,
    /// End time (s since job start).
    pub end: f64,
}

impl TaskRecord {
    /// Task duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A complete job trace: phases, per-task records and bookkeeping the
/// analysis pipeline uses to separate `Wo(n)` from useful work.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JobTrace {
    /// Job label (e.g. `"terasort"`).
    pub job: String,
    /// Scale-out degree of the run.
    pub n: u32,
    /// Phase breakdown.
    pub phases: PhaseTimes,
    /// Per-task records of the map/split phase.
    pub tasks: Vec<TaskRecord>,
    /// Scale-out-only overhead (dispatching, broadcast, queueing) — the
    /// measured `Wo(n)` (s).
    pub scale_out_overhead: f64,
    /// Engine configuration and seed of the run, when recorded. Defaults
    /// to `None` so traces serialized before this field existed still
    /// deserialize.
    #[serde(default)]
    pub config: Option<RunConfig>,
    /// Fault-injection and recovery accounting, recorded only when the
    /// run's fault model was enabled. Defaults to `None` so traces
    /// serialized before this field existed still deserialize — and so
    /// fault-free runs serialize `"faults":null`, keeping their traces
    /// stable as the fault layer evolves.
    #[serde(default)]
    pub faults: Option<FaultSummary>,
}

impl JobTrace {
    /// Total job wall-clock time including scale-out overhead.
    pub fn total_time(&self) -> f64 {
        self.phases.total() + self.scale_out_overhead
    }

    /// The slowest map task's duration, `max_i Tp,i(n)`.
    ///
    /// Non-finite durations (as can appear in hand-edited or corrupted
    /// trace files) are ignored rather than panicking; `None` is returned
    /// when no finite duration exists.
    pub fn max_task_duration(&self) -> Option<f64> {
        self.tasks
            .iter()
            .map(TaskRecord::duration)
            .filter(|d| d.is_finite())
            .fold(None, |acc, d| Some(acc.map_or(d, |m: f64| m.max(d))))
    }

    /// Checks the structural invariants every engine-produced trace must
    /// satisfy — the contract the parallel execution paths are tested
    /// against:
    ///
    /// * all phase times and the scale-out overhead are finite and ≥ 0;
    /// * task records are in task-id order with finite `0 ≤ start ≤ end`;
    /// * when task records exist, the map phase equals the slowest task;
    /// * a recorded fault summary satisfies its own invariants, its events
    ///   reference existing tasks, and its wasted work is bounded by the
    ///   recorded scale-out overhead (the engines charge wasted work into
    ///   `Wo`).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant. The error stays a `String`
    /// because it carries [`FaultSummary::check_invariants`]'s, which
    /// `perfbench/src/cluster.rs:57` pins.
    pub fn check_invariants(&self) -> Result<(), String> {
        let phases = [
            ("init", self.phases.init),
            ("map", self.phases.map),
            ("shuffle", self.phases.shuffle),
            ("merge", self.phases.merge),
            ("reduce", self.phases.reduce),
            ("scale_out_overhead", self.scale_out_overhead),
        ];
        for (name, value) in phases {
            if !value.is_finite() || value < 0.0 {
                return Err(format!("{name} time must be finite and >= 0, got {value}"));
            }
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.task_id != i as u32 {
                return Err(format!("task {i} out of order (id {})", t.task_id));
            }
            if !t.start.is_finite() || !t.end.is_finite() || t.start < 0.0 || t.end < t.start {
                return Err(format!(
                    "task {i} has invalid interval [{}, {}]",
                    t.start, t.end
                ));
            }
        }
        if let Some(max) = self.max_task_duration() {
            if (self.phases.map - max).abs() > 1e-9 {
                return Err(format!(
                    "map phase {} disagrees with slowest task {max}",
                    self.phases.map
                ));
            }
        }
        if let Some(faults) = &self.faults {
            faults.check_invariants()?;
            if !self.tasks.is_empty() {
                for e in &faults.events {
                    if e.task as usize >= self.tasks.len() {
                        return Err(format!(
                            "fault event references task {} of {}",
                            e.task,
                            self.tasks.len()
                        ));
                    }
                }
            }
            if faults.wasted_total() > self.scale_out_overhead + 1e-9 {
                return Err(format!(
                    "wasted work {} exceeds recorded scale-out overhead {}",
                    faults.wasted_total(),
                    self.scale_out_overhead
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> JobTrace {
        JobTrace {
            job: "sort".into(),
            n: 4,
            phases: PhaseTimes {
                init: 1.0,
                map: 10.0,
                shuffle: 2.0,
                merge: 3.0,
                reduce: 1.0,
            },
            tasks: vec![
                TaskRecord {
                    task_id: 0,
                    executor: 0,
                    start: 1.0,
                    end: 9.0,
                },
                TaskRecord {
                    task_id: 1,
                    executor: 1,
                    start: 1.0,
                    end: 11.0,
                },
                TaskRecord {
                    task_id: 2,
                    executor: 2,
                    start: 1.0,
                    end: 10.0,
                },
            ],
            scale_out_overhead: 0.5,
            config: Some(RunConfig {
                scheduler: CentralScheduler::hadoop_like(),
                straggler: StragglerModel::mild(),
                seed: 42,
            }),
            faults: None,
        }
    }

    #[test]
    fn totals_add_up() {
        let t = trace();
        assert!((t.phases.total() - 17.0).abs() < 1e-12);
        assert!((t.phases.serial_portion() - 6.0).abs() < 1e-12);
        assert!((t.total_time() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn task_statistics() {
        let t = trace();
        assert_eq!(t.max_task_duration(), Some(10.0));
        assert_eq!(t.tasks[1].duration(), 10.0);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = JobTrace::default();
        assert_eq!(t.max_task_duration(), None);
        assert_eq!(t.total_time(), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let t = trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: JobTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn max_task_duration_ignores_non_finite() {
        let mut t = trace();
        t.tasks.push(TaskRecord {
            task_id: 3,
            executor: 3,
            start: f64::NAN,
            end: 2.0,
        });
        t.tasks.push(TaskRecord {
            task_id: 4,
            executor: 0,
            start: 0.0,
            end: f64::INFINITY,
        });
        // Must not panic; the finite maximum survives.
        assert_eq!(t.max_task_duration(), Some(10.0));

        let all_nan = JobTrace {
            tasks: vec![TaskRecord {
                task_id: 0,
                executor: 0,
                start: f64::NAN,
                end: 1.0,
            }],
            ..JobTrace::default()
        };
        assert_eq!(all_nan.max_task_duration(), None);
    }

    #[test]
    fn old_traces_without_config_still_deserialize() {
        let t = trace();
        let json = serde_json::to_string(&t).unwrap();
        // Strip the config field, emulating a pre-RunConfig trace file.
        let legacy = {
            let start = json.find(",\"config\":").expect("config serialized");
            let mut s = json[..start].to_string();
            s.push('}');
            s
        };
        let back: JobTrace = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.config, None);
        assert_eq!(back.phases, t.phases);
        assert_eq!(back.tasks, t.tasks);
    }

    #[test]
    fn invariants_hold_for_well_formed_traces() {
        assert_eq!(trace().check_invariants(), Ok(()));
        assert_eq!(JobTrace::default().check_invariants(), Ok(()));
    }

    #[test]
    fn invariants_catch_corruption() {
        let mut t = trace();
        t.phases.shuffle = -1.0;
        assert!(t.check_invariants().is_err());

        let mut t = trace();
        t.tasks[1].end = t.tasks[1].start - 1.0;
        assert!(t.check_invariants().is_err());

        let mut t = trace();
        t.tasks.swap(0, 1);
        assert!(t.check_invariants().is_err());

        let mut t = trace();
        t.phases.map = 99.0; // disagrees with slowest task (10 s)
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn fault_summary_invariants_are_enforced() {
        use crate::fault::{FaultSummary, RecoveryEvent, RecoveryEventKind};
        let mut t = trace();
        t.scale_out_overhead = 5.0;
        t.faults = Some(FaultSummary {
            attempts: 4,
            retries: 1,
            retry_wasted_s: 2.0,
            events: vec![RecoveryEvent {
                task: 1,
                kind: RecoveryEventKind::AttemptFailed {
                    attempt: 1,
                    lost_s: 2.0,
                    backoff_s: 0.3,
                },
            }],
            ..FaultSummary::default()
        });
        assert_eq!(t.check_invariants(), Ok(()));
        let json = serde_json::to_string(&t).unwrap();
        let back: JobTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);

        // Wasted work beyond the recorded overhead is corruption: the
        // engines always charge it into Wo.
        t.faults.as_mut().unwrap().retry_wasted_s = 50.0;
        assert!(t.check_invariants().is_err());

        // As is an event pointing at a task that does not exist.
        let mut t2 = trace();
        t2.scale_out_overhead = 5.0;
        t2.faults = Some(FaultSummary {
            events: vec![RecoveryEvent {
                task: 99,
                kind: RecoveryEventKind::OutputLost {
                    node: 0,
                    recompute_s: 0.1,
                },
            }],
            crash_wasted_s: 0.1,
            outputs_lost: 1,
            node_crashes: 1,
            attempts: 4,
            ..FaultSummary::default()
        });
        assert!(t2.check_invariants().is_err());
    }

    #[test]
    fn config_survives_roundtrip() {
        let t = trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: JobTrace = serde_json::from_str(&json).unwrap();
        let cfg = back.config.expect("config present");
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.scheduler, CentralScheduler::hadoop_like());
        assert_eq!(cfg.straggler, StragglerModel::mild());
    }
}
