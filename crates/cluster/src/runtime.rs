//! The unified cluster runtime: one executor for every engine.
//!
//! [`execute`] runs a [`TaskGraph`] on the calling thread, in the same
//! three phases the Spark engine pioneered, now shared by all
//! frameworks:
//!
//! 1. **Sample**: per-stage straggler draws and fault resolution, in
//!    stage order, so the RNG stream — and therefore every output byte
//!    — depends only on the graph, the config and the seed;
//! 2. **Schedule**, stage by stage: the actual wave schedule in task
//!    order, the idealized reference
//!    ([`IdealReference`]) and, when requested and observability is on,
//!    the no-straggler reference;
//! 3. **Attribute**: the per-stage [`StageOutcome`]s carry the Ws/Wp/Wo
//!    components — schedule overhead beyond the ideal, wasted recovery
//!    work, lineage recomputation — which the engines accumulate during
//!    their clock walk.
//!
//! Placement is implicit and deterministic: task `t` of a stage lives on
//! node `t % executors`, which is both the wave-schedule executor label
//! and the lineage partition mapping.

use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

use crate::error::ClusterError;
use crate::exec::{run_wave_schedule, uniform_wave_makespan, TaskSchedule};
use crate::fault::{resolve_faults, FaultModel, FaultOutcome, RecoveryPolicy};
use crate::graph::{IdealReference, LineageMode, StageNode, TaskGraph};
use crate::metrics::TaskRecord;
use crate::scheduler::{CentralScheduler, SchedulerPolicy};
use ipso_sim::{Distribution, SimRng};

/// Straggler multiplier at or above which a draw counts as a severe
/// straggler in the metrics registry and the task span view.
pub const SEVERE_MULTIPLIER: f64 = 1.5;

/// Everything the executor needs besides the graph itself: cluster
/// shape, scheduling, noise and fault models.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Executor slots available to every stage's wave.
    pub executors: usize,
    /// Dispatch-cost model of the central scheduler.
    pub scheduler: CentralScheduler,
    /// Kept only because the benchmark package assigns it: every
    /// schedule dispatches in task order ([`SchedulerPolicy::Fifo`]).
    pub policy: SchedulerPolicy,
    /// Straggler multiplier applied to each task's `noisy_base`.
    pub straggler: Distribution,
    /// Fault injection model (disabled consumes zero RNG draws).
    pub faults: FaultModel,
    /// Recovery policy for injected faults.
    pub recovery: RecoveryPolicy,
    /// Must be 1: [`execute`] runs on the calling thread and rejects
    /// any other value. The field stays only because the benchmark
    /// package assigns it.
    pub threads: usize,
}

/// Lineage recomputation triggered by node crashes in one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageRecompute {
    /// Total parent work replayed (s) — charged into `Wo`.
    pub work: f64,
    /// Slowest crashed node's replay (s) — what the clock pays (crashed
    /// nodes recompute in parallel).
    pub makespan: f64,
    /// Number of crashed nodes that replayed.
    pub nodes: u64,
}

/// One stage's execution result: effective durations, schedules and
/// fault/lineage outcomes.
#[derive(Debug)]
pub struct StageOutcome {
    /// Post-noise, post-fault task durations (what the wave ran).
    pub effective: Vec<f64>,
    /// The actual wave schedule.
    pub schedule: TaskSchedule,
    /// Makespan of the stage's [`IdealReference`].
    pub ideal_makespan: f64,
    /// No-straggler durations and their makespan under the *real*
    /// scheduler — present only when the graph requests the reference
    /// and observability is on.
    pub no_straggler: Option<(Vec<f64>, f64)>,
    /// Fault resolution, when the model is enabled.
    pub fault: Option<FaultOutcome>,
    /// Lineage recomputation caused by this stage's node crashes.
    pub lineage: Option<LineageRecompute>,
}

impl StageOutcome {
    /// Schedule overhead beyond the idealized reference:
    /// `(makespan − ideal).max(0)` — dispatch serialization, first-wave
    /// costs, straggler tail and recovery latency, i.e. the stage's
    /// contribution to `Wo` on the critical path.
    pub fn schedule_overhead(&self) -> f64 {
        (self.schedule.makespan - self.ideal_makespan).max(0.0)
    }

    /// Work burned by fault recovery (failed attempts, lost outputs,
    /// speculative losers) — scale-out-induced workload, since the
    /// sequential reference never re-executes.
    pub fn wasted(&self) -> f64 {
        self.fault
            .as_ref()
            .map_or(0.0, |o| o.summary.wasted_total())
    }

    /// The straggler-tail share of [`StageOutcome::schedule_overhead`]:
    /// how much of the makespan the no-straggler reference would have
    /// avoided, clamped into the overhead. Zero without the reference.
    pub fn straggler_tail(&self) -> f64 {
        self.no_straggler.as_ref().map_or(0.0, |(_, ns_makespan)| {
            (self.schedule.makespan - ns_makespan).clamp(0.0, self.schedule_overhead())
        })
    }

    /// Emits the per-task spans and severe-straggler instants for this
    /// stage onto the executor tracks, with the stage's wave starting at
    /// virtual time `t0`. A task is a severe straggler when its
    /// effective duration reached [`SEVERE_MULTIPLIER`]×
    /// its nominal (`noisy_base + fixed`) duration. No-op when
    /// observability is off.
    pub fn record_task_spans(&self, stage: &StageNode, category: &'static str, t0: f64) {
        if !ipso_obs::enabled() {
            return;
        }
        let records = &self.schedule.records;
        let executors = EXECUTOR_LABELS.up_to(records.iter().map(|r| r.executor).max());
        let tasks = TASK_LABELS.up_to(records.iter().map(|r| r.task_id).max());
        for record in records {
            let track = executors[record.executor as usize];
            let id = record.task_id as usize;
            let nominal = stage.nominal(id);
            let end = t0 + record.end;
            ipso_obs::record_span(track, tasks[id], category, t0 + record.start, end);
            if nominal > 0.0 && self.effective[id] / nominal >= SEVERE_MULTIPLIER {
                ipso_obs::record_instant(track, "straggler", category, end);
            }
        }
    }

    /// Emits one instant per recovery event (retry, lost output,
    /// speculative copy) at the affected task's finish time, offset by
    /// `t0`. No-op when faults are disabled or observability is off.
    pub fn record_fault_instants(&self, category: &'static str, t0: f64) {
        if !ipso_obs::enabled() {
            return;
        }
        if let Some(outcome) = &self.fault {
            let records = &self.schedule.records;
            let executors = EXECUTOR_LABELS.up_to(records.iter().map(|r| r.executor).max());
            for event in &outcome.summary.events {
                let record: &TaskRecord = &records[event.task as usize];
                let name = match event.kind {
                    crate::fault::RecoveryEventKind::AttemptFailed { .. } => "task-retry",
                    crate::fault::RecoveryEventKind::OutputLost { .. } => "output-lost",
                    crate::fault::RecoveryEventKind::Speculated { .. } => "speculative-copy",
                };
                let track = executors[record.executor as usize];
                ipso_obs::record_instant(track, name, category, t0 + record.end);
            }
        }
    }
}

/// Track labels of the executors recorded so far: `executor-0`, ….
static EXECUTOR_LABELS: Labels = Labels::new("executor-");
/// Span labels of the task indices recorded so far: `task-0`, ….
static TASK_LABELS: Labels = Labels::new("task-");

/// The labels `"{prefix}{i}"`, built once per index `i` and kept for the
/// process, so that a traced run moves a borrowed label into each event
/// instead of formatting one per task.
///
/// The table covers the indices below a power of two. One too short is
/// replaced by one at least twice as long, whose new labels share one
/// string. So recording indices up to `n` allocates O(log n) times,
/// builds each label once, and the replaced tables together hold fewer
/// entries than the current one.
struct Labels {
    prefix: &'static str,
    table: Mutex<&'static [&'static str]>,
}

impl Labels {
    const fn new(prefix: &'static str) -> Labels {
        Labels {
            prefix,
            table: Mutex::new(&[]),
        }
    }

    /// The labels of indices `0..=max` at least; none for `None`.
    fn up_to(&self, max: Option<u32>) -> &'static [&'static str] {
        // The table changes in one store of a complete table, so a lock
        // poisoned by a panic elsewhere still guards a valid one.
        let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        let needed = max.map_or(0, |max| max as usize + 1);
        if table.len() >= needed {
            return *table;
        }
        let (from, to) = (table.len(), needed.next_power_of_two());
        let digits = |i: usize| i.checked_ilog10().map_or(1, |d| d as usize + 1);
        let bytes = (from..to).map(|i| self.prefix.len() + digits(i)).sum();
        let mut text = String::with_capacity(bytes);
        for i in from..to {
            write!(text, "{}{i}", self.prefix).expect("string write");
        }
        let text: &'static str = text.leak();
        let mut labels = Vec::with_capacity(to);
        labels.extend_from_slice(*table);
        let mut start = 0;
        for i in from..to {
            let end = start + self.prefix.len() + digits(i);
            labels.push(&text[start..end]);
            start = end;
        }
        *table = Vec::leak(labels);
        *table
    }
}

/// The whole graph's execution result, stages in graph order.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-stage outcomes, parallel to `graph.stages`.
    pub stages: Vec<StageOutcome>,
    /// The graph's one-time scale-out setup cost, passed through for
    /// accounting symmetry.
    pub setup_overhead: f64,
}

impl RunOutcome {
    /// Total scale-out-induced workload `Wo` across the run: setup, then
    /// per stage the schedule overhead, wasted recovery work and lineage
    /// replay. Engines that interleave the accumulation with a clock walk
    /// (adding the stage's `pre_overhead` where it lands on the timeline)
    /// reproduce this sum term by term.
    pub fn overhead_total(&self) -> f64 {
        let mut total = self.setup_overhead;
        for outcome in &self.stages {
            total += outcome.schedule_overhead();
            total += outcome.wasted();
            if let Some(l) = &outcome.lineage {
                total += l.work;
            }
        }
        total
    }
}

/// The per-stage sampling result of phase 1.
struct StageSample {
    effective: Vec<f64>,
    fault: Option<FaultOutcome>,
    lineage: Option<LineageRecompute>,
}

/// Executes `graph` under `config`, drawing straggler and fault
/// randomness from `rng`.
///
/// Phase 1 consumes the RNG sequentially in stage order — first the
/// per-task straggler multipliers (in task order), then, when the fault
/// model is enabled, [`resolve_faults`] — exactly the draw order the
/// engines used before the runtime existed, so seeded streams are
/// preserved byte for byte. Phase 2 then computes every stage's
/// schedules, in stage order.
///
/// # Errors
///
/// Returns [`ClusterError::InvalidParameter`] for an invalid graph or
/// config, including any `config.threads` other than 1, and propagates
/// [`ClusterError::RetriesExhausted`] /
/// [`ClusterError::WastedWorkExceeded`] from fault resolution.
pub fn execute(
    graph: &TaskGraph,
    config: &RuntimeConfig,
    rng: &mut SimRng,
) -> Result<RunOutcome, ClusterError> {
    graph.validate()?;
    if config.executors == 0 {
        return Err(ClusterError::invalid(
            "runtime config",
            "need at least one executor",
        ));
    }
    if config.threads != 1 {
        let message = format!("threads must be 1, got {}", config.threads);
        return Err(ClusterError::invalid("runtime config", message));
    }

    // Phase 1 — sample. All RNG consumption happens here, sequentially
    // in stage order.
    let mut samples: Vec<StageSample> = Vec::with_capacity(graph.stages.len());
    for stage in &graph.stages {
        let mut effective: Vec<f64> = (0..stage.tasks())
            .map(|i| {
                let m = config.straggler.sample(rng);
                if ipso_obs::enabled() {
                    ipso_obs::counter_add("straggler.draws", 1);
                    if m >= SEVERE_MULTIPLIER {
                        ipso_obs::counter_add("straggler.severe_draws", 1);
                    }
                }
                stage.noisy_base[i] * m + stage.fixed(i)
            })
            .collect();
        let fault: Option<FaultOutcome> = if config.faults.enabled() {
            Some(resolve_faults(
                &effective,
                config.executors,
                &config.faults,
                &config.recovery,
                rng,
            )?)
        } else {
            None
        };
        if let Some(outcome) = &fault {
            effective = outcome.durations.clone();
        }

        // Lineage: a crash during this stage replays the crashed node's
        // resident parent partitions (task t of a parent lives on node
        // t % executors). Expressed as a graph property, not engine code.
        let lineage = match (&fault, stage.lineage) {
            (Some(outcome), LineageMode::RecomputeParents)
                if !outcome.crashed_nodes.is_empty() && !stage.deps.is_empty() =>
            {
                let mut work = 0.0f64;
                let mut makespan = 0.0f64;
                for &node in &outcome.crashed_nodes {
                    let mut node_work = 0.0f64;
                    for &dep in &stage.deps {
                        node_work += samples[dep]
                            .effective
                            .iter()
                            .skip(node as usize)
                            .step_by(config.executors)
                            .sum::<f64>();
                    }
                    work += node_work;
                    makespan = makespan.max(node_work);
                }
                Some(LineageRecompute {
                    work,
                    makespan,
                    nodes: outcome.crashed_nodes.len() as u64,
                })
            }
            _ => None,
        };

        samples.push(StageSample {
            effective,
            fault,
            lineage,
        });
    }

    // Phase 2 — schedule, stage by stage.
    let outcomes = graph
        .stages
        .iter()
        .zip(samples)
        .map(|(stage, sample)| {
            let schedule =
                run_wave_schedule(&sample.effective, config.executors, &config.scheduler);
            let ideal_makespan = match &stage.ideal {
                IdealReference::SlowestTask => schedule.max_task_duration(),
                IdealReference::Uniform { duration } => uniform_wave_makespan(
                    *duration,
                    sample.effective.len(),
                    config.executors,
                    &CentralScheduler::idealized(),
                ),
                IdealReference::Tasks(ideal) => {
                    run_wave_schedule(ideal, config.executors, &CentralScheduler::idealized())
                        .makespan
                }
            };
            // No-straggler schedule under the *same* scheduler, used to
            // split overhead into tail and scheduling shares.
            let no_straggler = if graph.no_straggler_reference && ipso_obs::enabled() {
                let ns: Vec<f64> = (0..stage.tasks()).map(|t| stage.nominal(t)).collect();
                let ns_makespan =
                    run_wave_schedule(&ns, config.executors, &config.scheduler).makespan;
                Some((ns, ns_makespan))
            } else {
                None
            };
            StageOutcome {
                effective: sample.effective,
                schedule,
                ideal_makespan,
                no_straggler,
                fault: sample.fault,
                lineage: sample.lineage,
            }
        })
        .collect();

    Ok(RunOutcome {
        stages: outcomes,
        setup_overhead: graph.setup_overhead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{IdealReference, LineageMode, StageNode, TaskGraph};

    fn config(executors: usize) -> RuntimeConfig {
        RuntimeConfig {
            executors,
            scheduler: CentralScheduler::idealized(),
            policy: SchedulerPolicy::Fifo,
            straggler: Distribution::Fixed { value: 1.0 },
            faults: FaultModel::none(),
            recovery: RecoveryPolicy::hadoop_like(),
            threads: 1,
        }
    }

    fn single_stage(tasks: usize) -> TaskGraph {
        TaskGraph {
            job: "t".into(),
            stages: vec![StageNode {
                name: "map".into(),
                noisy_base: vec![1.0; tasks],
                fixed_extra: Vec::new(),
                deps: Vec::new(),
                pre_overhead: 0.0,
                ideal: IdealReference::SlowestTask,
                lineage: LineageMode::None,
            }],
            setup_overhead: 0.0,
            no_straggler_reference: false,
        }
    }

    #[test]
    fn noise_free_single_stage_has_no_slowest_task_overhead() {
        let g = single_stage(8);
        let mut rng = SimRng::seed_from(1);
        let out = execute(&g, &config(8), &mut rng).unwrap();
        let s = &out.stages[0];
        assert_eq!(s.effective, vec![1.0; 8]);
        // Ideal = slowest task; overhead is only the dispatch stretch.
        assert!(s.schedule_overhead() < 0.01);
        assert_eq!(s.wasted(), 0.0);
        assert!(s.lineage.is_none());
    }

    #[test]
    fn execute_rejects_bad_inputs() {
        let mut g = single_stage(2);
        let mut rng = SimRng::seed_from(1);
        assert!(matches!(
            execute(&g, &config(0), &mut rng),
            Err(ClusterError::InvalidParameter { .. })
        ));
        g.stages[0].noisy_base[0] = -1.0;
        assert!(execute(&g, &config(2), &mut rng).is_err());
    }

    #[test]
    fn straggler_draws_are_in_task_order() {
        // Same seed, two paths: manual draws vs execute. Streams match.
        let g = single_stage(5);
        let cfg = RuntimeConfig {
            straggler: Distribution::jitter(0.05),
            ..config(5)
        };
        let mut rng = SimRng::seed_from(42);
        let out = execute(&g, &cfg, &mut rng).unwrap();
        let mut rng2 = SimRng::seed_from(42);
        let manual: Vec<f64> = (0..5)
            .map(|_| 1.0 * cfg.straggler.sample(&mut rng2) + 0.0)
            .collect();
        assert_eq!(out.stages[0].effective, manual);
    }

    #[test]
    fn lineage_replays_crashed_nodes_parent_partitions() {
        let mut g = single_stage(4);
        g.stages.push(StageNode {
            name: "s1".into(),
            noisy_base: vec![1.0; 4],
            fixed_extra: Vec::new(),
            deps: vec![0],
            pre_overhead: 0.0,
            ideal: IdealReference::Uniform { duration: 1.0 },
            lineage: LineageMode::RecomputeParents,
        });
        let cfg = RuntimeConfig {
            faults: FaultModel {
                node_crash_prob: 1.0,
                ..FaultModel::none()
            },
            ..config(2)
        };
        let mut rng = SimRng::seed_from(3);
        let out = execute(&g, &cfg, &mut rng).unwrap();
        // Stage 0 has lineage None: crashes there never replay anything.
        assert!(out.stages[0].lineage.is_none());
        let l = out.stages[1].lineage.as_ref().expect("both nodes crash");
        // Both nodes replay stage 0's partitions: total work = all of
        // stage 0's effective time, makespan = the slower node.
        let stage0_total: f64 = out.stages[0].effective.iter().sum();
        assert!((l.work - stage0_total).abs() < 1e-12);
        assert!(l.makespan <= l.work);
        assert_eq!(l.nodes, 2);
        assert!(out.overhead_total() >= l.work);
    }
}
