//! Fault injection and recovery.
//!
//! Re-executed and speculative tasks are a canonical, superlinearly
//! growing contributor to the paper's scale-out-induced workload
//! `Wo(n) = (Wp(n)/n)·q(n)`: every failure burns work that must be
//! redone, and the more tasks a job launches, the more failures it
//! collects. This module injects faults into a task wave and resolves
//! them under a recovery policy, deterministically:
//!
//! * [`FaultModel`] — per-attempt failure probability, a time-to-failure
//!   [`Distribution`] (exponential or Weibull in practice) deciding how
//!   much of the attempt was wasted, and correlated node crashes that
//!   lose every task resident on the crashed executor;
//! * [`RecoveryPolicy`] — retry with capped exponential backoff and
//!   deterministic jitter, speculative execution (a backup copy launches
//!   when a task exceeds `speculation_threshold ×` the running median;
//!   first copy to finish wins, the loser's work is charged to `Wo`), and
//!   an optional fail-fast wasted-work budget;
//! * [`resolve_faults`] — turns nominal task durations into *effective*
//!   durations (recovery latency on the schedule's critical path) plus a
//!   [`FaultSummary`] of wasted-work seconds (charged into `Wo(n)` by the
//!   engines) and per-task [`RecoveryEvent`]s.
//!
//! All randomness flows through the caller's [`SimRng`] in a fixed task
//! order, and a disabled model ([`FaultModel::enabled`] = `false`)
//! consumes zero draws — so runs stay byte-deterministic, and
//! byte-identical to pre-fault builds when disabled.

use ipso_sim::{Distribution, SimRng};

use crate::error::ClusterError;

/// The fault-injection model for one task wave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability that any single task attempt fails.
    pub task_fail_prob: f64,
    /// How far into a failing attempt the failure strikes. The draw is
    /// clamped to the attempt's duration: a failure cannot waste more
    /// work than the attempt had performed.
    pub ttf: Distribution,
    /// Probability that a node (executor) crashes during the wave,
    /// losing the outputs of *all* tasks resident on it — the correlated
    /// failure mode that motivates Spark's lineage re-execution.
    pub node_crash_prob: f64,
    /// Fixed cost to restart a task after any failure (container
    /// re-negotiation, input re-read), seconds.
    pub restart_cost: f64,
}

impl FaultModel {
    /// The disabled model: no failures, no crashes, zero RNG draws.
    pub fn none() -> FaultModel {
        FaultModel {
            task_fail_prob: 0.0,
            ttf: Distribution::Exponential {
                shift: 0.0,
                mean: 1.0,
            },
            node_crash_prob: 0.0,
            restart_cost: 0.0,
        }
    }

    /// A flaky-cluster preset: attempts fail with probability `p`, with
    /// infant-mortality (Weibull, shape 0.7) failure times and a 0.25 s
    /// restart cost. Node crashes stay disabled; set
    /// [`FaultModel::node_crash_prob`] separately.
    pub fn flaky(p: f64) -> FaultModel {
        FaultModel {
            task_fail_prob: p,
            ttf: Distribution::Weibull {
                shape: 0.7,
                scale: 1.0,
            },
            node_crash_prob: 0.0,
            restart_cost: 0.25,
        }
    }

    /// Whether any fault source is active. When `false`, the engines
    /// bypass [`resolve_faults`] entirely: zero RNG draws, no events, no
    /// metrics — outputs stay byte-identical to a fault-free build.
    pub fn enabled(&self) -> bool {
        self.task_fail_prob > 0.0 || self.node_crash_prob > 0.0
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] on a violated range.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if !(0.0..=1.0).contains(&self.task_fail_prob) || !self.task_fail_prob.is_finite() {
            return Err(ClusterError::invalid(
                "task failure probability",
                format!("must be in [0, 1], got {}", self.task_fail_prob),
            ));
        }
        if !(0.0..=1.0).contains(&self.node_crash_prob) || !self.node_crash_prob.is_finite() {
            return Err(ClusterError::invalid(
                "node crash probability",
                format!("must be in [0, 1], got {}", self.node_crash_prob),
            ));
        }
        if !self.restart_cost.is_finite() || self.restart_cost < 0.0 {
            return Err(ClusterError::invalid(
                "restart cost",
                format!("must be finite and >= 0, got {}", self.restart_cost),
            ));
        }
        self.ttf
            .validate()
            .map_err(|rule| ClusterError::invalid("time-to-failure", rule))
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// How injected faults are recovered from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum attempts per task (first run included), `>= 1`. A task
    /// failing all attempts aborts the job with
    /// [`ClusterError::RetriesExhausted`].
    pub max_attempts: u32,
    /// Backoff before retry `k` is `min(cap, base · factor^(k−1))`,
    /// jittered. Base wait, seconds.
    pub backoff_base: f64,
    /// Exponential backoff growth factor, `>= 1`.
    pub backoff_factor: f64,
    /// Upper bound on any single backoff wait, seconds.
    pub backoff_cap: f64,
    /// Multiplicative jitter half-width in `[0, 1)`: the wait is scaled
    /// by a seeded uniform draw in `[1 − jitter, 1 + jitter]`, so jitter
    /// is deterministic given the run's seed.
    pub backoff_jitter: f64,
    /// Launch a backup copy of a task whose effective duration exceeds
    /// `speculation_threshold ×` the running median of earlier tasks.
    /// First copy to finish wins; the loser's work is charged to `Wo`.
    pub speculation: bool,
    /// Slowdown multiple that triggers speculation, `> 1`.
    pub speculation_threshold: f64,
    /// Fail-fast guard: abort with [`ClusterError::WastedWorkExceeded`]
    /// when wasted work exceeds this fraction of the wave's useful work.
    /// `0` disables the guard.
    pub max_wasted_fraction: f64,
}

impl RecoveryPolicy {
    /// Hadoop-like defaults: 4 attempts, 0.25 s base backoff doubling up
    /// to 4 s with ±20% jitter, speculation off, no fail-fast budget.
    pub fn hadoop_like() -> RecoveryPolicy {
        RecoveryPolicy {
            max_attempts: 4,
            backoff_base: 0.25,
            backoff_factor: 2.0,
            backoff_cap: 4.0,
            backoff_jitter: 0.2,
            speculation: false,
            speculation_threshold: 1.5,
            max_wasted_fraction: 0.0,
        }
    }

    /// This policy with speculative execution enabled.
    pub fn with_speculation(mut self) -> RecoveryPolicy {
        self.speculation = true;
        self
    }

    /// The jittered wait before retry attempt `attempt + 1` (i.e. after
    /// the `attempt`-th failure, 1-based).
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> f64 {
        let exp = self.backoff_factor.powi(attempt.saturating_sub(1) as i32);
        let wait = (self.backoff_base * exp).min(self.backoff_cap);
        wait * rng.jitter(self.backoff_jitter)
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] on a violated range.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.max_attempts == 0 {
            return Err(ClusterError::invalid("max attempts", "must be at least 1"));
        }
        for (what, v) in [
            ("backoff base", self.backoff_base),
            ("backoff cap", self.backoff_cap),
            ("max wasted fraction", self.max_wasted_fraction),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ClusterError::invalid(
                    what,
                    format!("must be finite and >= 0, got {v}"),
                ));
            }
        }
        if !self.backoff_factor.is_finite() || self.backoff_factor < 1.0 {
            return Err(ClusterError::invalid(
                "backoff factor",
                format!("must be >= 1, got {}", self.backoff_factor),
            ));
        }
        if !(0.0..1.0).contains(&self.backoff_jitter) {
            return Err(ClusterError::invalid(
                "backoff jitter",
                format!("must be in [0, 1), got {}", self.backoff_jitter),
            ));
        }
        if !self.speculation_threshold.is_finite() || self.speculation_threshold <= 1.0 {
            return Err(ClusterError::invalid(
                "speculation threshold",
                format!("must exceed 1, got {}", self.speculation_threshold),
            ));
        }
        Ok(())
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::hadoop_like()
    }
}

/// What happened to one task during fault resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryEventKind {
    /// An attempt failed and was retried after a backoff.
    AttemptFailed {
        /// Which attempt failed (1-based).
        attempt: u32,
        /// Work burned by the failed attempt, seconds (restart excluded).
        lost_s: f64,
        /// Jittered backoff waited before the retry, seconds.
        backoff_s: f64,
    },
    /// A completed task's output was lost to a node crash and recomputed.
    OutputLost {
        /// The crashed node (executor slot).
        node: u32,
        /// Work redone to restore the output, seconds.
        recompute_s: f64,
    },
    /// A backup copy was launched for a slow task.
    Speculated {
        /// Whether the backup finished before the original.
        backup_won: bool,
        /// The losing copy's work, charged to `Wo`, seconds.
        wasted_s: f64,
    },
}

/// One recovery event, attributed to a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// The task the event happened to.
    pub task: u32,
    /// What happened.
    pub kind: RecoveryEventKind,
}

/// Aggregated fault/recovery accounting of one run, recorded on the
/// [`crate::JobTrace`] so wasted work is attributable after the fact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSummary {
    /// Total attempts launched, speculative backups included. At least
    /// one per task.
    pub attempts: u32,
    /// Failed attempts that were retried.
    pub retries: u32,
    /// Nodes that crashed during the wave.
    pub node_crashes: u32,
    /// Completed task outputs lost to node crashes.
    pub outputs_lost: u32,
    /// Speculative backup copies launched.
    pub speculative_launches: u32,
    /// Backup copies that finished before their originals.
    pub speculative_wins: u32,
    /// Work burned by failed attempts and their restarts, seconds.
    pub retry_wasted_s: f64,
    /// Work redone after node crashes (lost outputs + restarts), seconds.
    pub crash_wasted_s: f64,
    /// Losing-copy work from speculative execution, seconds.
    pub speculation_wasted_s: f64,
    /// Per-task recovery events, in resolution order (task order within
    /// each resolution phase).
    pub events: Vec<RecoveryEvent>,
}

impl FaultSummary {
    /// All wasted work, seconds — the amount the engines charge into
    /// `Wo(n)` on top of the recovery latency already in the schedule.
    pub fn wasted_total(&self) -> f64 {
        self.retry_wasted_s + self.crash_wasted_s + self.speculation_wasted_s
    }

    /// Checks the structural invariants of an engine-produced summary.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant. The error stays a `String`
    /// because `perfbench/src/cluster.rs:57` propagates it with `?` into
    /// a `String` error.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (name, v) in [
            ("retry_wasted_s", self.retry_wasted_s),
            ("crash_wasted_s", self.crash_wasted_s),
            ("speculation_wasted_s", self.speculation_wasted_s),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and >= 0, got {v}"));
            }
        }
        if self.speculative_wins > self.speculative_launches {
            return Err(format!(
                "{} speculative wins exceed {} launches",
                self.speculative_wins, self.speculative_launches
            ));
        }
        let speculated = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, RecoveryEventKind::Speculated { .. }))
            .count() as u32;
        if speculated != self.speculative_launches {
            return Err(format!(
                "{} Speculated events disagree with {} launches",
                speculated, self.speculative_launches
            ));
        }
        Ok(())
    }
}

/// The result of resolving a task wave's faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// Effective per-task durations: nominal duration plus recovery
    /// latency (failed-attempt time, restarts, backoff waits, crash
    /// recomputation), shortened where a speculative backup won. These
    /// feed the wave schedule, so recovery latency lands on the critical
    /// path like any other task time.
    pub durations: Vec<f64>,
    /// Attempts per task (first run, retries, and speculative backups).
    pub attempts: Vec<u32>,
    /// Nodes (executor slots) that crashed, ascending.
    pub crashed_nodes: Vec<u32>,
    /// Aggregated accounting for the trace.
    pub summary: FaultSummary,
}

/// Resolves a task wave's faults under a recovery policy.
///
/// Deterministic by construction: RNG draws happen in a fixed order —
/// per task in index order (retry loop), then per node in slot order
/// (crash decisions) — and speculation consumes no randomness at all.
/// Tasks are assigned to nodes round-robin (`task i` on `node i %
/// executors`), matching [`crate::run_wave_schedule`]'s executor labels.
///
/// When observability is enabled, emits `fault.*` counters, a
/// `fault.task_attempts` histogram, and `overhead.*_wasted_s` gauges.
///
/// # Errors
///
/// * [`ClusterError::RetriesExhausted`] when a task fails all allowed
///   attempts;
/// * [`ClusterError::WastedWorkExceeded`] when the fail-fast budget
///   (`recovery.max_wasted_fraction > 0`) is exceeded;
/// * [`ClusterError::InvalidParameter`] when the model or policy fails
///   validation.
///
/// # Panics
///
/// Panics if `executors` is zero or any duration is negative/non-finite
/// (the same contract as [`crate::run_wave_schedule`]).
pub fn resolve_faults(
    durations: &[f64],
    executors: usize,
    faults: &FaultModel,
    recovery: &RecoveryPolicy,
    rng: &mut SimRng,
) -> Result<FaultOutcome, ClusterError> {
    faults.validate()?;
    recovery.validate()?;
    assert!(executors > 0, "need at least one executor");
    for &d in durations {
        assert!(
            d.is_finite() && d >= 0.0,
            "task durations must be finite and >= 0"
        );
    }

    let mut summary = FaultSummary::default();
    let mut attempts = vec![1u32; durations.len()];
    let mut effective = Vec::with_capacity(durations.len());

    // Phase 1 — per-task retry loop, in task order. Every attempt draws
    // one failure decision; a failed attempt additionally draws its
    // time-to-failure and backoff jitter.
    for (i, &dur) in durations.iter().enumerate() {
        let mut delay = 0.0;
        let mut attempt = 1u32;
        while faults.task_fail_prob > 0.0 && rng.uniform(0.0, 1.0) < faults.task_fail_prob {
            if attempt >= recovery.max_attempts {
                return Err(ClusterError::RetriesExhausted {
                    task: i as u32,
                    attempts: attempt,
                });
            }
            let lost = faults.ttf.sample(rng).min(dur);
            let backoff = recovery.backoff(attempt, rng);
            delay += lost + faults.restart_cost + backoff;
            summary.retry_wasted_s += lost + faults.restart_cost;
            summary.retries += 1;
            summary.events.push(RecoveryEvent {
                task: i as u32,
                kind: RecoveryEventKind::AttemptFailed {
                    attempt,
                    lost_s: lost,
                    backoff_s: backoff,
                },
            });
            attempt += 1;
        }
        attempts[i] = attempt;
        effective.push(delay + dur);
    }

    // Phase 2 — correlated node crashes, in node order. A crash loses
    // the (partially) completed outputs of every resident task: each is
    // recomputed, charging the lost fraction plus a restart.
    let mut crashed_nodes = Vec::new();
    if faults.node_crash_prob > 0.0 {
        for node in 0..executors.min(durations.len()) {
            if rng.uniform(0.0, 1.0) >= faults.node_crash_prob {
                continue;
            }
            let completed_fraction = rng.uniform(0.0, 1.0);
            crashed_nodes.push(node as u32);
            summary.node_crashes += 1;
            for i in (node..durations.len()).step_by(executors) {
                let lost = completed_fraction * durations[i];
                effective[i] += lost + faults.restart_cost;
                summary.crash_wasted_s += lost + faults.restart_cost;
                summary.outputs_lost += 1;
                attempts[i] += 1;
                summary.events.push(RecoveryEvent {
                    task: i as u32,
                    kind: RecoveryEventKind::OutputLost {
                        node: node as u32,
                        recompute_s: lost,
                    },
                });
            }
        }
    }

    // Phase 3 — speculative execution. No randomness: a backup copy of
    // task `i` launches once it exceeds `threshold ×` the running median
    // of the earlier (already-final) tasks and runs a median-length
    // copy; the first finisher wins and the loser's work is wasted.
    if recovery.speculation {
        let threshold = recovery.speculation_threshold;
        for i in 1..effective.len() {
            let median = median(&effective[..i]);
            if median <= 0.0 || effective[i] <= threshold * median {
                continue;
            }
            let launch = threshold * median;
            let backup_finish = launch + median;
            summary.speculative_launches += 1;
            attempts[i] += 1;
            let backup_won = backup_finish < effective[i];
            let wasted = if backup_won {
                // The original is killed when the backup finishes; its
                // whole run up to that point is wasted.
                effective[i] = backup_finish;
                backup_finish
            } else {
                // The original finishes first; the backup's partial run
                // is killed and wasted.
                effective[i] - launch
            };
            summary.speculation_wasted_s += wasted;
            if backup_won {
                summary.speculative_wins += 1;
            }
            summary.events.push(RecoveryEvent {
                task: i as u32,
                kind: RecoveryEventKind::Speculated {
                    backup_won,
                    wasted_s: wasted,
                },
            });
        }
    }

    summary.attempts = attempts.iter().sum();

    // Fail fast when the wasted-work budget is blown.
    if recovery.max_wasted_fraction > 0.0 {
        let useful: f64 = durations.iter().sum();
        let budget = recovery.max_wasted_fraction * useful;
        let wasted = summary.wasted_total();
        if wasted > budget {
            return Err(ClusterError::WastedWorkExceeded { wasted, budget });
        }
    }

    if ipso_obs::enabled() {
        ipso_obs::counter_add("fault.task_retries", u64::from(summary.retries));
        ipso_obs::counter_add("fault.node_crashes", u64::from(summary.node_crashes));
        ipso_obs::counter_add("fault.outputs_lost", u64::from(summary.outputs_lost));
        ipso_obs::counter_add(
            "fault.speculative_launches",
            u64::from(summary.speculative_launches),
        );
        ipso_obs::counter_add(
            "fault.speculative_wins",
            u64::from(summary.speculative_wins),
        );
        for &a in &attempts {
            ipso_obs::histogram_record("fault.task_attempts", u64::from(a));
        }
        ipso_obs::gauge_add("overhead.retry_wasted_s", summary.retry_wasted_s);
        ipso_obs::gauge_add("overhead.crash_wasted_s", summary.crash_wasted_s);
        ipso_obs::gauge_add(
            "overhead.speculation_wasted_s",
            summary.speculation_wasted_s,
        );
    }

    Ok(FaultOutcome {
        durations: effective,
        attempts,
        crashed_nodes,
        summary,
    })
}

/// Median of a non-empty slice (mean of the middle pair when even).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn durations(n: usize) -> Vec<f64> {
        (0..n).map(|i| 8.0 + (i % 3) as f64).collect()
    }

    #[test]
    fn disabled_model_is_a_pass_through_with_zero_draws() {
        let d = durations(6);
        let mut rng = SimRng::seed_from(7);
        let out = resolve_faults(
            &d,
            3,
            &FaultModel::none(),
            &RecoveryPolicy::hadoop_like(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(out.durations, d);
        assert_eq!(out.attempts, vec![1; 6]);
        // One (successful) first attempt per task; nothing else recorded.
        assert_eq!(
            out.summary,
            FaultSummary {
                attempts: 6,
                ..FaultSummary::default()
            }
        );
        assert!(out.crashed_nodes.is_empty());
        // Zero draws consumed: the stream continues exactly where a
        // fresh generator with the same seed starts.
        let mut fresh = SimRng::seed_from(7);
        assert_eq!(rng.uniform(0.0, 1.0), fresh.uniform(0.0, 1.0));
    }

    #[test]
    fn resolution_is_deterministic_given_the_seed() {
        let d = durations(32);
        let faults = FaultModel {
            node_crash_prob: 0.1,
            ..FaultModel::flaky(0.2)
        };
        let recovery = RecoveryPolicy::hadoop_like().with_speculation();
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            resolve_faults(&d, 8, &faults, &recovery, &mut rng).unwrap()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).durations, run(12).durations);
    }

    #[test]
    fn retries_lengthen_tasks_and_charge_wasted_work() {
        let d = vec![10.0; 64];
        let faults = FaultModel::flaky(0.3);
        let mut rng = SimRng::seed_from(5);
        let out =
            resolve_faults(&d, 16, &faults, &RecoveryPolicy::hadoop_like(), &mut rng).unwrap();
        assert!(out.summary.retries > 0, "p = 0.3 over 64 tasks must fail");
        assert!(out.summary.retry_wasted_s > 0.0);
        assert_eq!(out.summary.attempts, out.attempts.iter().sum::<u32>());
        for (i, (&eff, &nominal)) in out.durations.iter().zip(&d).enumerate() {
            assert!(eff >= nominal, "task {i}: {eff} < {nominal}");
        }
        // Wasted work excludes backoff waits (idle, not burned work), so
        // it is bounded by retries × (max possible loss + restart).
        let bound = out.summary.retries as f64 * (10.0 + faults.restart_cost);
        assert!(out.summary.retry_wasted_s <= bound + 1e-9);
    }

    #[test]
    fn exhausted_retries_abort_with_typed_error() {
        let d = vec![1.0; 4];
        let faults = FaultModel::flaky(1.0); // every attempt fails
        let mut rng = SimRng::seed_from(1);
        let err = resolve_faults(&d, 2, &faults, &RecoveryPolicy::hadoop_like(), &mut rng)
            .expect_err("must exhaust");
        assert_eq!(
            err,
            ClusterError::RetriesExhausted {
                task: 0,
                attempts: 4
            }
        );
    }

    #[test]
    fn node_crash_loses_all_resident_tasks() {
        let d = vec![6.0; 12];
        let faults = FaultModel {
            node_crash_prob: 1.0,
            ..FaultModel::none()
        };
        let mut rng = SimRng::seed_from(3);
        let out = resolve_faults(&d, 4, &faults, &RecoveryPolicy::hadoop_like(), &mut rng).unwrap();
        // Every node crashes, so all 12 outputs are lost once.
        assert_eq!(out.crashed_nodes, vec![0, 1, 2, 3]);
        assert_eq!(out.summary.node_crashes, 4);
        assert_eq!(out.summary.outputs_lost, 12);
        assert!(out.summary.crash_wasted_s > 0.0);
        assert!(out.durations.iter().all(|&e| e >= 6.0));
    }

    #[test]
    fn speculation_caps_stragglers_and_charges_the_loser() {
        // Nine 1 s tasks and one 40 s straggler: the backup launches at
        // 1.5 × median = 1.5 s, finishes at 2.5 s and wins.
        let mut d = vec![1.0; 10];
        d[9] = 40.0;
        let recovery = RecoveryPolicy::hadoop_like().with_speculation();
        let mut rng = SimRng::seed_from(9);
        let out = resolve_faults(&d, 10, &FaultModel::none(), &recovery, &mut rng).unwrap();
        assert_eq!(out.summary.speculative_launches, 1);
        assert_eq!(out.summary.speculative_wins, 1);
        assert!(
            (out.durations[9] - 2.5).abs() < 1e-12,
            "{}",
            out.durations[9]
        );
        // The killed original ran 2.5 s — all wasted.
        assert!((out.summary.speculation_wasted_s - 2.5).abs() < 1e-12);
        assert_eq!(out.attempts[9], 2);
    }

    #[test]
    fn losing_backup_charges_only_its_partial_run() {
        // A 2 s task against a 1 s median: backup launches at 1.5 s,
        // would finish at 2.5 s — the original wins at 2 s, wasting the
        // backup's 0.5 s.
        let mut d = vec![1.0; 8];
        d[7] = 2.0;
        let recovery = RecoveryPolicy::hadoop_like().with_speculation();
        let mut rng = SimRng::seed_from(2);
        let out = resolve_faults(&d, 8, &FaultModel::none(), &recovery, &mut rng).unwrap();
        assert_eq!(out.summary.speculative_launches, 1);
        assert_eq!(out.summary.speculative_wins, 0);
        assert_eq!(out.durations[7], 2.0, "original's finish unchanged");
        assert!((out.summary.speculation_wasted_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fail_fast_budget_aborts_wasteful_runs() {
        let d = vec![5.0; 32];
        let faults = FaultModel::flaky(0.4);
        let mut recovery = RecoveryPolicy::hadoop_like();
        // Generous retry budget so the typed error below is the budget
        // check, not retry exhaustion.
        recovery.max_attempts = 12;
        recovery.max_wasted_fraction = 1e-6; // essentially any waste aborts
        let mut rng = SimRng::seed_from(8);
        let err = resolve_faults(&d, 8, &faults, &recovery, &mut rng).expect_err("must abort");
        assert!(matches!(err, ClusterError::WastedWorkExceeded { .. }));
        // A permissive budget admits the same run.
        recovery.max_wasted_fraction = 100.0;
        let mut rng = SimRng::seed_from(8);
        assert!(resolve_faults(&d, 8, &faults, &recovery, &mut rng).is_ok());
    }

    #[test]
    fn backoff_grows_then_caps() {
        let policy = RecoveryPolicy {
            backoff_jitter: 0.0,
            ..RecoveryPolicy::hadoop_like()
        };
        let mut rng = SimRng::seed_from(1);
        let waits: Vec<f64> = (1..=6).map(|k| policy.backoff(k, &mut rng)).collect();
        assert_eq!(waits[0], 0.25);
        assert_eq!(waits[1], 0.5);
        assert_eq!(waits[2], 1.0);
        assert_eq!(waits[5], 4.0, "capped at backoff_cap");
        assert!(waits.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn summaries_satisfy_their_invariants() {
        let d = durations(24);
        let faults = FaultModel {
            node_crash_prob: 0.2,
            ..FaultModel::flaky(0.25)
        };
        let recovery = RecoveryPolicy::hadoop_like().with_speculation();
        let mut rng = SimRng::seed_from(6);
        let out = resolve_faults(&d, 6, &faults, &recovery, &mut rng).unwrap();
        out.summary.check_invariants().unwrap();
        assert!(out.summary.wasted_total() > 0.0);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FaultModel::flaky(1.5).validate().is_err());
        assert!(FaultModel {
            restart_cost: -1.0,
            ..FaultModel::none()
        }
        .validate()
        .is_err());
        let mut r = RecoveryPolicy::hadoop_like();
        r.max_attempts = 0;
        assert!(r.validate().is_err());
        let mut r = RecoveryPolicy::hadoop_like();
        r.backoff_factor = 0.5;
        assert!(r.validate().is_err());
        let mut r = RecoveryPolicy::hadoop_like();
        r.speculation_threshold = 1.0;
        assert!(r.validate().is_err());
        let mut r = RecoveryPolicy::hadoop_like();
        r.backoff_jitter = 1.0;
        assert!(r.validate().is_err());
        assert!(FaultModel::none().validate().is_ok());
        assert!(RecoveryPolicy::hadoop_like().validate().is_ok());
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
