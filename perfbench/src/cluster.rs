//! Helpers for the standalone `ipso_cluster::execute` calls of a
//! layer-traced op and for digesting fault summaries.

use ipso_cluster::{FaultSummary, RunOutcome, TaskGraph};

use crate::harness::{Digest, Tracer};

/// Runs a standalone duplicate of a call the composite already made,
/// inside its own observability scope whose records are dropped, so the
/// duplicate leaves the op's recorded stream untouched.
pub fn standalone<R>(f: impl FnOnce() -> R) -> R {
    let (result, records) = ipso_obs::capture(f);
    drop(records);
    result
}

/// Adds a standalone execute's work, recovery counts and time to the
/// `cluster.*` accumulators.
pub fn count_outcome(t: &mut Tracer, graph: &TaskGraph, outcome: &RunOutcome, execute_s: f64) {
    let tasks = graph.total_tasks() as f64;
    let nominal: f64 = graph
        .stages
        .iter()
        .map(|s| (0..s.tasks()).map(|i| s.nominal(i)).sum::<f64>())
        .sum();
    let mut attempts = 0.0;
    for (node, stage) in graph.stages.iter().zip(&outcome.stages) {
        match &stage.fault {
            Some(f) => {
                let s = &f.summary;
                attempts += f64::from(s.attempts);
                t.add("cluster.retries", f64::from(s.retries));
                t.add(
                    "cluster.speculative_launches",
                    f64::from(s.speculative_launches),
                );
                t.add("cluster.node_crashes", f64::from(s.node_crashes));
                t.add("cluster.outputs_lost", f64::from(s.outputs_lost));
            }
            None => attempts += node.tasks() as f64,
        }
        if let Some(l) = &stage.lineage {
            t.add("cluster.lineage_nodes", l.nodes as f64);
        }
        t.add("cluster.wasted_s", stage.wasted());
    }
    t.add("cluster.execute_s", execute_s);
    t.add("cluster.tasks", tasks);
    t.add("cluster.attempts", attempts);
    t.add("cluster.nominal_work_s", nominal);
    t.add("layer.cluster", execute_s);
}

/// Mixes every field of a fault summary into `d`, after checking its
/// invariants.
pub fn fault_digest(d: &mut Digest, s: &FaultSummary) -> Result<(), String> {
    s.check_invariants()?;
    d.u64(u64::from(s.attempts))
        .u64(u64::from(s.retries))
        .u64(u64::from(s.node_crashes))
        .u64(u64::from(s.outputs_lost))
        .u64(u64::from(s.speculative_launches))
        .u64(u64::from(s.speculative_wins))
        .f64(s.retry_wasted_s)
        .f64(s.crash_wasted_s)
        .f64(s.speculation_wasted_s)
        .u64(s.events.len() as u64);
    Ok(())
}
