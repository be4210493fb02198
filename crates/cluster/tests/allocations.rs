//! Recording a stage's task spans and fault instants allocates O(log n)
//! times for `n` tasks: the recorder's event buffer grows by doubling,
//! and the `executor-{i}` and `task-{i}` labels come from tables that
//! grow only with the largest index recorded, not one `format!` per
//! event.

#[path = "../../obs/tests/counting/mod.rs"]
mod counting;

use counting::allocations_in;
use ipso_cluster::{
    execute, CentralScheduler, FaultModel, IdealReference, LineageMode, RecoveryPolicy,
    RuntimeConfig, SchedulerPolicy, StageNode, StageOutcome, TaskGraph,
};
use ipso_sim::{Distribution, SimRng};

/// One executed stage of `n` unit tasks on `n / 4` executors, with
/// Pareto stragglers, failed attempts and node crashes.
fn faulted_stage(n: usize) -> (StageNode, StageOutcome) {
    let stage = StageNode {
        name: "map".into(),
        noisy_base: vec![1.0; n],
        fixed_extra: Vec::new(),
        deps: Vec::new(),
        pre_overhead: 0.0,
        ideal: IdealReference::SlowestTask,
        lineage: LineageMode::None,
    };
    let graph = TaskGraph {
        job: "allocations".into(),
        stages: vec![stage.clone()],
        setup_overhead: 0.0,
        no_straggler_reference: false,
    };
    let config = RuntimeConfig {
        executors: n / 4,
        scheduler: CentralScheduler::idealized(),
        policy: SchedulerPolicy::Fifo,
        straggler: Distribution::Pareto {
            scale: 1.0,
            shape: 3.0,
        },
        faults: FaultModel {
            task_fail_prob: 0.1,
            node_crash_prob: 0.01,
        },
        // Speculation stays off: its running median sorts every prefix
        // of the stage, which at 10,000 tasks takes seconds.
        recovery: RecoveryPolicy {
            max_attempts: 16,
            ..RecoveryPolicy::hadoop_like()
        },
        threads: 1,
    };
    let mut run = execute(&graph, &config, &mut SimRng::seed_from(7)).expect("stage runs");
    (stage, run.stages.remove(0))
}

/// Reallocations a buffer makes while growing by doubling to `n`
/// elements, plus its first allocation.
fn growth_bound(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros()) + 1
}

#[test]
fn recording_a_stage_allocates_logarithmically() {
    ipso_obs::set_enabled(true);
    for n in [1_000, 10_000] {
        let (stage, outcome) = faulted_stage(n);
        let fault = outcome.fault.as_ref().expect("faults on");
        let instants = fault.summary.events.len();
        ipso_obs::reset();
        let allocations = allocations_in(|| {
            outcome.record_task_spans(&stage, "test", 0.0);
            outcome.record_fault_instants("test", 0.0);
        });
        let events = ipso_obs::take_events();
        let stragglers = events.iter().filter(|e| e.name == "straggler").count();
        assert!(stragglers > 0 && instants > 0, "n = {n}: nothing to record");
        assert_eq!(events.len(), n + stragglers + instants);
        // The event buffer's growth, and two labels tables grown once
        // each: a table and a string apiece.
        let bound = growth_bound(events.len()) + 4;
        assert!(
            allocations <= bound,
            "n = {n}: {allocations} allocations for {} events (bound {bound})",
            events.len()
        );
        // The labels are the ones a `format!` gives.
        let task = |i: usize| events.iter().find(|e| e.name == format!("task-{i}"));
        for i in [0, 9, 10, n - 1] {
            assert!(task(i).is_some(), "n = {n}: no span task-{i}");
        }
        let last = n / 4 - 1;
        assert!(events.iter().any(|e| e.track == format!("executor-{last}")));
    }
    ipso_obs::set_enabled(false);
    ipso_obs::reset();
}
