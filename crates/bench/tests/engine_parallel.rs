//! The execution engines' parallelism contract, end to end: for ANY
//! host thread count, a MapReduce job produces bit-identical outputs,
//! intermediate-volume accounting and `JobTrace`s to the single-threaded
//! run — the property the `--threads` flag rests on.

use ipso_cluster::JobTrace;
use ipso_mapreduce::{run_sequential, try_run_scale_out, JobSpec};
use ipso_workloads::{sort, terasort, wordcount};
use proptest::prelude::*;

const WORKLOADS: [&str; 3] = ["sort", "wordcount", "terasort"];

/// The comparable results of one engine execution: scale-out and
/// sequential outputs (debug-formatted so one fixture covers all output
/// types), reduce-side volumes and the full traces.
#[derive(Debug, PartialEq)]
struct EngineFingerprint {
    par_output: Vec<String>,
    seq_output: Vec<String>,
    par_reduce_input_bytes: u64,
    seq_reduce_input_bytes: u64,
    par_trace: JobTrace,
    seq_trace: JobTrace,
}

fn fingerprint(workload: &str, n: u32, seed: u64, threads: usize) -> EngineFingerprint {
    let configure = |mut spec: JobSpec| {
        spec.engine.threads = threads;
        spec
    };
    match workload {
        "sort" => {
            let spec = configure(sort::job_spec(n));
            let splits = sort::make_splits(n, seed);
            let par =
                try_run_scale_out(&spec, &sort::SortMapper, &sort::SortReducer, &splits).unwrap();
            let seq = run_sequential(&spec, &sort::SortMapper, &sort::SortReducer, &splits);
            EngineFingerprint {
                par_output: par.output.iter().map(|o| format!("{o:?}")).collect(),
                seq_output: seq.output.iter().map(|o| format!("{o:?}")).collect(),
                par_reduce_input_bytes: par.reduce_input_bytes,
                seq_reduce_input_bytes: seq.reduce_input_bytes,
                par_trace: par.trace,
                seq_trace: seq.trace,
            }
        }
        "wordcount" => {
            let spec = configure(wordcount::job_spec(n));
            let splits = wordcount::make_splits(n, seed);
            let mapper = wordcount::WordCountMapper::new();
            let par =
                try_run_scale_out(&spec, &mapper, &wordcount::WordCountReducer, &splits).unwrap();
            let seq = run_sequential(&spec, &mapper, &wordcount::WordCountReducer, &splits);
            EngineFingerprint {
                par_output: par.output.iter().map(|o| format!("{o:?}")).collect(),
                seq_output: seq.output.iter().map(|o| format!("{o:?}")).collect(),
                par_reduce_input_bytes: par.reduce_input_bytes,
                seq_reduce_input_bytes: seq.reduce_input_bytes,
                par_trace: par.trace,
                seq_trace: seq.trace,
            }
        }
        "terasort" => {
            let spec = configure(terasort::job_spec(n));
            let splits = terasort::make_splits(n, seed);
            let par = try_run_scale_out(
                &spec,
                &terasort::TeraSortMapper,
                &terasort::TeraSortReducer,
                &splits,
            )
            .unwrap();
            let seq = run_sequential(
                &spec,
                &terasort::TeraSortMapper,
                &terasort::TeraSortReducer,
                &splits,
            );
            EngineFingerprint {
                par_output: par.output.iter().map(|o| format!("{o:?}")).collect(),
                seq_output: seq.output.iter().map(|o| format!("{o:?}")).collect(),
                par_reduce_input_bytes: par.reduce_input_bytes,
                seq_reduce_input_bytes: seq.reduce_input_bytes,
                par_trace: par.trace,
                seq_trace: seq.trace,
            }
        }
        other => panic!("unknown workload {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-for-bit equality between the sequential single-threaded run
    /// and every tested thread count, for all three real workloads.
    #[test]
    fn engine_results_are_identical_for_any_thread_count(
        threads in 2usize..9,
        n in 1u32..7,
        seed in any::<u64>(),
        which in 0usize..3,
    ) {
        let workload = WORKLOADS[which];
        let baseline = fingerprint(workload, n, seed, 1);
        let threaded = fingerprint(workload, n, seed, threads);
        prop_assert_eq!(&threaded, &baseline);
        baseline.par_trace.check_invariants().expect("valid trace");
    }

}
