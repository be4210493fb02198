//! Converting job traces into IPSO measurements and sweeping `n`.

use ipso::measurement::{RunMeasurement, SpeedupCurve};
use ipso_cluster::{ClusterError, JobTrace};

use crate::api::{Mapper, Reducer};
use crate::config::JobSpec;
use crate::engine::run_point;
use crate::split::InputSplit;

/// Builds the IPSO run decomposition from a paired sequential/scale-out
/// execution at the same scale-out degree, following the paper's
/// attribution:
///
/// * `Wp(n)` — the sequential run's map phase (sum of task times);
/// * `Ws(n)` — the sequential run's shuffle + merge + reduce;
/// * `max Tp,i(n)` — the scale-out run's map phase (slowest task);
/// * `Wo(n)` — overheads present only in the scale-out run: the recorded
///   scale-out overhead plus any excess of the scale-out serial phases
///   over their sequential counterparts (none in this engine's traces).
///
/// # Panics
///
/// Panics if the two traces disagree on `n`.
pub fn measurement_from_runs(seq: &JobTrace, par: &JobTrace) -> RunMeasurement {
    assert_eq!(seq.n, par.n, "sequential and scale-out traces must share n");
    let seq_serial = seq.phases.serial_portion();
    let par_serial = par.phases.serial_portion();
    // Any stretch of the serial phases caused purely by scaling out
    // (incast, queueing) is scale-out-induced workload, not Ws.
    let serial_excess = (par_serial - seq_serial).max(0.0);
    RunMeasurement {
        n: seq.n,
        seq_parallel_work: seq.phases.map,
        seq_serial_work: seq_serial,
        par_map_time: par.phases.map,
        par_serial_time: par_serial.min(seq_serial),
        par_overhead: par.scale_out_overhead + serial_excess,
    }
}

/// One point of a scaling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Scale-out degree.
    pub n: u32,
    /// Sequential-execution trace.
    pub seq: JobTrace,
    /// Scale-out trace.
    pub par: JobTrace,
    /// The derived IPSO measurement.
    pub measurement: RunMeasurement,
}

/// Results of sweeping the scale-out degree for one application.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScalingSweep {
    /// Points in ascending `n`.
    pub points: Vec<SweepPoint>,
}

impl SweepPoint {
    /// Runs one point with a single data path run: bit for bit what
    /// [`crate::try_run_scale_out`] and [`crate::run_sequential`] give
    /// over the same splits.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`crate::try_run_scale_out`].
    pub fn run<M, R>(
        spec: &JobSpec,
        mapper: &M,
        reducer: &R,
        splits: &[InputSplit<M::Input>],
    ) -> Result<SweepPoint, ClusterError>
    where
        M: Mapper,
        R: Reducer<Key = M::Key, Value = M::Value>,
    {
        let (par, seq) = run_point(spec, mapper, reducer, splits)?;
        Ok(SweepPoint {
            n: seq.n,
            measurement: measurement_from_runs(&seq, &par.trace),
            seq,
            par: par.trace,
        })
    }
}

impl ScalingSweep {
    /// Runs a full sweep: for each `n`, one [`SweepPoint::run`] with
    /// spec `make_spec(n)` over the `n` splits `make_splits(n)`.
    ///
    /// # Panics
    ///
    /// Panics on any [`SweepPoint::run`] error. It stays panicking
    /// because `perfbench/src/mr.rs:338` pins the workloads' sweeps as
    /// `fn(&[u32]) -> ScalingSweep`.
    pub fn run<M, R>(
        ns: &[u32],
        mapper: &M,
        reducer: &R,
        mut make_spec: impl FnMut(u32) -> JobSpec,
        mut make_splits: impl FnMut(u32) -> Vec<InputSplit<M::Input>>,
    ) -> ScalingSweep
    where
        M: Mapper,
        R: Reducer<Key = M::Key, Value = M::Value>,
    {
        let mut points: Vec<SweepPoint> = ns
            .iter()
            .map(|&n| {
                SweepPoint::run(&make_spec(n), mapper, reducer, &make_splits(n))
                    .unwrap_or_else(|e| panic!("sweep point n = {n}: {e}"))
            })
            .collect();
        points.sort_by_key(|p| p.n);
        ScalingSweep { points }
    }

    /// The derived measurements, in ascending `n`.
    pub fn measurements(&self) -> Vec<RunMeasurement> {
        self.points.iter().map(|p| p.measurement).collect()
    }

    /// The measured speedup curve.
    ///
    /// # Errors
    ///
    /// Propagates curve-construction errors.
    pub fn speedup_curve(&self) -> Result<SpeedupCurve, ipso::ModelError> {
        SpeedupCurve::from_pairs(self.points.iter().map(|p| (p.n, p.measurement.speedup())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipso_cluster::PhaseTimes;

    fn trace(n: u32, map: f64, shuffle: f64, merge: f64, reduce: f64, wo: f64) -> JobTrace {
        JobTrace {
            job: "t".into(),
            n,
            phases: PhaseTimes {
                init: 1.0,
                map,
                shuffle,
                merge,
                reduce,
            },
            tasks: Vec::new(),
            scale_out_overhead: wo,
            faults: None,
        }
    }

    #[test]
    fn attribution_follows_the_paper() {
        let seq = trace(4, 40.0, 2.0, 6.0, 2.0, 0.0);
        let par = trace(4, 11.0, 3.0, 6.0, 2.0, 0.5);
        let m = measurement_from_runs(&seq, &par);
        assert_eq!(m.n, 4);
        assert_eq!(m.seq_parallel_work, 40.0);
        assert_eq!(m.seq_serial_work, 10.0);
        assert_eq!(m.par_map_time, 11.0);
        // Incast stretched the shuffle by 1 s: counted as overhead.
        assert_eq!(m.par_serial_time, 10.0);
        assert!((m.par_overhead - 1.5).abs() < 1e-12);
    }

    #[test]
    fn no_serial_excess_when_parallel_is_faster() {
        let seq = trace(2, 20.0, 2.0, 4.0, 2.0, 0.0);
        let par = trace(2, 10.5, 2.0, 4.0, 2.0, 0.2);
        let m = measurement_from_runs(&seq, &par);
        assert_eq!(m.par_overhead, 0.2);
        assert_eq!(m.par_serial_time, 8.0);
    }

    #[test]
    #[should_panic(expected = "share n")]
    fn mismatched_n_rejected() {
        let seq = trace(2, 1.0, 0.0, 0.0, 0.0, 0.0);
        let par = trace(3, 1.0, 0.0, 0.0, 0.0, 0.0);
        let _ = measurement_from_runs(&seq, &par);
    }

    // Full sweep integration with a real mini-job.
    use crate::api::{Mapper, Reducer};
    use crate::JobSpec;

    struct IdMap;
    impl Mapper for IdMap {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
            emit(*input, *input);
        }
    }
    struct IdReduce;
    impl Reducer for IdReduce {
        type Key = u64;
        type Value = u64;
        type Output = u64;
        fn reduce(&self, key: u64, values: &[u64], emit: &mut dyn FnMut(u64)) {
            for _ in values {
                emit(key);
            }
        }
    }

    fn mk_splits(n: u32) -> Vec<InputSplit<u64>> {
        (0..n)
            .map(|i| {
                let records: Vec<u64> = (0..64).map(|j| u64::from(i) * 64 + j).collect();
                InputSplit::new(records, 64 * 8, 128 * 1024 * 1024)
            })
            .collect()
    }

    #[test]
    fn sweep_produces_increasing_speedups_for_sort_like_job() {
        let sweep = ScalingSweep::run(
            &[1, 2, 4, 8],
            &IdMap,
            &IdReduce,
            |n| JobSpec::emr("sort", n),
            mk_splits,
        );
        assert_eq!(sweep.points.len(), 4);
        let curve = sweep.speedup_curve().unwrap();
        assert!(curve.points()[0].speedup <= curve.points()[3].speedup * 1.01);
        // Speedup at n = 1 is ~1: only the scale-out environment's extra
        // setup (≈1 s on a ≈7 s job) separates the two runs.
        assert!((curve.points()[0].speedup - 1.0).abs() < 0.2);
        let ms = sweep.measurements();
        assert!(ms.windows(2).all(|w| w[0].n < w[1].n));
    }

    #[test]
    fn point_rejects_bad_input_with_a_typed_error() {
        let spec = JobSpec::emr("sort", 2);
        let mut bad_spec = spec.clone();
        bad_spec.straggler = ipso_sim::Distribution::Pareto {
            scale: 1.0,
            shape: 0.5,
        };
        for (spec, splits) in [
            (&spec, vec![]),
            (&spec, mk_splits(3)),
            (&bad_spec, mk_splits(2)),
        ] {
            let err = SweepPoint::run(spec, &IdMap, &IdReduce, &splits).unwrap_err();
            assert!(
                matches!(err, ClusterError::InvalidParameter { .. }),
                "{err}"
            );
        }
    }
}
