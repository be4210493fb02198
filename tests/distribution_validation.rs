//! Every boundary that accepts an [`ipso_sim::Distribution`] rejects the
//! same invalid parameter sets, each with the rule that
//! `Distribution::validate` reports: the MapReduce and Spark job specs
//! (as the straggler multiplier) and the stochastic IPSO model (as the
//! task time).

use ipso::stochastic::StochasticIpso;
use ipso::{ModelError, ScalingFactor};
use ipso_cluster::ClusterError;
use ipso_mapreduce::JobSpec;
use ipso_sim::Distribution;
use ipso_spark::{SparkJobSpec, StageSpec};

fn pareto(shape: f64) -> Distribution {
    Distribution::Pareto { scale: 1.0, shape }
}

/// The rule each boundary reports for `dist`, or `None` where it accepts
/// it: `[JobSpec, SparkJobSpec, StochasticIpso]`.
fn rejections(dist: Distribution) -> [Option<String>; 3] {
    let cluster = |result: Result<(), ClusterError>, field: &str| match result {
        Ok(()) => None,
        Err(ClusterError::InvalidParameter { what, message }) if what == field => Some(message),
        Err(other) => panic!("{dist:?}: unexpected error {other:?}"),
    };
    let mut job = JobSpec::emr("sort", 4);
    job.straggler = dist;
    let mut spark = SparkJobSpec::emr("x", 4, 2).stage(StageSpec::new("s", 4));
    spark.straggler = dist;
    let model = StochasticIpso::new(
        dist,
        1.0,
        ScalingFactor::linear(),
        ScalingFactor::one(),
        ScalingFactor::zero(),
    );
    let model = match model {
        Ok(_) => None,
        Err(ModelError::InvalidDistribution(reason)) => Some(reason.to_string()),
        Err(other) => panic!("{dist:?}: unexpected error {other:?}"),
    };
    [
        cluster(job.validate(), "straggler"),
        cluster(spark.validate(), "straggler"),
        model,
    ]
}

#[test]
fn every_boundary_rejects_every_invalid_distribution() {
    let invalid = [
        ("uniform spread 1", Distribution::jitter(1.0)),
        (
            "mean excess 0",
            Distribution::Exponential {
                shift: 1.0,
                mean: 0.0,
            },
        ),
        ("pareto shape 1", pareto(1.0)),
        ("pareto shape 0.5", pareto(0.5)),
        ("pareto shape -2", pareto(-2.0)),
        ("pareto shape NaN", pareto(f64::NAN)),
        ("pareto shape inf", pareto(f64::INFINITY)),
        (
            "uniform lo > hi",
            Distribution::Uniform { lo: 2.0, hi: 1.0 },
        ),
        ("fixed value 0", Distribution::Fixed { value: 0.0 }),
        (
            "weibull shape 0",
            Distribution::Weibull {
                shape: 0.0,
                scale: 1.0,
            },
        ),
        (
            "exponential mean 0",
            Distribution::Exponential {
                shift: 0.0,
                mean: 0.0,
            },
        ),
    ];
    for (label, dist) in invalid {
        let rule = dist.validate().expect_err(label);
        for (boundary, rejected) in rejections(dist).into_iter().enumerate() {
            assert_eq!(
                rejected.as_deref(),
                Some(rule),
                "{label} at boundary {boundary}"
            );
        }
    }
}

#[test]
fn every_boundary_accepts_the_presets() {
    for dist in [
        Distribution::jitter(0.05),
        Distribution::jitter(0.03),
        Distribution::Fixed { value: 1.0 },
        pareto(2.5),
    ] {
        assert_eq!(rejections(dist), [None, None, None], "{dist:?}");
    }
}
