//! Criterion micro-benchmarks of the simulation substrate: wave
//! scheduling, server pools and the network/scheduler cost models.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipso_cluster::{
    run_wave_schedule, CentralScheduler, ClusterSpec, NetworkModel, SchedulerPolicy,
};
use ipso_sim::{ServerPool, SimTime};

fn bench_wave_schedule(c: &mut Criterion) {
    let durations: Vec<f64> = (0..2048).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let sched = CentralScheduler::spark_like();
    c.bench_function("wave_schedule_2048_tasks_64_exec", |b| {
        b.iter(|| run_wave_schedule(black_box(&durations), 64, &sched, SchedulerPolicy::Fifo))
    });
}

fn bench_server_pool(c: &mut Criterion) {
    c.bench_function("server_pool_4096_submits", |b| {
        b.iter(|| {
            let mut pool = ServerPool::new(32);
            for i in 0..4096 {
                pool.submit(SimTime::ZERO, 1.0 + (i % 5) as f64 * 0.2);
            }
            black_box(pool.makespan())
        })
    });
}

fn bench_network_model(c: &mut Criterion) {
    let net = NetworkModel::from_cluster(&ClusterSpec::emr(64));
    c.bench_function("broadcast_cost_eval", |b| {
        b.iter(|| net.broadcast_time(black_box(20 * 1024 * 1024), 64))
    });
}

criterion_group!(
    benches,
    bench_wave_schedule,
    bench_server_pool,
    bench_network_model
);
criterion_main!(benches);
