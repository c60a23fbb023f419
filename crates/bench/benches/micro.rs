//! Criterion micro-benchmarks for the performance-critical paths:
//!
//! - `dqn_inference`: one global-tier decision's DNN work (`q_values` over
//!   all servers) — the paper argues online complexity is low because it is
//!   proportional to the number of actions;
//! - `dqn_train_batch`: one minibatch DNN update over pre-encoded states;
//! - `lstm_predict` / `lstm_train_step`: the local tier's predictor;
//! - `simulator_throughput`: event-loop speed with non-learning policies;
//! - `matmul`: the neural substrate's kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use hierdrl_core::dqn::{EncodedState, GroupedQNetwork, QNetworkConfig, QSample};
use hierdrl_core::predictor::{IatPredictor, LstmIatPredictor, PredictorConfig};
use hierdrl_core::state::{GlobalState, StateEncoder, StateEncoderConfig};
use hierdrl_neural::matrix::Matrix;
use hierdrl_sim::cluster::{Cluster, RunLimit};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::policies::{FixedTimeoutPower, RoundRobinAllocator};
use hierdrl_trace::generator::{TraceGenerator, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn layout_m30() -> StateEncoder {
    StateEncoder::new(30, 3, StateEncoderConfig::default())
}

fn random_state(layout: &StateEncoder, rng: &mut StdRng) -> GlobalState {
    GlobalState {
        groups: (0..layout.num_groups())
            .map(|_| {
                (0..layout.group_width())
                    .map(|_| rng.gen::<f32>())
                    .collect()
            })
            .collect(),
        job: (0..layout.job_width()).map(|_| rng.gen::<f32>()).collect(),
    }
}

fn bench_dqn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let layout = layout_m30();
    let mut net = GroupedQNetwork::new(&layout, QNetworkConfig::default(), &mut rng);
    let state = random_state(&layout, &mut rng);

    c.bench_function("dqn_inference_m30", |b| {
        b.iter(|| black_box(net.q_values(black_box(&state))))
    });

    let states: Vec<EncodedState> = (0..32)
        .map(|_| net.encode(random_state(&layout, &mut rng)))
        .collect();
    let samples: Vec<QSample> = states
        .iter()
        .enumerate()
        .map(|(i, state)| QSample {
            state,
            action: i % 30,
            target: -1.0,
        })
        .collect();
    let mut group = c.benchmark_group("dqn_train");
    group.sample_size(20);
    group.bench_function("dqn_train_batch_32", |b| {
        b.iter(|| black_box(net.train_batch(black_box(&samples))))
    });
    group.finish();
}

fn bench_lstm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut predictor = LstmIatPredictor::new(PredictorConfig::default(), &mut rng);
    for i in 0..120 {
        predictor.observe(30.0 + (i % 7) as f64 * 40.0);
    }
    c.bench_function("lstm_predict_lookback35", |b| {
        b.iter(|| black_box(predictor.predict()))
    });

    let mut trainer = LstmIatPredictor::new(PredictorConfig::default(), &mut rng);
    for i in 0..40 {
        trainer.observe(30.0 + (i % 7) as f64 * 40.0);
    }
    let mut x = 0u64;
    c.bench_function("lstm_observe_and_train", |b| {
        b.iter(|| {
            x = x.wrapping_add(1);
            trainer.observe(30.0 + (x % 7) as f64 * 40.0);
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let trace = TraceGenerator::new(WorkloadConfig::google_like(5, 95_000.0))
        .expect("workload")
        .generate_n(2_000);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("simulate_2k_jobs_m30", |b| {
        b.iter(|| {
            let mut cluster =
                Cluster::new(ClusterConfig::paper(30), trace.jobs().to_vec()).expect("cluster");
            let out = cluster.run(
                &mut RoundRobinAllocator::new(),
                &mut FixedTimeoutPower::new(60.0),
                RunLimit::unbounded(),
            );
            black_box(out.totals.jobs_completed)
        })
    });
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let a = Matrix::from_vec(32, 128, (0..32 * 128).map(|_| rng.gen::<f32>()).collect());
    let b = Matrix::from_vec(128, 64, (0..128 * 64).map(|_| rng.gen::<f32>()).collect());
    c.bench_function("matmul_32x128x64", |bch| {
        bch.iter(|| black_box(a.matmul(black_box(&b))))
    });
}

criterion_group!(
    benches,
    bench_dqn,
    bench_lstm,
    bench_simulator,
    bench_matmul
);
criterion_main!(benches);
