//! Microbenchmark pinning the batched DQN hot-path throughput: `q_values`
//! (one global-tier decision) and `train_batch` (one minibatch update) at
//! the CI smoke sizes M ∈ {10, 14} and at M = 30 (the paper's Table I fleet
//! size), next to the retained unbatched reference implementations so the
//! batching speedup stays measurable. `q_values_batched` encodes its state
//! on every call, as a decision does; the target sweep and the batched
//! training step read codes stored with their encoded states, as the
//! allocator's replay does. The GEMM kernel tier this CPU dispatches to is
//! printed first.
//!
//! The local tier's LSTM inter-arrival predictor at the paper's size
//! (look-back 35, 30 hidden units) is measured too, because the power
//! manager trains it off the decision thread and the simulator's own
//! timing no longer sees it: `lstm_observe_paper` is one online training
//! observation on a full window, and `lstm_predict_paper` is one frozen
//! observation (a window push) followed by the 35-step prediction it
//! invalidates.
//!
//! Runs through the criterion shim's wall-clock harness as a plain binary
//! so CI can exercise the batched path on every PR:
//!
//! ```sh
//! cargo run --release -p hierdrl-bench --bin qbench            # full
//! cargo run --release -p hierdrl-bench --bin qbench -- --quick # smoke
//! ```

use criterion::Criterion;
use hierdrl_core::dqn::{EncodedState, GroupedQNetwork, QNetworkConfig, QSample};
use hierdrl_core::predictor::{IatPredictor, LstmIatPredictor};
use hierdrl_core::state::{GlobalState, StateEncoder, StateEncoderConfig};
use hierdrl_exp::cli::SweepArgs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn layout(m: usize) -> StateEncoder {
    StateEncoder::new(m, 3, StateEncoderConfig::default())
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

fn bench_m(c: &mut Criterion, m: usize, minibatch: usize, quick: bool) {
    let mut rng = StdRng::seed_from_u64(m as u64);
    let lay = layout(m);
    let mut net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
    let state = random_state(&lay, &mut rng);
    let states: Vec<EncodedState> = (0..2 * minibatch)
        .map(|_| net.encode(random_state(&lay, &mut rng)))
        .collect();
    let state_refs: Vec<&EncodedState> = states.iter().collect();
    let sample_states: Vec<EncodedState> = (0..minibatch)
        .map(|_| net.encode(random_state(&lay, &mut rng)))
        .collect();
    let samples: Vec<QSample> = sample_states
        .iter()
        .map(|state| QSample {
            state,
            action: rng.gen_range(0..m),
            target: rng.gen_range(-5.0..0.0),
        })
        .collect();

    let mut group = c.benchmark_group(&format!("qbench_m{m}"));
    group.sample_size(if quick { 10 } else { 50 });
    group.bench_function("q_values_batched", |b| {
        b.iter(|| black_box(net.q_values(black_box(&state))))
    });
    group.bench_function("q_values_unbatched_ref", |b| {
        b.iter(|| black_box(net.q_values_reference(black_box(&state))))
    });
    group.bench_function(
        &format!("target_sweep_batched_{}states", state_refs.len()),
        |b| b.iter(|| black_box(net.q_values_batch(black_box(&state_refs)))),
    );
    group.bench_function(&format!("train_batch_batched_{minibatch}"), |b| {
        b.iter(|| black_box(net.train_batch(black_box(&samples))))
    });
    group.bench_function(&format!("train_batch_unbatched_ref_{minibatch}"), |b| {
        b.iter(|| black_box(net.train_batch_reference(black_box(&samples))))
    });
    group.finish();
}

fn bench_lstm(c: &mut Criterion, quick: bool) {
    let mut rng = StdRng::seed_from_u64(35);
    let gaps: Vec<f64> = (0..64).map(|_| rng.gen_range(1.0..3600.0)).collect();
    let mut predictor = LstmIatPredictor::paper(&mut rng);
    for &gap in &gaps {
        predictor.observe(gap);
    }
    let mut group = c.benchmark_group("qbench_lstm");
    group.sample_size(if quick { 10 } else { 50 });
    let mut next = gaps.iter().copied().cycle();
    group.bench_function("lstm_observe_paper", |b| {
        b.iter(|| predictor.observe(black_box(next.next().expect("cycle"))))
    });
    predictor.set_online_training(false);
    group.bench_function("lstm_predict_paper", |b| {
        b.iter(|| {
            predictor.observe(black_box(next.next().expect("cycle")));
            black_box(predictor.predict())
        })
    });
    group.finish();
}

fn main() {
    let args = SweepArgs::from_env();
    let minibatch = 32;
    eprintln!(
        "qbench: batched vs unbatched-reference DQN hot path (minibatch = {minibatch}{})",
        if args.quick { ", quick" } else { "" }
    );
    eprintln!("qbench: GEMM kernel tier = {}", hierdrl_neural::gemm_tier());
    let mut criterion = Criterion::default();
    for m in [10usize, 14, 30] {
        bench_m(&mut criterion, m, minibatch, args.quick);
    }
    bench_lstm(&mut criterion, args.quick);
}
