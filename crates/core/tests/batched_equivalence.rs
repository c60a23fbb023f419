//! Bitwise equivalence of the batched DQN hot path against the retained
//! unbatched reference implementations.
//!
//! The batched `q_values`/`train_batch` rewrite claims *exact* numerical
//! equivalence, not approximate: every kernel in `hierdrl-neural` is
//! row-independent with in-order accumulation, so stacking the Sub-Q rows
//! into one GEMM cannot change a single bit. This suite holds that claim
//! against random states across cluster sizes (including the padded
//! `M = 10, K = 3` and `M = 14, K = 4` layouts) and across repeated
//! optimizer steps. The batched paths read the codes stored with each
//! encoded state; the references always re-encode, so the suite also holds
//! that stored codes — current or stale — change nothing.

use hierdrl_core::dqn::{EncodedState, GroupedQNetwork, QNetworkConfig, QSample};
use hierdrl_core::state::{GlobalState, StateEncoder, StateEncoderConfig};
use hierdrl_neural::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn layout(m: usize, k: usize) -> StateEncoder {
    StateEncoder::new(
        m,
        3,
        StateEncoderConfig {
            num_groups: k,
            ..Default::default()
        },
    )
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

/// The `(M, K)` grid under test: the qbench/CI smoke sizes (10, 14) plus a
/// larger cluster, with both even and padded group layouts.
const GRID: &[(usize, usize)] = &[(10, 2), (10, 3), (14, 2), (14, 4), (32, 2), (32, 3)];

#[test]
fn batched_q_values_are_bitwise_identical_to_reference() {
    for &(m, k) in GRID {
        let mut rng = StdRng::seed_from_u64(m as u64 * 100 + k as u64);
        let lay = layout(m, k);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        for trial in 0..16 {
            let s = random_state(&lay, &mut rng);
            assert_eq!(
                net.q_values(&s),
                net.q_values_reference(&s),
                "M={m} K={k} trial {trial}: batched q_values diverged"
            );
        }
    }
}

#[test]
fn q_values_batch_matches_per_state_calls() {
    for &(m, k) in GRID {
        let mut rng = StdRng::seed_from_u64(m as u64 * 101 + k as u64);
        let lay = layout(m, k);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let states: Vec<EncodedState> = (0..7)
            .map(|_| net.encode(random_state(&lay, &mut rng)))
            .collect();
        let refs: Vec<&EncodedState> = states.iter().collect();
        let batched = net.q_values_batch(&refs);
        assert_eq!(batched.len(), states.len());
        for (i, s) in states.iter().enumerate() {
            assert_eq!(
                batched[i],
                net.q_values_reference(s.state()),
                "M={m} K={k} state {i}: multi-state batch diverged"
            );
        }
    }
}

#[test]
fn q_action_batch_matches_reference_q_values() {
    for &(m, k) in GRID {
        let mut rng = StdRng::seed_from_u64(m as u64 * 104 + k as u64);
        let lay = layout(m, k);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let states: Vec<EncodedState> = (0..9)
            .map(|_| net.encode(random_state(&lay, &mut rng)))
            .collect();
        let items: Vec<(&EncodedState, usize)> = states
            .iter()
            .enumerate()
            .map(|(i, s)| (s, (i * 3) % m))
            .collect();
        let got = net.q_action_batch(&items);
        for (i, (s, a)) in items.iter().enumerate() {
            assert_eq!(
                got[i].to_bits(),
                net.q_values_reference(s.state())[*a].to_bits(),
                "M={m} K={k} item {i}: q_action_batch diverged"
            );
        }
    }
}

#[test]
fn max_q_agrees_with_reference_q_values() {
    for &(m, k) in GRID {
        let mut rng = StdRng::seed_from_u64(m as u64 * 102 + k as u64);
        let lay = layout(m, k);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        for _ in 0..8 {
            let s = random_state(&lay, &mut rng);
            let q = net.q_values_reference(&s);
            // Mask the padding actions exactly as the allocator does.
            let expected = q[..m].iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(net.max_q(&s, m), expected, "M={m} K={k}: max_q diverged");
            assert_eq!(GroupedQNetwork::max_q_of(&q, m), expected);
        }
    }
}

/// One training sample per state: a random real action and target.
fn random_samples<'a>(
    states: impl IntoIterator<Item = &'a EncodedState>,
    m: usize,
    rng: &mut StdRng,
) -> Vec<QSample<'a>> {
    states
        .into_iter()
        .map(|state| QSample {
            state,
            action: rng.gen_range(0..m),
            target: rng.gen_range(-5.0..0.0),
        })
        .collect()
}

/// Serializes everything that training mutates (weights, gradients are
/// zeroed anyway, Adam moments and step counter) into a comparable string.
fn full_state(net: &GroupedQNetwork) -> String {
    serde_json::to_string(net).expect("network serializes")
}

#[test]
fn batched_training_is_bitwise_identical_to_reference() {
    for &(m, k) in GRID {
        let mut rng = StdRng::seed_from_u64(m as u64 * 103 + k as u64);
        let lay = layout(m, k);
        let batched = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let mut reference = batched.clone();
        let mut batched = batched;
        for step in 0..12 {
            let states: Vec<EncodedState> = (0..9)
                .map(|_| batched.encode(random_state(&lay, &mut rng)))
                .collect();
            let samples = random_samples(&states, m, &mut rng);
            let loss_b = batched.train_batch(&samples);
            let loss_r = reference.train_batch_reference(&samples);
            assert_eq!(
                loss_b.to_bits(),
                loss_r.to_bits(),
                "M={m} K={k} step {step}: losses diverged ({loss_b} vs {loss_r})"
            );
            assert_eq!(
                full_state(&batched),
                full_state(&reference),
                "M={m} K={k} step {step}: weights/optimizer state diverged"
            );
        }
        // And the trained networks still agree at inference time.
        let s = random_state(&lay, &mut rng);
        assert_eq!(batched.q_values(&s), reference.q_values_reference(&s));
    }
}

/// The training workspace recycles cache entries and gradient buffers
/// across steps; varying the minibatch size between steps forces every one
/// of those buffers through resize paths on dirty contents. Results must
/// still be bitwise identical to the per-sample reference, and interleaved
/// inference (which shares the workspace) must not perturb training.
#[test]
fn workspace_training_is_identical_across_varying_batch_sizes() {
    for &(m, k) in &[(10, 3), (14, 4), (32, 2)] {
        let mut rng = StdRng::seed_from_u64(m as u64 * 105 + k as u64);
        let lay = layout(m, k);
        let mut batched = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let mut reference = batched.clone();
        for (step, &batch) in [1usize, 9, 4, 16, 2, 16, 1].iter().enumerate() {
            let states: Vec<EncodedState> = (0..batch)
                .map(|_| batched.encode(random_state(&lay, &mut rng)))
                .collect();
            let samples = random_samples(&states, m, &mut rng);
            let loss_b = batched.train_batch(&samples);
            let loss_r = reference.train_batch_reference(&samples);
            assert_eq!(
                loss_b.to_bits(),
                loss_r.to_bits(),
                "M={m} K={k} step {step} (batch {batch}): losses diverged"
            );
            // Interleave inference through the shared workspace.
            let probe = random_state(&lay, &mut rng);
            assert_eq!(
                batched.q_values(&probe),
                reference.q_values_reference(&probe),
                "M={m} K={k} step {step}: post-step inference diverged"
            );
            assert_eq!(
                full_state(&batched),
                full_state(&reference),
                "M={m} K={k} step {step} (batch {batch}): state diverged"
            );
        }
    }
}

/// Codes stored under an older encoder generation must be recomputed, not
/// reused: states encoded before an autoencoder pre-training, mixed in one
/// batch with states encoded after it, still evaluate and train exactly as
/// the always-re-encoding references do.
#[test]
fn stale_generation_codes_are_re_encoded() {
    for &(m, k) in &[(10, 3), (14, 4), (32, 2)] {
        let mut rng = StdRng::seed_from_u64(m as u64 * 106 + k as u64);
        let lay = layout(m, k);
        let mut net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let stale: Vec<EncodedState> = (0..5)
            .map(|_| net.encode(random_state(&lay, &mut rng)))
            .collect();
        let rows: Vec<f32> = (0..64 * lay.group_width())
            .map(|_| rng.gen::<f32>())
            .collect();
        net.pretrain_autoencoder(&Matrix::from_vec(64, lay.group_width(), rows), 2, 16, 2e-3);
        assert_ne!(stale[0].generation(), net.encoder_generation());
        let current: Vec<EncodedState> = (0..4)
            .map(|_| net.encode(random_state(&lay, &mut rng)))
            .collect();
        // Interleave stale and current states.
        let mixed: Vec<&EncodedState> = (0..9)
            .map(|i| {
                if i % 2 == 0 {
                    &stale[i / 2]
                } else {
                    &current[i / 2]
                }
            })
            .collect();
        let batched = net.q_values_batch(&mixed);
        for (i, s) in mixed.iter().enumerate() {
            assert_eq!(
                batched[i],
                net.q_values_reference(s.state()),
                "M={m} K={k} state {i}: stale codes leaked into q_values_batch"
            );
        }
        let items: Vec<(&EncodedState, usize)> = mixed
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, (i * 5) % m))
            .collect();
        let got = net.q_action_batch(&items);
        for (i, (s, a)) in items.iter().enumerate() {
            assert_eq!(
                got[i].to_bits(),
                net.q_values_reference(s.state())[*a].to_bits(),
                "M={m} K={k} item {i}: stale codes leaked into q_action_batch"
            );
        }
        let samples = random_samples(mixed.iter().copied(), m, &mut rng);
        let mut reference = net.clone();
        let loss_b = net.train_batch(&samples);
        let loss_r = reference.train_batch_reference(&samples);
        assert_eq!(
            loss_b.to_bits(),
            loss_r.to_bits(),
            "M={m} K={k}: losses diverged"
        );
        assert_eq!(
            full_state(&net),
            full_state(&reference),
            "M={m} K={k}: stale codes leaked into train_batch"
        );
    }
}
