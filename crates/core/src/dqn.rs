//! The global tier's Q-network: shared autoencoder + shared Sub-Q networks
//! (the paper's Fig. 6).
//!
//! For each group `k`, the Sub-Q network estimates Q values for allocating
//! the job to each server in `G_k`. Its input is the *raw* state of its own
//! group `g_k`, the job state `s_j`, and the autoencoder-compressed codes
//! `ḡ_{k'}` of every *other* group — the dimension difference expresses
//! that the target group's own state matters most. One parameter set is
//! shared by all `K` autoencoder applications and one by all `K` Sub-Q
//! applications; gradients from every application accumulate into the
//! shared weights (the crate's cache-stack layers make this exact).
//!
//! Each decision state is encoded once. [`GroupedQNetwork::encode`] pairs
//! a [`GlobalState`] with its `K` codes and the [`EncoderGeneration`] they
//! were computed under, and the batched entry points
//! ([`GroupedQNetwork::q_values_batch`], [`GroupedQNetwork::q_action_batch`],
//! [`GroupedQNetwork::train_batch`]) take such [`EncodedState`]s. They use
//! the stored codes when the generation matches their own and re-encode
//! only the stale states. The generation changes whenever the encoder's
//! weights do (autoencoder pre-training, every fine-tuning step) and is
//! copied by `clone`, so a target network keeps the generation of its last
//! sync and a matching generation means bit-identical encoder weights. The
//! encoder kernels are row-independent, so a stored code equals the code a
//! fresh sweep would compute, bit for bit, and reusing it changes nothing.

use crate::state::{GlobalState, StateEncoder};
use hierdrl_neural::activation::Activation;
use hierdrl_neural::autoencoder::Autoencoder;
use hierdrl_neural::dense::Mlp;
use hierdrl_neural::init::Init;
use hierdrl_neural::matrix::Matrix;
use hierdrl_neural::optim::{clip_grad_norm, Adam, Optimizer, Trainable};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hyper-parameters of the grouped Q-network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QNetworkConfig {
    /// Width of the autoencoder code (paper: 15).
    pub code_size: usize,
    /// Width of the autoencoder's hidden layer (paper: 30).
    pub ae_hidden: usize,
    /// Width of the Sub-Q hidden layer (paper: 128 ELUs).
    pub hidden: usize,
    /// Adam learning rate for Q-fitting.
    pub learning_rate: f32,
    /// Global gradient-norm clip (paper: 10).
    pub grad_clip: f32,
    /// Back-propagate Q-loss into the encoder (extension; the paper
    /// pre-trains the autoencoder offline and we default to freezing it).
    pub fine_tune_encoder: bool,
}

impl Default for QNetworkConfig {
    fn default() -> Self {
        Self {
            code_size: 15,
            ae_hidden: 30,
            hidden: 128,
            learning_rate: 1e-3,
            grad_clip: 10.0,
            fine_tune_encoder: false,
        }
    }
}

/// Identifies the encoder weights a set of codes was computed under.
///
/// Every value is drawn once from a process-wide counter: when a network
/// is built or deserialized and whenever its encoder's weights change.
/// `clone` copies it. Two networks therefore share a generation only when
/// one is a clone of the other and neither encoder has changed since,
/// which is exactly when their encoders are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderGeneration(u64);

impl EncoderGeneration {
    fn next() -> Self {
        // Only uniqueness matters, which `fetch_add` gives under any
        // ordering; the value publishes no other data.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Self(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for EncoderGeneration {
    /// A generation no existing network has.
    fn default() -> Self {
        Self::next()
    }
}

/// A decision state with its `K` autoencoder codes (one row per group) and
/// the encoder generation they were computed under; built by
/// [`GroupedQNetwork::encode`].
#[derive(Debug, Clone)]
pub struct EncodedState {
    state: GlobalState,
    codes: Matrix,
    generation: EncoderGeneration,
}

impl EncodedState {
    /// The raw state.
    pub fn state(&self) -> &GlobalState {
        &self.state
    }

    /// The codes, `K x code_size`, row `k` encoding group `k`.
    pub fn codes(&self) -> &Matrix {
        &self.codes
    }

    /// The encoder generation the codes were computed under.
    pub fn generation(&self) -> EncoderGeneration {
        self.generation
    }
}

/// A training sample: fit `Q(state, action)` to `target`. Borrows its
/// state, so a minibatch drawn from replay copies no state.
#[derive(Debug, Clone, Copy)]
pub struct QSample<'a> {
    /// Encoded global state.
    pub state: &'a EncodedState,
    /// Global action index (server index).
    pub action: usize,
    /// Target Q value (from the SMDP update rule).
    pub target: f32,
}

/// Reusable per-step buffers for the batched inference/training hot path:
/// the stacked group rows of stale states fed to the shared encoder, their
/// fresh codes, every state's codes gathered in batch order, the assembled
/// Sub-Q input rows, and the ping-pong activation scratch.
/// Purely a memory-reuse device — every value is fully overwritten before
/// use, so results never depend on the buffers' previous contents.
#[derive(Debug, Clone, Default)]
struct QWorkspace {
    group_rows: Matrix,
    fresh_codes: Matrix,
    codes: Matrix,
    inputs: Matrix,
    q: Matrix,
    scratch: Matrix,
    /// Batched output gradient for the training step (scattered per-sample
    /// errors), recycled across minibatches.
    dy: Matrix,
}

/// The weight-shared, autoencoder-compressed Q-network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupedQNetwork {
    autoencoder: Autoencoder,
    sub_q: Mlp,
    adam: Adam,
    config: QNetworkConfig,
    num_groups: usize,
    group_size: usize,
    group_width: usize,
    job_width: usize,
    /// Not serialized: a deserialized network draws a new generation.
    #[serde(skip)]
    generation: EncoderGeneration,
    #[serde(skip)]
    workspace: RefCell<QWorkspace>,
}

impl GroupedQNetwork {
    /// Builds the network for the given state layout.
    pub fn new(layout: &StateEncoder, config: QNetworkConfig, rng: &mut impl Rng) -> Self {
        let group_width = layout.group_width();
        let job_width = layout.job_width();
        let num_groups = layout.num_groups();
        let input = Self::input_width_for(group_width, job_width, num_groups, config.code_size);
        let autoencoder = Autoencoder::new(
            &[group_width, config.ae_hidden, config.code_size],
            Activation::ELU,
            rng,
        );
        let sub_q = Mlp::new(
            &[input, config.hidden, layout.group_size()],
            Activation::ELU,
            Activation::Linear,
            Init::HeNormal,
            rng,
        );
        Self {
            autoencoder,
            sub_q,
            adam: Adam::new(config.learning_rate),
            config,
            num_groups,
            group_size: layout.group_size(),
            group_width,
            job_width,
            generation: EncoderGeneration::next(),
            workspace: RefCell::new(QWorkspace::default()),
        }
    }

    fn input_width_for(group_width: usize, job_width: usize, k: usize, code: usize) -> usize {
        group_width + job_width + (k.saturating_sub(1)) * code
    }

    /// Width of the Sub-Q input vector.
    pub fn input_width(&self) -> usize {
        Self::input_width_for(
            self.group_width,
            self.job_width,
            self.num_groups,
            self.config.code_size,
        )
    }

    /// Total action count (`K * group_size`, including padding slots).
    pub fn num_actions(&self) -> usize {
        self.num_groups * self.group_size
    }

    /// The configuration.
    pub fn config(&self) -> &QNetworkConfig {
        &self.config
    }

    /// The shared autoencoder (e.g. for inspecting reconstruction error).
    pub fn autoencoder(&self) -> &Autoencoder {
        &self.autoencoder
    }

    /// The generation of the encoder's current weights.
    pub fn encoder_generation(&self) -> EncoderGeneration {
        self.generation
    }

    /// Encodes every group of `state` through the shared encoder, once, for
    /// any number of later Q evaluations and training steps.
    pub fn encode(&self, state: GlobalState) -> EncodedState {
        let ws = &mut *self.workspace.borrow_mut();
        self.encode_groups(&[&state], ws);
        EncodedState {
            state,
            codes: ws.fresh_codes.clone(),
            generation: self.generation,
        }
    }

    /// Encodes every group state into its low-dimensional code.
    fn codes(&self, s: &GlobalState) -> Vec<Matrix> {
        (0..self.num_groups)
            .map(|k| self.autoencoder.encode(&s.group_matrix(k)))
            .collect()
    }

    /// Builds the Sub-Q input row for group `k`: `[g_k | s_j | ḡ_{k'≠k}]`.
    fn sub_q_input(&self, s: &GlobalState, k: usize, codes: &[Matrix]) -> Matrix {
        let g_k = s.group_matrix(k);
        let job = s.job_matrix();
        let mut parts: Vec<&Matrix> = vec![&g_k, &job];
        for (k2, code) in codes.iter().enumerate() {
            if k2 != k {
                parts.push(code);
            }
        }
        Matrix::hcat(&parts)
    }

    /// Stacks every group row of `states` (state-major, group-minor) into
    /// `group_rows` and runs one shared-encoder sweep into `fresh_codes`.
    fn encode_groups(&self, states: &[&GlobalState], ws: &mut QWorkspace) {
        let k = self.num_groups;
        ws.group_rows.resize_to(states.len() * k, self.group_width);
        for (i, s) in states.iter().enumerate() {
            for g in 0..k {
                ws.group_rows
                    .row_mut(i * k + g)
                    .copy_from_slice(&s.groups[g]);
            }
        }
        self.autoencoder
            .encode_into(&ws.group_rows, &mut ws.fresh_codes, &mut ws.scratch);
    }

    /// Gathers every state's `K` codes into rows `i*K..(i+1)*K` of
    /// `codes`: stored codes where the state's generation is this
    /// network's, otherwise from one shared-encoder sweep over the stale
    /// states only.
    fn gather_codes(&self, states: &[&EncodedState], ws: &mut QWorkspace) {
        let k = self.num_groups;
        let stale: Vec<&GlobalState> = states
            .iter()
            .filter(|s| s.generation != self.generation)
            .map(|s| &s.state)
            .collect();
        if !stale.is_empty() {
            self.encode_groups(&stale, ws);
        }
        ws.codes.resize_to(states.len() * k, self.config.code_size);
        let mut next_fresh = 0;
        for (i, s) in states.iter().enumerate() {
            let (src, base) = if s.generation == self.generation {
                (&s.codes, 0)
            } else {
                next_fresh += k;
                (&ws.fresh_codes, next_fresh - k)
            };
            for g in 0..k {
                ws.codes
                    .row_mut(i * k + g)
                    .copy_from_slice(src.row(base + g));
            }
        }
    }

    /// Writes group `g`'s Sub-Q input row `[g_g | s_j | ḡ_{g'≠g}]` for the
    /// state whose codes occupy rows `code_base..code_base + K` of `codes`.
    fn fill_sub_q_row(
        &self,
        row: &mut [f32],
        s: &GlobalState,
        g: usize,
        codes: &Matrix,
        code_base: usize,
    ) {
        let code_w = self.config.code_size;
        row[..self.group_width].copy_from_slice(&s.groups[g]);
        let mut ofs = self.group_width;
        row[ofs..ofs + self.job_width].copy_from_slice(&s.job);
        ofs += self.job_width;
        for g2 in 0..self.num_groups {
            if g2 != g {
                row[ofs..ofs + code_w].copy_from_slice(codes.row(code_base + g2));
                ofs += code_w;
            }
        }
    }

    /// Q estimates for all `K * group_size` actions (padding slots
    /// included; callers mask indices `>= M`). Encodes `s`, then runs
    /// [`GroupedQNetwork::q_values_batch`].
    pub fn q_values(&self, s: &GlobalState) -> Vec<f32> {
        self.q_values_batch(&[&self.encode(s.clone())])
            .pop()
            .expect("one state in, one Q vector out")
    }

    /// Q estimates for every state in `states`, batched: the stored codes
    /// of current-generation states, one shared-encoder GEMM over the group
    /// rows of stale ones, and one Sub-Q GEMM over all `B * K` input rows,
    /// instead of `B * 2K` single-row passes. Per-state results are bitwise
    /// identical to [`GroupedQNetwork::q_values_reference`] because every
    /// kernel in the neural substrate is row-independent with in-order
    /// accumulation (see the batched-equivalence test suite).
    pub fn q_values_batch(&self, states: &[&EncodedState]) -> Vec<Vec<f32>> {
        if states.is_empty() {
            return Vec::new();
        }
        let k = self.num_groups;
        let ws = &mut *self.workspace.borrow_mut();
        self.gather_codes(states, ws);
        ws.inputs.resize_to(states.len() * k, self.input_width());
        for (i, s) in states.iter().enumerate() {
            for g in 0..k {
                let (inputs, codes) = (&mut ws.inputs, &ws.codes);
                self.fill_sub_q_row(inputs.row_mut(i * k + g), &s.state, g, codes, i * k);
            }
        }
        // Rows are (state, group)-major, so each state's K output rows
        // concatenate into exactly the per-group q_values layout.
        self.sub_q
            .infer_into(&ws.inputs, &mut ws.q, &mut ws.scratch);
        (0..states.len())
            .map(|i| {
                let mut out = Vec::with_capacity(self.num_actions());
                for g in 0..k {
                    out.extend_from_slice(ws.q.row(i * k + g));
                }
                out
            })
            .collect()
    }

    /// `Q(s, a)` for a batch of state/action pairs: like
    /// [`GroupedQNetwork::q_values_batch`] but evaluating only the **one**
    /// Sub-Q row containing each pair's action — the allocator's target
    /// sweep needs just the taken action's value for the previous state,
    /// so the other `K-1` rows would be wasted GEMM work. Each returned
    /// value is bitwise identical to `q_values(s)[a]` (row independence).
    ///
    /// # Panics
    ///
    /// Panics if an action index is out of range.
    pub fn q_action_batch(&self, items: &[(&EncodedState, usize)]) -> Vec<f32> {
        if items.is_empty() {
            return Vec::new();
        }
        let k = self.num_groups;
        let ws = &mut *self.workspace.borrow_mut();
        let states: Vec<&EncodedState> = items.iter().map(|(s, _)| *s).collect();
        self.gather_codes(&states, ws);
        ws.inputs.resize_to(items.len(), self.input_width());
        for (i, (s, action)) in items.iter().enumerate() {
            assert!(*action < self.num_actions(), "action {action} out of range");
            let g = action / self.group_size;
            let (inputs, codes) = (&mut ws.inputs, &ws.codes);
            self.fill_sub_q_row(inputs.row_mut(i), &s.state, g, codes, i * k);
        }
        self.sub_q
            .infer_into(&ws.inputs, &mut ws.q, &mut ws.scratch);
        items
            .iter()
            .enumerate()
            .map(|(i, (_, action))| ws.q[(i, action % self.group_size)])
            .collect()
    }

    /// The retained **unbatched** reference for [`GroupedQNetwork::q_values`]:
    /// `K` single-row encoder passes and `K` single-row Sub-Q passes. Kept
    /// (test-only) so the equivalence suite can assert the batched hot path
    /// is bitwise identical; production code never calls it.
    #[doc(hidden)]
    pub fn q_values_reference(&self, s: &GlobalState) -> Vec<f32> {
        let codes = self.codes(s);
        let mut out = Vec::with_capacity(self.num_actions());
        for k in 0..self.num_groups {
            let input = self.sub_q_input(s, k, &codes);
            let q = self.sub_q.infer(&input);
            out.extend_from_slice(q.row(0));
        }
        out
    }

    /// `max_a Q(s, a)` over the first `valid_actions` entries of a Q vector
    /// (the shared-evaluation path: callers that already hold `q_values`
    /// output avoid re-running the encoder sweep).
    ///
    /// # Panics
    ///
    /// Panics if `valid_actions` is zero or exceeds the vector length.
    pub fn max_q_of(q: &[f32], valid_actions: usize) -> f32 {
        assert!(
            valid_actions > 0 && valid_actions <= q.len(),
            "valid_actions {valid_actions} out of range"
        );
        q[..valid_actions]
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// `max_a Q(s, a)` over the first `valid_actions` actions.
    ///
    /// # Panics
    ///
    /// Panics if `valid_actions` is zero or exceeds the action count.
    pub fn max_q(&self, s: &GlobalState, valid_actions: usize) -> f32 {
        assert!(
            valid_actions <= self.num_actions(),
            "valid_actions {valid_actions} out of range"
        );
        Self::max_q_of(&self.q_values(s), valid_actions)
    }

    /// Pre-trains the shared autoencoder on observed group states
    /// (rows = samples of width `group_width`), returning the final epoch's
    /// reconstruction loss. Starts a new encoder generation.
    ///
    /// # Panics
    ///
    /// Panics if the sample width does not match the group width.
    pub fn pretrain_autoencoder(
        &mut self,
        group_states: &Matrix,
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
    ) -> f32 {
        assert_eq!(
            group_states.cols(),
            self.group_width,
            "autoencoder samples must have width {}",
            self.group_width
        );
        let mut adam = Adam::new(learning_rate);
        self.generation = EncoderGeneration::next();
        self.autoencoder
            .fit(group_states, epochs, batch_size, &mut adam)
    }

    /// One fitted-Q training step over a minibatch: regresses the chosen
    /// actions' outputs onto the stored targets with MSE, clips the global
    /// gradient norm, and applies Adam. Returns the mean squared error.
    ///
    /// With the (default) frozen encoder the whole minibatch runs as one
    /// Sub-Q forward/backward over the samples' stored codes (one
    /// shared-encoder GEMM re-encodes any stale states), with the
    /// per-sample error scattered into the batched output gradient —
    /// bitwise identical to [`GroupedQNetwork::train_batch_reference`].
    /// Fine-tuning back-propagates through a per-sample encoder forward
    /// instead, ignores the stored codes, and starts a new encoder
    /// generation.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or an action index is out of range.
    pub fn train_batch(&mut self, samples: &[QSample<'_>]) -> f32 {
        self.check_batch(samples);
        self.sub_q.zero_grad();
        self.autoencoder.zero_grad();
        let n = samples.len() as f32;
        let mut loss = 0.0f32;

        if self.config.fine_tune_encoder {
            // Per-sample path so the encoder cache stack balances exactly.
            for s in samples {
                loss += self.train_one_finetune(s, n);
            }
            let mut joint = JointParams {
                sub_q: &mut self.sub_q,
                encoder: Some(&mut self.autoencoder),
            };
            clip_grad_norm(&mut joint, self.config.grad_clip);
            self.adam.step(&mut joint);
            self.generation = EncoderGeneration::next();
        } else {
            // Frozen encoder: one batched forward/backward over the whole
            // minibatch, rows in sample order, entirely through recycled
            // workspace buffers (encoder codes, Sub-Q inputs and caches,
            // the scattered output gradient).
            let ws = &mut *self.workspace.borrow_mut();
            let states: Vec<&EncodedState> = samples.iter().map(|s| s.state).collect();
            self.gather_codes(&states, ws);
            ws.inputs.resize_to(samples.len(), self.input_width());
            let k = self.num_groups;
            for (i, s) in samples.iter().enumerate() {
                let g = s.action / self.group_size;
                let (inputs, codes) = (&mut ws.inputs, &ws.codes);
                self.fill_sub_q_row(inputs.row_mut(i), &s.state.state, g, codes, i * k);
            }
            let y = self.sub_q.forward_ws(&ws.inputs);
            ws.dy.resize_to(y.rows(), y.cols());
            for (i, s) in samples.iter().enumerate() {
                let slot = s.action % self.group_size;
                let err = y[(i, slot)] - s.target;
                loss += err * err;
                ws.dy[(i, slot)] = 2.0 * err / n;
            }
            // Frozen encoder: nothing consumes the input gradient.
            self.sub_q.backward_params_only_ws(&ws.dy);
            let mut joint = JointParams {
                sub_q: &mut self.sub_q,
                encoder: None,
            };
            clip_grad_norm(&mut joint, self.config.grad_clip);
            self.adam.step(&mut joint);
        }
        loss / n
    }

    /// The retained **unbatched** reference for [`GroupedQNetwork::train_batch`]
    /// (frozen-encoder path): per-sample single-row encoder sweeps (never
    /// the stored codes) and Sub-Q forward/backward passes, in sample
    /// order. Kept (test-only) so the equivalence suite can assert the
    /// batched step leaves bitwise identical weights, optimizer state, and
    /// loss; production code never calls it. Delegates to [`GroupedQNetwork::train_batch`] when the
    /// encoder is fine-tuned (that path is per-sample already).
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or an action index is out of range.
    #[doc(hidden)]
    pub fn train_batch_reference(&mut self, samples: &[QSample<'_>]) -> f32 {
        if self.config.fine_tune_encoder {
            return self.train_batch(samples);
        }
        self.check_batch(samples);
        self.sub_q.zero_grad();
        self.autoencoder.zero_grad();
        let n = samples.len() as f32;
        let mut loss = 0.0f32;
        for s in samples {
            let k = s.action / self.group_size;
            let slot = s.action % self.group_size;
            let codes = self.codes(&s.state.state);
            let x = self.sub_q_input(&s.state.state, k, &codes);
            let y = self.sub_q.forward(&x);
            let err = y[(0, slot)] - s.target;
            loss += err * err;
            let mut dy = Matrix::zeros(1, y.cols());
            dy[(0, slot)] = 2.0 * err / n;
            self.sub_q.backward_params_only(&dy);
        }
        let mut joint = JointParams {
            sub_q: &mut self.sub_q,
            encoder: None,
        };
        clip_grad_norm(&mut joint, self.config.grad_clip);
        self.adam.step(&mut joint);
        loss / n
    }

    /// Validates a training minibatch.
    fn check_batch(&self, samples: &[QSample<'_>]) {
        assert!(!samples.is_empty(), "training batch is empty");
        for s in samples {
            assert!(
                s.action < self.num_actions(),
                "action {} out of range ({})",
                s.action,
                self.num_actions()
            );
        }
    }

    /// Forward/backward for one sample with encoder fine-tuning.
    fn train_one_finetune(&mut self, s: &QSample<'_>, n: f32) -> f32 {
        let k = s.action / self.group_size;
        let slot = s.action % self.group_size;
        // Forward the encoder for every other group, caching (ascending k').
        let mut codes: Vec<(usize, Matrix)> = Vec::with_capacity(self.num_groups - 1);
        for k2 in 0..self.num_groups {
            if k2 != k {
                let code = self
                    .autoencoder
                    .encoder_mut()
                    .forward(&s.state.state.group_matrix(k2));
                codes.push((k2, code));
            }
        }
        let g_k = s.state.state.group_matrix(k);
        let job = s.state.state.job_matrix();
        let mut parts: Vec<&Matrix> = vec![&g_k, &job];
        for (_, c) in &codes {
            parts.push(c);
        }
        let x = Matrix::hcat(&parts);
        let y = self.sub_q.forward(&x);
        let err = y[(0, slot)] - s.target;
        let mut dy = Matrix::zeros(1, y.cols());
        dy[(0, slot)] = 2.0 * err / n;
        let dx = self.sub_q.backward(&dy);
        // Route code gradients back through the encoder in reverse order of
        // the forward calls (cache-stack discipline).
        let base = self.group_width + self.job_width;
        let code_w = self.config.code_size;
        for (i, _) in codes.iter().enumerate().rev() {
            let grad = dx.slice_cols(base + i * code_w, code_w);
            let _ = self.autoencoder.encoder_mut().backward(&grad);
        }
        err * err
    }
}

/// Joint parameter view for the optimizer: Sub-Q weights, plus the encoder
/// when fine-tuning. Visit order is stable for the lifetime of the network.
struct JointParams<'a> {
    sub_q: &'a mut Mlp,
    encoder: Option<&'a mut Autoencoder>,
}

impl Trainable for JointParams<'_> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.sub_q.visit_params(f);
        if let Some(enc) = self.encoder.as_mut() {
            enc.visit_params(f);
        }
    }

    fn zero_grad(&mut self) {
        self.sub_q.zero_grad();
        if let Some(enc) = self.encoder.as_mut() {
            enc.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateEncoderConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        use rand::Rng;
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

    #[test]
    fn dimensions_match_paper_setup() {
        // M = 30, K = 2, D = 3 + availability + queue + capacity:
        // group width 90 (the paper's raw state is the 45-wide
        // utilizations-only layout; the enrichments widen it).
        let mut rng = StdRng::seed_from_u64(0);
        let lay = layout(30, 2);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        assert_eq!(net.num_actions(), 30);
        assert_eq!(net.input_width(), 90 + 4 + 15);
        let s = random_state(&lay, &mut rng);
        assert_eq!(net.q_values(&s).len(), 30);
    }

    #[test]
    fn padded_groups_produce_extra_masked_actions() {
        let mut rng = StdRng::seed_from_u64(1);
        let lay = layout(30, 4); // group size 8 -> 32 actions
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        assert_eq!(net.num_actions(), 32);
        let s = random_state(&lay, &mut rng);
        assert_eq!(net.q_values(&s).len(), 32);
        // max over valid prefix only
        let _ = net.max_q(&s, 30);
    }

    #[test]
    fn training_fits_targets() {
        let mut rng = StdRng::seed_from_u64(2);
        let lay = layout(8, 2);
        let mut net = GroupedQNetwork::new(
            &lay,
            QNetworkConfig {
                learning_rate: 3e-3,
                ..Default::default()
            },
            &mut rng,
        );
        // A handful of fixed states with fixed targets: loss must fall.
        let states: Vec<EncodedState> = (0..8)
            .map(|_| net.encode(random_state(&lay, &mut rng)))
            .collect();
        let samples: Vec<QSample> = states
            .iter()
            .enumerate()
            .map(|(i, state)| QSample {
                state,
                action: i % 8,
                target: (i as f32 - 4.0) * 0.5,
            })
            .collect();
        let first = net.train_batch(&samples);
        let mut last = first;
        for _ in 0..300 {
            last = net.train_batch(&samples);
        }
        assert!(last < first * 0.1, "loss {first} -> {last} did not fall");
    }

    #[test]
    fn fine_tune_path_also_fits() {
        let mut rng = StdRng::seed_from_u64(3);
        let lay = layout(6, 3);
        let mut net = GroupedQNetwork::new(
            &lay,
            QNetworkConfig {
                learning_rate: 3e-3,
                fine_tune_encoder: true,
                ..Default::default()
            },
            &mut rng,
        );
        let states: Vec<EncodedState> = (0..6)
            .map(|_| net.encode(random_state(&lay, &mut rng)))
            .collect();
        let samples: Vec<QSample> = states
            .iter()
            .enumerate()
            .map(|(i, state)| QSample {
                state,
                action: i,
                target: 1.0,
            })
            .collect();
        let first = net.train_batch(&samples);
        let mut last = first;
        for _ in 0..300 {
            last = net.train_batch(&samples);
        }
        assert!(last < first * 0.2, "loss {first} -> {last} did not fall");
    }

    #[test]
    fn autoencoder_pretraining_reduces_reconstruction_error() {
        let mut rng = StdRng::seed_from_u64(4);
        let lay = layout(8, 2);
        let mut net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        // Structured group states (low-rank): compressible.
        let mut data = Matrix::zeros(64, lay.group_width());
        for r in 0..64 {
            use rand::Rng;
            let a: f32 = rng.gen();
            for c in 0..lay.group_width() {
                data[(r, c)] = a * (c % 4) as f32 / 4.0;
            }
        }
        let before = net.autoencoder().reconstruction_error(&data);
        net.pretrain_autoencoder(&data, 100, 16, 3e-3);
        let after = net.autoencoder().reconstruction_error(&data);
        assert!(after < before * 0.5, "recon {before} -> {after}");
    }

    #[test]
    fn q_values_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let lay = layout(10, 2);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let s = random_state(&lay, &mut rng);
        assert_eq!(net.q_values(&s), net.q_values(&s));
    }

    #[test]
    #[should_panic(expected = "training batch is empty")]
    fn empty_batch_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let lay = layout(4, 2);
        let mut net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let _ = net.train_batch(&[]);
    }
}
