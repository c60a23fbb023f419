//! Long short-term memory (LSTM) cell and sequence network with truncated
//! back-propagation through time (BPTT).
//!
//! The paper's workload predictor (Fig. 7) is an unrolled LSTM: an input
//! hidden layer, an LSTM cell layer with 30 hidden units shared across all
//! time steps, and an output hidden layer. [`LstmNetwork`] reproduces that
//! exact topology.

use crate::activation::Activation;
use crate::dense::Dense;
use crate::init::Init;
use crate::matrix::Matrix;
use crate::optim::Trainable;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Cached values for one time step of one forward pass.
///
/// The four post-activation gates stay packed in one `n x 4*hidden` matrix
/// (`[i | f | o | g]` blocks) instead of four separate matrices — the
/// backward pass reads them sliced in place, halving the per-step
/// allocation count on the online-predictor hot path.
#[derive(Debug, Clone, Default)]
struct StepCache {
    z: Matrix,      // [n x (input + hidden)]  concatenated input
    gates: Matrix,  // [n x 4*hidden]  post-activation [i | f | o | g]
    c_prev: Matrix, // previous cell state
    tanh_c: Matrix, // tanh of new cell state
}

/// Scratch buffers for the fused sequence training path
/// ([`LstmCell::forward_sequence`] / [`LstmCell::backward_sequence`]):
/// every per-step temporary the step-by-step path allocates lives here
/// instead, resized in place across steps and sweeps.
#[derive(Debug, Clone, Default)]
struct CellWorkspace {
    /// Running hidden/cell state during a fused forward sweep.
    state: LstmState,
    /// Hidden-state gradient flowing backward through time.
    dh: Matrix,
    /// Cell-state gradient flowing backward through time.
    dc: Matrix,
    /// Next (earlier-step) cell-state gradient; swapped with `dc`.
    dc_next: Matrix,
    /// Packed pre-activation gate gradients `[da_i | da_f | da_o | da_g]`.
    da: Matrix,
    /// Concatenated-input gradient (`da * W^T`).
    dz: Matrix,
    /// Transposed gate weights, refreshed once per sweep.
    w_t: Matrix,
    /// Bias-gradient staging buffer.
    rowsum: Matrix,
    /// Concatenated inputs of every step, stacked in backward processing
    /// order for the deferred weight-gradient GEMM.
    z_stack: Matrix,
    /// Pre-activation gate gradients of every step, stacked alongside
    /// `z_stack`.
    da_stack: Matrix,
}

/// Hidden and cell state of an LSTM, batch-major.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LstmState {
    /// Hidden state `h`, shape `n x hidden`.
    pub h: Matrix,
    /// Cell state `c`, shape `n x hidden`.
    pub c: Matrix,
}

impl LstmState {
    /// Zero state for a batch of `n` sequences (the paper initializes the
    /// LSTM state to zero).
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        Self {
            h: Matrix::zeros(batch, hidden),
            c: Matrix::zeros(batch, hidden),
        }
    }
}

/// A single LSTM cell with weights shared across time steps.
///
/// Gate weights are packed into one `(input + hidden) x 4*hidden` matrix in
/// `[i | f | o | g]` order; the forget-gate bias is initialized to 1, a
/// standard trick that eases gradient flow early in training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmCell {
    input_size: usize,
    hidden_size: usize,
    w: Matrix,
    b: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
    #[serde(skip)]
    cache: Vec<StepCache>,
    #[serde(skip)]
    spare: Vec<StepCache>,
    #[serde(skip)]
    ws: CellWorkspace,
}

impl LstmCell {
    /// Creates a cell with Xavier-initialized gate weights.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut impl Rng) -> Self {
        let w = Init::XavierUniform.sample(input_size + hidden_size, 4 * hidden_size, rng);
        let mut b = Matrix::zeros(1, 4 * hidden_size);
        // Forget-gate bias = 1.
        for j in hidden_size..2 * hidden_size {
            b.as_mut_slice()[j] = 1.0;
        }
        Self {
            input_size,
            hidden_size,
            grad_w: Matrix::zeros(w.rows(), w.cols()),
            grad_b: Matrix::zeros(1, 4 * hidden_size),
            w,
            b,
            cache: Vec::new(),
            spare: Vec::new(),
            ws: CellWorkspace::default(),
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Activates one packed gate row in place: sigmoid on the `[i | f | o]`
    /// blocks, tanh on `g`. The single definition shared by every forward
    /// path (training, inference, fused sequence).
    #[inline]
    fn activate_gate_row(row: &mut [f32], hw: usize) {
        Activation::Sigmoid.apply_slice(&mut row[..3 * hw]);
        Activation::Tanh.apply_slice(&mut row[3 * hw..]);
    }

    /// The cell update for one row, in place: on entry `c` holds `c_prev`,
    /// on exit `c[j] = f∘c_prev + i∘g` (each element is read before it is
    /// written). Shared by every forward path.
    #[inline]
    fn cell_update_row(gr: &[f32], hw: usize, c: &mut [f32]) {
        for (j, cj) in c.iter_mut().enumerate() {
            *cj = gr[hw + j] * *cj + gr[j] * gr[3 * hw + j];
        }
    }

    /// The hidden-state output for one row: `h[j] = o∘tanh_c`. Shared by
    /// every forward path.
    #[inline]
    fn hidden_row(gr: &[f32], hw: usize, tanh_c: &[f32], h: &mut [f32]) {
        for (j, hj) in h.iter_mut().enumerate() {
            *hj = gr[2 * hw + j] * tanh_c[j];
        }
    }

    /// All four gate pre-activations in one GEMM, activated in place.
    fn gates(&self, z: &Matrix) -> Matrix {
        let mut a = z.matmul(&self.w);
        a.add_row_broadcast(&self.b);
        let h = self.hidden_size;
        for r in 0..a.rows() {
            Self::activate_gate_row(a.row_mut(r), h);
        }
        a
    }

    /// The elementwise tail of one step: `c = f∘c_prev + i∘g`,
    /// `tanh_c = tanh(c)`, `h = o∘tanh_c` — fused into one pass with the
    /// exact per-element expressions of the former hadamard/add chain.
    fn step_outputs(&self, gates: &Matrix, c_prev: &Matrix) -> (Matrix, Matrix, Matrix) {
        let hw = self.hidden_size;
        let n = gates.rows();
        let mut c = c_prev.clone();
        let mut h = Matrix::zeros(n, hw);
        for r in 0..n {
            Self::cell_update_row(gates.row(r), hw, c.row_mut(r));
        }
        let mut tanh_c = c.clone();
        Activation::Tanh.apply_slice(tanh_c.as_mut_slice());
        for r in 0..n {
            Self::hidden_row(gates.row(r), hw, tanh_c.row(r), h.row_mut(r));
        }
        (c, tanh_c, h)
    }

    /// One forward time step without caching (inference).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `n x input_size` or `state` does not match.
    pub fn infer_step(&self, x: &Matrix, state: &LstmState) -> LstmState {
        let z = Matrix::hcat(&[x, &state.h]);
        let gates = self.gates(&z);
        let (c, _tanh_c, h) = self.step_outputs(&gates, &state.c);
        LstmState { h, c }
    }

    /// Runs a whole batch-1 sequence (rows of `proj` = time steps) through
    /// the cell without caching, reusing one set of step buffers across
    /// the loop — zero allocations per step. Produces exactly the state
    /// [`LstmCell::infer_step`] iteration would (same kernels, same
    /// elementwise expressions; the in-place `c` update reads each element
    /// before writing it).
    ///
    /// # Panics
    ///
    /// Panics if `proj` is empty or its width is not the cell input size.
    pub fn infer_sequence(&self, proj: &Matrix) -> LstmState {
        assert!(proj.rows() > 0, "LSTM needs at least one time step");
        assert_eq!(proj.cols(), self.input_size, "sequence width mismatch");
        let hw = self.hidden_size;
        let iw = self.input_size;
        let mut z = Matrix::zeros(1, iw + hw);
        let mut a = Matrix::zeros(1, 4 * hw);
        let mut state = LstmState::zeros(1, hw);
        let mut tanh_c = Matrix::zeros(1, hw);
        for t in 0..proj.rows() {
            let zr = z.row_mut(0);
            zr[..iw].copy_from_slice(proj.row(t));
            zr[iw..].copy_from_slice(state.h.row(0));
            z.matmul_into(&self.w, &mut a);
            a.add_row_broadcast(&self.b);
            Self::activate_gate_row(a.row_mut(0), hw);
            Self::cell_update_row(a.row(0), hw, state.c.row_mut(0));
            tanh_c.row_mut(0).copy_from_slice(state.c.row(0));
            Activation::Tanh.apply_slice(tanh_c.row_mut(0));
            Self::hidden_row(a.row(0), hw, tanh_c.row(0), state.h.row_mut(0));
        }
        state
    }

    /// Runs a whole batch-1 sequence (rows of `proj` = time steps) through
    /// the cell *with* caching for BPTT — the training twin of
    /// [`LstmCell::infer_sequence`]. Per-step cache entries come from an
    /// internal spare pool (returned by [`LstmCell::backward_sequence`] or
    /// [`LstmCell::clear_cache`]) and are overwritten in place, so
    /// steady-state training allocates nothing per step. Bitwise identical
    /// to iterating [`LstmCell::forward_step`] from a zero state, which
    /// stays as the allocating reference path.
    ///
    /// The returned state reference is valid until the next forward call on
    /// this cell.
    ///
    /// # Panics
    ///
    /// Panics if `proj` is empty or its width is not the cell input size.
    pub fn forward_sequence(&mut self, proj: &Matrix) -> &LstmState {
        assert!(proj.rows() > 0, "LSTM needs at least one time step");
        assert_eq!(proj.cols(), self.input_size, "sequence width mismatch");
        let hw = self.hidden_size;
        let iw = self.input_size;
        self.ws.state.h.resize_to(1, hw);
        self.ws.state.c.resize_to(1, hw);
        for t in 0..proj.rows() {
            let mut s = self.spare.pop().unwrap_or_default();
            s.z.resize_to(1, iw + hw);
            {
                let zr = s.z.row_mut(0);
                zr[..iw].copy_from_slice(proj.row(t));
                zr[iw..].copy_from_slice(self.ws.state.h.row(0));
            }
            s.z.matmul_into(&self.w, &mut s.gates);
            s.gates.add_row_broadcast(&self.b);
            Self::activate_gate_row(s.gates.row_mut(0), hw);
            s.c_prev.copy_from(&self.ws.state.c);
            Self::cell_update_row(s.gates.row(0), hw, self.ws.state.c.row_mut(0));
            s.tanh_c.copy_from(&self.ws.state.c);
            Activation::Tanh.apply_slice(s.tanh_c.as_mut_slice());
            Self::hidden_row(
                s.gates.row(0),
                hw,
                s.tanh_c.row(0),
                self.ws.state.h.row_mut(0),
            );
            self.cache.push(s);
        }
        &self.ws.state
    }

    /// BPTT over every step cached by [`LstmCell::forward_sequence`],
    /// consuming the whole cache in one sweep: `dh_last` is the gradient
    /// w.r.t. the final hidden state, and the per-step input gradients are
    /// stacked into `dproj` (row `t` = step `t`, resized in place). All
    /// temporaries live in recycled workspace buffers and consumed cache
    /// entries return to the spare pool. Parameter gradients and `dproj`
    /// are bitwise identical to the [`LstmCell::backward_step_with`] loop
    /// this replaces.
    ///
    /// # Panics
    ///
    /// Panics if no cached steps are pending.
    pub fn backward_sequence(&mut self, dh_last: &Matrix, dproj: &mut Matrix) {
        let steps = self.cache.len();
        assert!(
            steps > 0,
            "LstmCell::backward_sequence without a matching forward_sequence"
        );
        let hw = self.hidden_size;
        let iw = self.input_size;
        let n = dh_last.rows();
        dproj.resize_to(steps, iw);
        // The gate weights are constant across the sweep: transpose once.
        self.w.transpose_into(&mut self.ws.w_t);
        self.ws.dh.copy_from(dh_last);
        self.ws.dc.resize_to(n, hw);
        self.ws.z_stack.resize_to(steps * n, iw + hw);
        self.ws.da_stack.resize_to(steps * n, 4 * hw);
        for t in (0..steps).rev() {
            let s = self.cache.pop().expect("steps counted above");
            // Same fused per-element expressions as `backward_step_with`.
            self.ws.da.resize_to(n, 4 * hw);
            self.ws.dc_next.resize_to(n, hw);
            for r in 0..n {
                let gr = s.gates.row(r);
                let (dhr, dcr) = (self.ws.dh.row(r), self.ws.dc.row(r));
                let (tcr, cpr) = (s.tanh_c.row(r), s.c_prev.row(r));
                let dar = self.ws.da.row_mut(r);
                let dcp = self.ws.dc_next.row_mut(r);
                for j in 0..hw {
                    let (i, f, o, g) = (gr[j], gr[hw + j], gr[2 * hw + j], gr[3 * hw + j]);
                    let tc = tcr[j];
                    let dc_total = dhr[j] * o * (1.0 - tc * tc) + 1.0 * dcr[j];
                    dar[j] = dc_total * g * i * (1.0 - i);
                    dar[hw + j] = dc_total * cpr[j] * f * (1.0 - f);
                    dar[2 * hw + j] = dhr[j] * tc * o * (1.0 - o);
                    dar[3 * hw + j] = dc_total * i * (1.0 - g * g);
                    dcp[j] = dc_total * f;
                }
            }

            // Weight-gradient contributions are deferred: stacking every
            // step's `z`/`da` rows in processing order (latest step first)
            // and running ONE `a^T b` accumulation after the loop adds
            // exactly the same terms per element in exactly the same order
            // as a per-step rank-1 update here — but as a real GEMM with a
            // `steps`-deep reduction instead of `steps` memory-bound
            // rank-1 sweeps over the 4·hidden-wide gradient block.
            let idx = (steps - 1 - t) * n;
            self.ws.z_stack.as_mut_slice()[idx * (iw + hw)..(idx + n) * (iw + hw)]
                .copy_from_slice(s.z.as_slice());
            self.ws.da_stack.as_mut_slice()[idx * 4 * hw..(idx + n) * 4 * hw]
                .copy_from_slice(self.ws.da.as_slice());
            self.ws.da.sum_rows_into(&mut self.ws.rowsum);
            self.grad_b.axpy(1.0, &self.ws.rowsum);

            self.ws.da.matmul_into(&self.ws.w_t, &mut self.ws.dz);
            dproj.row_mut(t).copy_from_slice(&self.ws.dz.row(0)[..iw]);
            for r in 0..n {
                let src = &self.ws.dz.row(r)[iw..];
                self.ws.dh.row_mut(r).copy_from_slice(src);
            }
            std::mem::swap(&mut self.ws.dc, &mut self.ws.dc_next);
            self.spare.push(s);
        }
        self.grad_w
            .add_matmul_tn(&self.ws.z_stack, &self.ws.da_stack);
    }

    /// One forward time step with caching for BPTT.
    pub fn forward_step(&mut self, x: &Matrix, state: &LstmState) -> LstmState {
        let z = Matrix::hcat(&[x, &state.h]);
        let gates = self.gates(&z);
        let (c, tanh_c, h) = self.step_outputs(&gates, &state.c);
        self.cache.push(StepCache {
            z,
            gates,
            c_prev: state.c.clone(),
            tanh_c,
        });
        LstmState { h, c }
    }

    /// Back-propagates one time step (most recent cached step first).
    ///
    /// `dh` and `dc` are gradients w.r.t. this step's output hidden/cell
    /// state; returns `(dx, dh_prev, dc_prev)`.
    ///
    /// # Panics
    ///
    /// Panics if no cached step is pending.
    pub fn backward_step(&mut self, dh: &Matrix, dc: &Matrix) -> (Matrix, Matrix, Matrix) {
        let w_t = self.w.transpose();
        self.backward_step_with(dh, dc, &w_t)
    }

    /// [`LstmCell::backward_step`] with a caller-provided transpose of the
    /// gate weights, so one BPTT sweep transposes `W` once instead of once
    /// per time step (the weights do not change mid-sweep).
    ///
    /// # Panics
    ///
    /// Panics if no cached step is pending or `w_t` is not the transpose
    /// shape of the gate weights.
    pub fn backward_step_with(
        &mut self,
        dh: &Matrix,
        dc: &Matrix,
        w_t: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let s = self
            .cache
            .pop()
            .expect("LstmCell::backward_step without a matching forward_step");
        assert_eq!(
            w_t.shape(),
            (self.w.cols(), self.w.rows()),
            "w_t is not the gate-weight transpose"
        );
        let hw = self.hidden_size;
        let n = dh.rows();
        // One fused pass builds the packed pre-activation gate gradients
        // `da = [da_i | da_f | da_o | da_g]` and `dc_prev`, with the exact
        // per-element expressions of the former hadamard/zip chain:
        //   dc_total = dh∘o∘(1 - tanh_c²) + dc
        //   da_σ = ((dc_total∘·)∘σ)∘(1-σ),  da_g = (dc_total∘i)∘(1-g²)
        let mut da = Matrix::zeros(n, 4 * hw);
        let mut dc_prev = Matrix::zeros(n, hw);
        for r in 0..n {
            let gr = s.gates.row(r);
            let (dhr, dcr) = (dh.row(r), dc.row(r));
            let (tcr, cpr) = (s.tanh_c.row(r), s.c_prev.row(r));
            let dar = da.row_mut(r);
            let dcp = dc_prev.row_mut(r);
            for j in 0..hw {
                let (i, f, o, g) = (gr[j], gr[hw + j], gr[2 * hw + j], gr[3 * hw + j]);
                let tc = tcr[j];
                let dc_total = dhr[j] * o * (1.0 - tc * tc) + 1.0 * dcr[j];
                dar[j] = dc_total * g * i * (1.0 - i);
                dar[hw + j] = dc_total * cpr[j] * f * (1.0 - f);
                dar[2 * hw + j] = dhr[j] * tc * o * (1.0 - o);
                dar[3 * hw + j] = dc_total * i * (1.0 - g * g);
                dcp[j] = dc_total * f;
            }
        }

        self.grad_w.add_matmul_tn(&s.z, &da);
        self.grad_b.axpy(1.0, &da.sum_rows());

        let dz = da.matmul(w_t);
        let dx = dz.slice_cols(0, self.input_size);
        let dh_prev = dz.slice_cols(self.input_size, self.hidden_size);
        (dx, dh_prev, dc_prev)
    }

    /// Number of cached, un-consumed forward steps.
    pub fn pending_steps(&self) -> usize {
        self.cache.len()
    }

    /// Drops cached forward state. Buffers from fused-sequence forward
    /// calls return to the spare pool.
    pub fn clear_cache(&mut self) {
        self.spare.append(&mut self.cache);
    }
}

impl Trainable for LstmCell {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w, &mut self.grad_w);
        f(&mut self.b, &mut self.grad_b);
    }

    fn zero_grad(&mut self) {
        self.grad_w.fill_zero();
        self.grad_b.fill_zero();
    }
}

/// The paper's predictor topology: input hidden layer -> LSTM cell layer ->
/// output hidden layer, unrolled over a fixed look-back window.
///
/// The input/output layers use normal(0, 1) weight init with constant 0.1
/// bias, matching Section VI-A.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmNetwork {
    input_layer: Dense,
    cell: LstmCell,
    output_layer: Dense,
    /// Stacked per-step input-projection gradients, recycled across
    /// [`LstmNetwork::backward_seq`] sweeps.
    #[serde(skip)]
    dproj: Matrix,
}

impl LstmNetwork {
    /// Creates a network mapping sequences of `input_size`-wide vectors to a
    /// single `output_size`-wide prediction from the final hidden state.
    pub fn new(
        input_size: usize,
        proj_size: usize,
        hidden_size: usize,
        output_size: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let weight_init = Init::Normal {
            mean: 0.0,
            std: 1.0,
        };
        let bias_init = Init::Constant(0.1);
        Self {
            input_layer: Dense::with_bias(
                input_size,
                proj_size,
                Activation::Tanh,
                weight_init,
                bias_init,
                rng,
            ),
            cell: LstmCell::new(proj_size, hidden_size, rng),
            output_layer: Dense::with_bias(
                hidden_size,
                output_size,
                Activation::Linear,
                weight_init,
                bias_init,
                rng,
            ),
            dproj: Matrix::default(),
        }
    }

    /// The paper's exact configuration: scalar in/out, 30 hidden units.
    pub fn paper_predictor(rng: &mut impl Rng) -> Self {
        Self::new(1, 1, 30, 1, rng)
    }

    /// Input width per time step.
    pub fn input_size(&self) -> usize {
        self.input_layer.input_size()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.output_layer.output_size()
    }

    /// Hidden width of the LSTM cell.
    pub fn hidden_size(&self) -> usize {
        self.cell.hidden_size()
    }

    /// Predicts from a sequence without caching. `steps` holds one
    /// `n x input_size` matrix per time step; returns `n x output_size`.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn infer(&self, steps: &[Matrix]) -> Matrix {
        assert!(!steps.is_empty(), "LSTM needs at least one time step");
        let n = steps[0].rows();
        let mut state = LstmState::zeros(n, self.cell.hidden_size());
        for x in steps {
            let proj = self.input_layer.infer(x);
            state = self.cell.infer_step(&proj, &state);
        }
        self.output_layer.infer(&state.h)
    }

    /// Convenience wrapper for scalar sequences: predicts the next value
    /// from a window of previous values.
    ///
    /// # Panics
    ///
    /// Panics if the network is not scalar-in/scalar-out or `window` is empty.
    pub fn predict_next(&self, window: &[f32]) -> f32 {
        assert_eq!(self.input_size(), 1, "predict_next requires scalar input");
        assert_eq!(self.output_size(), 1, "predict_next requires scalar output");
        let seq = Matrix::from_vec(window.len(), 1, window.to_vec());
        self.infer_seq(&seq).as_slice()[0]
    }

    /// Inference over a single (batch-1) sequence whose time steps are the
    /// rows of `seq`. The non-recurrent input projection runs as **one**
    /// GEMM over all steps (it is applied independently per step, and the
    /// kernels are row-independent, so results match the step-by-step
    /// path bitwise); only the recurrent cell iterates.
    ///
    /// # Panics
    ///
    /// Panics if `seq` has no rows.
    pub fn infer_seq(&self, seq: &Matrix) -> Matrix {
        assert!(seq.rows() > 0, "LSTM needs at least one time step");
        let proj = self.input_layer.infer(seq);
        let state = self.cell.infer_sequence(&proj);
        self.output_layer.infer(&state.h)
    }

    /// Training forward pass over a single (batch-1) sequence, the
    /// sequence-batched counterpart of [`LstmNetwork::forward`]: the input
    /// projection is one forward call (one cache entry) over all rows, the
    /// cell runs the fused [`LstmCell::forward_sequence`] sweep, and every
    /// per-step temporary lives in recycled workspace buffers. Bitwise
    /// identical to the allocating step-by-step path (the test-only
    /// `forward_seq_reference`). Must be paired with
    /// [`LstmNetwork::backward_seq`].
    ///
    /// # Panics
    ///
    /// Panics if `seq` has no rows.
    pub fn forward_seq(&mut self, seq: &Matrix) -> Matrix {
        assert!(seq.rows() > 0, "LSTM needs at least one time step");
        let proj = self.input_layer.forward_ws(seq);
        let state = self.cell.forward_sequence(proj);
        self.output_layer.forward_ws(&state.h).clone()
    }

    /// The original allocating `forward_seq` body, retained as the
    /// reference implementation the workspace path is tested against.
    #[cfg(test)]
    fn forward_seq_reference(&mut self, seq: &Matrix) -> Matrix {
        assert!(seq.rows() > 0, "LSTM needs at least one time step");
        let proj = self.input_layer.forward(seq);
        let mut state = LstmState::zeros(1, self.cell.hidden_size());
        for t in 0..proj.rows() {
            state = self.cell.forward_step(&proj.row_matrix(t), &state);
        }
        self.output_layer.forward(&state.h)
    }

    /// BPTT for the most recent [`LstmNetwork::forward_seq`] call. The
    /// per-step input-projection gradients are stacked (in forward time
    /// order, matching the batched forward's row order) and back-propagated
    /// through the input layer in one call; nothing upstream consumes the
    /// input gradient, so it is never materialized. The whole sweep runs in
    /// recycled workspace buffers; gradients are bitwise identical to the
    /// allocating step-by-step path (the test-only `backward_seq_reference`).
    ///
    /// # Panics
    ///
    /// Panics if no forward pass is pending.
    pub fn backward_seq(&mut self, grad_out: &Matrix) {
        let steps = self.cell.pending_steps();
        assert!(steps > 0, "LstmNetwork::backward without a forward pass");
        let dh = self.output_layer.backward_ws(grad_out);
        self.cell.backward_sequence(dh, &mut self.dproj);
        self.input_layer.backward_params_only_ws(&self.dproj);
    }

    /// The original allocating `backward_seq` body, retained as the
    /// reference implementation the workspace path is tested against.
    /// Pair with `forward_seq_reference`.
    #[cfg(test)]
    fn backward_seq_reference(&mut self, grad_out: &Matrix) {
        let mut dh = self.output_layer.backward(grad_out);
        let steps = self.cell.pending_steps();
        assert!(steps > 0, "LstmNetwork::backward without a forward pass");
        let mut dc = Matrix::zeros(1, self.cell.hidden_size());
        let w_t = self.cell.w.transpose();
        let mut dproj = Matrix::zeros(steps, self.cell.input_size());
        for t in (0..steps).rev() {
            let (dx, dh_prev, dc_prev) = self.cell.backward_step_with(&dh, &dc, &w_t);
            dproj.row_mut(t).copy_from_slice(dx.row(0));
            dh = dh_prev;
            dc = dc_prev;
        }
        self.input_layer.backward_params_only(&dproj);
    }

    /// Training forward pass; caches every step for [`LstmNetwork::backward`].
    pub fn forward(&mut self, steps: &[Matrix]) -> Matrix {
        assert!(!steps.is_empty(), "LSTM needs at least one time step");
        let n = steps[0].rows();
        let mut state = LstmState::zeros(n, self.cell.hidden_size());
        for x in steps {
            let proj = self.input_layer.forward(x);
            state = self.cell.forward_step(&proj, &state);
        }
        self.output_layer.forward(&state.h)
    }

    /// Back-propagates through time for the most recent forward pass,
    /// accumulating gradients in all three layers.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass is pending.
    pub fn backward(&mut self, grad_out: &Matrix) {
        let mut dh = self.output_layer.backward(grad_out);
        let steps = self.cell.pending_steps();
        assert!(steps > 0, "LstmNetwork::backward without a forward pass");
        let n = dh.rows();
        let mut dc = Matrix::zeros(n, self.cell.hidden_size());
        // The gate weights are constant across the sweep: transpose once.
        let w_t = self.cell.w.transpose();
        for _ in 0..steps {
            let (dx, dh_prev, dc_prev) = self.cell.backward_step_with(&dh, &dc, &w_t);
            // Gradient w.r.t. the shared input layer at this time step;
            // nothing upstream consumes the input gradient.
            self.input_layer.backward_params_only(&dx);
            dh = dh_prev;
            dc = dc_prev;
        }
    }

    /// Drops cached forward state in all layers.
    pub fn clear_cache(&mut self) {
        self.input_layer.clear_cache();
        self.cell.clear_cache();
        self.output_layer.clear_cache();
    }

    /// Total number of learnable scalars.
    pub fn num_parameters(&mut self) -> usize {
        self.parameter_count()
    }
}

impl Trainable for LstmNetwork {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.input_layer.visit_params(f);
        self.cell.visit_params(f);
        self.output_layer.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.input_layer.zero_grad();
        self.cell.zero_grad();
        self.output_layer.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scalar_steps(values: &[f32]) -> Vec<Matrix> {
        values.iter().map(|&v| Matrix::row_vector(&[v])).collect()
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = LstmNetwork::new(1, 2, 4, 1, &mut rng);
        let steps = scalar_steps(&[0.1, 0.5, -0.2, 0.8]);
        let a = net.infer(&steps);
        let b = net.forward(&steps);
        assert!((a.as_slice()[0] - b.as_slice()[0]).abs() < 1e-6);
        net.clear_cache();
    }

    #[test]
    fn seq_paths_match_step_by_step_paths() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = LstmNetwork::new(1, 1, 8, 1, &mut rng);
        let values: Vec<f32> = (0..20)
            .map(|i| ((i * 7) % 13) as f32 / 13.0 - 0.4)
            .collect();
        let steps = scalar_steps(&values);
        let seq = Matrix::from_vec(values.len(), 1, values.clone());
        // Inference: the fused zero-allocation sequence path must equal the
        // per-step path bitwise.
        assert_eq!(net.infer(&steps), net.infer_seq(&seq));
        // Training forward: batched input projection equals per-step.
        let a = net.forward(&steps);
        net.clear_cache();
        let b = net.forward_seq(&seq);
        net.clear_cache();
        assert_eq!(a, b);
    }

    #[test]
    fn workspace_seq_training_is_bitwise_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut reference = LstmNetwork::new(1, 2, 8, 1, &mut rng);
        let mut ws = reference.clone();
        let mut adam_r = Adam::new(1e-2);
        let mut adam_w = Adam::new(1e-2);
        // Several optimizer steps so later rounds run on recycled (dirty)
        // cache entries and workspace buffers, and weight updates compound.
        for step in 0..8 {
            let values: Vec<f32> = (0..12)
                .map(|i| ((i * 5 + step * 3) % 11) as f32 / 11.0 - 0.3)
                .collect();
            let seq = Matrix::from_vec(values.len(), 1, values);
            let target = Matrix::row_vector(&[0.25]);

            reference.zero_grad();
            let pred_r = reference.forward_seq_reference(&seq);
            ws.zero_grad();
            let pred_w = ws.forward_seq(&seq);
            assert_eq!(pred_r, pred_w, "step {step}: seq forward diverged");

            let dy = Loss::Mse.gradient(&pred_r, &target);
            reference.backward_seq_reference(&dy);
            ws.backward_seq(&dy);

            let mut gr = Vec::new();
            reference.visit_params(&mut |_, g| gr.push(g.clone()));
            let mut gw = Vec::new();
            ws.visit_params(&mut |_, g| gw.push(g.clone()));
            assert_eq!(gr, gw, "step {step}: BPTT gradients diverged");

            adam_r.step(&mut reference);
            adam_w.step(&mut ws);
            let mut pr = Vec::new();
            reference.visit_params(&mut |p, _| pr.push(p.clone()));
            let mut pw = Vec::new();
            ws.visit_params(&mut |p, _| pw.push(p.clone()));
            assert_eq!(pr, pw, "step {step}: updated weights diverged");
        }
    }

    #[test]
    fn forward_shapes_are_batch_by_output() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = LstmNetwork::new(3, 3, 5, 2, &mut rng);
        let steps = vec![Matrix::zeros(4, 3), Matrix::zeros(4, 3)];
        assert_eq!(net.infer(&steps).shape(), (4, 2));
    }

    #[test]
    fn bptt_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = LstmNetwork::new(1, 1, 3, 1, &mut rng);
        let steps = scalar_steps(&[0.3, -0.1, 0.7]);
        let target = Matrix::row_vector(&[0.5]);

        net.zero_grad();
        let pred = net.forward(&steps);
        let dy = Loss::Mse.gradient(&pred, &target);
        net.backward(&dy);

        let mut analytic: Vec<f32> = Vec::new();
        net.visit_params(&mut |_, g| analytic.extend_from_slice(g.as_slice()));

        let mut shapes = Vec::new();
        net.visit_params(&mut |p, _| shapes.push(p.shape()));

        let eps = 1e-3_f32;
        let mut idx = 0;
        let mut max_err = 0.0_f32;
        for (tensor_i, &(r, c)) in shapes.iter().enumerate() {
            for k in 0..r * c {
                let nudge = |net: &mut LstmNetwork, delta: f32| {
                    let mut t = 0;
                    net.visit_params(&mut |p, _| {
                        if t == tensor_i {
                            p.as_mut_slice()[k] += delta;
                        }
                        t += 1;
                    });
                };
                nudge(&mut net, eps);
                let up = Loss::Mse.value(&net.infer(&steps), &target);
                nudge(&mut net, -2.0 * eps);
                let down = Loss::Mse.value(&net.infer(&steps), &target);
                nudge(&mut net, eps);
                let numeric = (up - down) / (2.0 * eps);
                max_err = max_err.max((numeric - analytic[idx]).abs());
                idx += 1;
            }
        }
        assert!(max_err < 5e-3, "max BPTT gradient error {max_err}");
    }

    #[test]
    fn learns_a_simple_recurrence() {
        // Predict the next element of an alternating +0.5/-0.5 sequence,
        // which requires at least one step of memory.
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = LstmNetwork::new(1, 1, 8, 1, &mut rng);
        let mut adam = Adam::new(5e-3);
        let window = 6;
        let series: Vec<f32> = (0..200)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();

        let mut final_loss = f32::MAX;
        for epoch in 0..60 {
            let mut total = 0.0;
            let mut count = 0;
            for start in (0..series.len() - window - 1).step_by(7) {
                let steps = scalar_steps(&series[start..start + window]);
                let target = Matrix::row_vector(&[series[start + window]]);
                net.zero_grad();
                let pred = net.forward(&steps);
                total += Loss::Mse.value(&pred, &target);
                count += 1;
                let dy = Loss::Mse.gradient(&pred, &target);
                net.backward(&dy);
                adam.step(&mut net);
            }
            final_loss = total / count as f32;
            if epoch == 0 {
                assert!(final_loss.is_finite());
            }
        }
        assert!(final_loss < 0.01, "final loss {final_loss} too high");
    }

    #[test]
    fn paper_predictor_has_30_hidden_units() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = LstmNetwork::paper_predictor(&mut rng);
        assert_eq!(net.hidden_size(), 30);
        assert_eq!(net.input_size(), 1);
        assert_eq!(net.output_size(), 1);
    }

    #[test]
    fn state_starts_at_zero() {
        let s = LstmState::zeros(2, 3);
        assert!(s.h.as_slice().iter().all(|&x| x == 0.0));
        assert!(s.c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one time step")]
    fn empty_sequence_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = LstmNetwork::new(1, 1, 2, 1, &mut rng);
        let _ = net.infer(&[]);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = LstmNetwork::new(1, 1, 4, 1, &mut rng);
        let json = serde_json::to_string(&net).unwrap();
        let restored: LstmNetwork = serde_json::from_str(&json).unwrap();
        let w = [0.2, 0.4, 0.1];
        assert_eq!(net.predict_next(&w), restored.predict_next(&w));
    }
}
