//! The global tier: DRL-based cloud resource (VM) allocation (Section V).
//!
//! The job broker is controlled by a DRL agent. Decisions are event-driven
//! and continuous-time: one per job arrival, with the action being the
//! target server, which keeps the action space enumerable (`|M|`). Value
//! updates follow Q-learning for SMDP (Eqn. 2); the Q-function is the
//! weight-shared, autoencoder-compressed DNN of [`crate::dqn`]; transitions
//! are replayed from an experience memory (Algorithm 1).

use crate::dqn::{EncodedState, GroupedQNetwork, QNetworkConfig, QSample};
use crate::reward::{reward_rate_between, RewardWeights};
use crate::state::{GlobalState, StateEncoder, StateEncoderConfig};
use hierdrl_neural::matrix::Matrix;
use hierdrl_rl::policy::{EpsilonGreedy, EpsilonSchedule};
use hierdrl_rl::replay::ReplayMemory;
use hierdrl_rl::smdp::{smdp_target, SmdpParams};
use hierdrl_sim::cluster::{Allocator, ClusterView};
use hierdrl_sim::job::{Job, ServerId};
use hierdrl_sim::metrics::ClusterTotals;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::rc::Rc;

/// Full configuration of the DRL allocator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrlAllocatorConfig {
    /// State-vector layout (group count, enrichment flags).
    pub state: StateEncoderConfig,
    /// Q-network hyper-parameters.
    pub qnet: QNetworkConfig,
    /// Reward weights (Eqn. 4).
    pub reward: RewardWeights,
    /// SMDP Q-learning parameters (`alpha` blends stored targets, `beta` is
    /// the continuous-time discount; paper: `beta = 0.5`).
    pub smdp: SmdpParams,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Probability of following the first-fit *guide* policy instead of the
    /// epsilon-greedy DNN policy, as a function of the decision counter.
    /// Algorithm 1 collects offline experience under "certain control
    /// policies ... arbitrary policy and gradually refined policy"; using a
    /// sensible behavior policy early fills the experience memory with
    /// consolidation states the random-init network would rarely reach.
    /// Anneal to 0 so evaluation is pure DRL.
    pub guide: EpsilonSchedule,
    /// Scale factor applied to reward rates before the SMDP target (sets
    /// the magnitude of Q values; `beta` keeps Q near the average reward
    /// rate, which conditions DNN fitting far better than `r/beta`-sized
    /// targets under gradient clipping). Purely a units change: the argmax
    /// policy is invariant.
    pub reward_scale: f64,
    /// Clamp stored Q targets to `[-q_clamp, 0]`. Rewards are never
    /// positive, so every true Q value is non-positive; the upper clamp
    /// provably removes the max-operator overestimation spiral that plain
    /// DQN suffers without a target network (batched arrivals make
    /// near-zero sojourns — and therefore near-pure bootstrap targets —
    /// common).
    pub q_clamp: f64,
    /// Uniform noise half-width added to Q values at action selection,
    /// breaking argmax lock-in between near-indifferent servers (prevents
    /// pathological single-server pile-ups while the network is young).
    pub q_dither: f64,
    /// Experience-memory capacity `N_D`.
    pub replay_capacity: usize,
    /// Minibatch size for DNN fitting.
    pub minibatch: usize,
    /// Train the DNN every this many decisions (after warm-up).
    pub train_interval: u64,
    /// Copy the online network into the target network every this many
    /// training steps (deep Q-learning stabilization per Mnih et al. 2015,
    /// the paper's reference \[25\]).
    pub target_sync: u64,
    /// Decisions before DNN training starts.
    pub warmup_decisions: u64,
    /// Group-state samples to collect before pre-training the autoencoder
    /// online (0 disables the automatic pre-training).
    pub ae_pretrain_samples: usize,
    /// Autoencoder pre-training epochs.
    pub ae_epochs: usize,
    /// Autoencoder pre-training minibatch size.
    pub ae_batch: usize,
    /// Autoencoder pre-training learning rate.
    pub ae_learning_rate: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DrlAllocatorConfig {
    fn default() -> Self {
        Self {
            state: StateEncoderConfig::default(),
            qnet: QNetworkConfig::default(),
            reward: RewardWeights::balanced(),
            // The paper quotes beta = 0.5 without fixing the time unit; at
            // ~6-20 s inter-arrivals, 0.5/s makes the bootstrap term vanish
            // (e^{-beta*tau} ~ 0), and any horizon shorter than a job
            // duration (~850 s) truncates the queueing penalty while the
            // wake-up cost lands in full — making queueing look cheap.
            // 0.002/s gives a ~500 s horizon, on the scale of one job.
            smdp: SmdpParams::new(0.9, 0.002),
            epsilon: EpsilonSchedule::Exponential {
                start: 0.4,
                end: 0.02,
                tau: 4_000.0,
            },
            guide: EpsilonSchedule::Exponential {
                start: 0.9,
                end: 0.35,
                tau: 6_000.0,
            },
            reward_scale: 0.002,
            q_clamp: 300.0,
            q_dither: 0.003,
            replay_capacity: 6_000,
            minibatch: 32,
            train_interval: 2,
            target_sync: 250,
            warmup_decisions: 400,
            ae_pretrain_samples: 3_000,
            ae_epochs: 20,
            ae_batch: 32,
            ae_learning_rate: 2e-3,
            seed: 7,
        }
    }
}

/// A serializable snapshot of a trained global-tier policy: everything
/// needed to act (and keep learning) minus the transient run state
/// (pending transition, replay memory, RNG).
///
/// # Examples
///
/// ```
/// use hierdrl_core::allocator::{DrlAllocator, DrlAllocatorConfig};
///
/// let allocator = DrlAllocator::new(4, 3, DrlAllocatorConfig::default());
/// let json = serde_json::to_string(&allocator.snapshot()).unwrap();
/// let restored = DrlAllocator::from_snapshot(serde_json::from_str(&json).unwrap());
/// assert_eq!(restored.config(), allocator.config());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrlSnapshot {
    /// Full allocator configuration.
    pub config: DrlAllocatorConfig,
    /// State-vector layout.
    pub encoder: StateEncoder,
    /// Trained Q-network (including optimizer state).
    pub qnet: GroupedQNetwork,
    /// Exploration-policy state (schedule position).
    pub policy: EpsilonGreedy,
    /// Cluster size the policy was trained for.
    pub num_servers: usize,
    /// Learner statistics at snapshot time.
    pub stats: DrlStats,
}

/// Running statistics of the learner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DrlStats {
    /// Decision epochs seen.
    pub decisions: u64,
    /// DNN minibatch updates performed.
    pub train_steps: u64,
    /// Exponential moving average of the training loss.
    pub loss_ema: f64,
    /// Whether the autoencoder pre-training has run.
    pub autoencoder_trained: bool,
    /// Final reconstruction loss of the autoencoder pre-training.
    pub autoencoder_loss: f64,
}

#[derive(Debug)]
struct Pending {
    state: Rc<EncodedState>,
    action: usize,
    time_s: f64,
    totals: ClusterTotals,
}

/// A raw state transition, exactly what Algorithm 1 (line 10) stores in the
/// experience memory: `(s_k, a_k, r_k, s_{k+1})` plus the sojourn time the
/// continuous-time update needs.
///
/// States are shared, not copied: each decision encodes its state once, and
/// the one [`EncodedState`] serves as `next_state` of the transition that
/// decision closes and as `state` of the one it opens. Its codes are reused
/// by every network whose encoder generation matches theirs (the online net
/// until the encoder changes, the target net after a sync) and recomputed by
/// any other.
#[derive(Debug, Clone)]
struct Transition {
    state: Rc<EncodedState>,
    action: usize,
    reward_rate: f64,
    sojourn: f64,
    next_state: Rc<EncodedState>,
    /// Target-network evaluations memoized per target-net era (see
    /// [`TargetCache`]). Interior mutability because the replay memory
    /// hands out shared references at sampling time.
    cache: Cell<Option<TargetCache>>,
}

/// Memoized target-network evaluations for one transition.
///
/// Between two target-network syncs the target net is frozen, so
/// `max_a Q_target(s', a)` and `Q_target(s, a)` are pure functions of the
/// transition — and every kernel in the neural substrate is deterministic
/// and row-independent, so recomputing them in a *different* minibatch
/// yields bitwise-identical `f32`s. Sampling the same transition twice in
/// one era (the common case: the replay memory is resampled ~16x per
/// target-sync window) can therefore reuse the stored values instead of
/// re-running the two target-net GEMM sweeps, changing nothing about the
/// learning trajectory. Entries are invalidated wholesale by bumping the
/// era counter at each sync.
#[derive(Debug, Clone, Copy)]
struct TargetCache {
    /// Target-net era (sync count) the values were computed under.
    era: u64,
    /// `max_a Q_target(next_state, a)` over the real (non-padding) actions.
    max_next: f32,
    /// `Q_target(state, action)` for the taken action.
    prev: f32,
}

/// The DRL-based global-tier allocator (implements [`Allocator`]).
///
/// Learning is fully online, exactly as in the paper's deep Q-learning
/// phase: at each decision epoch the previous transition's Q estimate is
/// updated via Eqn. (2) and stored in the experience memory, and the DNN is
/// periodically refit to the stored estimates. Call
/// [`DrlAllocator::set_learning`] to freeze the policy for evaluation.
#[derive(Debug)]
pub struct DrlAllocator {
    config: DrlAllocatorConfig,
    encoder: StateEncoder,
    qnet: GroupedQNetwork,
    target_net: GroupedQNetwork,
    replay: ReplayMemory<Transition>,
    policy: EpsilonGreedy,
    rng: StdRng,
    pending: Option<Pending>,
    num_servers: usize,
    learning: bool,
    ae_buffer: Vec<Vec<f32>>,
    stats: DrlStats,
    /// Target-net era: bumped at every target sync, invalidating all
    /// [`TargetCache`] entries at once.
    target_era: u64,
    /// Escape hatch for the equivalence test: `false` recomputes every
    /// target through the network sweeps, the retained reference behaviour.
    use_target_cache: bool,
}

impl DrlAllocator {
    /// Builds an allocator for a cluster of `num_servers` servers with
    /// `resource_dims` resources.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (zero
    /// minibatch, invalid schedule, etc.).
    pub fn new(num_servers: usize, resource_dims: usize, config: DrlAllocatorConfig) -> Self {
        assert!(config.minibatch > 0, "minibatch must be positive");
        assert!(config.train_interval > 0, "train_interval must be positive");
        assert!(config.target_sync > 0, "target_sync must be positive");
        config.reward.validate().expect("invalid reward weights");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = StateEncoder::new(num_servers, resource_dims, config.state);
        let qnet = GroupedQNetwork::new(&encoder, config.qnet, &mut rng);
        let replay = ReplayMemory::new(config.replay_capacity);
        let policy = EpsilonGreedy::new(config.epsilon);
        Self {
            encoder,
            target_net: qnet.clone(),
            qnet,
            replay,
            policy,
            rng,
            pending: None,
            num_servers,
            learning: true,
            ae_buffer: Vec::new(),
            config,
            stats: DrlStats::default(),
            target_era: 0,
            use_target_cache: true,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DrlAllocatorConfig {
        &self.config
    }

    /// Learner statistics.
    pub fn stats(&self) -> &DrlStats {
        &self.stats
    }

    /// The state encoder (layout information).
    pub fn state_encoder(&self) -> &StateEncoder {
        &self.encoder
    }

    /// Enables or disables learning (exploration continues per schedule;
    /// with learning off the network and replay memory are frozen).
    pub fn set_learning(&mut self, on: bool) {
        self.learning = on;
    }

    /// Test-only switch to the retained reference behaviour: recompute
    /// every SMDP target through the target-net sweeps instead of reusing
    /// per-era memoized values (which must be — and is tested to be —
    /// bitwise indistinguishable).
    #[cfg(test)]
    fn set_target_cache(&mut self, on: bool) {
        self.use_target_cache = on;
    }

    /// Captures a serializable snapshot of the trained policy.
    pub fn snapshot(&self) -> DrlSnapshot {
        DrlSnapshot {
            config: self.config.clone(),
            encoder: self.encoder.clone(),
            qnet: self.qnet.clone(),
            policy: self.policy.clone(),
            num_servers: self.num_servers,
            stats: self.stats,
        }
    }

    /// Reconstructs an allocator from a snapshot. The replay memory starts
    /// empty and the RNG is re-seeded from the config; the trained network,
    /// schedule position, and statistics are preserved.
    pub fn from_snapshot(snapshot: DrlSnapshot) -> Self {
        let rng = StdRng::seed_from_u64(snapshot.config.seed ^ 0x9e3779b97f4a7c15);
        Self {
            target_net: snapshot.qnet.clone(),
            replay: ReplayMemory::new(snapshot.config.replay_capacity),
            rng,
            pending: None,
            learning: true,
            ae_buffer: Vec::new(),
            encoder: snapshot.encoder,
            qnet: snapshot.qnet,
            policy: snapshot.policy,
            num_servers: snapshot.num_servers,
            stats: snapshot.stats,
            config: snapshot.config,
            target_era: 0,
            use_target_cache: true,
        }
    }

    /// Pre-trains the autoencoder on explicit group-state rows (each of
    /// width `group_width`). Also called automatically once
    /// `ae_pretrain_samples` rows have been observed online while learning
    /// is on; a frozen allocator collects nothing.
    pub fn pretrain_autoencoder(&mut self, rows: &Matrix) {
        let loss = self.qnet.pretrain_autoencoder(
            rows,
            self.config.ae_epochs,
            self.config.ae_batch,
            self.config.ae_learning_rate,
        );
        self.stats.autoencoder_trained = true;
        self.stats.autoencoder_loss = loss as f64;
    }

    fn maybe_collect_ae_sample(&mut self, state: &GlobalState) {
        if self.stats.autoencoder_trained || self.config.ae_pretrain_samples == 0 {
            return;
        }
        for g in &state.groups {
            self.ae_buffer.push(g.clone());
        }
        if self.ae_buffer.len() >= self.config.ae_pretrain_samples {
            let rows: Vec<&[f32]> = self.ae_buffer.iter().map(|r| r.as_slice()).collect();
            let data = Matrix::from_rows(&rows);
            self.pretrain_autoencoder(&data);
            self.ae_buffer.clear();
        }
    }

    fn close_pending(&mut self, next_state: &Rc<EncodedState>, view: &ClusterView<'_>) {
        let Some(p) = self.pending.take() else {
            return;
        };
        let tau = (view.totals().time_s - p.time_s).max(0.0);
        // Aggregate fleet peak: capacity-scaled on heterogeneous fleets,
        // exactly `M * peak_watts` on homogeneous ones. Both the peak and
        // the server count track the *live* fleet so elastic membership
        // changes rescale the reward normalization (on fixed fleets
        // `num_live == num_servers` and nothing changes).
        let reward_rate = self.config.reward_scale
            * reward_rate_between(
                &p.totals,
                view.totals(),
                &self.config.reward,
                view.num_live(),
                view.fleet_peak_watts(),
            );
        self.replay.push(Transition {
            state: p.state,
            action: p.action,
            reward_rate,
            sojourn: tau,
            next_state: Rc::clone(next_state),
            cache: Cell::new(None),
        });
    }

    /// Consolidating guide action: the lowest-numbered awake server where
    /// the job fits immediately within the anti-colocation cap; otherwise
    /// the lowest-numbered sleeping server; otherwise the least-loaded
    /// server. (First-fit; a stable server ordering keeps the awake set
    /// small and maximizes sleeping time.)
    fn guided_action(&mut self, job: &Job, view: &ClusterView<'_>) -> usize {
        let cap = view.config().reliability.hot_queue_len;
        let mut sleeping: Option<usize> = None;
        let mut fallback = (usize::MAX, 0usize);
        for (i, s) in view.servers().iter().enumerate() {
            if !s.is_live() {
                continue; // departed slot: never a consolidation target
            }
            if s.state().is_on() {
                if s.queue_len() == 0
                    && s.jobs_in_system() < cap
                    && s.used().fits_with(&job.demand, s.capacity())
                {
                    return i;
                }
                if s.jobs_in_system() < fallback.0 {
                    fallback = (s.jobs_in_system(), i);
                }
            } else if sleeping.is_none() {
                sleeping = Some(i);
            }
        }
        sleeping.unwrap_or(fallback.1)
    }

    fn maybe_train(&mut self) {
        if !self.learning
            || self.stats.decisions < self.config.warmup_decisions
            || !self
                .stats
                .decisions
                .is_multiple_of(self.config.train_interval)
            || self.replay.len() < self.config.minibatch
        {
            return;
        }
        // Sample by reference: the minibatch borrows each transition's
        // encoded state, so nothing is copied.
        let transitions: Vec<&Transition> =
            self.replay.sample(self.config.minibatch, &mut self.rng);
        // Fresh SMDP targets from the frozen target network (Eqn. 2 with
        // the target net as the previous estimate), clamped to the feasible
        // range: rewards are non-positive, so true Q values are too — the
        // upper clamp removes the max-operator overestimation spiral.
        // Transitions already evaluated under the *current* target net (the
        // net is frozen between syncs) reuse their memoized values; only
        // cache misses go through the network. One batched sweep per role
        // over the misses: all next-states in one GEMM pair (the max needs
        // every action), all previous states in another that only evaluates
        // the taken action's Sub-Q row. The sweeps reuse the states' stored
        // codes when the target net's encoder generation matches theirs,
        // and every value — cached or fresh — is bitwise identical to a
        // per-transition `q_values`/`max_q` sweep (row independence).
        let era = self.target_era;
        let misses: Vec<usize> = transitions
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !self.use_target_cache || !matches!(t.cache.get(), Some(c) if c.era == era)
            })
            .map(|(i, _)| i)
            .collect();
        let next_states: Vec<&EncodedState> = misses
            .iter()
            .map(|&i| &*transitions[i].next_state)
            .collect();
        let next_q = self.target_net.q_values_batch(&next_states);
        let prev_items: Vec<(&EncodedState, usize)> = misses
            .iter()
            .map(|&i| (&*transitions[i].state, transitions[i].action))
            .collect();
        let prev_q = self.target_net.q_action_batch(&prev_items);
        for ((&i, nq), prev) in misses.iter().zip(&next_q).zip(prev_q) {
            transitions[i].cache.set(Some(TargetCache {
                era,
                max_next: GroupedQNetwork::max_q_of(nq, self.num_servers),
                prev,
            }));
        }
        let batch: Vec<QSample> = transitions
            .into_iter()
            .map(|t| {
                let cached = t.cache.get().expect("miss pass filled every cache entry");
                debug_assert_eq!(cached.era, era, "stale target cache survived the miss pass");
                let raw = smdp_target(
                    &self.config.smdp,
                    t.reward_rate,
                    t.sojourn,
                    f64::from(cached.max_next),
                );
                let prev = f64::from(cached.prev);
                let blended = prev + self.config.smdp.alpha * (raw - prev);
                QSample {
                    state: &t.state,
                    action: t.action,
                    target: blended.clamp(-self.config.q_clamp, 0.0) as f32,
                }
            })
            .collect();
        let loss = self.qnet.train_batch(&batch) as f64;
        self.stats.train_steps += 1;
        if self
            .stats
            .train_steps
            .is_multiple_of(self.config.target_sync)
        {
            self.target_net = self.qnet.clone();
            self.target_era += 1;
        }
        self.stats.loss_ema = if self.stats.train_steps == 1 {
            loss
        } else {
            0.99 * self.stats.loss_ema + 0.01 * loss
        };
    }
}

impl Allocator for DrlAllocator {
    fn select(&mut self, job: &Job, view: &ClusterView<'_>) -> ServerId {
        self.stats.decisions += 1;
        let raw = self.encoder.encode(job, view);
        let (q, state) = if self.learning {
            self.maybe_collect_ae_sample(&raw);
            // Encoded after any autoencoder pre-training, so the forward
            // below reuses these codes unless fine-tuning moved the encoder.
            let state = Rc::new(self.qnet.encode(raw));
            self.close_pending(&state, view);
            self.maybe_train();
            (self.qnet.q_values_batch(&[&state]).remove(0), Some(state))
        } else {
            // Frozen: nothing is stored, so the state is not shared.
            self.pending = None;
            let state = self.qnet.encode(raw);
            (self.qnet.q_values_batch(&[&state]).remove(0), None)
        };
        let dither = self.config.q_dither;
        // Elastic fleets: actions are masked to the slots that exist right
        // now — a view narrower than the declared width means trailing
        // servers have not joined yet and must never be selected (departed
        // in-range slots stay selectable; the cluster's healthy remap
        // redirects them deterministically, exactly like crashed targets).
        let live_width = view.num_servers().min(self.num_servers);
        let q64: Vec<f64> = q[..live_width]
            .iter()
            .map(|&v| f64::from(v) + self.rng.gen_range(-dither..=dither))
            .collect();
        let guide_p = self.config.guide.value(self.stats.decisions - 1);
        let action = if self.learning && self.rng.gen::<f64>() < guide_p {
            // Behavior-policy guidance (Algorithm 1's offline experience
            // collection): consolidate like first-fit, but choose uniformly
            // among the feasible awake servers — a learned policy has no
            // canonical server ordering, and spreading keeps the awake set
            // interchangeable.
            self.policy.select(&q64, &mut self.rng); // advance the schedule
            self.guided_action(job, view)
        } else {
            self.policy.select(&q64, &mut self.rng)
        };

        if let Some(state) = state {
            self.pending = Some(Pending {
                state,
                action,
                time_s: view.totals().time_s,
                totals: *view.totals(),
            });
        }
        ServerId(action)
    }

    fn on_run_begin(&mut self) {
        // Each run restarts the clock at zero; a pending transition
        // anchored to the previous run's clock would close against a
        // nonsensical sojourn. Normally already dropped by `on_run_end`,
        // but the start hook holds even across aborted runs.
        self.pending = None;
    }

    fn on_run_end(&mut self, _view: &ClusterView<'_>) {
        // The final transition has no successor epoch; drop it.
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierdrl_sim::cluster::{Cluster, RunLimit};
    use hierdrl_sim::config::ClusterConfig;
    use hierdrl_sim::job::JobId;
    use hierdrl_sim::policies::SleepImmediatelyPower;
    use hierdrl_sim::resources::ResourceVec;
    use hierdrl_sim::time::SimTime;

    fn small_config() -> DrlAllocatorConfig {
        DrlAllocatorConfig {
            warmup_decisions: 10,
            train_interval: 2,
            minibatch: 8,
            ae_pretrain_samples: 40,
            ae_epochs: 3,
            replay_capacity: 500,
            ..Default::default()
        }
    }

    fn jobs(n: u64, spacing: f64) -> Vec<Job> {
        (0..n)
            .map(|i| {
                Job::new(
                    JobId(i),
                    SimTime::from_secs(i as f64 * spacing),
                    120.0,
                    ResourceVec::cpu_mem_disk(0.2, 0.1, 0.05),
                )
            })
            .collect()
    }

    #[test]
    fn runs_end_to_end_and_learns() {
        let mut alloc = DrlAllocator::new(6, 3, small_config());
        let mut cluster = Cluster::new(ClusterConfig::paper(6), jobs(300, 20.0)).unwrap();
        let out = cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        assert_eq!(out.totals.jobs_completed, 300);
        assert_eq!(alloc.stats().decisions, 300);
        assert!(alloc.stats().train_steps > 0, "no training happened");
        assert!(alloc.stats().autoencoder_trained, "AE never pre-trained");
        assert!(alloc.stats().loss_ema.is_finite());
    }

    #[test]
    fn actions_are_always_valid_servers() {
        // 5 servers with K = 2 means 6 network outputs; the padding action
        // must never be selected.
        let mut alloc = DrlAllocator::new(5, 3, small_config());
        let mut cluster = Cluster::new(ClusterConfig::paper(5), jobs(200, 15.0)).unwrap();
        cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        // Every arrival was dispatched somewhere legal (enqueue asserts in
        // the cluster would have panicked otherwise) and all jobs finished.
        assert_eq!(cluster.completed_jobs().len(), 200);
    }

    #[test]
    fn elastic_fleet_actions_stay_within_the_live_width() {
        // Allocator declared for max_servers = 6 drives a fleet that
        // starts at 3, loses server 2, and grows by two joins. Selecting a
        // slot beyond the current width would trip the cluster's placement
        // assert, so a clean run is the proof of masking.
        use hierdrl_sim::events::{FleetOp, ServerSpec};
        let mut alloc = DrlAllocator::new(6, 3, small_config());
        let mut config = ClusterConfig::paper(3);
        config.max_servers = Some(6);
        let mut cluster = Cluster::new(config, jobs(300, 12.0)).unwrap();
        cluster.schedule_fleet_op(SimTime::from_secs(300.0), FleetOp::Leave(ServerId(2)));
        cluster.schedule_fleet_op(
            SimTime::from_secs(900.0),
            FleetOp::Join(ServerSpec::unit(3, true)),
        );
        cluster.schedule_fleet_op(
            SimTime::from_secs(1200.0),
            FleetOp::Join(ServerSpec::unit(3, true)),
        );
        let out = cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        assert_eq!(
            out.totals.jobs_completed, 300,
            "no job lost across membership changes"
        );
        assert_eq!(cluster.num_live(), 4); // 3 - 1 left + rejoin + append
                                           // Jobs drained by the leave re-enter through the allocator.
        assert_eq!(alloc.stats().decisions, 300 + out.totals.jobs_requeued);
    }

    #[test]
    fn frozen_allocator_does_not_train() {
        let mut alloc = DrlAllocator::new(4, 3, small_config());
        alloc.set_learning(false);
        let mut cluster = Cluster::new(ClusterConfig::paper(4), jobs(100, 10.0)).unwrap();
        cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        assert_eq!(alloc.stats().train_steps, 0);
        assert!(!alloc.stats().autoencoder_trained);
    }

    #[test]
    fn replay_respects_capacity() {
        let mut config = small_config();
        config.replay_capacity = 32;
        let mut alloc = DrlAllocator::new(4, 3, config);
        let mut cluster = Cluster::new(ClusterConfig::paper(4), jobs(200, 10.0)).unwrap();
        cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        assert!(alloc.replay.len() <= 32);
    }

    #[test]
    #[should_panic(expected = "minibatch must be positive")]
    fn zero_minibatch_rejected() {
        let mut config = small_config();
        config.minibatch = 0;
        let _ = DrlAllocator::new(4, 3, config);
    }

    #[test]
    fn target_cache_is_bitwise_invisible_to_learning() {
        // Same seed, same jobs, with and without the per-era target cache:
        // the learning trajectory (network weights, optimizer state,
        // statistics, cluster outcome) must be bitwise identical — the
        // cache only skips recomputing values the frozen target net would
        // reproduce exactly. target_sync is small so several eras (and
        // therefore both invalidation and reuse) occur within the run.
        let mut config = small_config();
        config.target_sync = 20;
        let run = |cached: bool| {
            let mut alloc = DrlAllocator::new(5, 3, config.clone());
            alloc.set_target_cache(cached);
            let mut cluster = Cluster::new(ClusterConfig::paper(5), jobs(400, 9.0)).unwrap();
            let out = cluster.run(
                &mut alloc,
                &mut SleepImmediatelyPower,
                RunLimit::unbounded(),
            );
            (out, alloc)
        };
        let (out_cached, alloc_cached) = run(true);
        let (out_ref, alloc_ref) = run(false);
        assert!(
            alloc_cached.stats().train_steps > 2 * config.target_sync,
            "run too short to cross target-net eras"
        );
        assert_eq!(out_cached.totals, out_ref.totals);
        assert_eq!(alloc_cached.stats(), alloc_ref.stats());
        let snap = |a: &DrlAllocator| serde_json::to_string(&a.snapshot()).unwrap();
        assert_eq!(
            snap(&alloc_cached),
            snap(&alloc_ref),
            "cached-target training diverged from the reference sweeps"
        );
    }

    #[test]
    fn cached_targets_match_fresh_recomputation() {
        // The cache invariant: every entry stamped with the current era
        // equals a fresh evaluation through the current target net.
        let mut config = small_config();
        config.target_sync = 25;
        let mut alloc = DrlAllocator::new(5, 3, config);
        let mut cluster = Cluster::new(ClusterConfig::paper(5), jobs(300, 10.0)).unwrap();
        cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        let era = alloc.target_era;
        let mut checked = 0usize;
        for t in alloc.replay.iter() {
            let Some(c) = t.cache.get() else { continue };
            assert!(c.era <= era, "cache stamped with a future era");
            if c.era != era {
                continue;
            }
            // Fresh: re-encoded through the target net, not stored codes.
            let q = alloc.target_net.q_values(t.next_state.state());
            assert_eq!(c.max_next, GroupedQNetwork::max_q_of(&q, 5));
            let state = alloc.target_net.encode(t.state.state().clone());
            let prev = alloc.target_net.q_action_batch(&[(&state, t.action)])[0];
            assert_eq!(c.prev, prev);
            checked += 1;
        }
        assert!(checked > 0, "no current-era cache entries to verify");
    }

    #[test]
    fn encoded_codes_match_fresh_encoding() {
        // The sharing invariant: every replayed state's stored codes equal
        // a fresh encode through a network of the same generation, so
        // reusing them is invisible. target_sync is small so the target
        // net has synced past the autoencoder pre-training.
        let mut config = small_config();
        config.target_sync = 25;
        let mut alloc = DrlAllocator::new(5, 3, config);
        let mut cluster = Cluster::new(ClusterConfig::paper(5), jobs(300, 10.0)).unwrap();
        cluster.run(
            &mut alloc,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        );
        assert_eq!(
            alloc.qnet.encoder_generation(),
            alloc.target_net.encoder_generation(),
            "the target net never synced past the pre-training"
        );
        let mut checked = 0usize;
        for t in alloc.replay.iter() {
            for s in [&t.state, &t.next_state] {
                if s.generation() != alloc.qnet.encoder_generation() {
                    continue; // encoded before the pre-training
                }
                let fresh = alloc.qnet.encode(s.state().clone());
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(fresh.codes()), bits(s.codes()));
                checked += 1;
            }
        }
        assert!(checked > 0, "no current-generation states to verify");
    }
}
