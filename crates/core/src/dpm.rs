//! The local tier: distributed RL-based dynamic power management
//! (Section VI-B, Algorithm 2).
//!
//! Each server independently runs a model-free continuous-time Q-learning
//! agent over *timeout* actions (including immediate shutdown). Decision
//! epochs follow the paper's three cases; the RL state is the predicted
//! next inter-arrival time (from the per-server LSTM predictor) discretized
//! into `n` categories. The reward rate is
//! `r(t) = -w * P(t) - (1 - w) * JQ(t)` (Eqn. 5) with power normalized by
//! peak watts; sweeping `w` traces the power/latency trade-off of Fig. 10.
//!
//! Because the paper's cases (2) and (3) admit exactly one action, this
//! implementation performs the SMDP value update from one case-(1) epoch to
//! the next, integrating the reward over the whole (possibly busy) sojourn
//! — equivalent to the per-case update under forced transitions, with fewer
//! bookkeeping states.
//!
//! # Who owns the predictors
//!
//! The per-server LSTM predictors learn independently of the global tier
//! and of each other, so while they train online they are trained off the
//! decision thread. The first training observation spawns the manager's
//! one worker thread (again after a freeze); from then on
//! [`PowerManager::on_job_arrival`] only
//! sends `(server, gap)` down a channel, and the worker applies the gaps in
//! send order. Every read of predictor state waits for the gaps sent
//! before it (the FIFO read rule), so each predictor sees exactly the
//! sequential call order and every simulated byte matches an inline run:
//!
//! - the prediction read in [`PowerManager::on_idle`] waits only when that
//!   server's predictor has not yet applied every gap sent to it, and then
//!   drains the whole queue;
//! - [`RlPowerManager::predictor_observations`],
//!   [`RlPowerManager::rejected_observations`] and
//!   [`RlPowerManager::mean_predictor_mse`] drain the queue first;
//! - [`RlPowerManager::set_learning`] stops the worker, applying every
//!   queued gap under the old setting, before it freezes the predictors.
//!
//! While the predictors are frozen (learning off, or
//! [`PredictorConfig::online_training`] off) there is no worker: an
//! observation is a window push, made inline on the decision thread, and a
//! manager that never trains never starts a thread. Dropping the manager
//! joins its worker, and a panic on the worker resurfaces on the decision
//! thread at the next send, read or freeze.

use crate::predictor::{IatPredictor, LstmIatPredictor, PredictorConfig};
use hierdrl_rl::discretize::Discretizer;
use hierdrl_rl::policy::{EpsilonGreedy, EpsilonSchedule};
use hierdrl_rl::qtable::QTable;
use hierdrl_rl::smdp::SmdpParams;
use hierdrl_sim::cluster::{ClusterView, PowerManager, TimeoutDecision};
use hierdrl_sim::job::ServerId;
use hierdrl_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

/// Configuration of the RL power manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RlPowerConfig {
    /// Timeout action set in seconds; must include at least one value.
    /// `0` means immediate shutdown.
    pub timeouts: Vec<f64>,
    /// Power-vs-latency weight `w` in `[0, 1]` (Eqn. 5): 1 favors power
    /// saving, 0 favors latency.
    pub weight: f64,
    /// SMDP Q-learning parameters.
    pub smdp: SmdpParams,
    /// Exploration schedule (per server).
    pub epsilon: EpsilonSchedule,
    /// Number of predicted-inter-arrival categories `n`.
    pub iat_bins: usize,
    /// Log-spaced bin range for predicted inter-arrival times, seconds.
    pub iat_range: (f64, f64),
    /// Per-server LSTM predictor configuration.
    pub predictor: PredictorConfig,
    /// Share one Q-table across all servers *of the same capacity class*
    /// instead of learning per-server tables. Decisions remain local and
    /// distributed; only the learned values are pooled — the same
    /// weight-sharing rationale the paper applies to its Sub-Q networks,
    /// and it multiplies the effective data per state-action pair by the
    /// class size. Servers with unequal capacity vectors have different
    /// idle economics (a 2x machine pays 2x the idle power for the same
    /// wake-up latency saving), so pooling them would blend incompatible
    /// sleep policies; [`RlPowerManager::for_cluster`] therefore gives
    /// each capacity class its own table. On a homogeneous cluster this
    /// collapses to the paper's single shared table.
    pub shared_learning: bool,
    /// Base RNG seed (each server derives its own).
    pub seed: u64,
}

impl Default for RlPowerConfig {
    fn default() -> Self {
        Self {
            timeouts: vec![0.0, 60.0, 180.0, 600.0, 1800.0],
            weight: 0.5,
            // Sleep/stay-awake pay-offs materialize over the following idle
            // period (up to ~10 min), so the local discount horizon must
            // cover it: beta = 0.003/s gives a ~5-6 minute horizon. Alpha is
            // high because per-server decision epochs are scarce.
            smdp: SmdpParams::new(0.3, 0.003),
            epsilon: EpsilonSchedule::Exponential {
                start: 0.4,
                end: 0.02,
                tau: 100.0,
            },
            iat_bins: 5,
            iat_range: (10.0, 3600.0),
            predictor: PredictorConfig::default(),
            shared_learning: true,
            seed: 11,
        }
    }
}

impl RlPowerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.timeouts.is_empty() {
            return Err("need at least one timeout action".into());
        }
        if self.timeouts.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
            return Err("timeouts must be finite and non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.weight) {
            return Err(format!("weight must be in [0, 1], got {}", self.weight));
        }
        if self.iat_bins < 2 {
            return Err("need at least two inter-arrival bins".into());
        }
        if !(self.iat_range.0 > 0.0 && self.iat_range.0 < self.iat_range.1) {
            return Err(format!(
                "iat_range invalid: ({}, {})",
                self.iat_range.0, self.iat_range.1
            ));
        }
        self.epsilon.validate()?;
        self.predictor
            .validate()
            .map_err(|e| format!("predictor: {e}"))
    }
}

/// A serializable snapshot of the trained local-tier policy: the learned
/// Q-table(s) and configuration. Predictors restart cold (they need only a
/// look-back window of arrivals to warm up).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DpmSnapshot {
    /// Full power-manager configuration.
    pub config: RlPowerConfig,
    /// Learned Q-tables (one per capacity class when `shared_learning` —
    /// a single table on homogeneous fleets — else one per server).
    pub tables: Vec<QTable<u16>>,
    /// Representative capacity vector of each class, in class
    /// (first-appearance) order — what each shared table was trained *on*.
    /// Empty for managers built with [`RlPowerManager::new`], whose
    /// capacity structure is unknown; cluster-aware restores validate
    /// against it so a class-permuted cluster cannot silently receive a
    /// big-server table on its little servers.
    pub class_capacities: Vec<Vec<f64>>,
    /// Statistics at snapshot time.
    pub stats: DpmStats,
}

/// Aggregate statistics across all per-server agents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DpmStats {
    /// Case-(1) decision epochs handled.
    pub decisions: u64,
    /// SMDP value updates applied.
    pub updates: u64,
    /// Total arrivals observed by the predictors.
    pub arrivals_observed: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingDpm {
    state: u16,
    action: usize,
    time_s: f64,
    energy_j: f64,
    queue_integral: f64,
}

/// One server's power-management agent. Its predictor lives in the
/// manager's shared predictor slice, at the same index.
#[derive(Debug)]
struct ServerAgent {
    /// Gaps handed to this server's predictor so far, inline or through
    /// the worker; the predictor has caught up once its accepted plus
    /// rejected observations reach this count.
    gaps: u64,
    /// Index into the manager's table pool (the server's capacity class
    /// when learning is shared; the server index otherwise).
    table: usize,
    policy: EpsilonGreedy,
    rng: StdRng,
    pending: Option<PendingDpm>,
    last_arrival: Option<SimTime>,
}

/// Bitwise equality of two capacity vectors — the class-identity relation
/// both the class grouping and the snapshot-restore safety check use.
fn capacity_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The per-server predictors, indexed by server. Each sits behind its own
/// lock, so the decision thread can read one while the worker trains
/// another.
type Predictors = Arc<[Mutex<LstmIatPredictor>]>;

/// Locks one predictor. Only a panic inside `observe` or `predict` poisons
/// the lock, and the decision thread re-raises a worker panic before it
/// gets here (see [`RlPowerManager::predicted_gap`]).
fn lock(predictor: &Mutex<LstmIatPredictor>) -> MutexGuard<'_, LstmIatPredictor> {
    predictor.lock().expect("a predictor panicked mid-update")
}

/// Work for the predictor worker, applied strictly in send order.
#[derive(Debug)]
enum PredictorJob {
    /// Feed one inter-arrival gap to one server's predictor.
    Observe { server: usize, gap: f64 },
    /// Acknowledge once every job sent before this one has been applied.
    Barrier,
}

/// The thread that trains the predictors while they learn online.
#[derive(Debug)]
struct PredictorWorker {
    jobs: Sender<PredictorJob>,
    /// One `Ok` per barrier; the panic payload, once, if the worker
    /// panicked.
    acks: Receiver<thread::Result<()>>,
    handle: JoinHandle<()>,
}

impl PredictorWorker {
    fn spawn(predictors: Predictors) -> Self {
        let (jobs, inbox) = mpsc::channel();
        let (ack, acks) = mpsc::channel();
        let handle = thread::Builder::new()
            .name("dpm-predictors".into())
            .spawn(move || {
                let run = panic::catch_unwind(AssertUnwindSafe(|| {
                    for job in inbox {
                        match job {
                            PredictorJob::Observe { server, gap } => {
                                lock(&predictors[server]).observe(gap);
                            }
                            // The manager holds `acks` while it waits.
                            PredictorJob::Barrier => {
                                let _ = ack.send(Ok(()));
                            }
                        }
                    }
                }));
                if let Err(payload) = run {
                    let _ = ack.send(Err(payload));
                }
            })
            .expect("spawn the predictor worker");
        Self { jobs, acks, handle }
    }

    fn send(&self, job: PredictorJob) {
        if self.jobs.send(job).is_err() {
            self.resurface();
        }
    }

    /// Blocks until every job sent before this call has been applied.
    fn drain(&self) {
        self.send(PredictorJob::Barrier);
        match self.acks.recv() {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(_) => panic!("the predictor worker stopped unexpectedly"),
        }
    }

    /// Re-raises the worker's panic on the calling thread.
    fn resurface(&self) -> ! {
        match self.acks.recv() {
            Ok(Err(payload)) => panic::resume_unwind(payload),
            _ => panic!("the predictor worker stopped unexpectedly"),
        }
    }

    /// Applies every queued job, then ends and joins the thread. Returns
    /// the worker's panic if it panicked and no read has re-raised it yet.
    fn stop(self) -> thread::Result<()> {
        let Self { jobs, acks, handle } = self;
        drop(jobs);
        handle.join()?;
        match acks.try_recv() {
            Ok(Err(payload)) => Err(payload),
            _ => Ok(()),
        }
    }
}

/// Groups servers into capacity classes: servers with bit-identical
/// capacity vectors share a class, in first-appearance order. Returns the
/// per-server class index and each class's representative capacity vector
/// (`(vec![0; M], [unit])` for a homogeneous cluster). Elastic fleets get
/// one agent per *slot* up to `effective_max()` — slots beyond the initial
/// fleet take the unit capacity joins default to — so every server that can
/// ever exist has a stable, `ServerId`-keyed agent from the start.
fn capacity_classes(cluster: &hierdrl_sim::config::ClusterConfig) -> (Vec<usize>, Vec<Vec<f64>>) {
    let mut reps: Vec<Vec<f64>> = Vec::new();
    let classes = (0..cluster.effective_max())
        .map(|i| {
            let key = cluster.slot_capacity(i).as_slice().to_vec();
            match reps.iter().position(|k| capacity_eq(k, &key)) {
                Some(c) => c,
                None => {
                    reps.push(key);
                    reps.len() - 1
                }
            }
        })
        .collect();
    (classes, reps)
}

/// The distributed RL power manager (implements [`PowerManager`]).
///
/// Holds one agent per server — the paper's "distributed manner": every
/// decision uses only that server's local state and predictor. With
/// [`RlPowerConfig::shared_learning`] (the default) servers of the same
/// capacity class pool their learned Q-values, exactly as the paper's
/// Sub-Q networks share weights; set it to `false` for fully isolated
/// tables. Build heterogeneous fleets with
/// [`RlPowerManager::for_cluster`] so big and little servers learn in
/// separate pools.
///
/// Each server's LSTM predictor is trained off the decision thread while
/// it learns online: one worker thread per manager, spawned on the first
/// training observation, applies the inter-arrival gaps in arrival order,
/// and every read of predictor state waits for the gaps sent before it.
/// While the predictors are frozen there is no worker and observations are
/// inline window pushes. See the [module docs](self) for the exact rules.
#[derive(Debug)]
pub struct RlPowerManager {
    config: RlPowerConfig,
    discretizer: Discretizer,
    agents: Vec<ServerAgent>,
    tables: Vec<QTable<u16>>,
    /// Representative capacity per class, in class order (empty when the
    /// capacity structure is unknown, i.e. built via [`RlPowerManager::new`]).
    class_capacities: Vec<Vec<f64>>,
    /// `false` freezes every learnable part (Q-tables, predictors,
    /// exploration) — the no-continued-training ablation of online
    /// concept-drift sweeps.
    learning: bool,
    stats: DpmStats,
    /// One predictor per server.
    predictors: Predictors,
    /// Trains `predictors` while they learn online; `None` while they are
    /// frozen and until the first training observation.
    worker: Option<PredictorWorker>,
}

impl RlPowerManager {
    /// Builds a manager for `num_servers` *unit-capacity* servers (one
    /// capacity class). Use [`RlPowerManager::for_cluster`] when the
    /// cluster may be heterogeneous.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `num_servers == 0`.
    pub fn new(num_servers: usize, config: RlPowerConfig) -> Self {
        assert!(num_servers > 0, "need at least one server");
        Self::with_classes(num_servers, vec![0; num_servers], Vec::new(), config)
    }

    /// Builds a manager for `cluster`, keying shared learning by capacity
    /// class: servers with equal capacity vectors pool one Q-table; unequal
    /// servers learn separately (their idle economics differ). Collapses to
    /// [`RlPowerManager::new`] on homogeneous clusters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the cluster has no
    /// servers.
    pub fn for_cluster(
        cluster: &hierdrl_sim::config::ClusterConfig,
        config: RlPowerConfig,
    ) -> Self {
        assert!(cluster.num_servers > 0, "need at least one server");
        let (classes, class_capacities) = capacity_classes(cluster);
        Self::with_classes(cluster.effective_max(), classes, class_capacities, config)
    }

    /// `class_capacities` is empty when the capacity structure is unknown
    /// ([`RlPowerManager::new`]); then there is exactly one class.
    fn with_classes(
        num_servers: usize,
        classes: Vec<usize>,
        class_capacities: Vec<Vec<f64>>,
        config: RlPowerConfig,
    ) -> Self {
        let num_classes = class_capacities.len().max(1);
        config.validate().expect("invalid RL power config");
        let discretizer =
            Discretizer::log_spaced(config.iat_range.0, config.iat_range.1, config.iat_bins);
        let (agents, predictors): (Vec<ServerAgent>, Vec<_>) = (0..num_servers)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64 * 7919));
                let predictor = Mutex::new(LstmIatPredictor::new(config.predictor, &mut rng));
                let agent = ServerAgent {
                    gaps: 0,
                    table: if config.shared_learning {
                        classes[i]
                    } else {
                        i
                    },
                    policy: EpsilonGreedy::new(config.epsilon),
                    rng,
                    pending: None,
                    last_arrival: None,
                };
                (agent, predictor)
            })
            .unzip();
        let table_count = if config.shared_learning {
            num_classes
        } else {
            num_servers
        };
        let tables = (0..table_count)
            .map(|_| QTable::new(config.timeouts.len(), 0.0))
            .collect();
        Self {
            config,
            discretizer,
            agents,
            tables,
            class_capacities,
            learning: true,
            stats: DpmStats::default(),
            predictors: predictors.into(),
            worker: None,
        }
    }

    /// Number of Q-tables in the pool (capacity classes under shared
    /// learning, servers otherwise).
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The configuration.
    pub fn config(&self) -> &RlPowerConfig {
        &self.config
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &DpmStats {
        &self.stats
    }

    /// Captures a serializable snapshot of the learned policy.
    pub fn snapshot(&self) -> DpmSnapshot {
        DpmSnapshot {
            config: self.config.clone(),
            tables: self.tables.clone(),
            class_capacities: self.class_capacities.clone(),
            stats: self.stats,
        }
    }

    /// Reconstructs a manager for `num_servers` *unit-capacity* servers
    /// from a snapshot. Use [`RlPowerManager::from_snapshot_for_cluster`]
    /// for heterogeneous clusters.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's table count is incompatible with
    /// `num_servers` under its own `shared_learning` setting.
    pub fn from_snapshot(num_servers: usize, snapshot: DpmSnapshot) -> Self {
        let expected = if snapshot.config.shared_learning {
            1
        } else {
            num_servers
        };
        assert_eq!(
            snapshot.tables.len(),
            expected,
            "snapshot has {} tables, expected {expected}",
            snapshot.tables.len()
        );
        let mut mgr = Self::new(num_servers, snapshot.config);
        mgr.tables = snapshot.tables;
        mgr.stats = snapshot.stats;
        mgr
    }

    /// Reconstructs a manager for `cluster` from a snapshot taken on a
    /// cluster with the same capacity-class structure.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's table count is incompatible with the
    /// cluster's capacity classes under its own `shared_learning` setting.
    /// Panics also if the snapshot records class capacities (taken via
    /// [`RlPowerManager::for_cluster`]) that differ from the cluster's —
    /// including the same classes in a different order, which would
    /// silently hand a big-server table to little servers.
    pub fn from_snapshot_for_cluster(
        cluster: &hierdrl_sim::config::ClusterConfig,
        snapshot: DpmSnapshot,
    ) -> Self {
        let (classes, class_capacities) = capacity_classes(cluster);
        let expected = if snapshot.config.shared_learning {
            class_capacities.len()
        } else {
            cluster.effective_max()
        };
        assert_eq!(
            snapshot.tables.len(),
            expected,
            "snapshot has {} tables, expected {expected} for this cluster's \
             capacity classes",
            snapshot.tables.len()
        );
        if !snapshot.class_capacities.is_empty() {
            assert!(
                snapshot.class_capacities.len() == class_capacities.len()
                    && snapshot
                        .class_capacities
                        .iter()
                        .zip(&class_capacities)
                        .all(|(a, b)| capacity_eq(a, b)),
                "snapshot capacity classes {:?} do not match this cluster's {:?} \
                 (same class in a different order still mismatches: tables are \
                 keyed by class index)",
                snapshot.class_capacities,
                class_capacities
            );
        }
        let mut mgr = Self::with_classes(
            cluster.effective_max(),
            classes,
            class_capacities,
            snapshot.config,
        );
        mgr.tables = snapshot.tables;
        mgr.stats = snapshot.stats;
        mgr
    }

    /// Enables or disables learning. While off, the Q-tables stop
    /// updating, action selection is pure greedy argmax (exploration
    /// would be pointless without updates to profit from it), and the
    /// per-server LSTM predictors freeze their weights — though their
    /// look-back windows keep tracking arrivals so the RL state stays
    /// current. This is the "no continued training" ablation that online
    /// concept-drift sweeps compare against.
    ///
    /// Freezing stops the predictor worker after it has applied every
    /// queued observation under the old setting.
    pub fn set_learning(&mut self, on: bool) {
        self.learning = on;
        let training = self.predictors_train();
        if !training {
            if let Some(Err(payload)) = self.worker.take().map(PredictorWorker::stop) {
                panic::resume_unwind(payload);
            }
        }
        // A running worker implies the predictors already train, so this
        // cannot overtake a queued observation.
        for predictor in self.predictors.iter() {
            lock(predictor).set_online_training(training);
        }
        if !on {
            for agent in &mut self.agents {
                agent.pending = None;
            }
        }
    }

    /// Total observations the per-server predictors rejected as carrying
    /// no inter-arrival information (NaN/non-positive). Non-zero means a
    /// driver fabricated an interval — e.g. a last-arrival mark surviving
    /// a segment boundary.
    pub fn rejected_observations(&self) -> u64 {
        self.drained()
            .iter()
            .map(|p| lock(p).rejected_observations())
            .sum()
    }

    /// Total (accepted) observations consumed by the per-server
    /// predictors.
    pub fn predictor_observations(&self) -> u64 {
        self.drained().iter().map(|p| lock(p).observations()).sum()
    }

    /// Mean one-step prediction MSE (normalized space) across servers whose
    /// predictors have scored at least one prediction.
    pub fn mean_predictor_mse(&self) -> Option<f64> {
        let scores: Vec<f64> = self
            .drained()
            .iter()
            .filter_map(|p| lock(p).normalized_mse())
            .collect();
        (!scores.is_empty()).then(|| scores.iter().sum::<f64>() / scores.len() as f64)
    }

    /// Whether the predictors train on what they observe.
    fn predictors_train(&self) -> bool {
        self.learning && self.config.predictor.online_training
    }

    /// Feeds one inter-arrival gap to `server`'s predictor: through the
    /// worker (spawned on first use) while the predictors train, inline
    /// while they are frozen.
    fn observe_gap(&mut self, server: usize, gap: f64) {
        self.agents[server].gaps += 1;
        if !self.predictors_train() {
            lock(&self.predictors[server]).observe(gap);
            return;
        }
        let predictors = &self.predictors;
        self.worker
            .get_or_insert_with(|| PredictorWorker::spawn(Arc::clone(predictors)))
            .send(PredictorJob::Observe { server, gap });
    }

    /// Every predictor, once every gap sent so far has been applied.
    fn drained(&self) -> &[Mutex<LstmIatPredictor>] {
        if let Some(worker) = &self.worker {
            worker.drain();
        }
        &self.predictors
    }

    /// `server`'s predicted next inter-arrival time, read after every gap
    /// sent to its predictor. Does not wait when that predictor has caught
    /// up; otherwise (or if the worker panicked) drains the queue first.
    fn predicted_gap(&self, server: usize) -> Option<f64> {
        if let Ok(predictor) = self.predictors[server].lock() {
            let applied = predictor.observations() + predictor.rejected_observations();
            if applied == self.agents[server].gaps {
                return predictor.predict();
            }
        }
        lock(&self.drained()[server]).predict()
    }

    fn state_for(&self, server: usize) -> u16 {
        let predicted = self
            .predicted_gap(server)
            .unwrap_or(self.config.iat_range.1);
        self.discretizer.bin(predicted) as u16
    }
}

impl Drop for RlPowerManager {
    fn drop(&mut self) {
        // A panic here could abort an unwinding thread; the worker's own
        // panic message has already been printed, and nothing can read the
        // predictors any more.
        if let Some(worker) = self.worker.take() {
            let _ = worker.stop();
        }
    }
}

/// Computes the reward rate (Eqn. 5) and sojourn over a closed interval
/// from per-server integral deltas. `None` for an empty interval.
fn reward_rate(
    weight: f64,
    pending: &PendingDpm,
    now_s: f64,
    energy_j: f64,
    queue_integral: f64,
    peak_watts: f64,
) -> Option<(f64, f64)> {
    let tau = now_s - pending.time_s;
    if tau <= 0.0 {
        return None;
    }
    let avg_power_norm = (energy_j - pending.energy_j) / tau / peak_watts;
    let avg_jq = (queue_integral - pending.queue_integral) / tau;
    Some((-(weight * avg_power_norm + (1.0 - weight) * avg_jq), tau))
}

impl PowerManager for RlPowerManager {
    fn on_idle(
        &mut self,
        server: ServerId,
        view: &ClusterView<'_>,
        now: SimTime,
    ) -> TimeoutDecision {
        self.stats.decisions += 1;
        let (energy_j, queue_integral) = {
            let st = view.server(server).stats();
            (st.energy_joules, st.jobs_in_system_integral)
        };
        // Normalize by *this server's* peak (capacity-scaled), so big and
        // little machines see rewards in the same relative units.
        let peak = view.config().power.peak_watts * view.server(server).peak_scale();
        let weight = self.config.weight;
        let smdp = self.config.smdp;

        let state = self.state_for(server.0);
        let table = self.agents[server.0].table;
        if !self.learning {
            // Frozen (the no-continued-training ablation): pure greedy
            // exploitation of the learned values, no bookkeeping.
            let row = self.tables[table].q_row(&state);
            let action = row
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("Q values are finite"))
                .map_or(0, |(i, _)| i);
            let timeout = self.config.timeouts[action];
            return if timeout == 0.0 {
                TimeoutDecision::SleepNow
            } else {
                TimeoutDecision::After(timeout)
            };
        }
        // Close the previous case-(1) decision with the observed sojourn.
        let agent = &mut self.agents[server.0];
        if let Some(p) = agent.pending.take() {
            if let Some((r, tau)) =
                reward_rate(weight, &p, now.as_secs(), energy_j, queue_integral, peak)
            {
                self.tables[table].update_smdp(&smdp, &p.state, p.action, r, tau, &state);
                self.stats.updates += 1;
            }
        }

        let agent = &mut self.agents[server.0];
        let action = agent
            .policy
            .select(&self.tables[table].q_row(&state), &mut agent.rng);
        agent.pending = Some(PendingDpm {
            state,
            action,
            time_s: now.as_secs(),
            energy_j,
            queue_integral,
        });

        let timeout = self.config.timeouts[action];
        if timeout == 0.0 {
            TimeoutDecision::SleepNow
        } else {
            TimeoutDecision::After(timeout)
        }
    }

    fn on_job_arrival(&mut self, server: ServerId, _view: &ClusterView<'_>, now: SimTime) {
        self.stats.arrivals_observed += 1;
        if let Some(last) = self.agents[server.0].last_arrival.replace(now) {
            self.observe_gap(server.0, now.since(last));
        }
    }

    fn on_run_begin(&mut self) {
        // Every run — a pre-training rollout or one drift segment —
        // restarts the clock at zero, so timestamp-anchored state must not
        // survive into it: a stale `last_arrival` would fabricate an
        // inter-arrival gap into the LSTM predictor feed (negative, since
        // the new clock starts below the old one's end — exactly the class
        // of leak this codebase hit before at pre-training boundaries),
        // and a stale pending transition would integrate a reward over a
        // nonsensical sojourn. `on_run_end` clears the same state, but the
        // *start* hook is the guarantee: it holds even if the previous run
        // was driven by a harness that never finished it.
        for agent in &mut self.agents {
            agent.pending = None;
            agent.last_arrival = None;
        }
    }

    fn on_run_end(&mut self, _view: &ClusterView<'_>) {
        // A later run (e.g. the next pre-training segment) restarts the
        // clock at zero: the final pending transition has no successor
        // epoch, and an inter-arrival gap must never span two runs.
        for agent in &mut self.agents {
            agent.pending = None;
            agent.last_arrival = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfigError;
    use hierdrl_sim::cluster::{Cluster, RunLimit};
    use hierdrl_sim::config::ClusterConfig;
    use hierdrl_sim::job::{Job, JobId};
    use hierdrl_sim::policies::RoundRobinAllocator;
    use hierdrl_sim::resources::ResourceVec;

    fn fast_config() -> RlPowerConfig {
        RlPowerConfig {
            predictor: PredictorConfig {
                lookback: 5,
                hidden: 6,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn bursty_jobs(n: u64) -> Vec<Job> {
        // Bursts of 3 jobs, long quiet gaps.
        let mut out = Vec::new();
        let mut t = 0.0;
        for i in 0..n {
            if i % 3 == 0 {
                t += 900.0;
            } else {
                t += 20.0;
            }
            out.push(Job::new(
                JobId(i),
                SimTime::from_secs(t),
                60.0,
                ResourceVec::cpu_mem_disk(0.3, 0.1, 0.05),
            ));
        }
        out
    }

    #[test]
    fn runs_end_to_end_and_updates() {
        let mut mgr = RlPowerManager::new(2, fast_config());
        let mut cluster = Cluster::new(ClusterConfig::paper(2), bursty_jobs(200)).unwrap();
        let out = cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        assert_eq!(out.totals.jobs_completed, 200);
        assert!(mgr.stats().decisions > 0);
        assert!(mgr.stats().updates > 0);
        assert!(mgr.stats().arrivals_observed == 200);
    }

    #[test]
    fn weight_one_prefers_sleeping() {
        // Pure power weight: the learned policy should sleep aggressively,
        // yielding clearly less energy than always-on.
        let mut config = fast_config();
        config.weight = 1.0;
        let mut mgr = RlPowerManager::new(1, config);
        let jobs = bursty_jobs(150);
        let mut cluster = Cluster::new(ClusterConfig::paper(1), jobs.clone()).unwrap();
        let rl = cluster
            .run(
                &mut RoundRobinAllocator::new(),
                &mut mgr,
                RunLimit::unbounded(),
            )
            .totals
            .energy_joules;

        let mut cluster2 = Cluster::new(ClusterConfig::paper(1), jobs).unwrap();
        let on = cluster2
            .run(
                &mut RoundRobinAllocator::new(),
                &mut hierdrl_sim::policies::AlwaysOnPower,
                RunLimit::unbounded(),
            )
            .totals
            .energy_joules;
        assert!(
            rl < on * 0.8,
            "RL (w=1) used {rl} J, always-on {on} J — expected clear savings"
        );
    }

    #[test]
    fn weight_zero_prefers_staying_awake() {
        // Pure latency weight with bursty gaps: sleeping costs latency, so
        // the learned policy should approach the always-on latency.
        let mut config = fast_config();
        config.weight = 0.0;
        let mut mgr = RlPowerManager::new(1, config);
        let jobs = bursty_jobs(300);
        let mut cluster = Cluster::new(ClusterConfig::paper(1), jobs.clone()).unwrap();
        let rl = cluster
            .run(
                &mut RoundRobinAllocator::new(),
                &mut mgr,
                RunLimit::unbounded(),
            )
            .totals
            .total_latency_s;

        let mut cluster2 = Cluster::new(ClusterConfig::paper(1), jobs.clone()).unwrap();
        let sleepy = cluster2
            .run(
                &mut RoundRobinAllocator::new(),
                &mut hierdrl_sim::policies::SleepImmediatelyPower,
                RunLimit::unbounded(),
            )
            .totals
            .total_latency_s;
        assert!(
            rl < sleepy,
            "RL (w=0) latency {rl} should beat sleep-immediately {sleepy}"
        );
    }

    #[test]
    fn per_server_agents_are_independent() {
        let mut mgr = RlPowerManager::new(3, fast_config());
        // All jobs to server 0 via a constant allocator.
        struct ToZero;
        impl hierdrl_sim::cluster::Allocator for ToZero {
            fn select(&mut self, _job: &Job, _view: &ClusterView<'_>) -> ServerId {
                ServerId(0)
            }
        }
        let mut cluster = Cluster::new(ClusterConfig::paper(3), bursty_jobs(60)).unwrap();
        cluster.run(&mut ToZero, &mut mgr, RunLimit::unbounded());
        let predictors = mgr.drained();
        assert!(lock(&predictors[0]).observations() > 0);
        assert_eq!(lock(&predictors[1]).observations(), 0);
        assert_eq!(lock(&predictors[2]).observations(), 0);
    }

    #[test]
    fn shared_learning_pools_by_capacity_class() {
        // 2 big + 2 little servers: shared learning must give each class
        // its own table (2 tables), map equal-capacity servers to the same
        // one, and snapshots must round-trip through the cluster-aware
        // constructor.
        let mut cluster = ClusterConfig::paper(4);
        cluster.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
        ]);
        let mgr = RlPowerManager::for_cluster(&cluster, fast_config());
        assert_eq!(mgr.num_tables(), 2);
        assert_eq!(mgr.agents[0].table, mgr.agents[2].table, "big pool");
        assert_eq!(mgr.agents[1].table, mgr.agents[3].table, "little pool");
        assert_ne!(
            mgr.agents[0].table, mgr.agents[1].table,
            "big and little servers must not share a table"
        );

        let snapshot = mgr.snapshot();
        assert_eq!(snapshot.tables.len(), 2);
        let restored = RlPowerManager::from_snapshot_for_cluster(&cluster, snapshot);
        assert_eq!(restored.num_tables(), 2);

        // Homogeneous clusters keep the paper's single shared table, and
        // per-server isolation still wins over class pooling when asked.
        assert_eq!(
            RlPowerManager::for_cluster(&ClusterConfig::paper(4), fast_config()).num_tables(),
            1
        );
        let mut isolated = fast_config();
        isolated.shared_learning = false;
        assert_eq!(
            RlPowerManager::for_cluster(&cluster, isolated).num_tables(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "do not match this cluster's")]
    fn snapshot_rejects_permuted_capacity_classes() {
        // Snapshot taken on [big, little] restored onto [little, big]:
        // table counts match, but class 0 would silently become the
        // little class — the restore must refuse.
        let mut cluster = ClusterConfig::paper(2);
        cluster.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
        ]);
        let snapshot = RlPowerManager::for_cluster(&cluster, fast_config()).snapshot();
        let mut permuted = ClusterConfig::paper(2);
        permuted.server_capacities = Some(vec![
            ResourceVec::ones(3),
            ResourceVec::new(&[2.0, 2.0, 2.0]),
        ]);
        let _ = RlPowerManager::from_snapshot_for_cluster(&permuted, snapshot);
    }

    #[test]
    fn class_tables_learn_independently() {
        // All jobs land on big server 0; the little class's table must
        // stay untouched.
        let mut cluster = ClusterConfig::paper(2);
        cluster.server_capacities = Some(vec![
            ResourceVec::new(&[2.0, 2.0, 2.0]),
            ResourceVec::ones(3),
        ]);
        let mut mgr = RlPowerManager::for_cluster(&cluster, fast_config());
        struct ToZero;
        impl hierdrl_sim::cluster::Allocator for ToZero {
            fn select(&mut self, _job: &Job, _view: &ClusterView<'_>) -> ServerId {
                ServerId(0)
            }
        }
        let mut sim = Cluster::new(cluster, bursty_jobs(120)).unwrap();
        sim.run(&mut ToZero, &mut mgr, RunLimit::unbounded());
        assert!(mgr.stats().updates > 0);
        let little = mgr.agents[1].table;
        assert_eq!(
            mgr.tables[little].num_states(),
            0,
            "the little class's table must not absorb big-server updates"
        );
    }

    #[test]
    fn run_begin_clears_timestamp_anchored_state() {
        let mut mgr = RlPowerManager::new(2, fast_config());
        let mut cluster = Cluster::new(ClusterConfig::paper(2), bursty_jobs(60)).unwrap();
        cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        // Fake an aborted run: poison the state a finished run would have
        // cleared, as a harness that drops a cluster mid-run would leave it.
        for agent in &mut mgr.agents {
            agent.last_arrival = Some(SimTime::from_secs(1e6));
            agent.pending = Some(PendingDpm {
                state: 0,
                action: 0,
                time_s: 1e6,
                energy_j: 0.0,
                queue_integral: 0.0,
            });
        }
        mgr.on_run_begin();
        for agent in &mgr.agents {
            assert!(agent.last_arrival.is_none(), "last_arrival must reset");
            assert!(agent.pending.is_none(), "pending must reset");
        }
    }

    #[test]
    fn carrying_across_segments_fabricates_no_inter_arrival_gap() {
        // Segment A ends late (~45,000 s); segment B's first arrivals land
        // within seconds of its own time zero. A leaked last-arrival mark
        // would feed the predictor a negative gap at the boundary — which
        // the predictor now rejects and counts. The regression contract is
        // exact: zero rejections, and per-segment observation counts that
        // match independent runs (one unobservable gap per server per
        // segment, never one fewer).
        let mut mgr = RlPowerManager::new(1, fast_config());
        let seg_a = bursty_jobs(90);
        let seg_b = bursty_jobs(60);
        let mut cluster = Cluster::new(ClusterConfig::paper(1), seg_a).unwrap();
        cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        assert_eq!(mgr.predictor_observations(), 89);
        let mut cluster = Cluster::new(ClusterConfig::paper(1), seg_b).unwrap();
        cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        assert_eq!(
            mgr.predictor_observations(),
            89 + 59,
            "the cross-segment boundary must contribute no observation"
        );
        assert_eq!(
            mgr.rejected_observations(),
            0,
            "no fabricated (non-positive) gap may reach the predictor"
        );
    }

    #[test]
    fn frozen_manager_stops_learning_but_keeps_deciding() {
        let mut mgr = RlPowerManager::new(2, fast_config());
        let jobs = bursty_jobs(120);
        let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs.clone()).unwrap();
        cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        let (updates, decisions) = (mgr.stats().updates, mgr.stats().decisions);
        assert!(updates > 0);
        let training_steps = |mgr: &RlPowerManager| -> u64 {
            mgr.drained().iter().map(|p| lock(p).training_steps()).sum()
        };
        let trained_steps = training_steps(&mgr);
        assert!(trained_steps > 0);
        assert!(mgr.worker.is_some(), "training runs on the worker");

        mgr.set_learning(false);
        let mut cluster = Cluster::new(ClusterConfig::paper(2), jobs).unwrap();
        let out = cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        assert_eq!(out.totals.jobs_completed, 120, "frozen manager still runs");
        assert_eq!(mgr.stats().updates, updates, "no Q updates while frozen");
        assert!(mgr.stats().decisions > decisions, "decisions keep flowing");
        assert_eq!(
            training_steps(&mgr),
            trained_steps,
            "predictor weights frozen too"
        );
        assert!(mgr.worker.is_none(), "frozen predictors need no worker");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = fast_config();
        c.timeouts.clear();
        assert!(c.validate().is_err());

        let mut c = fast_config();
        c.weight = 1.5;
        assert!(c.validate().is_err());

        let mut c = fast_config();
        c.iat_bins = 1;
        assert!(c.validate().is_err());

        // Predictor fields: each used to pass validation and then panic
        // inside `LstmIatPredictor::new` or `Adam::new`.
        use PredictorConfigError as E;
        let ok = fast_config().predictor;
        let bad_predictors = [
            (PredictorConfig { lookback: 1, ..ok }, E::Lookback(1)),
            (PredictorConfig { lookback: 0, ..ok }, E::Lookback(0)),
            (PredictorConfig { hidden: 0, ..ok }, E::NoHiddenUnits),
            (
                PredictorConfig { min_iat: 0.0, ..ok },
                E::IatRange {
                    min: 0.0,
                    max: 7200.0,
                },
            ),
            (
                PredictorConfig {
                    min_iat: 7200.0,
                    ..ok
                },
                E::IatRange {
                    min: 7200.0,
                    max: 7200.0,
                },
            ),
            (
                PredictorConfig {
                    max_iat: f64::INFINITY,
                    ..ok
                },
                E::IatRange {
                    min: 1.0,
                    max: f64::INFINITY,
                },
            ),
            (
                PredictorConfig {
                    learning_rate: 0.0,
                    ..ok
                },
                E::LearningRate(0.0),
            ),
            (
                PredictorConfig {
                    learning_rate: -1e-3,
                    ..ok
                },
                E::LearningRate(-1e-3),
            ),
            (
                PredictorConfig {
                    learning_rate: f32::INFINITY,
                    ..ok
                },
                E::LearningRate(f32::INFINITY),
            ),
        ];
        for (predictor, expected) in bad_predictors {
            let c = RlPowerConfig {
                predictor,
                ..fast_config()
            };
            assert_eq!(c.predictor.validate(), Err(expected));
            assert_eq!(c.validate(), Err(format!("predictor: {expected}")));
        }
        let mut c = fast_config();
        c.predictor.learning_rate = f32::NAN;
        assert!(matches!(
            c.predictor.validate(),
            Err(PredictorConfigError::LearningRate(lr)) if lr.is_nan()
        ));
        assert!(c.validate().is_err());
        assert!(fast_config().validate().is_ok());
    }

    /// Gaps with short bursts, long pauses and a few rejected values.
    fn gap(k: usize) -> f64 {
        match k % 11 {
            3 => 0.0,
            7 => 900.0 + k as f64,
            _ => 5.0 + (k % 5) as f64 * 13.0,
        }
    }

    /// Bare predictors built from the manager's per-server seeds.
    fn reference_predictors(config: &RlPowerConfig, servers: usize) -> Vec<LstmIatPredictor> {
        (0..servers)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64 * 7919));
                LstmIatPredictor::new(config.predictor, &mut rng)
            })
            .collect()
    }

    fn bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    #[test]
    fn worker_reads_match_sequential_predictors_at_every_checkpoint() {
        let config = fast_config();
        let servers = 3;
        let mut mgr = RlPowerManager::new(servers, config.clone());
        let mut reference = reference_predictors(&config, servers);
        for k in 0..240 {
            let server = (k * 7) % servers;
            mgr.observe_gap(server, gap(k));
            reference[server].observe(gap(k));
            if k % 5 != 4 {
                continue;
            }
            // Read one prediction first, straight after the sends, so it
            // races the worker (on one core, as CI runs this test, the
            // worker cannot apply anything until this thread blocks); then
            // the aggregate reads.
            assert_eq!(
                bits(mgr.predicted_gap(server)),
                bits(reference[server].predict()),
                "prediction for server {server} after gap {k}"
            );
            assert_eq!(
                mgr.predictor_observations(),
                reference.iter().map(|p| p.observations()).sum::<u64>()
            );
            assert_eq!(
                mgr.rejected_observations(),
                reference
                    .iter()
                    .map(|p| p.rejected_observations())
                    .sum::<u64>()
            );
            let scores: Vec<f64> = reference
                .iter()
                .filter_map(|p| p.normalized_mse())
                .collect();
            let mse =
                (!scores.is_empty()).then(|| scores.iter().sum::<f64>() / scores.len() as f64);
            assert_eq!(bits(mgr.mean_predictor_mse()), bits(mse), "after gap {k}");
            for (i, p) in reference.iter().enumerate() {
                assert_eq!(bits(mgr.predicted_gap(i)), bits(p.predict()), "server {i}");
            }
        }
        assert!(
            mgr.worker.is_some(),
            "training gaps went through the worker"
        );
        assert!(reference.iter().all(|p| p.training_steps() > 0));
    }

    #[test]
    fn freezing_applies_queued_gaps_under_the_old_setting() {
        let config = RlPowerConfig::default();
        let servers = 2;
        let mut mgr = RlPowerManager::new(servers, config.clone());
        let mut reference = reference_predictors(&config, servers);
        // Paper-sized predictors: the worker is still training when the
        // toggle arrives.
        for k in 0..400 {
            mgr.observe_gap(k % servers, gap(k));
            reference[k % servers].observe(gap(k));
        }
        mgr.set_learning(false);
        assert!(mgr.worker.is_none());
        for (i, p) in reference.iter_mut().enumerate() {
            let got = lock(&mgr.predictors[i]);
            assert_eq!(got.training_steps(), p.training_steps(), "server {i}");
            assert_eq!(bits(got.normalized_mse()), bits(p.normalized_mse()));
            assert_eq!(bits(got.predict()), bits(p.predict()));
            p.set_online_training(false);
        }
        // Frozen gaps are inline window pushes, bit for bit the same.
        for k in 400..440 {
            mgr.observe_gap(k % servers, gap(k));
            reference[k % servers].observe(gap(k));
        }
        assert!(mgr.worker.is_none(), "a frozen manager starts no thread");
        for (i, p) in reference.iter().enumerate() {
            assert_eq!(bits(mgr.predicted_gap(i)), bits(p.predict()), "server {i}");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_worker_panic_resurfaces_on_the_decision_thread() {
        let mut mgr = RlPowerManager::new(2, fast_config());
        mgr.observe_gap(0, 60.0);
        // A server index past the end makes the worker panic mid-queue.
        mgr.worker
            .as_ref()
            .expect("a training observation spawns the worker")
            .send(PredictorJob::Observe {
                server: 99,
                gap: 60.0,
            });
        let _ = mgr.predictor_observations();
    }

    #[test]
    fn dropping_a_manager_with_a_backlog_joins_its_worker() {
        let mut mgr = RlPowerManager::new(2, RlPowerConfig::default());
        for k in 0..400 {
            mgr.observe_gap(k % 2, gap(k));
        }
        assert!(mgr.worker.is_some());
        let predictors = Arc::downgrade(&mgr.predictors);
        let (done, dropped) = mpsc::channel();
        thread::spawn(move || {
            drop(mgr);
            done.send(()).expect("test thread waits");
        });
        dropped
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("dropping the manager returns");
        assert!(
            predictors.upgrade().is_none(),
            "the worker thread has ended by the time drop returns"
        );
    }
}
