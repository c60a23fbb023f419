//! Parallel, deterministic execution of a [`Suite`].
//!
//! Every cell is self-contained: its trace, pre-training rollouts, and
//! learner RNGs all derive from the scenario's own seed, so cells can run
//! on any thread in any order and still produce identical results. Shared
//! state is limited to two caches keyed by *content fingerprints* — the
//! trace cache (identical workload specs materialize once) and a
//! pre-training cache (identical (cluster, segments, config) pre-train
//! once) — and cached values are themselves deterministic functions of
//! their keys, so caching never changes results, only wall-clock.
//!
//! # Execution units
//!
//! A cell runs as one *execution unit* per member cluster of its
//! [`Topology`](crate::scenario::Topology): a single-cluster cell is a
//! one-unit fleet, a multi-cluster cell has one unit (shard) per cluster.
//! Every cell takes the same path:
//!
//! 1. resolve the evaluation stream (and inject arrival spikes);
//! 2. lower the elastic axis per unit, feed-forward from the stream;
//! 3. split the stream across units with the deterministic front-end
//!    [`Router`] (a lone unit takes the whole stream);
//! 4. run every unit on its own worker thread, with learner seeds derived
//!    from the unit's root seed ([`Scenario::learner_seeds`]);
//! 5. merge: units share a clock within a segment
//!    ([`aggregate_shards`]), segments run back to back
//!    ([`concat_segments`]).
//!
//! Units merge in unit order, so a sharded run is byte-identical to the
//! same cell executed serially, and aggregating a single unit reproduces
//! it exactly. One semantic difference remains between the topologies:
//! `max_jobs` truncates a multi-cluster cell's *arrival stream* before
//! routing (independent shards cannot coordinate a global completion
//! count deterministically), whereas a single cluster stops after
//! `max_jobs` completions.

use crate::report::{
    BenchCell, BenchReport, BenchSegment, BenchShard, CellMetrics, CellReport, CellTiming,
    ExpectationRow, FleetSize, SegmentReport, ShardReport, SuiteReport, TraceProvenance,
};
use crate::scenario::{
    mix_seed, ElasticSchedule, ElasticSpec, LearnerSeeds, PolicySpec, Pretrain, Scenario,
};
use crate::suite::{Expectation, Suite};
use hierdrl_core::allocator::{DrlAllocator, DrlAllocatorConfig, DrlSnapshot, DrlStats};
use hierdrl_core::dpm::{DpmSnapshot, RlPowerConfig, RlPowerManager};
use hierdrl_core::runner::{
    aggregate_shards, concat_segments, pretrain_pair, ExperimentResult, SegmentedExperiment,
    ShardResult,
};
use hierdrl_sim::cluster::{Allocator, PowerManager};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::events::FleetOp;
use hierdrl_sim::job::Job;
use hierdrl_sim::policies::{FixedTimeoutPower, SleepImmediatelyPower};
use hierdrl_sim::router::{Router, RouterPolicy};
use hierdrl_trace::google::ParseStats;
use hierdrl_trace::materialize::{TraceCache, TraceSpec};
use hierdrl_trace::source::{with_synthetic_demands, TraceSource};
use hierdrl_trace::trace::Trace;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A pre-trained pair of tiers, memoized across cells that share cluster,
/// rollout segments, and learner configuration (e.g. the Fig. 10 sweep,
/// where every operating point restores the same global tier).
#[derive(Clone)]
struct Pretrained {
    drl: DrlSnapshot,
    dpm: Option<DpmSnapshot>,
}

type PretrainSlot = Arc<Mutex<Option<Pretrained>>>;

// Key-ordered maps for both memoization caches: lookups don't care, but
// key order means any future iteration (diagnostics, eviction sweeps) is
// deterministic by construction, and the nondet-iteration lint stays quiet.
#[derive(Default)]
struct PretrainCache {
    slots: Mutex<BTreeMap<String, PretrainSlot>>,
}

impl PretrainCache {
    fn get_or_train(
        &self,
        key: &str,
        train: impl FnOnce() -> Result<Pretrained, String>,
    ) -> Result<Pretrained, String> {
        let slot = {
            let mut slots = self.slots.lock().expect("pretrain cache map lock");
            slots
                .entry(key.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(None)))
                .clone()
        };
        let mut entry = slot.lock().expect("pretrain cache slot lock");
        if let Some(pair) = entry.as_ref() {
            return Ok(pair.clone());
        }
        let pair = train()?;
        *entry = Some(pair.clone());
        Ok(pair)
    }
}

/// Shared per-run context handed to every cell.
struct RunContext {
    traces: Arc<TraceCache>,
    pretrained: PretrainCache,
    /// Parsed on-disk traces, memoized by source label (`format:path`) so
    /// every cell replaying the same file parses it once. Parsing is a
    /// pure function of the file, so the cache never changes results.
    real_traces: Mutex<BTreeMap<String, Arc<(Trace, ParseStats)>>>,
}

impl RunContext {
    /// Loads (or returns the memoized) parse of a real-trace source.
    fn load_real(&self, source: &dyn TraceSource) -> Result<Arc<(Trace, ParseStats)>, String> {
        let label = source.label();
        if let Some(hit) = self
            .real_traces
            .lock()
            .expect("real-trace cache lock")
            .get(&label)
        {
            return Ok(hit.clone());
        }
        // Parse outside the lock; racing cells parse the same bytes and
        // the first insert wins, so results stay deterministic either way.
        let parsed = Arc::new(source.load()?);
        Ok(self
            .real_traces
            .lock()
            .expect("real-trace cache lock")
            .entry(label)
            .or_insert(parsed)
            .clone())
    }
}

/// The outcome of one segment of a concept-drift cell (or of one shard of
/// such a cell): the learners were carried into it from the previous
/// segment and, unless the cell is a frozen ablation, kept training online
/// through it.
#[derive(Debug, Clone)]
pub struct SegmentRun {
    /// Segment index in drift order.
    pub segment: usize,
    /// The segment's workload shift label.
    pub shift: String,
    /// Jobs this execution unit received for the segment.
    pub jobs_routed: u64,
    /// The segment's own experiment result.
    pub result: ExperimentResult,
    /// Cumulative global-tier statistics at segment end, for learned
    /// policies.
    pub drl_stats: Option<DrlStats>,
    /// Segment wall-clock, seconds (max across shards at fleet level).
    pub wall_s: f64,
}

/// The outcome of one execution unit: one shard (cluster) of a
/// multi-cluster cell.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The shard's routed jobs and simulation result (the concatenation
    /// across segments for drift cells).
    pub shard: ShardResult,
    /// The shard's global-tier statistics, for learned policies.
    pub drl_stats: Option<DrlStats>,
    /// The shard's per-segment outcomes in segment order (one, the whole
    /// run, for non-drift cells).
    pub segments: Vec<SegmentRun>,
    /// Shard wall-clock, seconds.
    pub wall_s: f64,
}

/// The outcome of one cell: the full runner result plus learner statistics
/// and timing.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The scenario that produced this result.
    pub scenario: Scenario,
    /// Full experiment result (including sample curves for Figs. 8/9).
    /// For multi-cluster cells this is the fleet-level aggregate; for
    /// drift cells, the time-sequential concatenation of the segments.
    pub result: ExperimentResult,
    /// Global-tier statistics, for learned policies. For multi-cluster
    /// cells, counters sum across shards and losses are decision-weighted.
    pub drl_stats: Option<DrlStats>,
    /// Per-segment outcomes in drift order (empty for non-drift cells;
    /// the fleet-level aggregate per segment when sharded).
    pub segments: Vec<SegmentRun>,
    /// Per-cluster outcomes in shard order (empty for single-cluster
    /// cells).
    pub shards: Vec<ShardRun>,
    /// The cell's scheduled fleet-size envelope: constant at the topology
    /// size for fixed fleets, the lowered membership trajectory (summed
    /// across shards, span-weighted across segments) for elastic cells.
    pub fleet_size: FleetSize,
    /// Real-trace provenance (`None` for synthetic cells).
    pub provenance: Option<TraceProvenance>,
    /// Wall-clock timing.
    pub timing: CellTiming,
}

/// The outcome of a whole suite: per-cell results in suite order plus
/// aggregate timing.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Suite name.
    pub suite: String,
    /// Per-cell outcomes, in suite (builder) order.
    pub cells: Vec<CellRun>,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock, seconds.
    pub total_wall_s: f64,
    /// Distinct traces materialized (evaluation + pre-training).
    pub traces_materialized: u64,
    /// Trace-cache hits.
    pub trace_cache_hits: u64,
    /// The suite's evaluated [`Expectation`]s, in declaration order
    /// (empty for suites without expectations). Every row is a pure
    /// function of the deterministic cell results, so it is safe to
    /// include in the canonical report.
    pub expectations: Vec<ExpectationRow>,
}

/// Maps one cell outcome to its canonical report row — shared by
/// [`SuiteRun::report`] and the determinism-pin expectation (which
/// byte-compares this row against a serial re-run's).
fn cell_report(c: &CellRun) -> CellReport {
    CellReport {
        id: c.scenario.id.clone(),
        topology: c.scenario.topology.name().to_string(),
        servers: c.scenario.topology.servers(),
        capacity_total: c.scenario.topology.total_capacity(),
        capacity_skew: c.scenario.topology.capacity_skew(),
        workload: c.scenario.workload.name().to_string(),
        fault: c.scenario.fault.as_ref().map(|f| f.name.clone()),
        elastic: c.scenario.elastic.as_ref().map(|e| e.name.clone()),
        fleet_size: Some(c.fleet_size),
        policy: c.scenario.policy.name(),
        seed: c.scenario.seed,
        metrics: CellMetrics::from_result(&c.result),
        jobs_requeued: c.result.outcome.totals.jobs_requeued,
        drl: c.drl_stats,
        segments: (!c.segments.is_empty()).then(|| {
            c.segments
                .iter()
                .map(|s| SegmentReport {
                    segment: s.segment,
                    shift: s.shift.clone(),
                    metrics: CellMetrics::from_result(&s.result),
                    drl: s.drl_stats,
                })
                .collect()
        }),
        clusters: (!c.shards.is_empty()).then(|| {
            c.shards
                .iter()
                .map(|s| ShardReport {
                    cluster: s.shard.cluster,
                    servers: s.shard.servers,
                    jobs_routed: s.shard.jobs_routed,
                    metrics: CellMetrics::from_result(&s.shard.result),
                    drl: s.drl_stats,
                })
                .collect()
        }),
        trace: c.provenance.clone(),
    }
}

impl SuiteRun {
    /// The canonical deterministic report (no timing).
    pub fn report(&self) -> SuiteReport {
        SuiteReport {
            suite: self.suite.clone(),
            cells: self.cells.iter().map(cell_report).collect(),
            expectations: self.expectations.clone(),
        }
    }

    /// The timing artifact (non-deterministic by nature).
    pub fn bench_report(&self) -> BenchReport {
        let jobs_total: u64 = self
            .cells
            .iter()
            .map(|c| c.result.outcome.totals.jobs_completed)
            .sum();
        BenchReport {
            suite: self.suite.clone(),
            threads: self.threads,
            cells_total: self.cells.len(),
            total_wall_s: self.total_wall_s,
            cell_wall_s_sum: self.cells.iter().map(|c| c.timing.wall_s).sum(),
            jobs_total,
            jobs_per_s: jobs_total as f64 / self.total_wall_s.max(1e-9),
            traces_materialized: self.traces_materialized,
            trace_cache_hits: self.trace_cache_hits,
            peak_rss_bytes: crate::report::peak_rss_bytes(),
            expectations: self.expectations.clone(),
            cells: self
                .cells
                .iter()
                .map(|c| BenchCell {
                    id: c.scenario.id.clone(),
                    jobs: c.result.outcome.totals.jobs_completed,
                    capacity_skew: c.scenario.topology.capacity_skew(),
                    fleet_size: Some(c.fleet_size),
                    wall_s: c.timing.wall_s,
                    jobs_per_s: c.timing.jobs_per_s,
                    segments: (!c.segments.is_empty()).then(|| {
                        c.segments
                            .iter()
                            .map(|s| BenchSegment {
                                segment: s.segment,
                                shift: s.shift.clone(),
                                jobs: s.result.outcome.totals.jobs_completed,
                                wall_s: s.wall_s,
                            })
                            .collect()
                    }),
                    clusters: (!c.shards.is_empty()).then(|| {
                        c.shards
                            .iter()
                            .map(|s| BenchShard {
                                cluster: s.shard.cluster,
                                servers: s.shard.servers,
                                jobs: s.shard.result.outcome.totals.jobs_completed,
                                wall_s: s.wall_s,
                            })
                            .collect()
                    }),
                    // Suite cells run in parallel; a per-cell snapshot of
                    // the process-wide high-water mark would be noise.
                    peak_rss_bytes: None,
                    trace: c.provenance.clone(),
                })
                .collect(),
        }
    }

    /// The cells' experiment results, in suite order.
    pub fn results(&self) -> Vec<&ExperimentResult> {
        self.cells.iter().map(|c| &c.result).collect()
    }

    /// The first cell whose policy name matches, if any.
    pub fn find_policy(&self, policy: &str) -> Option<&CellRun> {
        self.cells
            .iter()
            .find(|c| c.scenario.policy.name() == policy)
    }
}

/// Executes suites, in parallel by default.
///
/// # Examples
///
/// ```
/// use hierdrl_exp::prelude::*;
///
/// let suite = Suite::builder("doc")
///     .topologies([Topology::paper(4)])
///     .workloads([WorkloadSpec::paper().with_total_jobs(150)])
///     .policies([PolicySpec::round_robin()])
///     .seeds([1, 2])
///     .build();
///
/// let run = SuiteRunner::new().run(&suite)?;
/// assert_eq!(run.cells.len(), 2);
/// // Same grid, serial execution: byte-identical canonical report.
/// let serial = SuiteRunner::serial().run(&suite)?;
/// assert_eq!(run.report().to_json(), serial.report().to_json());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SuiteRunner {
    threads: Option<usize>,
    traces: Option<Arc<TraceCache>>,
}

impl SuiteRunner {
    /// A runner using every available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-threaded runner (reference execution for determinism
    /// checks).
    pub fn serial() -> Self {
        Self {
            threads: Some(1),
            traces: None,
        }
    }

    /// Pins the worker-thread count (`0`/unset = machine default).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// Shares an external trace cache with the run, so callers can reuse
    /// the traces it materializes (or pre-seed them) without regenerating.
    #[must_use]
    pub fn with_trace_cache(mut self, cache: Arc<TraceCache>) -> Self {
        self.traces = Some(cache);
        self
    }

    /// The worker count this runner will use.
    pub fn threads(&self) -> usize {
        match self.threads {
            Some(n) => n,
            None => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Runs every cell of `suite`, returning per-cell outcomes in suite
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's error, tagged with its scenario id.
    pub fn run(&self, suite: &Suite) -> Result<SuiteRun, String> {
        let started = Instant::now(); // lint:allow(wall-clock): timing feeds BenchReport only, never SuiteReport
        let ctx = RunContext {
            traces: self.traces.clone().unwrap_or_default(),
            pretrained: PretrainCache::default(),
            real_traces: Mutex::new(BTreeMap::new()),
        };
        // An external cache may carry earlier activity; report deltas.
        let (hits_before, misses_before) = (ctx.traces.hits(), ctx.traces.misses());
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads())
            .build()
            .map_err(|e| format!("thread pool: {e}"))?;
        let outcomes: Vec<Result<CellRun, String>> = pool.install(|| {
            suite
                .scenarios
                .par_iter()
                .map(|scenario| {
                    run_cell(scenario, &ctx).map_err(|e| format!("scenario {}: {e}", scenario.id))
                })
                .collect()
        });
        let cells = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut run = SuiteRun {
            suite: suite.name.clone(),
            cells,
            threads: self.threads(),
            total_wall_s: 0.0,
            traces_materialized: ctx.traces.misses() - misses_before,
            trace_cache_hits: ctx.traces.hits() - hits_before,
            expectations: Vec::new(),
        };
        run.expectations = evaluate_expectations(&suite.expectations, &run);
        run.total_wall_s = started.elapsed().as_secs_f64();
        Ok(run)
    }
}

/// Evaluates a suite's declarative [`Expectation`]s against the finished
/// grid, in declaration order. Every check is a pure function of the
/// deterministic cell results — including the determinism pin, whose
/// nested serial re-run is itself deterministic — so the rows are safe to
/// embed in the canonical byte-comparable report.
fn evaluate_expectations(expectations: &[Expectation], run: &SuiteRun) -> Vec<ExpectationRow> {
    expectations
        .iter()
        .map(|e| {
            let (passed, detail) = match e {
                Expectation::MetricBound {
                    cell_contains,
                    metric,
                    min,
                    max,
                    ..
                } => check_metric_bound(run, cell_contains, metric, *min, *max),
                Expectation::JobConservation { .. } => check_job_conservation(run),
                Expectation::DeterminismPin { cell_contains, .. } => {
                    check_determinism_pin(run, cell_contains)
                }
                Expectation::GracefulDegradation {
                    fault,
                    policy,
                    baseline,
                    tolerance,
                    ..
                } => check_graceful_degradation(run, fault, policy, baseline, *tolerance),
                Expectation::AutoscaleEconomics {
                    elastic,
                    policy,
                    energy_tolerance,
                    latency_slack,
                    ..
                } => check_autoscale_economics(
                    run,
                    elastic,
                    policy,
                    *energy_tolerance,
                    *latency_slack,
                ),
            };
            ExpectationRow {
                name: e.name().to_string(),
                passed,
                detail,
            }
        })
        .collect()
}

/// Looks up one of the documented metric keys on a cell.
fn metric_value(cell: &CellRun, key: &str) -> Option<f64> {
    let m = CellMetrics::from_result(&cell.result);
    Some(match key {
        "jobs_completed" => m.jobs_completed as f64,
        "energy_kwh" => m.energy_kwh,
        "mean_latency_s" => m.mean_latency_s,
        "average_power_w" => m.average_power_w,
        "span_hours" => m.span_hours,
        "jobs_requeued" => cell.result.outcome.totals.jobs_requeued as f64,
        _ => return None,
    })
}

fn check_metric_bound(
    run: &SuiteRun,
    cell_contains: &str,
    metric: &str,
    min: f64,
    max: f64,
) -> (bool, String) {
    let matched: Vec<&CellRun> = run
        .cells
        .iter()
        .filter(|c| c.scenario.id.contains(cell_contains))
        .collect();
    if matched.is_empty() {
        // An expectation that silently matches nothing would rot unnoticed.
        return (false, format!("no cell id contains {cell_contains:?}"));
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for cell in &matched {
        let Some(v) = metric_value(cell, metric) else {
            return (false, format!("unknown metric {metric:?}"));
        };
        if !(v.is_finite() && v >= min && v <= max) {
            return (
                false,
                format!(
                    "{}: {metric} = {v} outside [{min}, {max}]",
                    cell.scenario.id
                ),
            );
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (
        true,
        format!(
            "{} cells: {metric} in [{lo:.4}, {hi:.4}] within [{min}, {max}]",
            matched.len()
        ),
    )
}

fn check_job_conservation(run: &SuiteRun) -> (bool, String) {
    let (mut jobs, mut requeued) = (0u64, 0u64);
    for cell in &run.cells {
        let t = &cell.result.outcome.totals;
        // `max_jobs` cells stop mid-stream by design; conservation is only
        // checkable where the whole stream drains.
        if cell.scenario.max_jobs.is_none() && t.jobs_completed != t.jobs_arrived {
            return (
                false,
                format!(
                    "{}: {} arrived vs {} completed",
                    cell.scenario.id, t.jobs_arrived, t.jobs_completed
                ),
            );
        }
        jobs += t.jobs_completed;
        requeued += t.jobs_requeued;
    }
    (
        true,
        format!(
            "{jobs} jobs completed exactly once across {} cells ({requeued} crash requeues)",
            run.cells.len()
        ),
    )
}

fn check_determinism_pin(run: &SuiteRun, cell_contains: &str) -> (bool, String) {
    let matched: Vec<&CellRun> = run
        .cells
        .iter()
        .filter(|c| c.scenario.id.contains(cell_contains))
        .collect();
    if matched.is_empty() {
        return (false, format!("no cell id contains {cell_contains:?}"));
    }
    for cell in &matched {
        // A fresh one-cell suite, re-run serially from the scenario alone.
        // It carries no expectations, so the nested run cannot recurse.
        let pin = Suite {
            name: "determinism-pin".into(),
            scenarios: vec![cell.scenario.clone()],
            expectations: Vec::new(),
        };
        let rerun = match SuiteRunner::serial().run(&pin) {
            Ok(rerun) => rerun,
            Err(e) => return (false, format!("{}: re-run failed: {e}", cell.scenario.id)),
        };
        let original = serde_json::to_string(&cell_report(cell)).expect("cell report serializes");
        let repeated =
            serde_json::to_string(&cell_report(&rerun.cells[0])).expect("cell report serializes");
        if original != repeated {
            return (
                false,
                format!(
                    "{}: serial re-run diverged from suite run",
                    cell.scenario.id
                ),
            );
        }
    }
    (
        true,
        format!("{} cells byte-identical under serial re-run", matched.len()),
    )
}

/// The cell's Eqn.-4 objective: time-averaged normalized fleet power +
/// per-server queueing + overload, under the paper's balanced weights. The
/// scale-free cost both sides of a graceful-degradation comparison share;
/// normalization uses the *nominal* fleet (crashed capacity does not
/// shrink the denominator, so losing servers cannot flatter a policy).
fn eqn4_objective(cell: &CellRun) -> f64 {
    let m = cell.scenario.topology.servers() as f64;
    let peak: f64 = cell
        .scenario
        .topology
        .clusters()
        .iter()
        .map(|c| c.num_servers as f64 * c.power.peak_watts)
        .sum();
    let w = hierdrl_core::reward::RewardWeights::balanced();
    let t = &cell.result.outcome.totals;
    let span = t.time_s.max(1e-9);
    w.power * (t.energy_joules / span / peak.max(1e-9))
        + w.vms * (t.queue_time_integral / span / m)
        + w.reliability * (t.overload_integral / span)
}

/// Mean (across seeds) of `eqn4(faulted) / eqn4(no-fault twin)` for one
/// policy under one fault schedule. The twin is the cell whose id differs
/// only by the `%fault` component.
fn degradation_ratio(run: &SuiteRun, policy: &str, fault: &str) -> Result<f64, String> {
    let faulted: Vec<&CellRun> = run
        .cells
        .iter()
        .filter(|c| {
            c.scenario.policy.name() == policy
                && c.scenario.fault.as_ref().is_some_and(|f| f.name == fault)
        })
        .collect();
    if faulted.is_empty() {
        return Err(format!("no {policy} cell under %{fault}"));
    }
    let mut ratios = Vec::with_capacity(faulted.len());
    for cell in faulted {
        let twin_id = cell.scenario.id.replace(&format!("%{fault}"), "");
        let twin = run
            .cells
            .iter()
            .find(|c| c.scenario.id == twin_id)
            .ok_or_else(|| format!("no fault-free twin {twin_id}"))?;
        ratios.push(eqn4_objective(cell) / eqn4_objective(twin).max(1e-12));
    }
    Ok(ratios.iter().sum::<f64>() / ratios.len() as f64)
}

fn check_graceful_degradation(
    run: &SuiteRun,
    fault: &str,
    policy: &str,
    baseline: &str,
    tolerance: f64,
) -> (bool, String) {
    let (p, b) = match (
        degradation_ratio(run, policy, fault),
        degradation_ratio(run, baseline, fault),
    ) {
        (Ok(p), Ok(b)) => (p, b),
        (Err(e), _) | (_, Err(e)) => return (false, e),
    };
    (
        p <= b * tolerance,
        format!(
            "{policy} degrades {p:.3}x vs {baseline} {b:.3}x under %{fault} (tolerance {tolerance})"
        ),
    )
}

/// Autoscaling must pay for itself: `~elastic` cells of `policy` must land
/// at or below `energy_tolerance`× the fixed-fleet twin's energy-per-job
/// while keeping mean latency within `latency_slack`× of the twin. Both
/// ratios are means across every matching cell (i.e. across seeds).
fn check_autoscale_economics(
    run: &SuiteRun,
    elastic: &str,
    policy: &str,
    energy_tolerance: f64,
    latency_slack: f64,
) -> (bool, String) {
    let scaled: Vec<&CellRun> = run
        .cells
        .iter()
        .filter(|c| {
            c.scenario.policy.name() == policy
                && c.scenario
                    .elastic
                    .as_ref()
                    .is_some_and(|e| e.name == elastic)
        })
        .collect();
    if scaled.is_empty() {
        return (false, format!("no {policy} cell under ~{elastic}"));
    }
    let mut energy = Vec::with_capacity(scaled.len());
    let mut latency = Vec::with_capacity(scaled.len());
    for cell in scaled {
        let twin_id = cell.scenario.id.replace(&format!("~{elastic}"), "");
        let Some(twin) = run.cells.iter().find(|c| c.scenario.id == twin_id) else {
            return (false, format!("no fixed-fleet twin {twin_id}"));
        };
        energy.push(cell.result.energy_per_job_j() / twin.result.energy_per_job_j().max(1e-12));
        latency.push(cell.result.mean_latency_s() / twin.result.mean_latency_s().max(1e-12));
    }
    let e = energy.iter().sum::<f64>() / energy.len() as f64;
    let l = latency.iter().sum::<f64>() / latency.len() as f64;
    (
        e <= energy_tolerance && l <= latency_slack,
        format!(
            "~{elastic} {policy} energy/job {e:.3}x (tolerance {energy_tolerance}), \
             latency {l:.3}x (slack {latency_slack}) vs fixed fleet"
        ),
    )
}

/// Memoized pre-training of one (cluster, segments, learner configs)
/// problem. Identical inputs must produce identical learners, so the JSON
/// of all inputs is a sound cache key.
fn pretrain(
    ctx: &RunContext,
    cluster: &ClusterConfig,
    segments: &[TraceSpec],
    drl_config: &DrlAllocatorConfig,
    dpm_config: &Option<RlPowerConfig>,
) -> Result<Pretrained, String> {
    let payload = (cluster, segments, drl_config, dpm_config);
    let key = serde_json::to_string(&payload).expect("pretrain key serializes");
    ctx.pretrained.get_or_train(&key, || {
        let traces: Vec<Trace> = segments
            .iter()
            .map(|spec| ctx.traces.get(spec).map(|t| (*t).clone()))
            .collect::<Result<_, _>>()?;
        // Size the allocator at the slot ceiling (`== num_servers` for
        // fixed fleets): elastic cells must encode joined slots, and the
        // zero-padded group encoding keeps narrower views bitwise stable.
        let mut allocator = DrlAllocator::new(
            cluster.effective_max(),
            cluster.resource_dims,
            drl_config.clone(),
        );
        match dpm_config {
            Some(dpm_config) => {
                let mut dpm = RlPowerManager::for_cluster(cluster, dpm_config.clone());
                pretrain_pair(&mut allocator, &mut dpm, cluster, &traces)?;
                Ok(Pretrained {
                    drl: allocator.snapshot(),
                    dpm: Some(dpm.snapshot()),
                })
            }
            None => {
                // The ad-hoc local behaviour, so learned values reflect
                // wake penalties (Section VII-A).
                pretrain_pair(&mut allocator, &mut SleepImmediatelyPower, cluster, &traces)?;
                Ok(Pretrained {
                    drl: allocator.snapshot(),
                    dpm: None,
                })
            }
        }
    })
}

/// A built global tier: static policies stay behind the trait object,
/// while learned ones keep their concrete type so statistics capture and
/// freezing (the no-continued-training drift ablation) stay reachable.
enum BuiltAllocator {
    Static(Box<dyn Allocator>),
    Learned(Box<DrlAllocator>),
}

impl BuiltAllocator {
    fn as_dyn(&mut self) -> &mut dyn Allocator {
        match self {
            BuiltAllocator::Static(a) => a.as_mut(),
            BuiltAllocator::Learned(a) => a.as_mut(),
        }
    }

    fn stats(&self) -> Option<DrlStats> {
        match self {
            BuiltAllocator::Static(_) => None,
            BuiltAllocator::Learned(a) => Some(*a.stats()),
        }
    }

    fn set_learning(&mut self, on: bool) {
        if let BuiltAllocator::Learned(a) = self {
            a.set_learning(on);
        }
    }
}

/// A built local tier, mirroring [`BuiltAllocator`].
enum BuiltPower {
    Static(Box<dyn PowerManager>),
    Learned(Box<RlPowerManager>),
}

impl BuiltPower {
    fn as_dyn(&mut self) -> &mut dyn PowerManager {
        match self {
            BuiltPower::Static(p) => p.as_mut(),
            BuiltPower::Learned(p) => p.as_mut(),
        }
    }

    fn set_learning(&mut self, on: bool) {
        if let BuiltPower::Learned(p) = self {
            p.set_learning(on);
        }
    }
}

/// Builds one execution unit's control planes, pre-training learned tiers
/// first (memoized) against the unit's share of the evaluation stream,
/// `eval_jobs`.
fn build_policy(
    scenario: &Scenario,
    ctx: &RunContext,
    cluster: &ClusterConfig,
    seeds: &LearnerSeeds,
    eval_jobs: u64,
) -> Result<(BuiltAllocator, BuiltPower), String> {
    let segments = |budget: &Pretrain| {
        budget.segment_specs(
            cluster.num_servers,
            eval_jobs,
            &scenario.workload,
            seeds.policy_seed,
        )
    };
    match &scenario.policy {
        PolicySpec::Static {
            allocator, power, ..
        } => Ok((
            BuiltAllocator::Static(allocator.build(cluster.num_servers, cluster.resource_dims)),
            BuiltPower::Static(power.build(cluster)),
        )),
        PolicySpec::DrlOnly { pretrain: budget }
        | PolicySpec::DrlVariant {
            pretrain: budget, ..
        } => {
            let drl = seeds.drl.as_ref().expect("learned policy has DRL config");
            let trained = pretrain(ctx, cluster, &segments(budget), drl, &None)?;
            Ok((
                BuiltAllocator::Learned(Box::new(DrlAllocator::from_snapshot(trained.drl))),
                BuiltPower::Static(Box::new(SleepImmediatelyPower)),
            ))
        }
        PolicySpec::DrlTimeout {
            timeout_s,
            pretrain: budget,
        } => {
            let drl = seeds.drl.as_ref().expect("learned policy has DRL config");
            let trained = pretrain(ctx, cluster, &segments(budget), drl, &None)?;
            Ok((
                BuiltAllocator::Learned(Box::new(DrlAllocator::from_snapshot(trained.drl))),
                BuiltPower::Static(Box::new(FixedTimeoutPower::new(*timeout_s))),
            ))
        }
        PolicySpec::Hierarchical {
            pretrain: budget,
            co_pretrain,
            ..
        } => {
            let drl = seeds.drl.as_ref().expect("learned policy has DRL config");
            let trained = pretrain(ctx, cluster, &segments(budget), drl, &seeds.co_dpm)?;
            let dpm_config = seeds.dpm.clone().expect("hierarchical has a DPM config");
            // Co-pre-trained cells restore the trained local tier; Fig. 10
            // cells start it fresh so every operating point shares the one
            // pre-trained global tier.
            let dpm = match trained.dpm {
                Some(snapshot) if *co_pretrain => {
                    RlPowerManager::from_snapshot_for_cluster(cluster, snapshot)
                }
                _ => RlPowerManager::for_cluster(cluster, dpm_config),
            };
            Ok((
                BuiltAllocator::Learned(Box::new(DrlAllocator::from_snapshot(trained.drl))),
                BuiltPower::Learned(Box::new(dpm)),
            ))
        }
    }
}

/// Runs one execution unit — a single-cluster cell's whole fleet, or one
/// shard of a multi-cluster cell — over its evaluation segments (one for
/// non-drift cells), carrying the learners across segment boundaries with
/// online training continuing, or frozen after pre-training for ablation
/// cells. Fully self-contained: everything derives from the unit's
/// `seeds`, so units can run on any thread in any order.
fn run_unit(
    scenario: &Scenario,
    ctx: &RunContext,
    unit: usize,
    seeds: &LearnerSeeds,
    traces: &[Arc<Trace>],
    elastic: &[ElasticSchedule],
    name: &str,
) -> Result<ShardRun, String> {
    let started = Instant::now(); // lint:allow(wall-clock): timing feeds BenchReport only, never SuiteReport
    let cluster = &scenario.topology.clusters()[unit];
    // The unit's share of the evaluation stream sizes its pre-training.
    let eval_jobs = scenario
        .workload
        .shard_jobs_for(cluster.num_servers, scenario.topology.servers());
    // Elastic cells run (and pre-train) against the headroom config, so
    // mid-run joins have slots and learners size their padded width from
    // the same `effective_max`. Pre-training itself stays membership-free,
    // like it stays fault-free: schedules apply only at evaluation.
    let headroom = scenario
        .elastic
        .as_ref()
        .map(|spec| spec.cluster_with_headroom(cluster));
    let cluster = headroom.as_ref().unwrap_or(cluster);
    let (mut allocator, mut power) = build_policy(scenario, ctx, cluster, seeds, eval_jobs)?;
    if !scenario.online_learning() {
        allocator.set_learning(false);
        power.set_learning(false);
    }
    let traces: Vec<&Trace> = traces.iter().map(Arc::as_ref).collect();
    // Per segment, lower the chaos axis (if any) against *this unit's*
    // cluster size and segment span, from the unit's own fault seed, then
    // merge the unit's pre-lowered elastic schedule behind the fault
    // events: a stable sort keeps fault ops ahead of membership ops at
    // equal times, deterministically. Pre-training above stays fault-free
    // — the paper's learners train on healthy fleets and meet faults only
    // at evaluation (and pre-train cache keys stay stable across the
    // fault axis).
    let fleet_events: Vec<Vec<(f64, FleetOp)>> = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let mut events = match (&scenario.fault, trace.jobs().last()) {
                (Some(fault), Some(last)) => fault.lower(
                    seeds.fault_seed,
                    cluster.num_servers,
                    last.arrival.as_secs(),
                ),
                // No fault axis, or an empty segment (possible for a small
                // shard's share) with no span to schedule against.
                _ => Vec::new(),
            };
            if let Some(schedule) = elastic.get(i) {
                events.extend(schedule.events.iter().cloned());
                events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("event times are finite"));
            }
            events
        })
        .collect();
    let experiment = SegmentedExperiment::new(name, cluster, &traces)
        .with_limit(scenario.run_limit())
        .with_fleet_events(&fleet_events);
    let mut segments: Vec<SegmentRun> = Vec::with_capacity(traces.len());
    for (i, trace) in traces.iter().enumerate() {
        let started = Instant::now(); // lint:allow(wall-clock): timing feeds BenchReport only, never SuiteReport
        let result = experiment.run_segment(i, allocator.as_dyn(), power.as_dyn())?;
        segments.push(SegmentRun {
            segment: i,
            shift: scenario.segment_label(i),
            jobs_routed: trace.len() as u64,
            drl_stats: allocator.stats(),
            wall_s: started.elapsed().as_secs_f64(),
            result,
        });
    }
    let result = if scenario.drift.is_some() {
        let refs: Vec<&ExperimentResult> = segments.iter().map(|s| &s.result).collect();
        concat_segments(name, &refs)
    } else {
        segments[0].result.clone()
    };
    Ok(ShardRun {
        shard: ShardResult {
            cluster: unit,
            servers: cluster.num_servers,
            jobs_routed: segments.iter().map(|s| s.jobs_routed).sum(),
            result,
        },
        drl_stats: allocator.stats(),
        segments,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Fleet-level view of per-unit learner statistics: counters sum, losses
/// weight by decision count, and the autoencoder flag ANDs across units.
fn merge_drl_stats(per_unit: impl IntoIterator<Item = Option<DrlStats>>) -> Option<DrlStats> {
    let stats: Vec<DrlStats> = per_unit.into_iter().flatten().collect();
    if stats.is_empty() {
        return None;
    }
    let decisions: u64 = stats.iter().map(|s| s.decisions).sum();
    let weight = |s: &DrlStats| s.decisions as f64 / decisions.max(1) as f64;
    Some(DrlStats {
        decisions,
        train_steps: stats.iter().map(|s| s.train_steps).sum(),
        loss_ema: stats.iter().map(|s| weight(s) * s.loss_ema).sum(),
        autoencoder_trained: stats.iter().all(|s| s.autoencoder_trained),
        autoencoder_loss: stats.iter().map(|s| weight(s) * s.autoencoder_loss).sum(),
    })
}

/// Resolves a cell's evaluation segments. Synthetic workloads materialize
/// their deterministic generator recipes through the shared [`TraceCache`];
/// real-trace workloads parse their file (memoized per source), apply the
/// configured job cap, pass the [`ParseStats`] demand gate — falling back
/// to seeded synthetic demands over the file's arrival process when too
/// many demand columns were defaulted — and, on the drift axis, split into
/// wall-clock windows so segment boundaries follow the *trace's* regime
/// changes rather than a generator schedule.
fn resolve_cell_traces(
    scenario: &Scenario,
    ctx: &RunContext,
) -> Result<(Vec<Arc<Trace>>, Option<TraceProvenance>), String> {
    let Some(source) = scenario.workload.real_source() else {
        let traces = scenario
            .segment_trace_specs()
            .iter()
            .map(|spec| ctx.traces.get(spec))
            .collect::<Result<_, _>>()?;
        return Ok((traces, None));
    };
    let parsed = ctx.load_real(&source)?;
    let (full, stats) = (&parsed.0, parsed.1);
    // The workload's job cap truncates the arrival stream itself — before
    // gating and segmentation — so capped cells agree between the
    // single-cluster and sharded execution paths.
    let cap = scenario.workload.jobs_for(scenario.topology.servers()) as usize;
    let mut trace = if cap > 0 && cap < full.len() {
        Trace::new(full.jobs()[..cap].to_vec())
            .map_err(|e| format!("{}: capped to {cap} jobs: {e}", source.label()))?
    } else {
        (*full).clone()
    };
    // Demand gate: the file's demand columns are only trusted when the
    // defaulted fraction stays under the cell's threshold. Past it, keep
    // the arrival process but re-draw every demand vector from the cell's
    // trace seed (reported in the provenance block, and as a warning row
    // by the real-trace bin).
    let gate = scenario
        .workload
        .demand_gate()
        .expect("real workload has a demand gate");
    let synthetic_demand = stats.demand_defaulted as f64 / stats.jobs_kept.max(1) as f64 > gate;
    if synthetic_demand {
        trace = with_synthetic_demands(&trace, scenario.trace_seed());
    }
    let provenance = TraceProvenance {
        source: source.label(),
        format: source.format.name().to_string(),
        rows: stats.rows as u64,
        jobs_kept: stats.jobs_kept as u64,
        jobs_dropped: (stats.incomplete_dropped
            + stats.nonpositive_duration_dropped
            + stats.duration_filtered) as u64,
        demand_defaulted: stats.demand_defaulted as u64,
        synthetic_demand,
    };
    let traces = if scenario.drift.is_some() {
        trace
            .segments_by_wall_clock(scenario.workload.segment_window_s())
            .into_iter()
            .map(Arc::new)
            .collect()
    } else {
        vec![Arc::new(trace)]
    };
    Ok((traces, Some(provenance)))
}

/// Lowers one execution unit's elastic schedule for one segment: against
/// the segment's arrival span when it has one, degenerating to a fixed
/// fleet for empty segments (mirroring fault lowering).
fn lower_elastic(
    spec: &ElasticSpec,
    elastic_seed: u64,
    cluster: &ClusterConfig,
    jobs: &[Job],
    demand_share: f64,
) -> ElasticSchedule {
    match jobs.last() {
        None => ElasticSchedule::fixed(cluster.num_servers),
        Some(last) => spec.lower(
            elastic_seed,
            cluster.num_servers,
            cluster.resource_dims,
            jobs,
            last.arrival.as_secs(),
            demand_share,
        ),
    }
}

/// `(min, max, time-weighted mean)` of the summed scheduled live count
/// across one segment's per-unit schedules, over `[0, end_s]`: entries
/// at or after `end_s` are outside the window and count nowhere.
pub(crate) fn combined_size_stats(
    schedules: &[&ElasticSchedule],
    end_s: f64,
) -> (usize, usize, f64) {
    let initial: usize = schedules.iter().map(|s| s.sizes[0].1).sum();
    if end_s <= 0.0 {
        return (initial, initial, initial as f64);
    }
    let mut times: Vec<f64> = vec![0.0];
    for s in schedules {
        times.extend(
            s.sizes
                .iter()
                .skip(1)
                .map(|&(t, _)| t)
                .filter(|&t| t < end_s),
        );
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("schedule times are finite"));
    times.dedup();
    let (mut min, mut max, mut weighted) = (usize::MAX, 0usize, 0.0f64);
    for (i, &t) in times.iter().enumerate() {
        let next = times.get(i + 1).copied().unwrap_or(end_s);
        let n: usize = schedules.iter().map(|s| s.size_at(t)).sum();
        min = min.min(n);
        max = max.max(n);
        weighted += n as f64 * (next - t);
    }
    (min, max, weighted / end_s)
}

/// The cell's fleet-size envelope from its lowered schedules: units sum
/// on their shared clock within a segment, segments weight by their
/// arrival spans. Fixed-fleet cells (`per_unit` empty) report the constant
/// topology size.
fn fleet_size_for(
    m_total: usize,
    per_unit: &[Vec<ElasticSchedule>],
    streams: &[&[Job]],
) -> FleetSize {
    if per_unit.is_empty() {
        return FleetSize::fixed(m_total);
    }
    let (mut min, mut max) = (usize::MAX, 0usize);
    let (mut weighted, mut total_span) = (0.0f64, 0.0f64);
    for (i, jobs) in streams.iter().enumerate() {
        let span = jobs.last().map_or(0.0, |j| j.arrival.as_secs());
        let schedules: Vec<&ElasticSchedule> = per_unit.iter().map(|s| &s[i]).collect();
        let (lo, hi, mean) = combined_size_stats(&schedules, span);
        min = min.min(lo);
        max = max.max(hi);
        weighted += mean * span.max(0.0);
        total_span += span.max(0.0);
    }
    if total_span <= 0.0 {
        return FleetSize::fixed(m_total);
    }
    FleetSize {
        min,
        max,
        mean: weighted / total_span,
    }
}

/// Splits every segment of a multi-cluster cell's stream across its units:
/// under static capacity weights for fixed fleets; for elastic cells,
/// under a piecewise-constant weight timeline that scales each unit's
/// weight with its scheduled live count.
fn route(
    router: RouterPolicy,
    clusters: &[ClusterConfig],
    weights: &[f64],
    streams: &[&[Job]],
    elastic: &[Vec<ElasticSchedule>],
) -> Result<Vec<Vec<Arc<Trace>>>, String> {
    let mut per_unit: Vec<Vec<Arc<Trace>>> = vec![Vec::new(); clusters.len()];
    for (i, stream) in streams.iter().enumerate() {
        let mut times: Vec<f64> = vec![0.0];
        for schedules in elastic {
            times.extend(schedules[i].sizes.iter().skip(1).map(|&(t, _)| t));
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("schedule times are finite"));
        times.dedup();
        let epochs: Vec<(f64, Vec<f64>)> = times
            .iter()
            .map(|&t| {
                let w = (0..clusters.len())
                    .map(|k| match elastic.get(k) {
                        None => weights[k],
                        Some(s) => {
                            s[i].size_at(t) as f64 * weights[k] / clusters[k].num_servers as f64
                        }
                    })
                    .collect();
                (t, w)
            })
            .collect();
        let routed = Router::split_epochs(router, &epochs, stream);
        for (k, jobs) in routed.into_iter().enumerate() {
            let trace =
                Trace::new(jobs).map_err(|e| format!("shard {k} segment {i} trace: {e}"))?;
            per_unit[k].push(Arc::new(trace));
        }
    }
    Ok(per_unit)
}

fn run_cell(scenario: &Scenario, ctx: &RunContext) -> Result<CellRun, String> {
    let started = Instant::now(); // lint:allow(wall-clock): timing feeds BenchReport only, never SuiteReport
    let (mut traces, provenance) = resolve_cell_traces(scenario, ctx)?;
    // Arrival-spike fault shapes extend the evaluation stream itself, so
    // they inject here — before routing — from the *cell-level* fault
    // seed, and every unit sees its share of the same merged stream.
    if let Some(fault) = scenario.fault.as_ref().filter(|f| f.has_spikes()) {
        let fault_seed = scenario.fault_seed();
        traces = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| {
                let template = trace.jobs();
                let span = template.last().map_or(0.0, |j| j.arrival.as_secs());
                // Per-segment spike sub-stream, disjoint from the shape
                // streams `lower` draws from (0x200 + i vs 0..shapes).
                let spikes =
                    fault.spike_jobs(mix_seed(fault_seed, 0x200 + i as u64), template, span);
                let mut jobs = template.to_vec();
                jobs.extend(spikes);
                Trace::from_unsorted(jobs)
                    .map(Arc::new)
                    .map_err(|e| format!("segment {i} spike merge: {e}"))
            })
            .collect::<Result<_, _>>()?;
    }
    let name = scenario.policy.name();
    let clusters = scenario.topology.clusters();
    let multi = scenario.topology.is_multi_cluster();
    let seeds: Vec<LearnerSeeds> = (0..clusters.len())
        .map(|k| scenario.learner_seeds(scenario.unit_root(k)))
        .collect();
    // Weigh units by aggregate capacity (server count for unit-capacity
    // fleets), so a cluster of two 2x servers outweighs one of three
    // little machines.
    let weights: Vec<f64> = clusters.iter().map(ClusterConfig::routing_weight).collect();
    let total_weight: f64 = weights.iter().sum();
    // A multi-cluster cell truncates each segment's arrivals to `max_jobs`
    // before routing (see module docs).
    let streams: Vec<&[Job]> = traces
        .iter()
        .map(|trace| {
            let jobs = trace.jobs();
            match scenario.max_jobs.filter(|_| multi) {
                Some(n) => &jobs[..jobs.len().min(n as usize)],
                None => jobs,
            }
        })
        .collect();
    // Elastic cells lower every unit's membership trajectory *before*
    // routing, from the cell stream scaled by the unit's capacity share —
    // feed-forward, so the router can re-derive capacity weights at the
    // scheduled membership boundaries without observing live state.
    let elastic: Vec<Vec<ElasticSchedule>> = match &scenario.elastic {
        None => Vec::new(),
        Some(spec) => (0..clusters.len())
            .map(|k| {
                streams
                    .iter()
                    .map(|jobs| {
                        let share = weights[k] / total_weight;
                        lower_elastic(spec, seeds[k].elastic_seed, &clusters[k], jobs, share)
                    })
                    .collect()
            })
            .collect(),
    };
    let fleet_size = fleet_size_for(scenario.topology.servers(), &elastic, &streams);
    // A single-cluster unit takes the whole stream, borrowing the cached
    // traces; shards take their routed share.
    let unit_traces = match scenario.topology.router() {
        None => vec![traces.clone()],
        Some(router) => route(router, clusters, &weights, &streams, &elastic)?,
    };

    // Intra-cell unit parallelism: each unit simulates on its own worker
    // thread (running its segments sequentially under carried learners);
    // the rayon shim returns results in input (unit) order, so the merge
    // below is schedule-independent.
    let work: Vec<(usize, Vec<Arc<Trace>>)> = unit_traces.into_iter().enumerate().collect();
    let outcomes: Vec<Result<ShardRun, String>> = work
        .into_par_iter()
        .map(|(k, unit_traces)| {
            let elastic = elastic.get(k).map_or(&[][..], Vec::as_slice);
            run_unit(scenario, ctx, k, &seeds[k], &unit_traces, elastic, &name)
        })
        .collect();
    let units = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Units share a clock within a segment (aggregate); segments run back
    // to back (concatenate).
    let mut segments: Vec<SegmentRun> = (0..traces.len())
        .map(|i| {
            let parts: Vec<ShardResult> = units
                .iter()
                .map(|u| ShardResult {
                    cluster: u.shard.cluster,
                    servers: u.shard.servers,
                    jobs_routed: u.segments[i].jobs_routed,
                    result: u.segments[i].result.clone(),
                })
                .collect();
            SegmentRun {
                segment: i,
                shift: scenario.segment_label(i),
                jobs_routed: parts.iter().map(|p| p.jobs_routed).sum(),
                drl_stats: merge_drl_stats(units.iter().map(|u| u.segments[i].drl_stats)),
                wall_s: units
                    .iter()
                    .map(|u| u.segments[i].wall_s)
                    .fold(0.0, f64::max),
                result: aggregate_shards(&name, &parts),
            }
        })
        .collect();
    // Gate on the drift axis, not the segment count: a (degenerate but
    // valid) single-segment drift cell must still report its segment row,
    // while non-drift cells keep the single-result shape.
    let result = if scenario.drift.is_some() {
        let refs: Vec<&ExperimentResult> = segments.iter().map(|s| &s.result).collect();
        concat_segments(&name, &refs)
    } else {
        segments
            .pop()
            .expect("a non-drift cell has one segment")
            .result
    };
    let drl_stats = merge_drl_stats(units.iter().map(|u| u.drl_stats));
    // Only multi-cluster cells report per-cluster rows.
    let shards = if multi { units } else { Vec::new() };

    let wall_s = started.elapsed().as_secs_f64();
    let jobs = result.outcome.totals.jobs_completed;
    Ok(CellRun {
        scenario: scenario.clone(),
        result,
        drl_stats,
        segments,
        shards,
        fleet_size,
        provenance,
        timing: CellTiming {
            wall_s,
            jobs_per_s: jobs as f64 / wall_s.max(1e-9),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_one_units_learner_stats_reproduces_them() {
        let trained = DrlStats {
            decisions: 1500,
            train_steps: 550,
            loss_ema: 0.1 + 1.0 / 3.0,
            autoencoder_trained: true,
            autoencoder_loss: 0.03 + 1.0 / 7.0,
        };
        // A unit that has not decided yet weighs 0/1, not 1: the identity
        // still holds because such a unit has not trained either.
        let fresh = *DrlAllocator::new(4, 3, DrlAllocatorConfig::default()).stats();
        assert_eq!(fresh.decisions, 0);
        for stats in [trained, fresh] {
            assert_eq!(
                serde_json::to_string(&merge_drl_stats([Some(stats)])).unwrap(),
                serde_json::to_string(&Some(stats)).unwrap()
            );
        }
        assert!(merge_drl_stats([None]).is_none());
    }
}
