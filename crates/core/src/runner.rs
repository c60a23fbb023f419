//! Experiment runner: executes policy pairs on traces and collects the
//! metrics the paper reports (accumulated energy/latency curves, Table I
//! summaries, trade-off points).

use crate::allocator::DrlAllocator;
use crate::hierarchical::PolicyPair;
use hierdrl_sim::cluster::{Allocator, ArrivalSource, Cluster, PowerManager, RunLimit};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::events::FleetOp;
use hierdrl_sim::metrics::{ClusterTotals, LatencyStats, RunOutcome, SamplePoint};
use hierdrl_sim::policies::SleepImmediatelyPower;
use hierdrl_sim::time::SimTime;
use hierdrl_trace::trace::Trace;
use serde::{Deserialize, Serialize};

/// Fleet-level power behaviour summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Mean fraction of time servers spent busy.
    pub busy_fraction: f64,
    /// Mean fraction of time servers spent idle (on, no jobs).
    pub idle_fraction: f64,
    /// Mean fraction of time servers spent asleep.
    pub sleep_fraction: f64,
    /// Mean fraction of time servers spent in power transitions.
    pub transition_fraction: f64,
    /// Total sleep -> wake transitions across the fleet.
    pub total_wake_transitions: u64,
}

/// The result of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Policy name.
    pub name: String,
    /// Final totals and end time.
    pub outcome: RunOutcome,
    /// Latency distribution over completed jobs.
    pub latency: Option<LatencyStats>,
    /// Fleet power behaviour.
    pub fleet: FleetStats,
}

impl ExperimentResult {
    /// The accumulated-latency / energy curves (Figs. 8/9 series).
    pub fn samples(&self) -> &[SamplePoint] {
        &self.outcome.samples
    }

    /// Energy in kWh (Table I column 1).
    pub fn energy_kwh(&self) -> f64 {
        self.outcome.totals.energy_kwh()
    }

    /// Accumulated latency in units of 1e6 seconds (Table I column 2).
    pub fn latency_mega_s(&self) -> f64 {
        self.outcome.totals.total_latency_s / 1e6
    }

    /// Average power in watts (Table I column 3).
    pub fn average_power_w(&self) -> f64 {
        self.outcome.totals.average_power_watts()
    }

    /// Average latency per job, seconds (Fig. 10 y-axis).
    pub fn mean_latency_s(&self) -> f64 {
        self.outcome.totals.mean_latency_s()
    }

    /// Average energy per job, joules (Fig. 10 x-axis).
    pub fn energy_per_job_j(&self) -> f64 {
        self.outcome.totals.energy_per_job_joules()
    }
}

fn fleet_stats(cluster: &Cluster) -> FleetStats {
    let mut f = FleetStats::default();
    let n = cluster.servers().len() as f64;
    for s in cluster.servers() {
        let st = s.stats();
        let total = (st.busy_seconds + st.idle_seconds + st.sleep_seconds + st.transition_seconds)
            .max(1e-9);
        f.busy_fraction += st.busy_seconds / total / n;
        f.idle_fraction += st.idle_seconds / total / n;
        f.sleep_fraction += st.sleep_seconds / total / n;
        f.transition_fraction += st.transition_seconds / total / n;
        f.total_wake_transitions += st.wake_transitions;
    }
    f
}

/// A single, reusable experiment definition: one cluster configuration and
/// one workload trace, executable under any control-plane pair.
///
/// This is the entry point the experiment-orchestration layer
/// (`hierdrl-exp`) drives: a suite cell borrows its (possibly cached) trace
/// and cluster config, builds an `Experiment`, and runs whichever policies
/// the scenario names. The historical free functions
/// [`run_experiment`]/[`run_policies`] are thin wrappers around it.
///
/// # Examples
///
/// ```
/// use hierdrl_core::prelude::*;
/// use hierdrl_sim::prelude::*;
/// use hierdrl_trace::prelude::*;
///
/// let cluster = ClusterConfig::paper(4);
/// let trace = TraceGenerator::new(WorkloadConfig::google_like(1, 95_000.0))?
///     .generate_n(100);
///
/// let experiment = Experiment::new("demo", &cluster, &trace);
/// let result = experiment.run_pair(&PolicyPair::round_robin_baseline())?;
/// assert_eq!(result.outcome.totals.jobs_completed, 100);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Experiment<'a> {
    /// Display name attached to results.
    pub name: &'a str,
    /// Cluster under test.
    pub cluster: &'a ClusterConfig,
    /// Workload to replay.
    pub trace: &'a Trace,
    /// Bounds on the run.
    pub limit: RunLimit,
    /// Deterministic fault schedule: `(time_s, op)` fleet events injected
    /// into the cluster before the run starts, fired between arrivals.
    pub fleet_events: &'a [(f64, FleetOp)],
}

impl<'a> Experiment<'a> {
    /// An unbounded experiment over the given cluster and trace.
    pub fn new(name: &'a str, cluster: &'a ClusterConfig, trace: &'a Trace) -> Self {
        Self {
            name,
            cluster,
            trace,
            limit: RunLimit::unbounded(),
            fleet_events: &[],
        }
    }

    /// Replaces the run limit.
    #[must_use]
    pub fn with_limit(mut self, limit: RunLimit) -> Self {
        self.limit = limit;
        self
    }

    /// Attaches a pre-computed fleet-event (fault) schedule. Events are
    /// pushed into the cluster's queue before the run and fire at their
    /// scheduled times, interleaved deterministically with arrivals.
    #[must_use]
    pub fn with_fleet_events(mut self, events: &'a [(f64, FleetOp)]) -> Self {
        self.fleet_events = events;
        self
    }

    /// Runs pre-built policy objects, leaving them trained afterwards.
    ///
    /// # Errors
    ///
    /// Returns an error if the cluster configuration or trace is invalid.
    pub fn run(
        &self,
        allocator: &mut dyn Allocator,
        power: &mut dyn PowerManager,
    ) -> Result<ExperimentResult, String> {
        let mut cluster = Cluster::new(self.cluster.clone(), self.trace.jobs().to_vec())?;
        for (time_s, op) in self.fleet_events {
            cluster.schedule_fleet_op(SimTime::from_secs(*time_s), op.clone());
        }
        let outcome = cluster.run(allocator, power, self.limit);
        Ok(ExperimentResult {
            name: self.name.to_string(),
            latency: LatencyStats::from_jobs(cluster.completed_jobs()),
            fleet: fleet_stats(&cluster),
            outcome,
        })
    }

    /// Builds fresh policy objects from a [`PolicyPair`] and runs them.
    ///
    /// # Errors
    ///
    /// Returns an error if the cluster configuration or trace is invalid.
    pub fn run_pair(&self, pair: &PolicyPair) -> Result<ExperimentResult, String> {
        let mut allocator = pair
            .allocator
            .build(self.cluster.num_servers, self.cluster.resource_dims);
        let mut power = pair.power.build(self.cluster);
        Experiment {
            name: &pair.name,
            ..*self
        }
        .run(allocator.as_mut(), power.as_mut())
    }
}

/// An ordered sequence of workload segments run under *one* set of policy
/// objects — the online-learning / concept-drift entry point. Learners are
/// carried across segment boundaries (continuing online training on a
/// drifting stream), while the *cluster* restarts fresh each segment with
/// its clock at zero, exactly like the paper's week-scale trace segments.
///
/// The segment boundary is a bug-prone seam: any policy state anchored to
/// the previous segment's clock (pending transitions, last-arrival marks
/// feeding inter-arrival predictors) must be dropped at segment start, or
/// the learner fabricates a cross-segment interval. The simulator enforces
/// this through the `on_run_begin`/`on_run_end` hooks on both control
/// traits.
///
/// # Examples
///
/// ```
/// use hierdrl_core::prelude::*;
/// use hierdrl_sim::prelude::*;
/// use hierdrl_trace::prelude::*;
///
/// let cluster = ClusterConfig::paper(3);
/// let segments: Vec<Trace> = (0..2)
///     .map(|s| {
///         TraceGenerator::new(WorkloadConfig::google_like(s, 60_000.0))
///             .unwrap()
///             .generate_n(80)
///     })
///     .collect();
/// let refs: Vec<&Trace> = segments.iter().collect();
///
/// let mut allocator = hierdrl_sim::policies::RoundRobinAllocator::new();
/// let mut power = hierdrl_sim::policies::SleepImmediatelyPower;
/// let results = SegmentedExperiment::new("demo", &cluster, &refs)
///     .run(&mut allocator, &mut power)?;
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].outcome.totals.jobs_completed, 80);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SegmentedExperiment<'a> {
    /// Display name attached to every segment's result.
    pub name: &'a str,
    /// Cluster under test (rebuilt fresh for each segment).
    pub cluster: &'a ClusterConfig,
    /// The workload segments, in drift order.
    pub segments: &'a [&'a Trace],
    /// Bounds applied to *each* segment's run.
    pub limit: RunLimit,
    /// Per-segment fault schedules (each on its own segment clock, which
    /// restarts at zero). Segments past the end of this list run fault-free,
    /// so `&[]` means no faults anywhere.
    pub fleet_events: &'a [Vec<(f64, FleetOp)>],
}

impl<'a> SegmentedExperiment<'a> {
    /// An unbounded segmented experiment.
    pub fn new(name: &'a str, cluster: &'a ClusterConfig, segments: &'a [&'a Trace]) -> Self {
        Self {
            name,
            cluster,
            segments,
            limit: RunLimit::unbounded(),
            fleet_events: &[],
        }
    }

    /// Replaces the per-segment run limit.
    #[must_use]
    pub fn with_limit(mut self, limit: RunLimit) -> Self {
        self.limit = limit;
        self
    }

    /// Attaches per-segment fault schedules; entry `i` fires during segment
    /// `i` on that segment's own clock.
    #[must_use]
    pub fn with_fleet_events(mut self, events: &'a [Vec<(f64, FleetOp)>]) -> Self {
        self.fleet_events = events;
        self
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether there are no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Runs segment `index` on the carried policy objects, leaving them
    /// trained (and ready for the next segment) afterwards. Drivers that
    /// need to interleave bookkeeping between segments (per-segment stats
    /// snapshots, timing) call this in a loop; everyone else uses
    /// [`SegmentedExperiment::run`].
    ///
    /// # Errors
    ///
    /// Returns an error if the cluster configuration or segment trace is
    /// invalid.
    pub fn run_segment(
        &self,
        index: usize,
        allocator: &mut dyn Allocator,
        power: &mut dyn PowerManager,
    ) -> Result<ExperimentResult, String> {
        Experiment::new(self.name, self.cluster, self.segments[index])
            .with_limit(self.limit)
            .with_fleet_events(self.fleet_events.get(index).map_or(&[], Vec::as_slice))
            .run(allocator, power)
            .map_err(|e| format!("segment {index}: {e}"))
    }

    /// Runs every segment in order on the carried policy objects,
    /// continuing online training across boundaries, and returns the
    /// per-segment results.
    ///
    /// # Errors
    ///
    /// Returns the first failing segment's error.
    pub fn run(
        &self,
        allocator: &mut dyn Allocator,
        power: &mut dyn PowerManager,
    ) -> Result<Vec<ExperimentResult>, String> {
        (0..self.segments.len())
            .map(|i| self.run_segment(i, allocator, power))
            .collect()
    }
}

/// Concatenates per-segment results into one whole-run
/// [`ExperimentResult`], sequentially in time: each segment restarts its
/// clock at zero, so spans and accumulated quantities *sum* (unlike
/// [`aggregate_shards`], whose shards share one clock and take the max
/// span). Sample curves are re-offset by the cumulative time and totals of
/// preceding segments, producing one continuous accumulated curve across
/// the whole drift. Latency percentiles merge job-count-weighted (the same
/// approximation as shard aggregation); fleet fractions weight by segment
/// span.
///
/// # Panics
///
/// Panics if `segments` is empty.
pub fn concat_segments(name: &str, segments: &[&ExperimentResult]) -> ExperimentResult {
    assert!(!segments.is_empty(), "concat needs >= 1 segment");
    let mut totals = ClusterTotals::default();
    let mut samples: Vec<SamplePoint> = Vec::new();
    let mut fleet = FleetStats::default();
    let mut end_s = 0.0;
    let total_span: f64 = segments
        .iter()
        .map(|s| s.outcome.totals.time_s)
        .sum::<f64>()
        .max(1e-9);
    for seg in segments {
        let t = &seg.outcome.totals;
        // Offsets *before* accumulating this segment: its samples continue
        // the curve from where the previous segment left off.
        for p in &seg.outcome.samples {
            samples.push(SamplePoint {
                jobs_completed: totals.jobs_completed + p.jobs_completed,
                time_s: end_s + p.time_s,
                total_latency_s: totals.total_latency_s + p.total_latency_s,
                energy_joules: totals.energy_joules + p.energy_joules,
            });
        }
        totals.time_s += t.time_s;
        totals.power_watts = t.power_watts; // instantaneous: last segment's
        add_totals(&mut totals, t);
        end_s += seg.outcome.end_time.as_secs();
        add_fleet(&mut fleet, t.time_s / total_span, &seg.fleet);
    }

    ExperimentResult {
        name: name.to_string(),
        outcome: RunOutcome {
            totals,
            end_time: SimTime::from_secs(end_s),
            samples,
        },
        latency: merge_latency(segments.iter().copied()),
        fleet,
    }
}

/// Folds the additive accumulators of `t` into `totals`. The span and the
/// instantaneous power are left to the caller: segments run back to back
/// (spans sum) while shards share one clock (the span is the longest).
fn add_totals(totals: &mut ClusterTotals, t: &ClusterTotals) {
    totals.energy_joules += t.energy_joules;
    totals.vm_time_integral += t.vm_time_integral;
    totals.queue_time_integral += t.queue_time_integral;
    totals.overload_integral += t.overload_integral;
    totals.jobs_arrived += t.jobs_arrived;
    totals.jobs_completed += t.jobs_completed;
    totals.total_latency_s += t.total_latency_s;
    totals.jobs_requeued += t.jobs_requeued;
}

/// Adds one part's fleet fractions into `fleet` at weight `w` (the part's
/// share of the merged span or of the merged servers); wake transitions
/// are counts and sum unweighted.
fn add_fleet(fleet: &mut FleetStats, w: f64, f: &FleetStats) {
    fleet.busy_fraction += w * f.busy_fraction;
    fleet.idle_fraction += w * f.idle_fraction;
    fleet.sleep_fraction += w * f.sleep_fraction;
    fleet.transition_fraction += w * f.transition_fraction;
    fleet.total_wake_transitions += f.total_wake_transitions;
}

/// Merges per-part latency summaries, weighting each part's mean and
/// percentiles by its completed jobs. Percentiles of a mixture cannot be
/// recovered from per-part summaries, so the merged ones are an
/// approximation; `None` when no part carries a summary.
fn merge_latency<'a>(
    parts: impl IntoIterator<Item = &'a ExperimentResult>,
) -> Option<LatencyStats> {
    let with_latency: Vec<(u64, LatencyStats)> = parts
        .into_iter()
        .filter_map(|r| r.latency.map(|l| (r.outcome.totals.jobs_completed, l)))
        .collect();
    let jobs_with_latency: u64 = with_latency.iter().map(|(n, _)| n).sum();
    (jobs_with_latency > 0).then(|| {
        let mut merged = LatencyStats {
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
        };
        for (jobs, l) in &with_latency {
            let w = *jobs as f64 / jobs_with_latency as f64;
            merged.count += l.count;
            merged.mean += w * l.mean;
            merged.p50 += w * l.p50;
            merged.p95 += w * l.p95;
            merged.p99 += w * l.p99;
            merged.max = merged.max.max(l.max);
        }
        merged
    })
}

/// Runs pre-built policy objects on a trace. Useful when the caller owns a
/// pre-trained learner and wants to keep it afterwards.
///
/// # Errors
///
/// Returns an error if the cluster configuration or trace is invalid.
pub fn run_policies(
    name: &str,
    cluster_config: &ClusterConfig,
    trace: &Trace,
    allocator: &mut dyn Allocator,
    power: &mut dyn PowerManager,
    limit: RunLimit,
) -> Result<ExperimentResult, String> {
    Experiment::new(name, cluster_config, trace)
        .with_limit(limit)
        .run(allocator, power)
}

/// Runs a policy pair over a *streamed* arrival source — the raw-scale
/// twin of [`run_policies`]. The cluster pulls jobs lazily from `arrivals`
/// (e.g. a `GeneratorStream` wrapped in
/// [`ArrivalSource::from_stream`](hierdrl_sim::cluster::ArrivalSource)),
/// so no materialized `Vec<Job>` ever exists; combined with
/// `lazy_accounting` and `retain_completed_jobs = false` on the cluster
/// config, peak memory is bounded by the fleet size, not the trace length.
///
/// With retention off the result's `latency` percentiles are `None`
/// (per-job records were never kept); aggregate totals, the latency *sum*,
/// and the sample curves are unaffected.
///
/// # Errors
///
/// Returns an error if the cluster configuration is invalid.
pub fn run_streamed(
    name: &str,
    cluster_config: &ClusterConfig,
    arrivals: ArrivalSource,
    allocator: &mut dyn Allocator,
    power: &mut dyn PowerManager,
    limit: RunLimit,
) -> Result<ExperimentResult, String> {
    let mut cluster = Cluster::from_source(cluster_config.clone(), arrivals)?;
    let outcome = cluster.run(allocator, power, limit);
    Ok(ExperimentResult {
        name: name.to_string(),
        latency: LatencyStats::from_jobs(cluster.completed_jobs()),
        fleet: fleet_stats(&cluster),
        outcome,
    })
}

/// Runs a [`PolicyPair`] on a trace, building fresh policy objects.
///
/// # Errors
///
/// Returns an error if the cluster configuration or trace is invalid.
pub fn run_experiment(
    pair: &PolicyPair,
    cluster_config: &ClusterConfig,
    trace: &Trace,
    limit: RunLimit,
) -> Result<ExperimentResult, String> {
    Experiment::new(&pair.name, cluster_config, trace)
        .with_limit(limit)
        .run_pair(pair)
}

/// One cluster's share of a multi-cluster cell: the shard index within the
/// topology, the cluster's size, how many jobs the front-end router sent
/// it, and the full result of simulating it in isolation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardResult {
    /// Shard index (position of the cluster in the topology).
    pub cluster: usize,
    /// Servers in this cluster.
    pub servers: usize,
    /// Jobs the front-end router assigned to this cluster.
    pub jobs_routed: u64,
    /// The shard's own experiment result.
    pub result: ExperimentResult,
}

/// Aggregates independent per-cluster shard results into one fleet-level
/// [`ExperimentResult`], deterministically.
///
/// Shards share an absolute time axis (the router preserves arrival
/// times), so accumulated quantities sum, the fleet span is the longest
/// shard span, and the sample curves merge by `(time, shard index)` into
/// one fleet-wide accumulated curve. Fleet fractions are weighted by
/// server count. Latency *percentiles* cannot be recovered from per-shard
/// summaries, so the merged [`LatencyStats`] weights each shard's
/// percentiles by its job count — an approximation; exact per-cluster
/// distributions remain in the shard results.
///
/// The instantaneous `power_watts` sums each shard's final snapshot.
/// Shards that drain early are frozen in their final machine states (the
/// event queue is empty, so nothing transitions afterwards), which makes
/// the sum the fleet's steady-state power at the merged end time; prefer
/// the energy-derived `average_power_watts()` for reporting.
///
/// # Panics
///
/// Panics if `shards` is empty — an empty topology is always a caller bug.
pub fn aggregate_shards(name: &str, shards: &[ShardResult]) -> ExperimentResult {
    assert!(!shards.is_empty(), "aggregate needs >= 1 shard");
    let mut totals = ClusterTotals::default();
    let mut end_time = SimTime::ZERO;
    for shard in shards {
        let t = &shard.result.outcome.totals;
        totals.time_s = totals.time_s.max(t.time_s);
        totals.power_watts += t.power_watts;
        add_totals(&mut totals, t);
        if shard.result.outcome.end_time > end_time {
            end_time = shard.result.outcome.end_time;
        }
    }

    // Fleet-wide accumulated curves: a deterministic (time, shard) merge of
    // the per-shard curves, re-accumulated across shards at every point.
    let mut points: Vec<(usize, &SamplePoint)> = shards
        .iter()
        .enumerate()
        .flat_map(|(k, s)| s.result.outcome.samples.iter().map(move |p| (k, p)))
        .collect();
    points.sort_by(|(ka, a), (kb, b)| {
        a.time_s
            .partial_cmp(&b.time_s)
            .expect("sample times are finite")
            .then(ka.cmp(kb))
    });
    let mut last: Vec<SamplePoint> = vec![
        SamplePoint {
            jobs_completed: 0,
            time_s: 0.0,
            total_latency_s: 0.0,
            energy_joules: 0.0,
        };
        shards.len()
    ];
    let samples = points
        .into_iter()
        .map(|(k, p)| {
            last[k] = *p;
            SamplePoint {
                jobs_completed: last.iter().map(|q| q.jobs_completed).sum(),
                time_s: p.time_s,
                total_latency_s: last.iter().map(|q| q.total_latency_s).sum(),
                energy_joules: last.iter().map(|q| q.energy_joules).sum(),
            }
        })
        .collect();

    let total_servers: usize = shards.iter().map(|s| s.servers).sum();
    let mut fleet = FleetStats::default();
    for shard in shards {
        let w = shard.servers as f64 / total_servers.max(1) as f64;
        add_fleet(&mut fleet, w, &shard.result.fleet);
    }

    ExperimentResult {
        name: name.to_string(),
        outcome: RunOutcome {
            totals,
            end_time,
            samples,
        },
        latency: merge_latency(shards.iter().map(|s| &s.result)),
        fleet,
    }
}

/// Offline pre-training of a DRL allocator (Section VII-A): epsilon-greedy
/// rollouts over several workload segments, filling the experience memory,
/// pre-training the autoencoder, and fitting the DNN. The paper uses
/// workload traces for five different clusters.
///
/// Rollouts pair the allocator with the ad-hoc sleep-immediately local
/// behaviour so the learned Q function reflects wake penalties.
///
/// # Errors
///
/// Returns an error if any rollout fails to construct.
pub fn pretrain_drl(
    allocator: &mut DrlAllocator,
    cluster_config: &ClusterConfig,
    segments: &[Trace],
) -> Result<(), String> {
    pretrain_pair(
        allocator,
        &mut SleepImmediatelyPower,
        cluster_config,
        segments,
    )
}

/// Offline pre-training of an (allocator, power manager) pair over several
/// workload segments. Used to co-train the hierarchical framework's two
/// tiers before evaluation, so the global tier's learned values reflect the
/// local tier's timeout behaviour and vice versa.
///
/// # Errors
///
/// Returns an error if any rollout fails to construct.
pub fn pretrain_pair(
    allocator: &mut dyn Allocator,
    power: &mut dyn PowerManager,
    cluster_config: &ClusterConfig,
    segments: &[Trace],
) -> Result<(), String> {
    for segment in segments {
        let mut cluster = Cluster::new(cluster_config.clone(), segment.jobs().to_vec())?;
        cluster.run(allocator, power, RunLimit::unbounded());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::DrlAllocatorConfig;
    use hierdrl_trace::generator::{TraceGenerator, WorkloadConfig};

    fn small_trace(seed: u64, n: usize) -> Trace {
        let config = WorkloadConfig::google_like(seed, 95_000.0);
        TraceGenerator::new(config).unwrap().generate_n(n)
    }

    #[test]
    fn round_robin_experiment_completes() {
        let trace = small_trace(1, 300);
        let result = run_experiment(
            &PolicyPair::round_robin_baseline(),
            &ClusterConfig::paper(5),
            &trace,
            RunLimit::unbounded(),
        )
        .unwrap();
        assert_eq!(result.outcome.totals.jobs_completed, 300);
        assert!(result.energy_kwh() > 0.0);
        assert!(result.latency.is_some());
        // Always-on: no sleeping at all.
        assert_eq!(result.fleet.sleep_fraction, 0.0);
    }

    #[test]
    fn streamed_run_matches_materialized_run_bitwise() {
        use hierdrl_sim::policies::{FixedTimeoutPower, RoundRobinAllocator};

        let trace = small_trace(3, 400);
        let config = ClusterConfig::paper(5);
        let reference = run_policies(
            "rr",
            &config,
            &trace,
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(60.0),
            RunLimit::unbounded(),
        )
        .unwrap();

        let stream = hierdrl_trace::stream::TraceStream::new(std::sync::Arc::new(trace));
        let streamed = run_streamed(
            "rr",
            &config,
            ArrivalSource::from_stream(stream),
            &mut RoundRobinAllocator::new(),
            &mut FixedTimeoutPower::new(60.0),
            RunLimit::unbounded(),
        )
        .unwrap();

        assert_eq!(reference.outcome.totals, streamed.outcome.totals);
        assert_eq!(reference.outcome.end_time, streamed.outcome.end_time);
        assert_eq!(reference.outcome.samples, streamed.outcome.samples);
        assert_eq!(reference.latency, streamed.latency);
        assert_eq!(reference.fleet, streamed.fleet);
    }

    #[test]
    fn streamed_run_without_retention_keeps_aggregates() {
        use hierdrl_sim::policies::{AlwaysOnPower, RoundRobinAllocator};

        let trace = small_trace(4, 300);
        let config = ClusterConfig::paper(4);
        let reference = run_policies(
            "rr",
            &config,
            &trace,
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        )
        .unwrap();

        let mut raw = config.clone();
        raw.lazy_accounting = true;
        raw.retain_completed_jobs = false;
        let stream = hierdrl_trace::stream::TraceStream::new(std::sync::Arc::new(trace));
        let streamed = run_streamed(
            "rr",
            &raw,
            ArrivalSource::from_stream(stream),
            &mut RoundRobinAllocator::new(),
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        )
        .unwrap();

        // Counts are exact in the raw-scale configuration; percentiles are
        // unavailable because no per-job records were retained.
        assert_eq!(
            reference.outcome.totals.jobs_completed,
            streamed.outcome.totals.jobs_completed
        );
        assert_eq!(
            reference.outcome.totals.total_latency_s,
            streamed.outcome.totals.total_latency_s
        );
        assert!(streamed.latency.is_none());
        let rel = (reference.outcome.totals.energy_joules - streamed.outcome.totals.energy_joules)
            .abs()
            / reference.outcome.totals.energy_joules;
        assert!(rel < 1e-9, "lazy energy drifted by {rel}");
    }

    #[test]
    fn fleet_fractions_sum_to_one() {
        let trace = small_trace(2, 200);
        let pair = PolicyPair {
            name: "ff+timeout".into(),
            allocator: crate::hierarchical::AllocatorKind::FirstFit,
            power: crate::hierarchical::PowerKind::FixedTimeout(60.0),
        };
        let result = run_experiment(
            &pair,
            &ClusterConfig::paper(5),
            &trace,
            RunLimit::unbounded(),
        )
        .unwrap();
        let f = result.fleet;
        let sum = f.busy_fraction + f.idle_fraction + f.sleep_fraction + f.transition_fraction;
        assert!((sum - 1.0).abs() < 1e-6, "fractions sum to {sum}");
        assert!(f.sleep_fraction > 0.0, "consolidation should sleep servers");
    }

    #[test]
    fn pretraining_then_evaluation_reuses_learner() {
        let config = ClusterConfig::paper(4);
        let drl_config = DrlAllocatorConfig {
            warmup_decisions: 20,
            ae_pretrain_samples: 100,
            ae_epochs: 2,
            ..Default::default()
        };
        let mut allocator = DrlAllocator::new(4, 3, drl_config);

        let segments: Vec<Trace> = (0..2).map(|s| small_trace(10 + s, 150)).collect();
        pretrain_drl(&mut allocator, &config, &segments).unwrap();
        let trained_decisions = allocator.stats().decisions;
        assert_eq!(trained_decisions, 300);

        let eval = small_trace(99, 100);
        let result = run_policies(
            "drl-eval",
            &config,
            &eval,
            &mut allocator,
            &mut SleepImmediatelyPower,
            RunLimit::unbounded(),
        )
        .unwrap();
        assert_eq!(result.outcome.totals.jobs_completed, 100);
        assert_eq!(allocator.stats().decisions, trained_decisions + 100);
    }

    #[test]
    fn aggregating_one_shard_reproduces_it() {
        // A small sampling interval so the merged curve is non-trivial.
        let mut config = ClusterConfig::paper(4);
        config.sample_every = 40;
        let trace = small_trace(5, 150);
        let result = run_experiment(
            &PolicyPair::round_robin_baseline(),
            &config,
            &trace,
            RunLimit::unbounded(),
        )
        .unwrap();
        assert!(!result.outcome.samples.is_empty() && result.latency.is_some());
        let agg = aggregate_shards(
            &result.name,
            &[ShardResult {
                cluster: 0,
                servers: 4,
                jobs_routed: 150,
                result: result.clone(),
            }],
        );
        // A one-unit fleet is the unit itself, byte for byte.
        assert_eq!(
            serde_json::to_string(&agg).unwrap(),
            serde_json::to_string(&result).unwrap()
        );
    }

    #[test]
    fn aggregate_sums_totals_and_merges_curves() {
        let shards: Vec<ShardResult> = (0..3)
            .map(|k| {
                let mut config = ClusterConfig::paper(3);
                config.sample_every = 40;
                let trace = small_trace(20 + k as u64, 120);
                let result = run_experiment(
                    &PolicyPair::round_robin_baseline(),
                    &config,
                    &trace,
                    RunLimit::unbounded(),
                )
                .unwrap();
                ShardResult {
                    cluster: k,
                    servers: 3,
                    jobs_routed: 120,
                    result,
                }
            })
            .collect();
        let agg = aggregate_shards("fleet", &shards);

        assert_eq!(agg.outcome.totals.jobs_completed, 360);
        let energy: f64 = shards
            .iter()
            .map(|s| s.result.outcome.totals.energy_joules)
            .sum();
        assert!((agg.outcome.totals.energy_joules - energy).abs() < 1e-6);
        let end = shards
            .iter()
            .map(|s| s.result.outcome.end_time.as_secs())
            .fold(0.0, f64::max);
        assert_eq!(agg.outcome.end_time.as_secs(), end);

        // Merged curves stay monotone and end at the fleet totals.
        for w in agg.outcome.samples.windows(2) {
            assert!(w[1].time_s >= w[0].time_s);
            assert!(w[1].jobs_completed >= w[0].jobs_completed);
            assert!(w[1].energy_joules >= w[0].energy_joules);
        }
        let n_samples: usize = shards.iter().map(|s| s.result.outcome.samples.len()).sum();
        assert_eq!(agg.outcome.samples.len(), n_samples);

        // Fractions remain a partition of time (equal weights here).
        let f = agg.fleet;
        let sum = f.busy_fraction + f.idle_fraction + f.sleep_fraction + f.transition_fraction;
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn segmented_run_carries_the_learner_and_reports_per_segment() {
        let config = ClusterConfig::paper(4);
        let drl_config = DrlAllocatorConfig {
            warmup_decisions: 20,
            ae_pretrain_samples: 100,
            ae_epochs: 2,
            ..Default::default()
        };
        let mut allocator = DrlAllocator::new(4, 3, drl_config);
        let segments: Vec<Trace> = (0..3).map(|s| small_trace(30 + s, 120)).collect();
        let refs: Vec<&Trace> = segments.iter().collect();
        let results = SegmentedExperiment::new("drift", &config, &refs)
            .run(&mut allocator, &mut SleepImmediatelyPower)
            .unwrap();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(r.outcome.totals.jobs_completed, 120);
        }
        // Online training continued across every boundary: one decision
        // per job, accumulated over all segments.
        assert_eq!(allocator.stats().decisions, 360);
        assert!(allocator.stats().train_steps > 0);
    }

    #[test]
    fn concat_sums_time_sequentially_and_offsets_curves() {
        let mut config = ClusterConfig::paper(3);
        config.sample_every = 40;
        let results: Vec<ExperimentResult> = (0..2)
            .map(|k| {
                run_experiment(
                    &PolicyPair::round_robin_baseline(),
                    &config,
                    &small_trace(40 + k, 100),
                    RunLimit::unbounded(),
                )
                .unwrap()
            })
            .collect();
        let refs: Vec<&ExperimentResult> = results.iter().collect();
        let whole = concat_segments("drift", &refs);

        assert_eq!(whole.outcome.totals.jobs_completed, 200);
        let span: f64 = results.iter().map(|r| r.outcome.totals.time_s).sum();
        assert!((whole.outcome.totals.time_s - span).abs() < 1e-9);
        let ends: f64 = results.iter().map(|r| r.outcome.end_time.as_secs()).sum();
        assert!((whole.outcome.end_time.as_secs() - ends).abs() < 1e-9);
        let energy: f64 = results.iter().map(|r| r.outcome.totals.energy_joules).sum();
        assert!((whole.outcome.totals.energy_joules - energy).abs() < 1e-6);

        // The merged curve is one continuous accumulation: monotone in
        // time, jobs, and energy, with all points present.
        for w in whole.outcome.samples.windows(2) {
            assert!(w[1].time_s >= w[0].time_s);
            assert!(w[1].jobs_completed >= w[0].jobs_completed);
            assert!(w[1].energy_joules >= w[0].energy_joules);
        }
        let n: usize = results.iter().map(|r| r.outcome.samples.len()).sum();
        assert_eq!(whole.outcome.samples.len(), n);

        // Fractions stay a partition of time.
        let f = whole.fleet;
        let sum = f.busy_fraction + f.idle_fraction + f.sleep_fraction + f.transition_fraction;
        assert!((sum - 1.0).abs() < 1e-6);

        // Concatenating one segment reproduces it, byte for byte.
        let one = concat_segments(&results[0].name, &refs[..1]);
        assert_eq!(
            serde_json::to_string(&one).unwrap(),
            serde_json::to_string(&results[0]).unwrap()
        );
    }

    #[test]
    fn table_one_columns_are_consistent() {
        let trace = small_trace(3, 200);
        let result = run_experiment(
            &PolicyPair::round_robin_baseline(),
            &ClusterConfig::paper(5),
            &trace,
            RunLimit::unbounded(),
        )
        .unwrap();
        // energy (kWh) == avg power (W) * span (h) / 1000
        let hours = result.outcome.end_time.as_hours();
        let expect_kwh = result.average_power_w() * hours / 1000.0;
        assert!((result.energy_kwh() - expect_kwh).abs() < 1e-9);
    }
}
