//! The raw-scale regime: memory-gated cells at the paper's *pitched*
//! warehouse scale (10⁵ servers, 10⁶ jobs), far beyond the M = 30/40
//! clusters the evaluation grids simulate.
//!
//! The suite layer ([`crate::runner::SuiteRunner`]) is built for
//! statistical breadth — trace caching, memoized pre-training, parallel
//! cells — all of which *pin memory* proportional to trace length and
//! retain per-job records. A raw-scale cell inverts every one of those
//! choices:
//!
//! * arrivals are **streamed** ([`hierdrl_trace::stream::GeneratorStream`]
//!   behind [`ArrivalSource`]), so no `Vec<Job>` of the trace ever exists;
//! * the cluster runs with `lazy_accounting` (O(1) incremental fleet
//!   totals instead of the eager `O(M)` per-event sweep — the difference
//!   between ~2M and ~10¹¹ server-account calls at M = 100,000);
//! * `retain_completed_jobs` is off, so completion records are counted,
//!   not stored;
//! * only **O(1)-per-decision** policies run (round-robin paired with
//!   always-on or a fixed timeout). Learned policies and the scanning
//!   baselines (first-fit, least-loaded) are O(M) per arrival and belong
//!   to the evaluation grids, not the throughput/memory gate.
//!
//! Cells run **sequentially** and snapshot the process peak RSS
//! ([`crate::report::peak_rss_bytes`], Linux `VmHWM`) after each cell.
//! The high-water mark is process-wide and monotone, so a cell's snapshot
//! bounds *everything up to and including* that cell — exactly the right
//! shape for a memory gate, and the reason the cells must not run in
//! parallel. The rows merge into the committed `BENCH_suite.json` via
//! [`BenchReport::merge_into_file`], where `perf_gate` guards both jobs/s and
//! peak-RSS regressions.

use crate::report::{peak_rss_bytes, BenchCell, BenchReport};
use crate::scenario::PAPER_WEEKLY_JOBS_PER_SERVER;
use hierdrl_core::runner::{run_streamed, ExperimentResult};
use hierdrl_sim::cluster::{ArrivalSource, RunLimit};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::policies::{AlwaysOnPower, FixedTimeoutPower, RoundRobinAllocator};
use hierdrl_trace::generator::WorkloadConfig;
use hierdrl_trace::materialize::TraceSpec;
use std::time::Instant;

/// The raw-scale operating point: 100,000 servers, 1,000,000 jobs.
pub const RAW_SCALE_M: usize = 100_000;
/// Jobs simulated at the raw-scale operating point.
pub const RAW_SCALE_JOBS: u64 = 1_000_000;
/// The timeout (seconds) of the raw-scale fixed-timeout cell.
pub const RAW_SCALE_TIMEOUT_S: f64 = 60.0;
/// The regime's fixed seed (matches the evaluation grids' `s42` cells).
pub const RAW_SCALE_SEED: u64 = 42;

/// The policy axis of the regime, in run order. Both are O(1) per
/// decision; see the module docs for why nothing else qualifies here.
pub const SCALE_POLICIES: [&str; 2] = ["round-robin", "rr-timeout-60s"];

/// One raw-scale operating point: fleet size, job count, and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleSpec {
    /// Number of servers `M`.
    pub m: usize,
    /// Jobs to stream through the fleet.
    pub jobs: u64,
    /// Trace seed (cell ids embed it as `s<seed>`).
    pub seed: u64,
}

impl ScaleSpec {
    /// The full raw-scale point: 100k servers, 1M jobs.
    pub fn raw() -> Self {
        Self {
            m: RAW_SCALE_M,
            jobs: RAW_SCALE_JOBS,
            seed: RAW_SCALE_SEED,
        }
    }

    /// A CI-sized smoke point exercising the identical code path (streamed
    /// arrivals, lazy accounting, no retention) at a fleet two orders of
    /// magnitude smaller.
    pub fn quick() -> Self {
        Self {
            m: 2_000,
            jobs: 50_000,
            seed: RAW_SCALE_SEED,
        }
    }

    /// The memory-bounded cluster configuration: paper parameters plus
    /// lazy accounting and no per-job retention.
    pub fn cluster(&self) -> ClusterConfig {
        let mut config = ClusterConfig::paper(self.m);
        config.lazy_accounting = true;
        config.retain_completed_jobs = false;
        config
    }

    /// The streamed workload recipe: the paper's per-server arrival load
    /// (95,000 jobs per week per 30 servers) scaled to this fleet.
    pub fn trace_spec(&self) -> TraceSpec {
        TraceSpec::new(
            WorkloadConfig::google_like(self.seed, PAPER_WEEKLY_JOBS_PER_SERVER * self.m as f64),
            self.jobs as usize,
        )
    }

    /// The cell id for one policy, in the suite id scheme
    /// (`topology/workload/policy/s<seed>`).
    pub fn cell_id(&self, policy: &str) -> String {
        format!("scale-m{}/paper/{}/s{}", self.m, policy, self.seed)
    }
}

/// One finished raw-scale cell: the simulation result plus the wall-clock
/// and memory readings the gate consumes.
#[derive(Debug, Clone)]
pub struct ScaleCellRun {
    /// Cell id (`scale-m<M>/paper/<policy>/s<seed>`).
    pub id: String,
    /// The cell's full simulation result (aggregates only; latency
    /// percentiles are `None` because retention is off).
    pub result: ExperimentResult,
    /// Cell wall-clock, seconds.
    pub wall_s: f64,
    /// Simulated jobs per wall-clock second.
    pub jobs_per_s: f64,
    /// Process peak RSS right after the cell (monotone across cells of one
    /// process; see the module docs).
    pub peak_rss_bytes: Option<u64>,
}

impl ScaleCellRun {
    /// The cell's `BENCH_suite.json` row.
    pub fn bench_cell(&self) -> BenchCell {
        BenchCell {
            id: self.id.clone(),
            jobs: self.result.outcome.totals.jobs_completed,
            capacity_skew: 1.0,
            fleet_size: None,
            wall_s: self.wall_s,
            jobs_per_s: self.jobs_per_s,
            segments: None,
            clusters: None,
            peak_rss_bytes: self.peak_rss_bytes,
            trace: None,
        }
    }
}

/// Runs one raw-scale cell: streams the trace into a memory-bounded
/// cluster under the named policy, then snapshots wall-clock, throughput,
/// and peak RSS.
///
/// # Errors
///
/// Returns an error for an unknown policy name or an invalid
/// configuration.
pub fn run_scale_cell(spec: &ScaleSpec, policy: &str) -> Result<ScaleCellRun, String> {
    let cluster = spec.cluster();
    let arrivals = ArrivalSource::from_stream(spec.trace_spec().stream()?);
    let mut allocator = RoundRobinAllocator::new();
    // lint:allow(wall-clock): throughput telemetry only, kept out of reports
    let started = Instant::now();
    let result = match policy {
        "round-robin" => run_streamed(
            policy,
            &cluster,
            arrivals,
            &mut allocator,
            &mut AlwaysOnPower,
            RunLimit::unbounded(),
        )?,
        "rr-timeout-60s" => run_streamed(
            policy,
            &cluster,
            arrivals,
            &mut allocator,
            &mut FixedTimeoutPower::new(RAW_SCALE_TIMEOUT_S),
            RunLimit::unbounded(),
        )?,
        other => {
            return Err(format!(
                "unknown scale policy {other:?}; expected one of {SCALE_POLICIES:?}"
            ))
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let jobs = result.outcome.totals.jobs_completed;
    Ok(ScaleCellRun {
        id: spec.cell_id(policy),
        result,
        wall_s,
        jobs_per_s: jobs as f64 / wall_s.max(1e-9),
        peak_rss_bytes: peak_rss_bytes(),
    })
}

/// Runs the whole regime at `spec`: every policy in [`SCALE_POLICIES`],
/// sequentially (the peak-RSS snapshots require it), in declared order.
///
/// # Errors
///
/// Returns the first failing cell's error.
pub fn run_scale(spec: &ScaleSpec) -> Result<Vec<ScaleCellRun>, String> {
    SCALE_POLICIES
        .iter()
        .map(|policy| run_scale_cell(spec, policy))
        .collect()
}

/// A standalone `BenchReport` for a scale run (used when the rows are not
/// merged into an existing artifact).
pub fn scale_bench_report(runs: &[ScaleCellRun]) -> BenchReport {
    let total_wall_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    let jobs_total: u64 = runs
        .iter()
        .map(|r| r.result.outcome.totals.jobs_completed)
        .sum();
    BenchReport {
        suite: "scale".to_string(),
        threads: 1,
        cells_total: runs.len(),
        total_wall_s,
        cell_wall_s_sum: total_wall_s,
        jobs_total,
        jobs_per_s: jobs_total as f64 / total_wall_s.max(1e-9),
        traces_materialized: 0,
        trace_cache_hits: 0,
        peak_rss_bytes: peak_rss_bytes(),
        expectations: Vec::new(),
        cells: runs.iter().map(ScaleCellRun::bench_cell).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test-sized spec: the identical code path at trivial cost.
    fn tiny() -> ScaleSpec {
        ScaleSpec {
            m: 40,
            jobs: 800,
            seed: RAW_SCALE_SEED,
        }
    }

    #[test]
    fn raw_spec_hits_the_pitched_scale() {
        let spec = ScaleSpec::raw();
        assert!(spec.m >= 100_000);
        assert!(spec.jobs >= 1_000_000);
        let config = spec.cluster();
        assert!(config.lazy_accounting);
        assert!(!config.retain_completed_jobs);
        assert_eq!(
            spec.cell_id("round-robin"),
            "scale-m100000/paper/round-robin/s42"
        );
    }

    #[test]
    fn scale_cells_complete_every_job_without_retention() {
        let runs = run_scale(&tiny()).expect("tiny scale regime");
        assert_eq!(runs.len(), SCALE_POLICIES.len());
        for run in &runs {
            assert_eq!(run.result.outcome.totals.jobs_completed, 800, "{}", run.id);
            assert!(
                run.result.latency.is_none(),
                "{}: retention off must drop percentiles",
                run.id
            );
            assert!(run.result.outcome.totals.energy_joules > 0.0);
        }
        // The timeout cell actually consolidates: servers sleep.
        assert!(runs[1].result.fleet.sleep_fraction > 0.0);
        // Always-on never does.
        assert_eq!(runs[0].result.fleet.sleep_fraction, 0.0);
    }

    #[test]
    fn unknown_policy_is_rejected() {
        let err = run_scale_cell(&tiny(), "least-loaded").unwrap_err();
        assert!(err.contains("unknown scale policy"), "{err}");
    }
}
