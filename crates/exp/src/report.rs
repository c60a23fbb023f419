//! Canonical suite outputs: a deterministic [`SuiteReport`] (safe to
//! byte-compare across serial and parallel executions) and a separate
//! [`BenchReport`] carrying wall-clock timing, which is inherently
//! non-deterministic and therefore kept out of the canonical report.

use hierdrl_core::allocator::DrlStats;
use hierdrl_core::runner::ExperimentResult;
use serde::{Deserialize, Serialize};

/// Paper-facing metrics extracted from one cell's run (the Table I columns
/// plus the Fig. 10 per-job coordinates and fleet power behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Accumulated energy, kWh (Table I column 1).
    pub energy_kwh: f64,
    /// Accumulated latency, 1e6 s (Table I column 2).
    pub latency_mega_s: f64,
    /// Average power, W (Table I column 3).
    pub average_power_w: f64,
    /// Average latency per job, s (Fig. 10 y-axis).
    pub mean_latency_s: f64,
    /// Average energy per job, J (Fig. 10 x-axis).
    pub energy_per_job_j: f64,
    /// Mean fraction of time servers spent asleep.
    pub sleep_fraction: f64,
    /// Total sleep → wake transitions across the fleet.
    pub wake_transitions: u64,
    /// Simulated span, hours.
    pub span_hours: f64,
}

impl CellMetrics {
    /// Extracts the metrics from a runner result.
    pub fn from_result(result: &ExperimentResult) -> Self {
        Self {
            jobs_completed: result.outcome.totals.jobs_completed,
            energy_kwh: result.energy_kwh(),
            latency_mega_s: result.latency_mega_s(),
            average_power_w: result.average_power_w(),
            mean_latency_s: result.mean_latency_s(),
            energy_per_job_j: result.energy_per_job_j(),
            sleep_fraction: result.fleet.sleep_fraction,
            wake_transitions: result.fleet.total_wake_transitions,
            span_hours: result.outcome.end_time.as_hours(),
        }
    }
}

/// The scheduled fleet-size envelope of one cell: constant at the topology
/// size for fixed fleets; for elastic cells, the lowered membership
/// trajectory — summed across shards on their shared clock, span-weighted
/// across drift segments. A pure function of the scenario, so the column
/// is safe in the canonical byte-comparable report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSize {
    /// Smallest scheduled live-server count.
    pub min: usize,
    /// Largest scheduled live-server count.
    pub max: usize,
    /// Time-weighted mean scheduled live-server count.
    pub mean: f64,
}

impl FleetSize {
    /// The fixed-fleet envelope: every column equals the topology size.
    pub fn fixed(servers: usize) -> Self {
        Self {
            min: servers,
            max: servers,
            mean: servers as f64,
        }
    }
}

/// One segment's row of a concept-drift cell: which shift the segment ran
/// and the metrics of carrying the learners through it, in drift order.
/// `drl` snapshots the global tier's *cumulative* statistics at segment
/// end, so consecutive rows show online training continuing (or, in the
/// frozen ablation, stopping) across segment boundaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// Segment index in drift order.
    pub segment: usize,
    /// The segment's workload shift label (e.g. `rate-x2`).
    pub shift: String,
    /// The segment's own extracted metrics.
    pub metrics: CellMetrics,
    /// Cumulative global-tier learner statistics at segment end, for
    /// learned policies.
    pub drl: Option<DrlStats>,
}

/// One cluster's row of a multi-cluster cell: its share of the routed
/// stream and its own metrics, in shard order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index (position of the cluster in the topology).
    pub cluster: usize,
    /// Servers in this cluster.
    pub servers: usize,
    /// Jobs the front-end router assigned to this cluster.
    pub jobs_routed: u64,
    /// The cluster's own extracted metrics.
    pub metrics: CellMetrics,
    /// The cluster's global-tier learner statistics, for learned policies.
    pub drl: Option<DrlStats>,
}

/// Provenance of a real-trace cell's evaluation stream: where the jobs
/// came from and what the parser kept, dropped, and defaulted on the way
/// (`None` on synthetic cells). Every counter is a deterministic function
/// of the trace file, so the block is safe to embed in the canonical
/// byte-comparable report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceProvenance {
    /// Source label (`<format>:<path>`).
    pub source: String,
    /// Trace format name (`google` or `alibaba`).
    pub format: String,
    /// Raw rows read from the file.
    pub rows: u64,
    /// Jobs that survived parsing and filtering.
    pub jobs_kept: u64,
    /// Tasks dropped: incomplete lifecycles, non-positive durations, and
    /// jobs outside the duration window, combined.
    pub jobs_dropped: u64,
    /// Kept jobs whose demand columns were missing/unparsable and fell
    /// back to the parser's floor value.
    pub demand_defaulted: u64,
    /// Whether the defaulted fraction tripped the cell's demand gate, so
    /// the run replaced *all* file demands with seeded synthetic demands
    /// (keeping the file's arrival process).
    pub synthetic_demand: bool,
}

/// One cell of a [`SuiteReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Scenario id (`topology/workload[@drift][%fault]/policy/s<seed>`).
    pub id: String,
    /// Topology name.
    pub topology: String,
    /// Total cluster size `M` (summed across clusters when sharded).
    pub servers: usize,
    /// Aggregate fleet CPU capacity in unit-server equivalents (equals
    /// `servers` for homogeneous fleets).
    pub capacity_total: f64,
    /// Per-server capacity skew: max/min CPU capacity across the fleet
    /// (`1.0` = homogeneous, `2.0` = a 2x big/little tier).
    pub capacity_skew: f64,
    /// Workload name.
    pub workload: String,
    /// Fault-schedule name (`None` for fault-free cells).
    #[serde(default)]
    pub fault: Option<String>,
    /// Elastic-schedule name (`None` for fixed-fleet cells).
    #[serde(default)]
    pub elastic: Option<String>,
    /// Scheduled fleet-size envelope (`None` only in reports written
    /// before the elastic axis existed; fresh runs always populate it,
    /// fixed fleets included).
    #[serde(default)]
    pub fleet_size: Option<FleetSize>,
    /// Policy name.
    pub policy: String,
    /// The cell's base seed.
    pub seed: u64,
    /// Extracted metrics (the fleet-level aggregate when sharded).
    pub metrics: CellMetrics,
    /// Jobs requeued by server crashes (each surviving job exactly once
    /// per crash it lived through; `0` for fault-free cells).
    #[serde(default)]
    pub jobs_requeued: u64,
    /// Global-tier learner statistics, for learned policies.
    pub drl: Option<DrlStats>,
    /// Per-segment rows in drift order (`None` for non-drift cells).
    pub segments: Option<Vec<SegmentReport>>,
    /// Per-cluster rows in shard order (`None` for single-cluster cells).
    pub clusters: Option<Vec<ShardReport>>,
    /// Real-trace provenance (`None` for synthetic cells and for reports
    /// written before the real-trace backends existed).
    #[serde(default)]
    pub trace: Option<TraceProvenance>,
}

/// One evaluated [`Expectation`](crate::suite::Expectation): the pass/fail
/// row the runner appends to both the canonical report and the bench
/// artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpectationRow {
    /// The expectation's label.
    pub name: String,
    /// Whether the check held.
    pub passed: bool,
    /// Human-readable evidence: the numbers behind the verdict, or what
    /// failed to match.
    pub detail: String,
}

/// The canonical, fully-deterministic result of a suite run. Cells appear
/// in suite (builder) order regardless of execution schedule, and the JSON
/// rendering is canonical, so serial and parallel runs of the same suite
/// produce byte-identical reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Suite name.
    pub suite: String,
    /// Per-cell results in suite order.
    pub cells: Vec<CellReport>,
    /// Evaluated expectations, in suite declaration order (empty for
    /// suites without expectations).
    #[serde(default)]
    pub expectations: Vec<ExpectationRow>,
}

impl SuiteReport {
    /// Canonical compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("suite report serializes")
    }

    /// Indented JSON for humans.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("suite report serializes")
    }
}

/// Wall-clock timing of one cell (kept out of [`SuiteReport`] so the
/// canonical report stays deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellTiming {
    /// Cell wall-clock, seconds.
    pub wall_s: f64,
    /// Simulated jobs completed per wall-clock second.
    pub jobs_per_s: f64,
}

/// One cluster's timing row of a sharded [`BenchCell`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchShard {
    /// Shard index.
    pub cluster: usize,
    /// Servers in this cluster.
    pub servers: usize,
    /// Jobs the cluster completed.
    pub jobs: u64,
    /// Shard wall-clock, seconds.
    pub wall_s: f64,
}

/// One segment's timing row of a drift [`BenchCell`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSegment {
    /// Segment index in drift order.
    pub segment: usize,
    /// The segment's workload shift label.
    pub shift: String,
    /// Jobs the segment completed.
    pub jobs: u64,
    /// Segment wall-clock, seconds.
    pub wall_s: f64,
}

/// One cell of a [`BenchReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCell {
    /// Scenario id.
    pub id: String,
    /// Jobs completed.
    pub jobs: u64,
    /// Per-server capacity skew of the cell's fleet (`1.0` = homogeneous).
    pub capacity_skew: f64,
    /// Scheduled fleet-size envelope (`None` only in artifacts written
    /// before the elastic axis existed; fresh runs always populate it).
    #[serde(default)]
    pub fleet_size: Option<FleetSize>,
    /// Cell wall-clock, seconds.
    pub wall_s: f64,
    /// Simulated jobs per wall-clock second.
    pub jobs_per_s: f64,
    /// Per-segment timing rows in drift order (`None` for non-drift
    /// cells).
    pub segments: Option<Vec<BenchSegment>>,
    /// Per-cluster timing rows in shard order (`None` for single-cluster
    /// cells).
    pub clusters: Option<Vec<BenchShard>>,
    /// Process peak-RSS snapshot (bytes) taken right after the cell
    /// finished, for cells run *sequentially* by a memory-gated harness
    /// (the `scale` bin). `VmHWM` is a process-wide monotone high-water
    /// mark, so within one process each cell's snapshot includes every
    /// earlier cell's footprint; `None` for cells of parallel suite runs,
    /// where a per-cell figure would be meaningless.
    #[serde(default)]
    pub peak_rss_bytes: Option<u64>,
    /// Real-trace provenance (`None` for synthetic cells and for artifacts
    /// written before the real-trace backends existed).
    #[serde(default)]
    pub trace: Option<TraceProvenance>,
}

/// Machine-readable performance artifact of a suite run, for tracking the
/// runner's throughput trajectory across changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Suite name.
    pub suite: String,
    /// Worker threads the runner used.
    pub threads: usize,
    /// Number of cells.
    pub cells_total: usize,
    /// End-to-end suite wall-clock, seconds (includes trace generation and
    /// pre-training).
    pub total_wall_s: f64,
    /// Sum of per-cell wall-clocks, seconds (> `total_wall_s` under
    /// parallel execution).
    pub cell_wall_s_sum: f64,
    /// Total simulated jobs across cells.
    pub jobs_total: u64,
    /// Aggregate throughput: total jobs / total wall-clock.
    pub jobs_per_s: f64,
    /// Distinct evaluation/pre-training traces materialized.
    pub traces_materialized: u64,
    /// Trace-cache hits (cells that reused a shared trace).
    pub trace_cache_hits: u64,
    /// Process-wide peak RSS (bytes, from `VmHWM`) at the end of the run;
    /// `None` where the kernel interface is unavailable (non-Linux).
    #[serde(default)]
    pub peak_rss_bytes: Option<u64>,
    /// Evaluated suite expectations (duplicated from the canonical report
    /// so CI can gate on the committed bench artifact alone; empty for
    /// suites without expectations).
    #[serde(default)]
    pub expectations: Vec<ExpectationRow>,
    /// Per-cell timing, in suite order.
    pub cells: Vec<BenchCell>,
}

impl BenchReport {
    /// Indented JSON for the checked-in artifact.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench report serializes")
    }

    /// The in-memory half of [`BenchReport::merge_into_file`].
    fn merge(&mut self, other: BenchReport) {
        for cell in other.cells {
            match self.cells.iter_mut().find(|c| c.id == cell.id) {
                Some(existing) => *existing = cell,
                None => self.cells.push(cell),
            }
        }
        self.cells_total = self.cells.len();
        self.expectations.extend(other.expectations);
    }

    /// Merges this run's rows into the artifact at `path`, in place: cells
    /// with a matching id are replaced, new cells append in order, and this
    /// run's expectation verdicts append. The artifact's suite-level
    /// wall-clock aggregates keep describing its own run, which ran in a
    /// different process than the merged rows.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be read, parsed, or written.
    pub fn merge_into_file(self, path: &str) -> Result<(), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read merge target {path}: {e}"))?;
        let mut merged: BenchReport = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse merge target {path}: {e}"))?;
        merged.merge(self);
        std::fs::write(path, merged.to_json_pretty() + "\n")
            .map_err(|e| format!("cannot write merge target {path}: {e}"))
    }
}

/// The process's peak resident-set size in bytes, read from the `VmHWM`
/// line of `/proc/self/status` — the kernel's high-water mark of physical
/// memory use since process start (or the last peak reset). Monotone
/// non-decreasing over the process lifetime, which is exactly what a
/// memory *gate* wants: a raw-scale cell whose working set spiked cannot
/// hide the spike by freeing afterwards.
///
/// Returns `None` when the interface is unavailable (non-Linux platforms)
/// or unparsable, so callers degrade to "no memory data" rather than
/// failing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // Format: `VmHWM:    123456 kB`.
    let kb: u64 = line
        .strip_prefix("VmHWM:")?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_a_plausible_value_on_linux() {
        // This suite only runs on Linux in CI; tolerate None elsewhere.
        if let Some(bytes) = peak_rss_bytes() {
            // Any running test binary has touched at least 100 KiB and
            // (sanity bound) less than 1 TiB.
            assert!(bytes > 100 * 1024, "implausibly small peak RSS {bytes}");
            assert!(bytes < 1 << 40, "implausibly large peak RSS {bytes}");
        }
    }

    fn cell(id: &str, jobs: u64) -> BenchCell {
        BenchCell {
            id: id.to_string(),
            jobs,
            capacity_skew: 1.0,
            fleet_size: None,
            wall_s: 1.0,
            jobs_per_s: jobs as f64,
            segments: None,
            clusters: None,
            peak_rss_bytes: None,
            trace: None,
        }
    }

    fn bench(cells: Vec<BenchCell>, expectations: Vec<ExpectationRow>) -> BenchReport {
        BenchReport {
            suite: "merge".to_string(),
            threads: 1,
            cells_total: cells.len(),
            total_wall_s: 1.0,
            cell_wall_s_sum: 1.0,
            jobs_total: 0,
            jobs_per_s: 0.0,
            traces_materialized: 0,
            trace_cache_hits: 0,
            peak_rss_bytes: None,
            expectations,
            cells,
        }
    }

    #[test]
    fn merge_replaces_matching_rows_and_appends_new_ones() {
        let verdict = ExpectationRow {
            name: "conservation".to_string(),
            passed: true,
            detail: "ok".to_string(),
        };
        let mut report = bench(vec![cell("a", 1), cell("b", 2)], Vec::new());
        report.merge(bench(
            vec![cell("b", 20), cell("c", 3)],
            vec![verdict.clone()],
        ));
        assert_eq!(report.cells_total, 3);
        let rows: Vec<(&str, u64)> = report
            .cells
            .iter()
            .map(|c| (c.id.as_str(), c.jobs))
            .collect();
        assert_eq!(rows, vec![("a", 1), ("b", 20), ("c", 3)]);
        assert_eq!(report.expectations, vec![verdict]);
        // The report's own run-level aggregates are untouched.
        assert_eq!(report.suite, "merge");
        assert_eq!(report.total_wall_s, 1.0);
        // Re-merging is idempotent on the cells.
        report.merge(bench(vec![cell("b", 20), cell("c", 3)], Vec::new()));
        assert_eq!(report.cells.len(), 3);
        assert_eq!(report.cells_total, 3);
    }

    #[test]
    fn bench_report_round_trips_without_rss_fields() {
        // Committed baselines predate the peak-RSS column; they must keep
        // deserializing (serde default = None).
        let legacy = r#"{
            "suite": "table1", "threads": 1, "cells_total": 1,
            "total_wall_s": 1.0, "cell_wall_s_sum": 1.0, "jobs_total": 10,
            "jobs_per_s": 10.0, "traces_materialized": 1, "trace_cache_hits": 0,
            "cells": [{
                "id": "a/b/c/s1", "jobs": 10, "capacity_skew": 1.0,
                "wall_s": 1.0, "jobs_per_s": 10.0,
                "segments": null, "clusters": null
            }]
        }"#;
        let report: BenchReport = serde_json::from_str(legacy).expect("legacy artifact parses");
        assert_eq!(report.peak_rss_bytes, None);
        assert_eq!(report.cells[0].peak_rss_bytes, None);
        assert_eq!(report.cells[0].trace, None);
        assert_eq!(report.cells[0].fleet_size, None);
        assert!(report.expectations.is_empty());
        let back: BenchReport = serde_json::from_str(&report.to_json_pretty()).expect("round trip");
        assert_eq!(report, back);
    }

    #[test]
    fn cell_report_round_trips_without_chaos_fields() {
        // Pre-chaos reports carry neither the fault column nor the requeue
        // counter nor suite expectations; they must keep deserializing.
        let legacy = r#"{
            "suite": "demo",
            "cells": [{
                "id": "a/b/c/s1", "topology": "a", "servers": 2,
                "capacity_total": 2.0, "capacity_skew": 1.0,
                "workload": "b", "policy": "c", "seed": 1,
                "metrics": {
                    "jobs_completed": 10, "energy_kwh": 1.0,
                    "latency_mega_s": 0.1, "average_power_w": 100.0,
                    "mean_latency_s": 3.0, "energy_per_job_j": 5.0,
                    "sleep_fraction": 0.2, "wake_transitions": 4,
                    "span_hours": 2.0
                },
                "drl": null, "segments": null, "clusters": null
            }]
        }"#;
        let report: SuiteReport = serde_json::from_str(legacy).expect("legacy report parses");
        assert_eq!(report.cells[0].fault, None);
        assert_eq!(report.cells[0].elastic, None);
        assert_eq!(report.cells[0].fleet_size, None);
        assert_eq!(report.cells[0].jobs_requeued, 0);
        assert_eq!(report.cells[0].trace, None);
        assert!(report.expectations.is_empty());
        let back: SuiteReport = serde_json::from_str(&report.to_json()).expect("round trip");
        assert_eq!(report, back);
    }
}
