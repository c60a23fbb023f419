//! # hierdrl-exp
//!
//! Declarative experiment orchestration for the hierarchical DRL framework:
//! the **Topology → Scenario → Suite → Runner** pipeline that every table
//! and figure of the paper's evaluation — and every future sweep — is
//! expressed through.
//!
//! - [`scenario::Topology`] names a cluster configuration — a single
//!   cluster, or several independent clusters sharing one arrival stream
//!   behind a deterministic front-end router
//!   ([`hierdrl_sim::router::Router`]); the runner executes every cell as
//!   one unit per cluster, each on its own worker thread, and merges in
//!   unit order;
//! - [`scenario::WorkloadSpec`] is a workload recipe resolved against a
//!   topology, so per-server load stays comparable across cluster sizes;
//! - [`scenario::PolicySpec`] names the control planes (static baselines or
//!   pre-trained learners) and their pre-training budget;
//! - a [`scenario::Scenario`] is one fully-seeded grid cell;
//! - a [`suite::Suite`] is a cartesian grid of cells, built with
//!   [`suite::SuiteBuilder`] or taken from the paper [`presets`];
//! - the [`runner::SuiteRunner`] executes cells in parallel (rayon) with
//!   per-cell seed derivation, shared trace materialization
//!   ([`hierdrl_trace::materialize::TraceCache`]), and memoized
//!   pre-training, producing a canonical [`report::SuiteReport`] that is
//!   **byte-identical** between serial and parallel execution.
//!
//! # Building a grid
//!
//! ```
//! use hierdrl_exp::prelude::*;
//!
//! // Policy × cluster-size grid at a smoke-test workload.
//! let suite = Suite::builder("demo")
//!     .topologies([Topology::paper(4), Topology::paper(6)])
//!     .workloads([WorkloadSpec::paper().with_total_jobs(120)])
//!     .policies([
//!         PolicySpec::round_robin(),
//!         PolicySpec::static_pair(
//!             "first-fit+sleep",
//!             AllocatorKind::FirstFit,
//!             PowerKind::SleepImmediately,
//!         ),
//!     ])
//!     .seeds([1])
//!     .build();
//! assert_eq!(suite.len(), 4);
//!
//! let run = SuiteRunner::new().run(&suite)?;
//! for cell in &run.cells {
//!     assert_eq!(cell.result.outcome.totals.jobs_completed, 120);
//! }
//! # Ok::<(), String>(())
//! ```
//!
//! # Determinism
//!
//! Every random stream in a cell derives from the scenario's own seed via
//! a SplitMix64 mix, so cells are independent: rerunning a suite with any
//! thread count reproduces the same canonical report, and changing one
//! cell's seed perturbs only that cell.
//!
//! ```
//! use hierdrl_exp::prelude::*;
//!
//! let suite = Suite::builder("determinism")
//!     .topologies([Topology::paper(3)])
//!     .workloads([WorkloadSpec::paper().with_total_jobs(80)])
//!     .policies([PolicySpec::round_robin()])
//!     .seeds([7, 8])
//!     .build();
//!
//! let parallel = SuiteRunner::new().with_threads(4).run(&suite)?;
//! let serial = SuiteRunner::serial().run(&suite)?;
//! assert_eq!(parallel.report().to_json(), serial.report().to_json());
//! # Ok::<(), String>(())
//! ```
//!
//! # Multi-cluster sharding
//!
//! A [`scenario::Topology::MultiCluster`] cell splits its arrival stream
//! across independent clusters with a deterministic front-end router and
//! simulates each cluster on its own worker thread; per-shard learner
//! seeds derive from the cell seed (two-level SplitMix64), so the sharded
//! run stays byte-identical to serial execution.
//!
//! ```
//! use hierdrl_exp::prelude::*;
//!
//! let suite = Suite::builder("sharded")
//!     .topologies([Topology::sharded_paper(2, 6, RouterPolicy::RoundRobin)])
//!     .workloads([WorkloadSpec::paper().with_total_jobs(100)])
//!     .policies([PolicySpec::round_robin()])
//!     .seeds([1])
//!     .build();
//!
//! let run = SuiteRunner::new().run(&suite)?;
//! let cell = &run.cells[0];
//! assert_eq!(cell.shards.len(), 2);
//! let routed: u64 = cell.shards.iter().map(|s| s.shard.jobs_routed).sum();
//! assert_eq!(routed, 100);
//! # Ok::<(), String>(())
//! ```
//!
//! # Online learning under concept drift
//!
//! A [`scenario::DriftSpec`] adds the concept-drift axis: the cell's
//! workload becomes an ordered list of segments (arrival-rate steps and
//! ramps, pattern regime changes, burstiness shifts — see
//! [`hierdrl_trace::drift::SegmentShift`]), and the runner carries one set
//! of learners across all of them, interleaving evaluation with continued
//! online training. Per-segment rows land in the report next to the
//! whole-run aggregate; `DriftSpec::with_frozen_learners` produces the
//! no-continued-training ablation twin of any drift.
//!
//! ```
//! use hierdrl_exp::prelude::*;
//!
//! let suite = Suite::builder("drifting")
//!     .topologies([Topology::paper(3)])
//!     .workloads([WorkloadSpec::paper().with_total_jobs(120)])
//!     .drifts([DriftSpec::rate_step(2.0)])
//!     .policies([PolicySpec::round_robin()])
//!     .seeds([1])
//!     .build();
//!
//! let run = SuiteRunner::new().run(&suite)?;
//! let report = run.report();
//! let segments = report.cells[0].segments.as_ref().unwrap();
//! assert_eq!(segments.len(), 2);
//! assert_eq!(segments[1].shift, "rate-x2");
//! let total: u64 = segments.iter().map(|s| s.metrics.jobs_completed).sum();
//! assert_eq!(total, 120);
//! # Ok::<(), String>(())
//! ```
//!
//! # Chaos axis and expectations
//!
//! A [`scenario::FaultSpec`] adds the chaos axis: a named, deterministic,
//! seed-derived fault schedule — server crashes with recovery, transient
//! stragglers, fleet-wide power-cap windows, arrival spikes — lowered to
//! event-level fleet changes the simulator applies between arrivals. Jobs
//! on a crashed server are requeued through the allocator exactly once,
//! and the degraded fleet is what routing, state encoding, and the
//! Eqn.-4/5 rewards see. Declarative [`suite::Expectation`]s (metric
//! bounds, conservation invariants, determinism pins, and the
//! graceful-degradation headline) attach to the suite and land as
//! pass/fail rows in the report.
//!
//! ```
//! use hierdrl_exp::prelude::*;
//!
//! let suite = Suite::builder("chaotic")
//!     .topologies([Topology::paper(4)])
//!     .workloads([WorkloadSpec::paper().with_total_jobs(150)])
//!     .faults_with_baseline([FaultSpec::crash_storm()])
//!     .policies([PolicySpec::round_robin()])
//!     .seeds([1])
//!     .expect(Expectation::JobConservation {
//!         name: "conserved".into(),
//!     })
//!     .build();
//!
//! let run = SuiteRunner::new().run(&suite)?;
//! let report = run.report();
//! // The fault cell rode next to its fault-free twin...
//! assert_eq!(report.cells[1].fault.as_deref(), Some("crash-storm"));
//! assert!(report.cells[1].jobs_requeued > 0);
//! // ...and every arrived job still completed exactly once.
//! assert!(report.expectations[0].passed, "{}", report.expectations[0].detail);
//! # Ok::<(), String>(())
//! ```
//!
//! # Elastic fleets and the autoscaler tier
//!
//! An [`scenario::ElasticSpec`] adds the elastic axis: a named,
//! deterministic membership schedule — `Join`/`Leave` fleet ops lowered at
//! epoch boundaries from the cell's own arrival stream by a reactive
//! threshold autoscaler or a learned tabular policy
//! ([`scenario::AutoscalePolicy`]) — applied between arrivals exactly like
//! fault events. Departing servers drain-and-requeue like crashes, joins
//! add capacity-scaled slots under the spec's headroom ceiling, and on
//! multi-cluster cells the front-end router re-derives capacity weights at
//! the scheduled membership epochs, so sharded elastic cells stay
//! byte-identical to serial execution. Every fresh cell reports
//! [`report::FleetSize`] columns (fixed fleets as `min = max = M`), and
//! the [`suite::Expectation::AutoscaleEconomics`] headline pins the
//! economics: autoscale + DRL must beat (or match) the fixed-fleet DRL
//! twin on energy-per-job at equal latency.
//!
//! ```
//! use hierdrl_exp::prelude::*;
//!
//! let suite = Suite::builder("elastic")
//!     .topologies([Topology::paper(4)])
//!     .workloads([WorkloadSpec::paper().with_total_jobs(150)])
//!     .elastics_with_baseline([ElasticSpec::threshold()])
//!     .policies([PolicySpec::round_robin()])
//!     .seeds([1])
//!     .build();
//!
//! let run = SuiteRunner::new().run(&suite)?;
//! let report = run.report();
//! // The autoscaled cell rode next to its fixed-fleet twin...
//! assert_eq!(report.cells[1].elastic.as_deref(), Some("threshold"));
//! // ...and both report their fleet-size columns.
//! let fixed = report.cells[0].fleet_size.as_ref().unwrap();
//! assert_eq!((fixed.min, fixed.max), (4, 4));
//! assert!(report.cells[1].fleet_size.is_some());
//! # Ok::<(), String>(())
//! ```
//!
//! # Real-trace replay
//!
//! [`scenario::WorkloadSpec::RealTrace`] swaps a cell's synthetic
//! generator for an on-disk trace — Google `task_events` or Alibaba
//! `batch_task`, behind [`hierdrl_trace::source::TraceSource`]. The runner
//! parses the file once per run, trusts its demand columns only while the
//! parser's `demand_defaulted` fraction stays under the cell's gate
//! (falling back to seeded synthetic demands over the file's arrival
//! process otherwise), and reports a [`report::TraceProvenance`] block on
//! every real cell. On the drift axis
//! ([`scenario::DriftSpec::real_segments`]), the trace splits at
//! wall-clock weeks so the online-vs-frozen ablation runs against the
//! trace's own regime changes. [`presets::realtrace`] grids all of it over
//! the committed fixtures; see the "real-trace backends" section of
//! `crates/exp/README.md`.
//!
//! ```
//! use hierdrl_exp::prelude::*;
//!
//! let fixture = concat!(
//!     env!("CARGO_MANIFEST_DIR"),
//!     "/../trace/tests/fixtures/google_task_events.csv"
//! );
//! let suite = Suite::builder("replay")
//!     .topologies([Topology::paper(4)])
//!     .workloads([WorkloadSpec::real_trace(
//!         "real-google",
//!         fixture,
//!         TraceFormat::GoogleTaskEvents,
//!     )])
//!     .policies([PolicySpec::round_robin()])
//!     .seeds([1])
//!     .build();
//!
//! let run = SuiteRunner::new().run(&suite)?;
//! let report = run.report();
//! let trace = report.cells[0].trace.as_ref().unwrap();
//! assert_eq!((trace.rows, trace.jobs_kept), (381, 120));
//! assert!(!trace.synthetic_demand, "fixture demands stay under the gate");
//! # Ok::<(), String>(())
//! ```
//!
//! # Paper presets
//!
//! The grids behind the paper's artifacts are exposed as one-liners —
//! `presets::table1`, `presets::fig8`, `presets::fig9`, `presets::fig10`,
//! `presets::ablation_dqn`, `presets::calibrate` — each parameterized by a
//! [`presets::Scale`] so the same grid runs at paper scale or as a smoke
//! test. The bench binaries are thin wrappers over these.
//!
//! ```
//! use hierdrl_exp::presets::{self, Scale};
//!
//! let suite = presets::table1(Scale::quick());
//! // (2 cluster sizes + big/little + rate-step drift + threshold elastic)
//! // x 3 systems
//! assert_eq!(suite.len(), 15);
//! ```
//!
//! # Raw scale
//!
//! The [`scale`] module is the regime the suite layer deliberately does
//! not cover: single cells at the paper's pitched warehouse scale
//! (10⁵ servers, 10⁶ streamed jobs) with memory bounded by the fleet, not
//! the trace — streamed arrivals, lazy `O(1)` fleet accounting, no
//! per-job retention, and a per-cell peak-RSS reading
//! ([`report::peak_rss_bytes`]) that the CI perf gate guards alongside
//! throughput.

#![forbid(unsafe_code)]

pub mod cli;
pub mod presets;
pub mod report;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod suite;

/// Convenient glob-import of the orchestration layer's main types.
pub mod prelude {
    pub use crate::cli::SweepArgs;
    pub use crate::presets;
    pub use crate::report::{
        BenchReport, BenchSegment, BenchShard, CellMetrics, CellReport, CellTiming, ExpectationRow,
        FleetSize, SegmentReport, ShardReport, SuiteReport, TraceProvenance,
    };
    pub use crate::runner::{CellRun, SegmentRun, ShardRun, SuiteRun, SuiteRunner};
    pub use crate::scale::{ScaleCellRun, ScaleSpec};
    pub use crate::scenario::{
        AutoscalePolicy, DriftSpec, ElasticSchedule, ElasticSpec, FaultShape, FaultSpec,
        JobsBudget, PolicySpec, Pretrain, Scenario, Topology, WorkloadSpec,
    };
    pub use crate::suite::{Expectation, Suite, SuiteBuilder};
    pub use hierdrl_core::hierarchical::{AllocatorKind, PowerKind};
    pub use hierdrl_sim::router::RouterPolicy;
    pub use hierdrl_trace::drift::SegmentShift;
    pub use hierdrl_trace::source::TraceFormat;
}
