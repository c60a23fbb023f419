//! The four workloads, each built only from the crates' public API.
//!
//! * `hier-learn`: the paper's full framework learning online at M = 30.
//! * `hier-frozen`: the same cell with one fixed policy, pre-trained on a
//!   fixed budget, then evaluated read-only on a much longer trace.
//! * `scale-stream`: 100k servers, streamed arrivals, static policies.
//! * `suite-table1`: the quick Table I grid through `SuiteRunner`.
//!
//! README.md says why each was chosen and which layer each should expose.

use crate::metrics::Outcome;
use crate::probe::{
    close_phase, open_phase, timed, Mode, Op, Recorder, Shared, Span, StreamCounter, Timed,
    TimedStream,
};
use crate::stats::{median, tail};
use hierdrl_core::allocator::DrlAllocator;
use hierdrl_core::dpm::RlPowerManager;
use hierdrl_core::runner::{pretrain_pair, run_streamed, Experiment, ExperimentResult};
use hierdrl_exp::presets::{self, Scale};
use hierdrl_exp::runner::{SuiteRun, SuiteRunner};
use hierdrl_exp::scale::{ScaleSpec, RAW_SCALE_M, RAW_SCALE_TIMEOUT_S};
use hierdrl_exp::scenario::{PolicySpec, Scenario, Topology, WorkloadSpec};
use hierdrl_exp::suite::Suite;
use hierdrl_sim::cluster::{ArrivalSource, RunLimit};
use hierdrl_sim::policies::{FixedTimeoutPower, RoundRobinAllocator};
use hierdrl_trace::materialize::{TraceCache, TraceSpec};
use hierdrl_trace::trace::Trace;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet size of both `hier-*` workloads: the paper's Table I size.
pub const HIER_M: usize = 30;
/// Evaluation jobs of one `hier-learn` repetition; pre-training scales
/// with it (5 rollouts of 15%), as in every suite cell.
pub const LEARN_JOBS: u64 = 3_000;
/// Evaluation jobs of one `hier-frozen` repetition.
pub const FROZEN_JOBS: u64 = 60_000;
/// The evaluation length `hier-frozen` sizes its pre-training for: fixed,
/// so set-up does not grow with the evaluation trace.
pub const FROZEN_PRETRAIN_BASIS: u64 = 2_000;
/// Cell seed of the policy `hier-frozen` deploys: one pre-trained model,
/// evaluated on traffic drawn from the run's seed.
pub const FROZEN_POLICY_SEED: u64 = 42;
/// Jobs streamed through one `scale-stream` repetition.
pub const SCALE_JOBS: u64 = 400_000;
/// The raw-scale regime's cell `scale-stream` runs.
pub const SCALE_POLICY: &str = "rr-timeout-60s";
/// Worker threads of `suite-table1`.
pub const SUITE_THREADS: usize = 2;
/// Set-ups timed per `suite-table1` repetition.
const SUITE_SETUPS: usize = 5;
/// `scale-stream` set-up takes ~0.2 µs, a few clock reads: each repetition
/// times it as the mean over constructions lasting at least this long.
const SETUP_BATCH: Duration = Duration::from_millis(20);

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full framework, online learning on.
    HierLearn,
    /// Full framework, both tiers frozen after pre-training.
    HierFrozen,
    /// Raw-scale streamed fleet under static policies.
    ScaleStream,
    /// The quick Table I grid through the suite runner.
    SuiteTable1,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HierLearn,
        Workload::HierFrozen,
        Workload::ScaleStream,
        Workload::SuiteTable1,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HierLearn => "hier-learn",
            Workload::HierFrozen => "hier-frozen",
            Workload::ScaleStream => "scale-stream",
            Workload::SuiteTable1 => "suite-table1",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload for about `seconds`: untraced repetitions, or
    /// alternating untraced and traced ones when `traced`.
    ///
    /// # Errors
    ///
    /// Returns the first error a run returned.
    pub fn run(self, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
        let budget = Duration::from_secs_f64(seconds);
        match self {
            Workload::HierLearn => run_hier(
                self,
                &HierCell::learn(seed, LEARN_JOBS),
                seed,
                budget,
                traced,
            ),
            Workload::HierFrozen => run_hier(self, &HierCell::frozen(seed), seed, budget, traced),
            Workload::ScaleStream => run_scale(seed, budget, traced),
            Workload::SuiteTable1 => run_suite(seed, budget, traced),
        }
    }
}

/// Repeats `step` at least `min` times, then for as long as another
/// repetition of average length still ends within `budget`.
fn repeat<T>(
    budget: Duration,
    min: usize,
    mut step: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed() + started.elapsed() / out.len() as u32 <= budget {
        out.push(step()?);
    }
    Ok(out)
}

/// Per-layer readings of one traced repetition.
type Readings = BTreeMap<String, f64>;

/// One repetition of a workload, as the shared measuring loop sees it.
trait Repetition {
    /// Each simulated result with the jobs offered to it.
    fn results(&self) -> Vec<(&ExperimentResult, u64)>;
    /// The simulated output, byte for byte.
    fn output(&self) -> String;
    /// Evaluation jobs completed per second of the evaluation call.
    fn jobs_per_s(&self) -> f64;
    /// Seconds of set-up before the evaluation call.
    fn setup_s(&self) -> f64;
}

/// How a workload makes repetitions.
struct Plan<U, T> {
    /// Minimum untraced repetitions in an untraced run.
    min_repetitions: usize,
    /// One untraced repetition.
    untraced: U,
    /// One traced repetition and its per-layer readings.
    traced: T,
}

/// The measuring loop every workload shares.
///
/// Untraced, it repeats the workload for `budget` and reports the median
/// throughput and set-up time. Traced, untraced and traced repetitions
/// alternate for `budget` (at least one pair), so both sides see the same
/// host conditions; per-layer metrics are medians over the traced
/// repetitions. Either way every repetition's jobs are counted and checked,
/// and all repetitions must agree byte for byte.
fn measure<R, U, T>(
    workload: Workload,
    budget: Duration,
    traced: bool,
    mut plan: Plan<U, T>,
) -> Result<Outcome, String>
where
    R: Repetition,
    U: FnMut() -> Result<R, String>,
    T: FnMut() -> Result<(R, Readings), String>,
{
    // The process's peak RSS once the first repetition is done: later
    // repetitions reuse a heap the allocator has already grown and
    // fragmented, which moves the high-water mark by over 10% between runs.
    let mut peak_rss = None;
    let (runs, traced_runs): (Vec<R>, Vec<(R, Readings)>) = if traced {
        repeat(budget, 1, || Ok(((plan.untraced)()?, (plan.traced)()?)))?
            .into_iter()
            .unzip()
    } else {
        let runs = repeat(budget, plan.min_repetitions, || {
            let run = (plan.untraced)()?;
            peak_rss = peak_rss.or_else(hierdrl_exp::report::peak_rss_bytes);
            Ok(run)
        })?;
        (runs, Vec::new())
    };
    let all: Vec<&R> = runs
        .iter()
        .chain(traced_runs.iter().map(|(r, _)| r))
        .collect();
    for (i, run) in all.iter().enumerate() {
        eprintln!(
            "repetition {i}: setup {:.4e} s, eval {:.1} jobs/s",
            run.setup_s(),
            run.jobs_per_s()
        );
    }

    let mut out = Outcome::default();
    check_results(
        &mut out,
        workload.name(),
        all.iter().flat_map(|r| r.results()),
    );
    let outputs: Vec<String> = all.iter().map(|r| r.output()).collect();
    let same = outputs.windows(2).all(|w| w[0] == w[1]);
    let label = if traced {
        "traced and untraced runs give identical simulated outputs"
    } else {
        "repetitions give identical simulated outputs"
    };
    out.check(
        label,
        same,
        format!("{} runs, all identical: {same}", outputs.len()),
    );
    let totals: Vec<_> = runs[0]
        .results()
        .into_iter()
        .map(|(r, _)| r.outcome.totals)
        .collect();
    let jobs: u64 = totals.iter().map(|t| t.jobs_completed).sum();
    let energy: f64 = totals.iter().map(|t| t.energy_joules).sum();
    let latency: f64 = totals.iter().map(|t| t.total_latency_s).sum();
    out.set("energy_per_job_j", energy / jobs as f64);
    out.set("latency_per_job_s", latency / jobs as f64);

    let jobs_per_s: Vec<f64> = runs.iter().map(R::jobs_per_s).collect();
    if traced {
        for name in traced_runs[0].1.keys() {
            let values: Vec<f64> = traced_runs
                .iter()
                .filter_map(|(_, r)| r.get(name).copied())
                .collect();
            out.set(name, median(&values));
        }
        let off = median(&jobs_per_s);
        let on = median(
            &traced_runs
                .iter()
                .map(|(r, _)| r.jobs_per_s())
                .collect::<Vec<_>>(),
        );
        out.set("bench.tracing_overhead_pct", (off - on) / off * 100.0);
    } else {
        out.set("jobs_per_s", median(&jobs_per_s));
        out.set(
            "setup_s",
            median(&runs.iter().map(R::setup_s).collect::<Vec<_>>()),
        );
        out.set(
            "peak_rss_mib",
            peak_rss.unwrap_or(0) as f64 / (1024.0 * 1024.0),
        );
    }
    Ok(out)
}

fn result_json(result: &ExperimentResult) -> String {
    serde_json::to_string(result).expect("experiment result serializes")
}

/// Counts the jobs of every `(result, offered jobs)` pair and checks that
/// each pair conserved its jobs (all arrived, all completed) and kept its
/// simulated metrics finite.
fn check_results<'a>(
    out: &mut Outcome,
    label: &str,
    results: impl IntoIterator<Item = (&'a ExperimentResult, u64)>,
) {
    let (mut runs, mut lost, mut not_finite) = (0, Vec::new(), Vec::new());
    for (result, offered) in results {
        let t = &result.outcome.totals;
        out.attempted += offered;
        out.completed += t.jobs_completed;
        runs += 1;
        if t.jobs_arrived != offered || t.jobs_completed != offered {
            lost.push(format!(
                "{}: {offered} offered, {} arrived, {} completed",
                result.name, t.jobs_arrived, t.jobs_completed
            ));
        }
        let mut values = vec![
            result.energy_per_job_j(),
            result.mean_latency_s(),
            t.energy_joules,
            t.total_latency_s,
        ];
        if let Some(latency) = &result.latency {
            values.extend([latency.p50, latency.p99, latency.max]);
        }
        if !values.iter().all(|v| v.is_finite()) {
            not_finite.push(format!("{}: {values:?}", result.name));
        }
    }
    let detail = |bad: &[String]| match bad.first() {
        None => format!("{runs} runs, all hold"),
        Some(first) => format!("{} of {runs} runs fail, first {first}", bad.len()),
    };
    out.check(
        format!("{label}: job conservation"),
        lost.is_empty(),
        detail(&lost),
    );
    out.check(
        format!("{label}: finite simulated metrics"),
        not_finite.is_empty(),
        detail(&not_finite),
    );
}

// ---------------------------------------------------------------- hier-*

/// One `hier-*` cell: the hierarchical framework (`w = 0.5`, tiers
/// co-pre-trained) on `Topology::paper(30)` with the paper workload.
#[derive(Debug, Clone)]
pub struct HierCell {
    /// The suite scenario whose learners are built and pre-trained.
    pub scenario: Scenario,
    /// The evaluation trace.
    pub eval: TraceSpec,
    /// The evaluation length pre-training is sized for.
    pub pretrain_basis: u64,
    /// Whether both tiers keep learning during evaluation.
    pub learning: bool,
}

/// One repetition of a `hier-*` cell.
#[derive(Debug)]
pub struct HierRun {
    /// Trace synthesis, pre-training and restore, seconds.
    pub setup_s: f64,
    /// The evaluation call, seconds.
    pub eval_s: f64,
    /// The evaluation result.
    pub result: ExperimentResult,
    /// Jobs in the evaluation trace.
    pub attempted: u64,
    /// Pre-training jobs.
    pub pretrain_jobs: u64,
    /// Allocator train steps during pre-training and during evaluation.
    pub train_steps: [u64; 2],
    /// Predictor observations and rejected observations during
    /// pre-training and during evaluation.
    pub predictor: [[u64; 2]; 2],
}

impl HierCell {
    /// The online-learning cell evaluating `eval_jobs` jobs, pre-trained as
    /// `SuiteRunner` pre-trains it.
    pub fn learn(seed: u64, eval_jobs: u64) -> Self {
        let scenario = hier_scenario(seed, eval_jobs);
        Self {
            eval: scenario.trace_spec(),
            scenario,
            pretrain_basis: eval_jobs,
            learning: true,
        }
    }

    /// The read-only cell: the policy of cell seed [`FROZEN_POLICY_SEED`]
    /// on a fixed pre-training budget, evaluated with learning off in both
    /// tiers on a long trace drawn from `seed`.
    pub fn frozen(seed: u64) -> Self {
        Self {
            scenario: hier_scenario(FROZEN_POLICY_SEED, FROZEN_JOBS),
            eval: hier_scenario(seed, FROZEN_JOBS).trace_spec(),
            pretrain_basis: FROZEN_PRETRAIN_BASIS,
            learning: false,
        }
    }

    /// Builds, pre-trains, restores and evaluates the cell, with both tiers
    /// behind timing decorators reporting to `rec`.
    ///
    /// # Errors
    ///
    /// Returns trace, pre-training or simulation errors.
    pub fn run(&self, rec: &Shared) -> Result<HierRun, String> {
        let scenario = &self.scenario;
        let PolicySpec::Hierarchical { pretrain, .. } = &scenario.policy else {
            return Err(format!("{}: not a hierarchical cell", scenario.id));
        };
        let cluster = scenario.topology.clusters()[0].clone();
        let drl_config = scenario.drl_config().ok_or("cell has no global tier")?;
        let dpm_config = scenario
            .co_pretrain_dpm_config()
            .ok_or("cell does not co-pre-train its local tier")?;

        let setup = open_phase(rec, Op::Setup);
        let started = Instant::now();
        let trace = timed(rec, Op::Materialize, || self.eval.materialize())?;
        let segments: Vec<Trace> = pretrain
            .segment_specs(
                cluster.num_servers,
                self.pretrain_basis,
                &scenario.workload,
                scenario.policy_seed(),
            )
            .iter()
            .map(|spec| timed(rec, Op::Materialize, || spec.materialize()))
            .collect::<Result<_, _>>()?;
        let mut allocator = Timed::new(
            DrlAllocator::new(cluster.effective_max(), cluster.resource_dims, drl_config),
            rec,
        );
        let mut power = Timed::new(RlPowerManager::for_cluster(&cluster, dpm_config), rec);
        timed(rec, Op::Pretrain, || {
            pretrain_pair(&mut allocator, &mut power, &cluster, &segments)
        })?;
        let setup_steps = allocator.inner.stats().train_steps;
        let setup_predictor = [
            power.inner.predictor_observations(),
            power.inner.rejected_observations(),
        ];
        // Restore both tiers from their snapshots, as the suite runner
        // hands pre-trained tiers to a cell.
        let (mut allocator, mut power) = timed(rec, Op::Restore, || {
            (
                DrlAllocator::from_snapshot(allocator.inner.snapshot()),
                RlPowerManager::from_snapshot_for_cluster(&cluster, power.inner.snapshot()),
            )
        });
        if !self.learning {
            allocator.set_learning(false);
            power.set_learning(false);
        }
        let setup_s = started.elapsed().as_secs_f64();
        close_phase(rec, setup);

        let before = (
            allocator.stats().train_steps,
            power.predictor_observations(),
            power.rejected_observations(),
        );
        let mut allocator = Timed::new(allocator, rec);
        let mut power = Timed::new(power, rec);
        let name = scenario.policy.name();
        let eval = open_phase(rec, Op::Eval);
        let started = Instant::now();
        let result = Experiment::new(&name, &cluster, &trace)
            .with_limit(scenario.run_limit())
            .run(&mut allocator, &mut power)?;
        let eval_s = started.elapsed().as_secs_f64();
        close_phase(rec, eval);
        Ok(HierRun {
            setup_s,
            eval_s,
            attempted: trace.len() as u64,
            pretrain_jobs: segments.iter().map(|s| s.len() as u64).sum(),
            train_steps: [setup_steps, allocator.inner.stats().train_steps - before.0],
            predictor: [
                setup_predictor,
                [
                    power.inner.predictor_observations() - before.1,
                    power.inner.rejected_observations() - before.2,
                ],
            ],
            result,
        })
    }
}

fn hier_scenario(seed: u64, eval_jobs: u64) -> Scenario {
    Scenario::new(
        Topology::paper(HIER_M),
        WorkloadSpec::paper().with_total_jobs(eval_jobs),
        PolicySpec::hierarchical(0.5),
        seed,
        None,
    )
}

impl Repetition for HierRun {
    fn results(&self) -> Vec<(&ExperimentResult, u64)> {
        vec![(&self.result, self.attempted)]
    }

    fn output(&self) -> String {
        result_json(&self.result)
    }

    fn jobs_per_s(&self) -> f64 {
        self.result.outcome.totals.jobs_completed as f64 / self.eval_s
    }

    fn setup_s(&self) -> f64 {
        self.setup_s
    }
}

fn run_hier(
    workload: Workload,
    cell: &HierCell,
    seed: u64,
    budget: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    let off = Recorder::shared(Mode::Off);
    let plan = Plan {
        min_repetitions: 3,
        untraced: || cell.run(&off),
        traced: || {
            let rec = Recorder::shared(Mode::Spans);
            let run = cell.run(&rec)?;
            let r = rec.borrow();
            write_spans(&r, &format!("{}-s{seed}", workload.name()));
            let readings = hier_layers(r.spans(), &run);
            Ok((run, readings))
        },
    };
    measure(workload, budget, traced, plan)
}

/// Span files go under `perfbench/out/` in the working directory; failing
/// to write one is reported but does not fail the run.
fn write_spans(rec: &Recorder, label: &str) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("{label}.spans.tsv"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| rec.write_spans(&path));
    match written {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn us(samples: &[f64], q: f64) -> f64 {
    tail(samples, q).map_or(0.0, |t| t.value * 1e6)
}

/// Per-layer readings of one traced `hier-*` repetition.
fn hier_layers(spans: &[Span], run: &HierRun) -> Readings {
    let mut out = Readings::new();
    let phase_id = |op: Op| spans.iter().position(|s| s.op == op);
    let (Some(setup), Some(eval)) = (phase_id(Op::Setup), phase_id(Op::Eval)) else {
        return out;
    };
    let total = |op: Op| -> f64 {
        spans
            .iter()
            .filter(|s| s.op == op && s.parent == setup as u32)
            .map(Span::secs)
            .sum()
    };
    out.insert("trace.materialize_s".into(), total(Op::Materialize));
    out.insert(
        "trace.jobs".into(),
        (run.attempted + run.pretrain_jobs) as f64,
    );
    out.insert("core.pretrain_s".into(), total(Op::Pretrain));
    out.insert("core.restore_s".into(), total(Op::Restore));
    let pretrain_s = total(Op::Pretrain);
    let eval_s = spans[eval].secs();
    for (prefix, phase, wall, jobs, steps, predictor) in [
        (
            "setup.",
            setup,
            pretrain_s,
            run.pretrain_jobs,
            run.train_steps[0],
            run.predictor[0],
        ),
        (
            "",
            eval,
            eval_s,
            run.attempted,
            run.train_steps[1],
            run.predictor[1],
        ),
    ] {
        let durations = |op: Op| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.op == op && s.parent == phase as u32)
                .map(Span::secs)
                .collect()
        };
        let mut inside = 0.0;
        let mut put = |name: &str, value: f64| out.insert(format!("{prefix}{name}"), value);
        for (op, key) in [
            (Op::Decide, "core.alloc.decide"),
            (Op::Train, "core.alloc.train"),
            (Op::Arrival, "core.dpm.arrival"),
            (Op::Idle, "core.dpm.idle"),
        ] {
            let d = durations(op);
            let sum: f64 = d.iter().sum();
            inside += sum;
            put(&format!("{key}_calls"), d.len() as f64);
            put(&format!("{key}_s"), sum);
            put(&format!("{key}_us_p50"), us(&d, 0.5));
            if op != Op::Idle {
                put(&format!("{key}_us_p99"), us(&d, 0.99));
            }
        }
        let ae: f64 = durations(Op::AePretrain).iter().sum();
        inside += ae;
        put("core.alloc.ae_pretrain_s", ae);
        put("core.alloc.train_steps", steps as f64);
        put("core.dpm.predictor_observations", predictor[0] as f64);
        put("core.dpm.rejected_observations", predictor[1] as f64);
        put("sim.self_s", wall - inside);
        put("sim.self_us_per_job", (wall - inside) / jobs as f64 * 1e6);
    }

    // Control-plane time per arrival: a job's `select` plus its
    // `on_job_arrival`, joined on the request id.
    let mut per_job: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == eval as u32) {
        if matches!(s.op, Op::Decide | Op::Train | Op::AePretrain | Op::Arrival) {
            *per_job.entry(s.request).or_default() += s.secs();
        }
    }
    let decisions: Vec<f64> = per_job.into_values().collect();
    out.insert("core.decision_us_p99".into(), us(&decisions, 0.99));
    out.insert("core.decision_samples".into(), decisions.len() as f64);
    out.insert(
        "sim.wake_transitions".into(),
        run.result.fleet.total_wake_transitions as f64,
    );
    out.insert(
        "sim.job_latency_p99_s".into(),
        run.result.latency.map_or(0.0, |l| l.p99),
    );
    out
}

// ---------------------------------------------------------- scale-stream

fn scale_spec(seed: u64) -> ScaleSpec {
    ScaleSpec {
        m: RAW_SCALE_M,
        jobs: SCALE_JOBS,
        seed,
    }
}

/// One `scale-stream` repetition.
#[derive(Debug)]
pub struct ScaleRun {
    /// The simulated result.
    pub result: ExperimentResult,
    /// Jobs the stream offered.
    pub offered: u64,
    /// Building the cluster configuration and the stream, seconds.
    pub setup_s: f64,
    /// The `run_streamed` call, seconds.
    pub eval_s: f64,
}

impl Repetition for ScaleRun {
    fn results(&self) -> Vec<(&ExperimentResult, u64)> {
        vec![(&self.result, self.offered)]
    }

    fn output(&self) -> String {
        result_json(&self.result)
    }

    fn jobs_per_s(&self) -> f64 {
        self.result.outcome.totals.jobs_completed as f64 / self.eval_s
    }

    fn setup_s(&self) -> f64 {
        self.setup_s
    }
}

/// One streamed raw-scale run under `rr-timeout-60s`: round-robin
/// placement, 60 s sleep timeout, lazy accounting, no job retention.
///
/// # Errors
///
/// Returns configuration errors.
pub fn scale_once(
    spec: &ScaleSpec,
    rec: &Shared,
    stream: Option<Arc<StreamCounter>>,
) -> Result<ScaleRun, String> {
    let started = Instant::now();
    let (mut built, mut builds) = ((spec.cluster(), spec.trace_spec().stream()), 1u32);
    while started.elapsed() < SETUP_BATCH {
        built = (spec.cluster(), spec.trace_spec().stream());
        builds += 1;
    }
    let setup_s = started.elapsed().as_secs_f64() / f64::from(builds);
    let (cluster, generator) = built;
    let arrivals = ArrivalSource::from_stream(TimedStream::new(generator?, stream));
    let mut allocator = Timed::new(RoundRobinAllocator::new(), rec);
    let mut power = Timed::new(FixedTimeoutPower::new(RAW_SCALE_TIMEOUT_S), rec);
    let started = Instant::now();
    let result = run_streamed(
        SCALE_POLICY,
        &cluster,
        arrivals,
        &mut allocator,
        &mut power,
        RunLimit::unbounded(),
    )?;
    Ok(ScaleRun {
        result,
        offered: spec.jobs,
        setup_s,
        eval_s: started.elapsed().as_secs_f64(),
    })
}

/// One traced `scale-stream` repetition. Per-call spans of this many jobs
/// would dominate memory, and a clock read costs about a static policy
/// call, so it samples per-layer busy time instead.
fn scale_traced(spec: &ScaleSpec) -> Result<(ScaleRun, Readings), String> {
    let rec = Recorder::shared(Mode::Sampled);
    let stream = Arc::new(StreamCounter::default());
    let run = scale_once(spec, &rec, Some(stream.clone()))?;
    let r = rec.borrow();
    let stream_s = stream.estimated_busy_s();
    let policy_s: f64 = [Op::Decide, Op::Arrival, Op::Idle]
        .iter()
        .map(|&op| r.estimated_busy_s(op))
        .sum();
    let self_s = run.eval_s - stream_s - policy_s;
    let jobs = stream.jobs.load(Ordering::Relaxed) as f64;
    let readings = Readings::from([
        ("trace.stream_s".to_string(), stream_s),
        ("trace.jobs".to_string(), jobs),
        ("sim.policy_s".to_string(), policy_s),
        ("sim.self_s".to_string(), self_s),
        ("sim.self_us_per_job".to_string(), self_s / jobs * 1e6),
        (
            "sim.wake_transitions".to_string(),
            run.result.fleet.total_wake_transitions as f64,
        ),
    ]);
    Ok((run, readings))
}

fn run_scale(seed: u64, budget: Duration, traced: bool) -> Result<Outcome, String> {
    let spec = scale_spec(seed);
    let off = Recorder::shared(Mode::Off);
    let plan = Plan {
        min_repetitions: 2,
        untraced: || scale_once(&spec, &off, None),
        traced: || scale_traced(&spec),
    };
    measure(Workload::ScaleStream, budget, traced, plan)
}

// ---------------------------------------------------------- suite-table1

/// `presets::table1(Scale::quick())` with every cell re-seeded to `seed`.
pub fn table1_suite(seed: u64) -> Suite {
    let mut suite = presets::table1(Scale::quick());
    suite.scenarios = suite
        .scenarios
        .iter()
        .map(|s| {
            let mut cell = Scenario::new(
                s.topology.clone(),
                s.workload.clone(),
                s.policy.clone(),
                seed,
                s.max_jobs,
            );
            if let Some(drift) = &s.drift {
                cell = cell.with_drift(drift.clone());
            }
            if let Some(fault) = &s.fault {
                cell = cell.with_fault(fault.clone());
            }
            if let Some(elastic) = &s.elastic {
                cell = cell.with_elastic(elastic.clone());
            }
            cell
        })
        .collect();
    suite
}

/// One `suite-table1` repetition.
#[derive(Debug)]
pub struct SuiteOnce {
    /// The suite run.
    pub run: SuiteRun,
    /// Synthesizing the evaluation traces, seconds.
    pub setup_s: f64,
    /// The `SuiteRunner::run` call, seconds.
    pub wall_s: f64,
}

impl Repetition for SuiteOnce {
    /// Every cell, offered the jobs of its own trace recipes.
    fn results(&self) -> Vec<(&ExperimentResult, u64)> {
        self.run
            .cells
            .iter()
            .map(|cell| {
                let offered: u64 = cell
                    .scenario
                    .segment_trace_specs()
                    .iter()
                    .map(|s| s.jobs as u64)
                    .sum();
                (&cell.result, offered)
            })
            .collect()
    }

    fn output(&self) -> String {
        self.run.report().to_json()
    }

    fn jobs_per_s(&self) -> f64 {
        let jobs: u64 = self
            .run
            .cells
            .iter()
            .map(|c| c.result.outcome.totals.jobs_completed)
            .sum();
        jobs as f64 / self.wall_s
    }

    fn setup_s(&self) -> f64 {
        self.setup_s
    }
}

/// One suite run. Set-up synthesizes the grid's evaluation traces into a
/// fresh trace cache that the runner then shares, as `hier-*` set-up
/// synthesizes its trace; pre-training traces stay inside the run. Set-up
/// takes ~8 ms, so it runs [`SUITE_SETUPS`] times and reports the median;
/// the runner gets the last cache.
///
/// # Errors
///
/// Returns trace or cell errors.
pub fn suite_once(suite: &Suite) -> Result<SuiteOnce, String> {
    let mut setups = Vec::with_capacity(SUITE_SETUPS);
    let mut traces = Arc::new(TraceCache::new());
    for _ in 0..SUITE_SETUPS {
        let started = Instant::now();
        traces = Arc::new(TraceCache::new());
        for spec in suite
            .scenarios
            .iter()
            .flat_map(Scenario::segment_trace_specs)
        {
            traces.get(&spec)?;
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    let runner = SuiteRunner::new()
        .with_threads(SUITE_THREADS)
        .with_trace_cache(traces);
    let started = Instant::now();
    let run = runner.run(suite)?;
    Ok(SuiteOnce {
        wall_s: started.elapsed().as_secs_f64(),
        setup_s: median(&setups),
        run,
    })
}

/// Per-layer readings of one suite run. The suite runner is timed from
/// outside only and has no decorator to trace: its cells, caches and pool
/// are read back from its bench report.
fn suite_layers(once: &SuiteOnce) -> Readings {
    let bench = once.run.bench_report();
    let wakes: u64 = once
        .run
        .cells
        .iter()
        .map(|c| c.result.fleet.total_wake_transitions)
        .sum();
    Readings::from([
        ("exp.cells".to_string(), bench.cells_total as f64),
        (
            "exp.traces_materialized".to_string(),
            bench.traces_materialized as f64,
        ),
        (
            "exp.trace_cache_hits".to_string(),
            bench.trace_cache_hits as f64,
        ),
        ("exp.cell_wall_sum_s".to_string(), bench.cell_wall_s_sum),
        (
            "exp.slowest_cell_s".to_string(),
            bench.cells.iter().map(|c| c.wall_s).fold(0.0, f64::max),
        ),
        (
            "exp.parallel_efficiency".to_string(),
            bench.cell_wall_s_sum / (bench.threads as f64 * once.wall_s),
        ),
        ("sim.wake_transitions".to_string(), wakes as f64),
    ])
}

fn run_suite(seed: u64, budget: Duration, traced: bool) -> Result<Outcome, String> {
    let suite = table1_suite(seed);
    let plan = Plan {
        min_repetitions: 2,
        untraced: || suite_once(&suite),
        traced: || {
            let once = suite_once(&suite)?;
            let readings = suite_layers(&once);
            Ok((once, readings))
        },
    };
    measure(Workload::SuiteTable1, budget, traced, plan)
}
