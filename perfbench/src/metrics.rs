//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test keeps the two in step.

use std::collections::BTreeMap;

/// Whether a larger or a smaller reading is the improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

fn def(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
    }
}

/// Metrics of the untraced run (`--trace 0`), printed on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("jobs_per_s", "1/s", Higher),
        def("setup_s", "s", Lower),
        def("peak_rss_mib", "MiB", Lower),
        def("energy_per_job_j", "J", Lower),
        def("latency_per_job_s", "s", Lower),
    ]
}

/// Control-plane and simulator metrics that exist both for evaluation and,
/// prefixed `setup.`, for the pre-training rollouts.
fn phase_metrics() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("core.alloc.decide_calls", "count", Higher),
        def("core.alloc.decide_s", "s", Lower),
        def("core.alloc.decide_us_p50", "us", Lower),
        def("core.alloc.decide_us_p99", "us", Lower),
        def("core.alloc.train_calls", "count", Higher),
        def("core.alloc.train_s", "s", Lower),
        def("core.alloc.train_us_p50", "us", Lower),
        def("core.alloc.train_us_p99", "us", Lower),
        def("core.alloc.train_steps", "count", Higher),
        def("core.alloc.ae_pretrain_s", "s", Lower),
        def("core.dpm.arrival_calls", "count", Higher),
        def("core.dpm.arrival_s", "s", Lower),
        def("core.dpm.arrival_us_p50", "us", Lower),
        def("core.dpm.arrival_us_p99", "us", Lower),
        def("core.dpm.idle_calls", "count", Higher),
        def("core.dpm.idle_s", "s", Lower),
        def("core.dpm.idle_us_p50", "us", Lower),
        def("core.dpm.predictor_observations", "count", Higher),
        def("core.dpm.rejected_observations", "count", Lower),
        def("sim.self_s", "s", Lower),
        def("sim.self_us_per_job", "us", Lower),
    ]
}

/// Metrics of the traced run (`--trace 1`), printed on every workload; a
/// layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = vec![
        def("trace.materialize_s", "s", Lower),
        def("trace.stream_s", "s", Lower),
        def("trace.jobs", "count", Higher),
        def("core.pretrain_s", "s", Lower),
        def("core.restore_s", "s", Lower),
        def("core.decision_us_p99", "us", Lower),
        def("core.decision_samples", "count", Higher),
    ];
    defs.extend(phase_metrics());
    defs.extend(phase_metrics().into_iter().map(|d| MetricDef {
        name: format!("setup.{}", d.name),
        ..d
    }));
    defs.extend([
        def("sim.policy_s", "s", Lower),
        def("sim.wake_transitions", "count", Lower),
        def("sim.job_latency_p99_s", "s", Lower),
        def("exp.cells", "count", Higher),
        def("exp.traces_materialized", "count", Lower),
        def("exp.trace_cache_hits", "count", Higher),
        def("exp.cell_wall_sum_s", "s", Lower),
        def("exp.slowest_cell_s", "s", Lower),
        def("exp.parallel_efficiency", "ratio", Higher),
        def("bench.tracing_overhead_pct", "%", Lower),
    ]);
    defs
}

/// One correctness check of a run.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

impl Check {
    /// A check named `name` holding when `ok`.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything a run reports: jobs attempted and completed, checks,
/// metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs offered to the simulator, over every repetition.
    pub attempted: u64,
    /// Jobs completed, over every repetition.
    pub completed: u64,
    /// Correctness checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Metric readings by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric reading (`-0.0`, the sum of no samples, as `0`).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value + 0.0);
    }

    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Failed jobs: those not completed, or every attempted job once any
    /// check failed, since a failed check fails the run.
    pub fn failed(&self) -> u64 {
        if self.correct() {
            self.attempted - self.completed.min(self.attempted)
        } else {
            self.attempted
        }
    }

    /// The result line: `defs` in order (0 where the workload does not
    /// exercise the metric), with units.
    pub fn json_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = self.values.get(&d.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(value),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of the reading (`null` if not finite,
/// which a failed finiteness check reports alongside).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<MetricDef> = end_to_end();
        all.extend(per_layer());
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn json_line_lists_every_metric_once() {
        let mut out = Outcome {
            attempted: 10,
            completed: 10,
            ..Outcome::default()
        };
        out.check("ok", true, "");
        out.set("jobs_per_s", 1234.5);
        let line = out.json_line(&end_to_end());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"jobs_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"value\"").count(), end_to_end().len());
    }

    #[test]
    fn a_failed_check_fails_every_job() {
        let mut out = Outcome {
            attempted: 10,
            completed: 9,
            ..Outcome::default()
        };
        out.check("ok", true, "");
        assert_eq!(out.failed(), 1);
        out.check("bad", false, "");
        assert_eq!(out.failed(), 10);
        assert!(!out.correct());
    }
}
