//! The timing decorators are transparent: a benchmark-built cell produces
//! the simulated output the repository's own runners produce, whether its
//! recorder is off, keeps counters, or keeps spans.
//!
//! The cells are small but still learn at M = 30; run with `--release`.

use hierdrl_exp::presets::{table1, Scale};
use hierdrl_exp::runner::SuiteRunner;
use hierdrl_exp::scale::{run_scale_cell, ScaleSpec};
use hierdrl_exp::suite::Suite;
use hierdrl_perfbench::probe::{Mode, Op, Recorder, StreamCounter};
use hierdrl_perfbench::workloads::{scale_once, suite_once, HierCell, SCALE_POLICY};
use std::sync::Arc;

const MODES: [Mode; 3] = [Mode::Off, Mode::Sampled, Mode::Spans];

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

#[test]
fn hier_learn_cell_is_byte_identical_to_suite_runner() {
    let cell = HierCell::learn(42, 600);
    let suite = Suite {
        name: "decorators".into(),
        scenarios: vec![cell.scenario.clone()],
        expectations: Vec::new(),
    };
    let run = SuiteRunner::serial().run(&suite).expect("suite runs");
    let expected = json(&run.cells[0].result);
    for mode in MODES {
        let rec = Recorder::shared(mode);
        let got = cell.run(&rec).expect("cell runs");
        assert_eq!(json(&got.result), expected, "recorder mode {mode:?}");
    }
}

#[test]
fn traced_hier_cell_records_every_eval_decision() {
    let cell = HierCell::learn(7, 400);
    let rec = Recorder::shared(Mode::Spans);
    let run = cell.run(&rec).expect("cell runs");
    let spans = rec.borrow();
    let eval = spans
        .spans()
        .iter()
        .position(|s| s.op == Op::Eval)
        .expect("eval phase span") as u32;
    let in_eval = |ops: &[Op]| {
        spans
            .spans()
            .iter()
            .filter(|s| s.parent == eval && ops.contains(&s.op))
            .count() as u64
    };
    assert_eq!(
        in_eval(&[Op::Decide, Op::Train, Op::AePretrain]),
        run.attempted
    );
    assert_eq!(in_eval(&[Op::Arrival]), run.attempted);
    // Online learning trains every other decision.
    let train = in_eval(&[Op::Train]);
    assert!(
        train > 0 && train <= run.train_steps[1],
        "{train} train calls"
    );
}

#[test]
fn frozen_cell_gives_identical_outputs_traced_and_untraced() {
    let cell = HierCell {
        learning: false,
        pretrain_basis: 400,
        ..HierCell::learn(3, 800)
    };
    let outputs: Vec<String> = MODES
        .iter()
        .map(|&mode| json(&cell.run(&Recorder::shared(mode)).expect("cell runs").result))
        .collect();
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn scale_run_is_byte_identical_to_the_scale_regime() {
    let spec = ScaleSpec {
        m: 2_000,
        jobs: 20_000,
        seed: 5,
    };
    let expected = run_scale_cell(&spec, SCALE_POLICY).expect("scale cell runs");
    for mode in MODES {
        let counter = (mode != Mode::Off).then(|| Arc::new(StreamCounter::default()));
        let run = scale_once(&spec, &Recorder::shared(mode), counter.clone()).expect("runs");
        assert_eq!(json(&run.result), json(&expected.result), "mode {mode:?}");
        if let Some(counter) = counter {
            let jobs = counter.jobs.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(jobs, spec.jobs);
        }
    }
}

#[test]
fn seeding_the_trace_cache_leaves_the_suite_report_unchanged() {
    let suite = table1(Scale { m: 4, jobs: 400 });
    let plain = SuiteRunner::new()
        .with_threads(2)
        .run(&suite)
        .expect("suite runs");
    let seeded = suite_once(&suite).expect("suite runs");
    assert_eq!(seeded.run.report().to_json(), plain.report().to_json());
    assert!(seeded.run.trace_cache_hits > plain.trace_cache_hits);
}
