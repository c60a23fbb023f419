//! Chaos sweep: {no-fault, crash-storm, straggler-wave, cap-window} ×
//! {round-robin, DRL-only, hierarchical}, every fault cell next to its
//! fault-free twin, with the suite's declarative expectations — job
//! conservation through crash-requeue churn, determinism pins, and the
//! graceful-degradation headline (does the hierarchical framework lose
//! less of its Eqn.-4 objective under faults than round-robin?) —
//! evaluated and printed as pass/fail rows. Exits nonzero if any
//! expectation fails, so CI can gate on the run directly.
//!
//! ```sh
//! cargo run --release -p hierdrl-bench --bin chaos            # paper scale
//! cargo run --release -p hierdrl-bench --bin chaos -- --quick # smoke scale
//! cargo run --release -p hierdrl-bench --bin chaos -- --faults no-fault,crash-storm
//! cargo run --release -p hierdrl-bench --bin chaos -- --merge /tmp/BENCH_suite.json
//! ```

use hierdrl_exp::cli::SweepArgs;
use hierdrl_exp::presets::{self, Scale, FAULT_NAMES};

fn main() {
    let args = SweepArgs::from_env();
    let scale = args.scale(Scale::paper(30));
    let names = args.fault_names(&FAULT_NAMES);
    let runner = args.runner();
    eprintln!(
        "chaos: M = {}, jobs = {}, faults = {}, threads = {}",
        scale.m,
        scale.jobs,
        names.join(","),
        runner.threads()
    );
    let suite = presets::chaos(scale, &names);
    let run = runner.run(&suite).expect("chaos suite");
    let report = run.report();

    println!(
        "{:<56} {:<16} {:>6} {:>7} {:>9} {:>9} {:>7}",
        "cell", "fault", "jobs", "requeue", "lat s/job", "J/job", "sleep%"
    );
    for cell in &report.cells {
        println!(
            "{:<56} {:<16} {:>6} {:>7} {:>9.2} {:>9.0} {:>6.1}%",
            cell.id,
            cell.fault.as_deref().unwrap_or("-"),
            cell.metrics.jobs_completed,
            cell.jobs_requeued,
            cell.metrics.mean_latency_s,
            cell.metrics.energy_per_job_j,
            100.0 * cell.metrics.sleep_fraction,
        );
    }

    println!();
    let mut failed = 0usize;
    for row in &report.expectations {
        println!(
            "[{}] {}: {}",
            if row.passed { "PASS" } else { "FAIL" },
            row.name,
            row.detail
        );
        failed += usize::from(!row.passed);
    }

    let bench = run.bench_report();
    eprintln!(
        "\nsuite: {} cells in {:.2}s wall ({:.0} jobs/s aggregate)",
        bench.cells_total, bench.total_wall_s, bench.jobs_per_s
    );
    match args.merge.as_deref() {
        Some(path) => {
            // Fold the chaos rows (and expectation verdicts) into an
            // existing `BENCH_suite.json`-shaped artifact in place — the
            // path CI uses to put fault cells in front of `perf_gate`
            // without disturbing the suite rows already there.
            bench
                .merge_into_file(path)
                .unwrap_or_else(|e| panic!("chaos: {e}"));
            eprintln!("merged chaos cells + expectations into {path}");
        }
        None => {
            // Not `BENCH_suite.json`: that name is the committed baseline.
            let out = args.out.as_deref().unwrap_or("BENCH_chaos.json");
            std::fs::write(out, bench.to_json_pretty() + "\n").expect("write bench artifact");
            eprintln!("wrote {out}");
        }
    }

    assert!(
        failed == 0,
        "{failed} suite expectation(s) failed — see the FAIL rows above"
    );
}
