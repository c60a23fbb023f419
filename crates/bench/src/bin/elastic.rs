//! Elastic-fleet sweep: {fixed, threshold, learned} × {round-robin,
//! DRL-only, hierarchical}, every autoscaled cell next to its fixed-fleet
//! twin, with the suite's declarative expectations — job conservation
//! through join/leave churn, determinism pins, and the autoscale-economics
//! headline (does scaling the fleet with the hierarchical learner beat
//! leaving the whole fleet to DPM sleep on energy-per-job, at equal
//! latency?) — evaluated and printed as pass/fail rows. Exits nonzero if
//! any expectation fails, so CI can gate on the run directly.
//!
//! ```sh
//! cargo run --release -p hierdrl-bench --bin elastic            # paper scale
//! cargo run --release -p hierdrl-bench --bin elastic -- --quick # smoke scale
//! cargo run --release -p hierdrl-bench --bin elastic -- --elastics fixed,threshold
//! cargo run --release -p hierdrl-bench --bin elastic -- --merge /tmp/BENCH_suite.json
//! ```

use hierdrl_exp::cli::SweepArgs;
use hierdrl_exp::presets::{self, Scale, ELASTIC_NAMES};

fn main() {
    let args = SweepArgs::from_env();
    let scale = args.scale(Scale::paper(30));
    let names = args.elastic_names(&ELASTIC_NAMES);
    let runner = args.runner();
    eprintln!(
        "elastic: M = {}, jobs = {}, autoscalers = {}, threads = {}",
        scale.m,
        scale.jobs,
        names.join(","),
        runner.threads()
    );
    let suite = presets::elastic(scale, &names);
    let run = runner.run(&suite).expect("elastic suite");
    let report = run.report();

    println!(
        "{:<56} {:<10} {:>13} {:>6} {:>9} {:>9} {:>7}",
        "cell", "elastic", "fleet min/max", "jobs", "lat s/job", "J/job", "sleep%"
    );
    for cell in &report.cells {
        let fleet = cell
            .fleet_size
            .as_ref()
            .expect("every fresh cell reports its fleet-size columns");
        println!(
            "{:<56} {:<10} {:>5}/{:<3} ~{:<4.1} {:>6} {:>9.2} {:>9.0} {:>6.1}%",
            cell.id,
            cell.elastic.as_deref().unwrap_or("-"),
            fleet.min,
            fleet.max,
            fleet.mean,
            cell.metrics.jobs_completed,
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
    assert!(
        bench.cells.iter().all(|c| c.fleet_size.is_some()),
        "elastic bench rows must carry fleet_size columns"
    );
    eprintln!(
        "\nsuite: {} cells in {:.2}s wall ({:.0} jobs/s aggregate)",
        bench.cells_total, bench.total_wall_s, bench.jobs_per_s
    );
    match args.merge.as_deref() {
        Some(path) => {
            // Fold the elastic rows (and expectation verdicts) into an
            // existing `BENCH_suite.json`-shaped artifact in place — the
            // path CI uses to put autoscaled cells in front of `perf_gate`
            // without disturbing the suite rows already there.
            bench
                .merge_into_file(path)
                .unwrap_or_else(|e| panic!("elastic: {e}"));
            eprintln!("merged elastic cells + expectations into {path}");
        }
        None => {
            // Not `BENCH_suite.json`: that name is the committed baseline.
            let out = args.out.as_deref().unwrap_or("BENCH_elastic.json");
            std::fs::write(out, bench.to_json_pretty() + "\n").expect("write bench artifact");
            eprintln!("wrote {out}");
        }
    }

    assert!(
        failed == 0,
        "{failed} suite expectation(s) failed — see the FAIL rows above"
    );
}
