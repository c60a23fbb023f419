//! The raw-scale regime benchmark: streams 10⁶ jobs through a 10⁵-server
//! fleet in bounded memory and reports jobs/s plus peak RSS per cell —
//! the throughput/memory gate next to the paper-fidelity suites.
//!
//! Cells run *sequentially* (the peak-RSS reading is a process-wide
//! high-water mark; see `hierdrl_exp::scale`), under O(1)-per-decision
//! policies only. With `--merge` the rows fold into an existing
//! `BENCH_suite.json`-shaped artifact in place, which is how CI feeds
//! them to `perf_gate`; without it a standalone artifact is written.
//!
//! ```sh
//! cargo run --release -p hierdrl-bench --bin scale                 # 100k/1M
//! cargo run --release -p hierdrl-bench --bin scale -- --quick      # CI smoke
//! cargo run --release -p hierdrl-bench --bin scale -- --merge /tmp/BENCH_suite.json
//! ```

use hierdrl_exp::cli::SweepArgs;
use hierdrl_exp::scale::{self, ScaleSpec};

fn main() {
    let args = SweepArgs::from_env();
    // Not `args.scale(..)`: its `--quick` caps (M = 10, 5k jobs) are sized
    // for learned-policy suites; the scale regime's smoke point stays two
    // orders of magnitude larger.
    let mut spec = if args.quick {
        ScaleSpec::quick()
    } else {
        ScaleSpec::raw()
    };
    if let Some(m) = args.m {
        spec.m = m;
    }
    if let Some(jobs) = args.jobs {
        spec.jobs = jobs;
    }
    eprintln!(
        "scale: M = {}, jobs = {} (streamed arrivals, lazy accounting, no retention)",
        spec.m, spec.jobs
    );

    let runs = scale::run_scale(&spec).expect("scale regime");
    println!(
        "| {:<42} | {:>9} | {:>8} | {:>12} | {:>12} |",
        "cell", "jobs", "wall (s)", "jobs/s", "peak RSS"
    );
    println!(
        "|{:-<44}|{:-<11}|{:-<10}|{:-<14}|{:-<14}|",
        "", "", "", "", ""
    );
    for run in &runs {
        let rss = match run.peak_rss_bytes {
            Some(bytes) => format!("{:.0} MiB", bytes as f64 / (1024.0 * 1024.0)),
            None => "-".to_string(),
        };
        println!(
            "| {:<42} | {:>9} | {:>8.2} | {:>12.0} | {:>12} |",
            run.id, run.result.outcome.totals.jobs_completed, run.wall_s, run.jobs_per_s, rss
        );
    }

    match args.merge.as_deref() {
        Some(path) => {
            scale::scale_bench_report(&runs)
                .merge_into_file(path)
                .unwrap_or_else(|e| panic!("scale: {e}"));
            eprintln!("merged {} scale cell(s) into {path}", runs.len());
        }
        None => {
            let report = scale::scale_bench_report(&runs);
            let out = args.out.as_deref().unwrap_or("BENCH_scale.json");
            std::fs::write(out, report.to_json_pretty() + "\n").expect("write bench artifact");
            eprintln!("wrote {out}");
        }
    }
}
