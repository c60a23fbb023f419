//! Behavioural pin: the canonical [`SuiteReport`] of a small grid that
//! crosses every topology kind with every runner axis, simulated for real
//! and byte-compared against a committed file.
//!
//! The schema golden (`tests/golden.rs`) is built from fixed values and
//! cannot notice a change to a simulated number; this file can. Any
//! refactor of the runner, the merges, the seed derivation, or the
//! simulator that moves one bit of one cell fails here.
//!
//! The grid: a single paper cluster, a single big/little cluster, and a
//! two-cluster capacity-routed fleet, each crossed with {plain, rate-step
//! drift, crash storm, arrival spike, threshold autoscaling} and
//! {round-robin, quick DRL, quick hierarchical}; plus one real-trace
//! fixture cell and one `max_jobs` cell per topology. To regenerate after
//! an intentional behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p hierdrl-exp --test behaviour
//! ```

use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_exp::prelude::*;
use std::path::PathBuf;

/// A cheap DRL variant so learned-policy cells stay fast in debug builds.
fn quick_config() -> DrlAllocatorConfig {
    DrlAllocatorConfig {
        warmup_decisions: 20,
        ae_pretrain_samples: 50,
        ae_epochs: 2,
        minibatch: 8,
        train_interval: 8,
        ..Default::default()
    }
}

fn quick_pretrain() -> Pretrain {
    Pretrain {
        segments: 1,
        fraction: 0.5,
    }
}

fn policies() -> [PolicySpec; 3] {
    [
        PolicySpec::round_robin(),
        PolicySpec::drl_variant("drl-quick", quick_config(), quick_pretrain()),
        PolicySpec::hierarchical_variant(0.5, quick_config(), quick_pretrain()),
    ]
}

fn topologies() -> [Topology; 3] {
    [
        Topology::paper(5),
        Topology::big_little(6, 0.34, 2.0),
        Topology::sharded_paper(2, 6, RouterPolicy::WeightedByCapacity),
    ]
}

const STREAM_JOBS: u64 = 200;
const SEED: u64 = 13;

fn grid(name: &str) -> SuiteBuilder {
    Suite::builder(name)
        .topologies(topologies())
        .workloads([WorkloadSpec::paper().with_total_jobs(STREAM_JOBS)])
        .policies(policies())
        .seeds([SEED])
}

/// The committed Google fixture, by a path relative to this package (the
/// working directory of its tests): the path lands in the report's
/// provenance columns, so it must not depend on where the checkout lives.
fn google_fixture() -> WorkloadSpec {
    WorkloadSpec::real_trace(
        "real-google",
        "../trace/tests/fixtures/google_task_events.csv",
        TraceFormat::GoogleTaskEvents,
    )
}

/// Every cell of the pin, in a fixed order.
fn pin_suite() -> Suite {
    let parts = [
        grid("plain").build(),
        grid("drift").drifts([DriftSpec::rate_step(2.0)]).build(),
        grid("faults")
            .faults([FaultSpec::crash_storm(), FaultSpec::arrival_spike()])
            .build(),
        grid("elastic").elastics([ElasticSpec::threshold()]).build(),
        Suite::builder("real")
            .topologies([Topology::paper(5)])
            .workloads([google_fixture()])
            .policies([PolicySpec::round_robin()])
            .seeds([SEED])
            .build(),
        Suite::builder("limit")
            .topologies(topologies())
            .workloads([WorkloadSpec::paper().with_total_jobs(STREAM_JOBS)])
            .policies([PolicySpec::round_robin()])
            // A distinct seed keeps the capped cells' ids unique.
            .seeds([SEED + 1])
            .limit_jobs(120)
            .build(),
    ];
    Suite {
        name: "behaviour-pin".into(),
        scenarios: parts.into_iter().flat_map(|s| s.scenarios).collect(),
        expectations: Vec::new(),
    }
}

fn pin_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/behaviour_report.json")
}

#[test]
fn simulated_report_matches_behaviour_pin() {
    let suite = pin_suite();
    assert_eq!(suite.len(), 3 * 3 * 5 + 1 + 3);
    let run = SuiteRunner::new()
        .with_threads(2)
        .run(&suite)
        .expect("pin suite runs");
    let rendered = run.report().to_json_pretty() + "\n";
    let path = pin_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write behaviour pin");
        return;
    }
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    // Compare cell by cell first, so a failure names the cell that moved.
    let committed_report: SuiteReport =
        serde_json::from_str(&committed).expect("committed pin parses");
    for (now, then) in run.report().cells.iter().zip(&committed_report.cells) {
        assert_eq!(
            serde_json::to_string(now).expect("cell serializes"),
            serde_json::to_string(then).expect("cell serializes"),
            "cell {} moved from {}",
            now.id,
            path.display()
        );
    }
    assert_eq!(
        rendered,
        committed,
        "simulated SuiteReport drifted from {}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}
