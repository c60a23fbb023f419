//! Multi-cluster sharding: the sharded (multi-thread) suite run must be
//! byte-identical to the single-thread run, the router must conserve the
//! arrival stream across per-cluster rows, and shard seeds must be
//! independent — mirroring `determinism.rs` one level down.

use hierdrl_core::allocator::DrlAllocatorConfig;
use hierdrl_exp::prelude::*;
use hierdrl_exp::scenario::Pretrain;
use hierdrl_sim::router::RouterPolicy;

/// A cheap DRL variant so learned-policy cells stay fast in debug builds.
fn quick_drl() -> PolicySpec {
    PolicySpec::drl_variant(
        "drl-quick",
        DrlAllocatorConfig {
            warmup_decisions: 20,
            ae_pretrain_samples: 50,
            ae_epochs: 2,
            minibatch: 8,
            train_interval: 8,
            ..Default::default()
        },
        Pretrain {
            segments: 1,
            fraction: 0.5,
        },
    )
}

const STREAM_JOBS: u64 = 150;

/// A grid over cluster counts and router policies, with static and learned
/// policies riding the same arrival stream.
fn sharded_grid() -> Suite {
    Suite::builder("multicluster-small")
        .topologies([
            Topology::sharded_paper(2, 6, RouterPolicy::RoundRobin),
            Topology::sharded_paper(3, 6, RouterPolicy::LeastLoaded),
            // Uneven split ([3, 2]) exercises capacity weighting.
            Topology::sharded_paper(2, 5, RouterPolicy::WeightedByCapacity),
        ])
        .workloads([WorkloadSpec::paper().with_total_jobs(STREAM_JOBS)])
        .policies([
            PolicySpec::round_robin(),
            PolicySpec::static_pair(
                "first-fit+sleep",
                AllocatorKind::FirstFit,
                PowerKind::SleepImmediately,
            ),
            quick_drl(),
        ])
        .seeds([21])
        .build()
}

#[test]
fn sharded_report_is_byte_identical_to_single_thread() {
    let suite = sharded_grid();
    let serial = SuiteRunner::serial().run(&suite).expect("serial run");
    let sharded = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("sharded run");

    assert_eq!(serial.cells.len(), suite.len());
    assert_eq!(
        serial.report().to_json(),
        sharded.report().to_json(),
        "single-thread and sharded multi-cluster reports must be byte-identical"
    );
    // And the sharded run reproduces itself.
    let again = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("sharded rerun");
    assert_eq!(sharded.report().to_json(), again.report().to_json());
}

#[test]
fn router_conserves_the_stream_across_cluster_rows() {
    let suite = sharded_grid();
    let run = SuiteRunner::new().run(&suite).expect("run");
    let report = run.report();

    for (cell_run, cell) in run.cells.iter().zip(&report.cells) {
        let shards = cell
            .clusters
            .as_ref()
            .expect("multi-cluster cells report per-cluster rows");
        assert_eq!(shards.len(), cell_run.scenario.topology.clusters().len());

        // No job lost, none duplicated: routed counts partition the stream
        // and every routed job arrives (and completes — shards drain).
        let routed: u64 = shards.iter().map(|s| s.jobs_routed).sum();
        assert_eq!(routed, STREAM_JOBS);
        let completed: u64 = shards.iter().map(|s| s.metrics.jobs_completed).sum();
        assert_eq!(completed, STREAM_JOBS);
        assert_eq!(cell.metrics.jobs_completed, STREAM_JOBS);
        let shard_servers: usize = shards.iter().map(|s| s.servers).sum();
        assert_eq!(cell.servers, shard_servers);

        // Round-robin routing splits an even stream evenly.
        if cell.topology.ends_with("-rr") {
            assert_eq!(shards[0].jobs_routed, STREAM_JOBS / 2);
            assert_eq!(shards[1].jobs_routed, STREAM_JOBS / 2);
        }
        // Capacity weighting tracks the 3:2 split within one job.
        if cell.topology.ends_with("-weighted") {
            let quota = STREAM_JOBS as f64 * 3.0 / 5.0;
            assert!((shards[0].jobs_routed as f64 - quota).abs() <= 1.0);
        }
    }
}

#[test]
fn shard_learners_are_independent_per_shard() {
    let suite = Suite::builder("shard-independence")
        .topologies([Topology::sharded_paper(2, 6, RouterPolicy::RoundRobin)])
        .workloads([WorkloadSpec::paper().with_total_jobs(120)])
        .policies([quick_drl()])
        .seeds([5])
        .build();
    let run = SuiteRunner::new().run(&suite).expect("run");
    let cell = &run.cells[0];
    assert_eq!(cell.shards.len(), 2);

    // Each shard trained its own learner on its own routed sub-stream.
    let a = cell.shards[0].drl_stats.expect("shard 0 learner stats");
    let b = cell.shards[1].drl_stats.expect("shard 1 learner stats");
    assert!(a.decisions > 0 && b.decisions > 0);
    // Fleet-level stats sum the shard counters.
    let fleet = cell.drl_stats.expect("fleet learner stats");
    assert_eq!(fleet.decisions, a.decisions + b.decisions);
    assert_eq!(fleet.train_steps, a.train_steps + b.train_steps);

    // Changing the cell seed changes both shards' learner seeds (the
    // two-level derivation): the per-shard configs must differ.
    let s = &cell.scenario;
    let policy_seed = |s: &Scenario, k| s.learner_seeds(s.shard_seed(k)).policy_seed;
    assert_ne!(policy_seed(s, 0), policy_seed(s, 1));
    let t = Scenario::new(
        s.topology.clone(),
        s.workload.clone(),
        s.policy.clone(),
        s.seed + 1,
        s.max_jobs,
    );
    assert_ne!(policy_seed(&t, 0), policy_seed(s, 0));
}

#[test]
fn heterogeneous_sharded_report_is_byte_identical_to_single_thread() {
    // Big/little member clusters, learned and static policies: sharded
    // heterogeneous suites must stay byte-identical to serial execution,
    // exactly like their homogeneous counterparts.
    let suite = Suite::builder("hetero-sharded")
        .topologies([
            Topology::sharded_big_little(2, 6, 0.34, 2.0, RouterPolicy::WeightedByCapacity),
            Topology::sharded_big_little(3, 6, 0.34, 2.0, RouterPolicy::LeastLoaded),
        ])
        .workloads([WorkloadSpec::paper().with_total_jobs(STREAM_JOBS)])
        .policies([PolicySpec::round_robin(), quick_drl()])
        .seeds([11])
        .build();
    let serial = SuiteRunner::serial().run(&suite).expect("serial run");
    let sharded = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("sharded run");
    assert_eq!(
        serial.report().to_json(),
        sharded.report().to_json(),
        "heterogeneous sharded reports must be byte-identical to serial"
    );
    let again = SuiteRunner::new()
        .with_threads(8)
        .run(&suite)
        .expect("sharded rerun");
    assert_eq!(sharded.report().to_json(), again.report().to_json());

    // The capacity columns land in every cell: 2x skew, and one 2x server
    // per member cluster (capacity 8 for two clusters of three, 9 for
    // three clusters of two).
    for cell in &serial.report().cells {
        assert_eq!(cell.capacity_skew, 2.0);
        assert_eq!(cell.servers, 6);
        let expected = if cell.topology.starts_with("big-little-c2") {
            8.0
        } else {
            9.0
        };
        assert_eq!(cell.capacity_total, expected, "cell {}", cell.id);
    }
}

#[test]
fn capacity_weighted_router_weighs_capacity_not_server_counts() {
    // Cluster 0: two 2x servers (weight 4); cluster 1: two unit servers
    // (weight 2). Capacity-weighted routing must send a 2:1 split even
    // though the server counts are equal — the satellite bug this PR
    // fixes (`Router` used to weight by server count).
    use hierdrl_exp::scenario::big_little_config;
    use hierdrl_sim::config::ClusterConfig;
    let topo = Topology::multi(
        "big-vs-little",
        vec![big_little_config(2, 1.0, 2.0), ClusterConfig::paper(2)],
        RouterPolicy::WeightedByCapacity,
    );
    let suite = Suite::builder("capacity-weights")
        .topologies([topo])
        .workloads([WorkloadSpec::paper().with_total_jobs(90)])
        .policies([PolicySpec::round_robin()])
        .seeds([4])
        .build();
    let run = SuiteRunner::new().run(&suite).expect("run");
    let cell = &run.cells[0];
    assert_eq!(cell.shards[0].shard.jobs_routed, 60);
    assert_eq!(cell.shards[1].shard.jobs_routed, 30);
}

#[test]
fn max_jobs_truncates_the_stream_before_routing() {
    let suite = Suite::builder("truncate")
        .topologies([Topology::sharded_paper(2, 4, RouterPolicy::RoundRobin)])
        .workloads([WorkloadSpec::paper().with_total_jobs(100)])
        .policies([PolicySpec::round_robin()])
        .seeds([3])
        .limit_jobs(40)
        .build();
    let run = SuiteRunner::new().run(&suite).expect("run");
    let cell = &run.cells[0];
    let routed: u64 = cell.shards.iter().map(|s| s.shard.jobs_routed).sum();
    assert_eq!(routed, 40);
    assert_eq!(cell.result.outcome.totals.jobs_completed, 40);
}
