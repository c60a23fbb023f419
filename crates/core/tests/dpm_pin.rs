//! Local-tier pin: the RL power manager run end to end, byte-compared
//! against a committed fixture.
//!
//! Each case drives one [`RlPowerManager`] built with
//! [`RlPowerManager::for_cluster`] through four runs of a round-robin
//! cluster: two learning runs (so the run boundary, which must feed no gap
//! to the predictors, is crossed), one run with learning off, and one run
//! after learning is switched back on. After every run the fixture records
//! the serialized [`DpmStats`], the accepted and rejected predictor
//! observations, the bits of the mean predictor MSE and the serialized run
//! totals; at the end it records the FNV-1a digest and length of the
//! serialized snapshot. Any change that moves one predictor weight, one
//! prediction, one Q-value or one sleep decision fails here.
//!
//! - `paper6`: six unit servers with the paper's predictor (look-back 35,
//!   30 hidden units), so every predictor fills its window and trains;
//! - `big-little`: two big and two little servers with a small predictor,
//!   so shared learning keeps one Q-table per capacity class.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p hierdrl-core --test dpm_pin
//! ```

use hierdrl_core::dpm::{DpmStats, RlPowerConfig, RlPowerManager};
use hierdrl_core::predictor::PredictorConfig;
use hierdrl_sim::cluster::{Cluster, RunLimit};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::job::{Job, JobId};
use hierdrl_sim::policies::RoundRobinAllocator;
use hierdrl_sim::resources::ResourceVec;
use hierdrl_sim::time::SimTime;
use std::path::PathBuf;

/// Bursty arrivals: short gaps inside a burst, long and varied gaps between
/// bursts, so the predictors see inter-arrival times spanning orders of
/// magnitude.
fn jobs(n: u64, salt: u64) -> Vec<Job> {
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            let v = (i * 7 + salt) % 5;
            t += if i % 4 == 0 {
                300.0 + 150.0 * v as f64
            } else {
                5.0 + 3.0 * v as f64
            };
            Job::new(
                JobId(i),
                SimTime::from_secs(t),
                40.0 + 20.0 * v as f64,
                ResourceVec::cpu_mem_disk(0.1 + 0.05 * v as f64, 0.1, 0.05),
            )
        })
        .collect()
}

struct Case {
    name: &'static str,
    cluster: ClusterConfig,
    config: RlPowerConfig,
    jobs_per_run: u64,
}

fn cases() -> Vec<Case> {
    let mut big_little = ClusterConfig::paper(4);
    big_little.server_capacities = Some(vec![
        ResourceVec::new(&[2.0, 2.0, 2.0]),
        ResourceVec::ones(3),
        ResourceVec::new(&[2.0, 2.0, 2.0]),
        ResourceVec::ones(3),
    ]);
    vec![
        Case {
            name: "paper6",
            cluster: ClusterConfig::paper(6),
            config: RlPowerConfig::default(),
            jobs_per_run: 240,
        },
        Case {
            name: "big-little",
            cluster: big_little,
            config: RlPowerConfig {
                predictor: PredictorConfig {
                    lookback: 5,
                    hidden: 6,
                    ..Default::default()
                },
                seed: 29,
                ..Default::default()
            },
            jobs_per_run: 160,
        },
    ]
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("value serializes")
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn predictor_line(mgr: &RlPowerManager) -> String {
    let stats: &DpmStats = mgr.stats();
    format!(
        "stats {} observations {} rejected {} mse_bits {}",
        json(stats),
        mgr.predictor_observations(),
        mgr.rejected_observations(),
        mgr.mean_predictor_mse()
            .map_or_else(|| "none".to_string(), |m| format!("{:016x}", m.to_bits())),
    )
}

fn render(case: &Case) -> String {
    let mut mgr = RlPowerManager::for_cluster(&case.cluster, case.config.clone());
    let mut out = format!("case {}\n", case.name);
    // (label, the `set_learning` call made before the run, if any)
    let runs = [
        ("learn-a", None),
        ("learn-b", None),
        ("frozen", Some(false)),
        ("resumed", Some(true)),
    ];
    for (salt, (label, toggle)) in runs.into_iter().enumerate() {
        if let Some(on) = toggle {
            mgr.set_learning(on);
        }
        let mut cluster = Cluster::new(case.cluster.clone(), jobs(case.jobs_per_run, salt as u64))
            .expect("cluster");
        let outcome = cluster.run(
            &mut RoundRobinAllocator::new(),
            &mut mgr,
            RunLimit::unbounded(),
        );
        out.push_str(&format!(
            "{label} {}\n{label} totals {}\n",
            predictor_line(&mgr),
            json(&outcome.totals)
        ));
    }
    let snapshot = json(&mgr.snapshot());
    out.push_str(&format!(
        "snapshot_len {}\nsnapshot_fnv1a64 {:016x}\n",
        snapshot.len(),
        fnv1a64(snapshot.as_bytes())
    ));
    out
}

#[test]
fn power_manager_matches_committed_pin() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dpm_pin.txt");
    let rendered: String = cases().iter().map(render).collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write dpm pin");
        return;
    }
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    // Compare line by line first, so a failure names the run that moved.
    for (now, then) in rendered.lines().zip(committed.lines()) {
        assert_eq!(now, then, "dpm pin line moved ({})", path.display());
    }
    assert_eq!(
        rendered,
        committed,
        "power manager drifted from {}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}
