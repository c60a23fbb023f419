//! Learner pin: the global-tier allocator run end to end, byte-compared
//! against a committed fixture.
//!
//! Each case trains a [`DrlAllocator`] online over a small synthetic trace,
//! then serves a second trace with learning off. The fixture records the
//! FNV-1a digest and length of the serialized snapshot (weights, Adam
//! state, schedule position, statistics), the serialized [`DrlStats`], and
//! the serialized run totals of both runs. Any change to the learner that
//! moves one bit of one weight, one target or one decision fails here.
//!
//! The three cases together reach every encoder-generation path:
//!
//! - `sync25`: the autoencoder pre-trains at decision 20, after training
//!   started at decision 10, and target syncs every 25 steps cross it, so
//!   the target network serves a stale encoder for a while;
//! - `sync25-finetune`: the same, with the encoder fine-tuned by the
//!   Q loss, so the encoder changes at every training step;
//! - `k4-m30`: four groups over 30 servers, so the last group is padded.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p hierdrl-core --test learner_pin
//! ```

use hierdrl_core::allocator::{DrlAllocator, DrlAllocatorConfig};
use hierdrl_sim::cluster::{Cluster, RunLimit};
use hierdrl_sim::config::ClusterConfig;
use hierdrl_sim::job::{Job, JobId};
use hierdrl_sim::policies::SleepImmediatelyPower;
use hierdrl_sim::resources::ResourceVec;
use hierdrl_sim::time::SimTime;
use std::path::PathBuf;

/// The allocator unit tests' small configuration with a short target sync.
fn small_config() -> DrlAllocatorConfig {
    DrlAllocatorConfig {
        warmup_decisions: 10,
        train_interval: 2,
        minibatch: 8,
        ae_pretrain_samples: 40,
        ae_epochs: 3,
        replay_capacity: 500,
        target_sync: 25,
        ..Default::default()
    }
}

fn jobs(n: u64, spacing: f64, salt: u64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            // Varied demands and durations so states differ between epochs.
            let v = ((i * 7 + salt) % 5) as f64;
            Job::new(
                JobId(i),
                SimTime::from_secs(i as f64 * spacing),
                60.0 + 30.0 * v,
                ResourceVec::cpu_mem_disk(0.1 + 0.05 * v, 0.1, 0.05),
            )
        })
        .collect()
}

struct Case {
    name: &'static str,
    servers: usize,
    config: DrlAllocatorConfig,
    spacing: f64,
}

fn cases() -> Vec<Case> {
    let mut finetune = small_config();
    finetune.qnet.fine_tune_encoder = true;
    let mut k4 = small_config();
    k4.state.num_groups = 4;
    vec![
        Case {
            name: "sync25",
            servers: 5,
            config: small_config(),
            spacing: 10.0,
        },
        Case {
            name: "sync25-finetune",
            servers: 5,
            config: finetune,
            spacing: 10.0,
        },
        Case {
            name: "k4-m30",
            servers: 30,
            config: k4,
            spacing: 2.0,
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

fn render(case: &Case) -> String {
    let mut alloc = DrlAllocator::new(case.servers, 3, case.config.clone());
    let mut cluster = Cluster::new(
        ClusterConfig::paper(case.servers),
        jobs(300, case.spacing, 0),
    )
    .expect("cluster");
    let learned = cluster.run(
        &mut alloc,
        &mut SleepImmediatelyPower,
        RunLimit::unbounded(),
    );
    let snapshot = serde_json::to_string(&alloc.snapshot()).expect("snapshot serializes");
    alloc.set_learning(false);
    let mut cluster = Cluster::new(
        ClusterConfig::paper(case.servers),
        jobs(150, case.spacing, 3),
    )
    .expect("cluster");
    let frozen = cluster.run(
        &mut alloc,
        &mut SleepImmediatelyPower,
        RunLimit::unbounded(),
    );
    format!(
        "case {}\nsnapshot_len {}\nsnapshot_fnv1a64 {:016x}\nstats {}\nlearned_totals {}\nfrozen_totals {}\n",
        case.name,
        snapshot.len(),
        fnv1a64(snapshot.as_bytes()),
        json(alloc.stats()),
        json(&learned.totals),
        json(&frozen.totals),
    )
}

#[test]
fn learner_matches_committed_pin() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/learner_pin.txt");
    let rendered: String = cases().iter().map(render).collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write learner pin");
        return;
    }
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    // Compare line by line first, so a failure names the case that moved.
    for (now, then) in rendered.lines().zip(committed.lines()) {
        assert_eq!(now, then, "learner pin line moved ({})", path.display());
    }
    assert_eq!(
        rendered,
        committed,
        "learner drifted from {}; if the change is intentional, regenerate \
         with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}
