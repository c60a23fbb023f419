//! `BENCHMARK.json` at the repository root names exactly the workloads and
//! metrics the benchmark runs and prints, with the same units and
//! directions, and stays within the benchmark contract's limits.

use hierdrl_perfbench::metrics::{end_to_end, per_layer, MetricDef};
use hierdrl_perfbench::workloads::Workload;
use serde::Deserialize;

#[derive(Deserialize)]
struct BenchmarkFile {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<WorkloadEntry>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(Deserialize)]
struct WorkloadEntry {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

fn load() -> BenchmarkFile {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn triples(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.clone(),
                d.unit.to_string(),
                d.better.as_str().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_file_matches_the_catalogue() {
    let file = load();
    let names: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    let listed: Vec<(String, String, String)> = file
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone(), m.better.clone()))
        .collect();
    assert_eq!(listed, triples(&end_to_end()));
    let listed: Vec<(String, String, String)> = file
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone(), m.better.clone()))
        .collect();
    assert_eq!(listed, triples(&per_layer()));
}

#[test]
fn benchmark_file_is_within_the_contract_limits() {
    let file = load();
    assert_eq!(file.paths, ["perfbench"]);
    assert!(file.command.len() <= 32);
    assert!(file
        .command
        .iter()
        .all(|a| a.len() <= 200 && !a.starts_with('/')));
    assert!((1..=60).contains(&file.run_seconds));
    assert!((2..=8).contains(&file.workloads.len()));
    assert!(file
        .workloads
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    assert!((1..=16).contains(&file.end_to_end.len()));
    assert!((1..=128).contains(&file.per_layer.len()));
    for m in &file.end_to_end {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = file
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    assert!(file.end_to_end.iter().all(|m| m.bound <= setup.bound));
    let units = file
        .end_to_end
        .iter()
        .map(|m| &m.unit)
        .chain(file.per_layer.iter().map(|m| &m.unit));
    for unit in units {
        assert!(unit.len() <= 16);
        assert!(unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
}
