//! Two runs with the same seed generate the same requests and the same
//! deterministic metrics, and every correctness check passes, on a tiny
//! mix of every workload.

use accpar_planbench::{chaos, cold, end_to_end, serve, Outcome, RunConfig, Scale, PER_LAYER};
use std::time::Duration;

fn config(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: Duration::from_millis(400),
        trace,
        scale: Scale::TINY,
        nproc: 2,
    }
}

fn run(workload: &str, cfg: &RunConfig) -> Outcome {
    let out = match workload {
        "cold" => cold::run(cfg),
        "serve_mix" => serve::run(cfg),
        _ => chaos::run(cfg),
    }
    .expect("set-up succeeds");
    assert!(
        out.check_failures.is_empty(),
        "{workload}: {:?}",
        out.check_failures
    );
    assert!(out.blocks.ops() > 0, "{workload}: no operation ran");
    out
}

/// Requests, metric bits, counts and per-request quality bits.
type Repeatable = (
    Vec<String>,
    [u64; 3],
    Vec<(&'static str, u64)>,
    Vec<(String, u64)>,
);

/// The parts of an outcome that must repeat exactly for one seed.
fn deterministic(o: &Outcome) -> Repeatable {
    (
        o.requests.clone(),
        [
            o.step_vs_dp.to_bits(),
            o.availability.to_bits(),
            o.served_degradation.to_bits(),
        ],
        o.counts.clone(),
        o.quality
            .iter()
            .map(|(l, r)| (l.clone(), r.to_bits()))
            .collect(),
    )
}

#[test]
fn same_seed_same_requests_and_deterministic_metrics() {
    for workload in accpar_planbench::WORKLOADS {
        let a = run(workload, &config(5, false));
        let b = run(workload, &config(5, true));
        assert_eq!(deterministic(&a), deterministic(&b), "{workload}");
        for (name, unit) in PER_LAYER {
            assert!(
                b.layers.iter().any(|(n, _, u)| *n == name && *u == unit),
                "{workload}: the traced run has no {name} in {unit}"
            );
        }
        let c = run(workload, &config(6, false));
        assert_ne!(
            a.quality, c.quality,
            "{workload}: another seed gives other inputs"
        );
    }
    assert!(
        !std::path::Path::new(".planbench").exists(),
        "cache directories are removed"
    );
}

/// The metrics `BENCHMARK.json` lists, as `(name, unit)` in file order,
/// from the section that starts with `"<section>"`.
fn listed(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("BENCHMARK.json has the section");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("a quoted name")].to_string();
            let unit = entry.split("\"unit\": \"").nth(1).expect("a unit");
            (
                name,
                unit[..unit.find('"').expect("a quoted unit")].to_string(),
            )
        })
        .collect()
}

#[test]
fn result_line_carries_the_metrics_benchmark_json_lists() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&json, "per_layer"), per_layer);
    let e2e: Vec<(String, String)> = end_to_end(&Outcome::default())
        .into_iter()
        .filter(|m| m.3)
        .map(|(n, _, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&json, "end_to_end"), e2e);
}
