//! Robustness ablation: AccPar vs DP/OWT/HyPar under injected faults
//! (stragglers, degraded cut links, transient stalls, board dropout),
//! and how much the graceful replanner recovers.
//!
//! ```sh
//! cargo run --release -p accpar-bench --bin robustness [network] [seed]
//! cargo run --release -p accpar-bench --bin robustness -- alexnet 42 --json
//! ```
//!
//! Everything is seeded: the same arguments print byte-identical output.

use accpar_bench::robustness::{robustness_ablation, RobustnessRow, Scenario};
use accpar_hw::AcceleratorArray;
use accpar_obs::json::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let network = positional.first().map_or("alexnet", |s| s.as_str());
    let seed: u64 = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xacc9a5);

    // A small heterogeneous slice of the paper's array: 4 TPU-v2 +
    // 4 TPU-v3 boards, bisected to board granularity.
    let (v2, v3, levels, batch) = (4usize, 4usize, 3usize, 512usize);
    let array = AcceleratorArray::heterogeneous_tpu(v2, v3);
    let results = match robustness_ablation(network, batch, &array, levels, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("robustness ablation failed: {e}");
            std::process::exit(1);
        }
    };

    if json {
        print_json(network, seed, &results);
    } else {
        print_table(network, v2, v3, seed, &results);
    }
}

fn print_table(
    network: &str,
    v2: usize,
    v3: usize,
    seed: u64,
    results: &[(Scenario, Vec<RobustnessRow>)],
) {
    println!(
        "=== Robustness: {network} on {v2}x TPU-v2 + {v3}x TPU-v3 (seed {seed}) ==="
    );
    for (scenario, rows) in results {
        println!("\n--- {} ---", scenario.name);
        for fault in scenario.faults.faults() {
            println!("    fault: {fault}");
        }
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>10} {:>9}",
            "scheme", "nominal ms", "degraded ms", "replanned ms", "recovery", "replanned"
        );
        for row in rows {
            let degraded = row
                .degraded_ms
                .map_or_else(|| format!("{:>12}", "n/a"), |d| format!("{d:>12.3}"));
            let recovery = row
                .recovery()
                .map_or_else(|| format!("{:>10}", "n/a"), |r| format!("{r:>9.2}x"));
            println!(
                "{:<8} {:>12.3} {degraded} {:>12.3} {recovery} {:>9}",
                row.strategy.to_string(),
                row.nominal_ms,
                row.replanned_ms,
                if row.replanned { "yes" } else { "no" }
            );
        }
    }
}

fn print_json(network: &str, seed: u64, results: &[(Scenario, Vec<RobustnessRow>)]) {
    let scenarios: Vec<Json> = results
        .iter()
        .map(|(scenario, rows)| {
            let rows: Vec<Json> = rows
                .iter()
                .map(|row| {
                    Json::obj(vec![
                        ("strategy", Json::str(row.strategy.to_string())),
                        ("nominal_ms", Json::from(row.nominal_ms)),
                        (
                            "degraded_ms",
                            row.degraded_ms.map_or(Json::Null, Json::Num),
                        ),
                        ("replanned_ms", Json::from(row.replanned_ms)),
                        ("recovery", row.recovery().map_or(Json::Null, Json::Num)),
                        ("replanned", Json::Bool(row.replanned)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("name", Json::str(&scenario.name)),
                (
                    "faults",
                    Json::Arr(
                        scenario
                            .faults
                            .faults()
                            .iter()
                            .map(|f| Json::str(f.to_string()))
                            .collect(),
                    ),
                ),
                ("rows", Json::Arr(rows)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("network", Json::str(network)),
        ("seed", Json::from(seed as f64)),
        ("scenarios", Json::Arr(scenarios)),
    ]);
    println!("{}", doc.pretty());
}
