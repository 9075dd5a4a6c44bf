//! Chaos harness: replay seeded hardware health timelines through the
//! live-replanning supervisor and report MTTR, availability, replan
//! count, and steady-state degradation per (network, seed).
//!
//! ```sh
//! cargo run --release -p accpar-bench --bin chaos [seed] [events]
//! cargo run --release -p accpar-bench --bin chaos -- 42 200 --json
//! cargo run --release -p accpar-bench --bin chaos -- --networks lenet,alexnet
//! ```
//!
//! Everything is seeded: the same arguments print byte-identical
//! output, and every row asserts terminal convergence (the settled
//! plan equals a direct replan against the terminal fault set).

use accpar_bench::chaos::{chaos_suite, ChaosRow};
use accpar_hw::AcceleratorArray;
use accpar_obs::json::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let networks: Vec<String> = args
        .iter()
        .position(|a| a == "--networks")
        .and_then(|i| args.get(i + 1))
        .map_or_else(
            || vec!["lenet".into(), "alexnet".into(), "vgg16".into()],
            |list| list.split(',').map(str::to_owned).collect(),
        );
    let positional: Vec<&String> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if *a == "--networks" {
                    skip_next = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .collect()
    };
    let seed: u64 = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xacc9a7);
    let events: usize = positional
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(80);

    // A small heterogeneous slice of the paper's array: 2 TPU-v2 +
    // 2 TPU-v3 boards, bisected to board granularity.
    let (v2, v3, levels, batch) = (2usize, 2usize, 2usize, 256usize);
    let array = AcceleratorArray::heterogeneous_tpu(v2, v3);
    let names: Vec<&str> = networks.iter().map(String::as_str).collect();
    let rows = match chaos_suite(&names, batch, &array, levels, seed, events, 1) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("chaos suite failed: {e}");
            std::process::exit(1);
        }
    };

    if json {
        print_json(seed, events, &rows);
    } else {
        print_table(v2, v3, seed, events, &rows);
    }
    if rows.iter().any(|r| !r.converged) {
        eprintln!("FAIL: a supervisor's terminal plan diverged from the direct replan");
        std::process::exit(1);
    }
}

fn print_table(v2: usize, v3: usize, seed: u64, events: usize, rows: &[ChaosRow]) {
    println!(
        "=== Chaos: {events} health events on {v2}x TPU-v2 + {v3}x TPU-v3 (seed {seed}) ==="
    );
    println!(
        "{:<12} {:>7} {:>9} {:>8} {:>13} {:>8} {:>9} {:>10}",
        "network", "events", "decisions", "replans", "availability", "mttr", "steady", "converged"
    );
    for row in rows {
        let mttr = row
            .mttr
            .map_or_else(|| format!("{:>8}", "n/a"), |m| format!("{m:>8.3}"));
        println!(
            "{:<12} {:>7} {:>9} {:>8} {:>13.4} {mttr} {:>8.3}x {:>10}",
            row.network,
            row.events,
            row.decisions,
            row.replans,
            row.availability,
            row.steady_degradation,
            if row.converged { "yes" } else { "NO" }
        );
        let (hold, adopt, keep, promote, fallback, shed) = row.rungs;
        println!(
            "{:<12} rungs: hold {hold}, adopt {adopt}, keep {keep}, promote {promote}, \
             fallback {fallback}, shed {shed}",
            ""
        );
    }
}

fn print_json(seed: u64, events: usize, rows: &[ChaosRow]) {
    let rows: Vec<Json> = rows
        .iter()
        .map(|row| {
            let (hold, adopt, keep, promote, fallback, shed) = row.rungs;
            Json::obj(vec![
                ("network", Json::str(&row.network)),
                ("seed", Json::from(row.seed as f64)),
                ("events", Json::from(row.events as f64)),
                ("decisions", Json::from(row.decisions as f64)),
                ("replans", Json::from(row.replans as f64)),
                ("hold", Json::from(hold as f64)),
                ("adopt", Json::from(adopt as f64)),
                ("keep", Json::from(keep as f64)),
                ("promote", Json::from(promote as f64)),
                ("fallback", Json::from(fallback as f64)),
                ("shed", Json::from(shed as f64)),
                ("availability", Json::from(row.availability)),
                ("mttr", row.mttr.map_or(Json::Null, Json::Num)),
                ("steady_degradation", Json::from(row.steady_degradation)),
                ("converged", Json::Bool(row.converged)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("seed", Json::from(seed as f64)),
        ("schedule_events", Json::from(events as f64)),
        ("rows", Json::Arr(rows)),
    ]);
    println!("{}", doc.pretty());
}
