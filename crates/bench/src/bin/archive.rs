//! Writes the full evaluation's data to `experiments.json` for archival
//! and external plotting.
//!
//! ```sh
//! cargo run --release -p accpar-bench --bin archive
//! ```

use accpar_bench::{figure5, figure6, figure7, figure8, geomean, SpeedupRow};
use accpar_obs::json::Json;
use std::fs;

fn speedup_rows_json(rows: &[SpeedupRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("network", Json::str(&r.network)),
                    ("step_ms", Json::from(r.step_ms.to_vec())),
                    ("speedups", Json::from(r.speedups.to_vec())),
                ])
            })
            .collect(),
    )
}

fn main() -> std::io::Result<()> {
    let fig5 = figure5();
    let fig6 = figure6();
    let fig7 = figure7();
    let fig8 = figure8();
    let json = Json::obj(vec![
        (
            "setup",
            Json::obj(vec![
                ("batch", Json::from(accpar_bench::PAPER_BATCH)),
                (
                    "heterogeneous_array",
                    Json::str("128x tpu-v2 + 128x tpu-v3"),
                ),
                ("homogeneous_array", Json::str("128x tpu-v3")),
            ]),
        ),
        (
            "figure5",
            Json::obj(vec![
                ("rows", speedup_rows_json(&fig5)),
                (
                    "geomeans",
                    Json::from((0..4).map(|i| geomean(&fig5, i)).collect::<Vec<_>>()),
                ),
                ("paper_geomeans", Json::from(vec![1.00, 2.98, 3.78, 6.30])),
            ]),
        ),
        (
            "figure6",
            Json::obj(vec![
                ("rows", speedup_rows_json(&fig6)),
                (
                    "geomeans",
                    Json::from((0..4).map(|i| geomean(&fig6, i)).collect::<Vec<_>>()),
                ),
                ("paper_geomeans", Json::from(vec![1.00, 2.94, 3.51, 3.86])),
            ]),
        ),
        (
            "figure7",
            Json::obj(vec![
                (
                    "layer_names",
                    Json::Arr(fig7.layer_names.iter().map(Json::str).collect()),
                ),
                (
                    "counts",
                    Json::Arr(
                        fig7.counts
                            .iter()
                            .map(|c| Json::from(c.to_vec()))
                            .collect(),
                    ),
                ),
                ("top_level", Json::str(&fig7.top_level)),
            ]),
        ),
        (
            "figure8",
            Json::Arr(
                fig8.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("levels", Json::from(r.levels)),
                            ("speedups", Json::from(r.speedups.to_vec())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    fs::write("experiments.json", json.pretty())?;
    println!("wrote experiments.json");
    Ok(())
}
