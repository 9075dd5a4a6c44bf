//! `cold`: one client, a fresh `Planner` per AccPar request, no plan
//! cache.

use crate::gen::{self, ArrayCase, Request};
use crate::phases;
use crate::{peak_rss_mb, same_bits, stats, timed, Blocks, Outcome, PhaseLog, RunConfig};
use accpar::partition::PlanTree;
use accpar::prelude::*;
use accpar::sim::{SimConfig, Simulator};
use std::time::Instant;

/// The paper's CNNs plus googlenet, where the level DP and cost tables
/// are most of a request, then repeated-block stacks, where iso
/// collapse is active and post-plan BSP evaluation rivals the search.
pub const NETWORKS: [&str; 16] = [
    "lenet",
    "alexnet",
    "vgg11",
    "vgg13",
    "vgg16",
    "vgg19",
    "resnet18",
    "resnet34",
    "resnet50",
    "googlenet",
    "bert_base",
    "gpt2_small",
    "vit_b16",
    "gpt2_xl",
    "deep48",
    "deep96",
];

/// How many of [`NETWORKS`] are CNNs; the rest are stacks.
const CNN_COUNT: usize = 10;

/// Percentile of `latency_tail_ms`. A block holds about two thousand
/// requests, so p98 keeps dozens of samples beyond it.
pub const TAIL_PCT: f64 = 98.0;

/// Generated inputs of the cold workload.
pub struct Inputs {
    /// Networks.
    pub nets: Vec<Network>,
    /// Arrays.
    pub arrays: Vec<ArrayCase>,
    /// Every (network, array) pair, in a seeded order.
    pub requests: Vec<Request>,
}

impl Inputs {
    /// Builds the inputs for `names` from the seed, over `arrays`
    /// generated arrays of `min_boards` to `max_boards` boards plus two
    /// presets.
    ///
    /// # Errors
    ///
    /// Propagates zoo construction errors.
    pub fn new(
        names: &[&str],
        seed: u64,
        arrays: usize,
        min_boards: usize,
        max_boards: usize,
    ) -> Result<Self, AccParError> {
        let nets = gen::networks(names, crate::BATCH)?;
        let arrays = gen::arrays(seed, arrays, min_boards, max_boards);
        let requests = gen::cross(seed, nets.len(), arrays.len());
        Ok(Self {
            nets,
            arrays,
            requests,
        })
    }

    /// Plans every network once on the first array, untimed, so lazy
    /// initialisation and cold caches do not land in the first timed
    /// requests.
    ///
    /// # Errors
    ///
    /// Propagates planning errors.
    pub fn warm_up(&self, threads: usize) -> Result<(), AccParError> {
        for net in &self.nets {
            Planner::builder(net, &self.arrays[0].array)
                .threads(threads)
                .build()?
                .plan(Strategy::AccPar)?;
        }
        Ok(())
    }

    /// A report label for a request.
    #[must_use]
    pub fn label(&self, r: Request) -> String {
        format!("{}@{}", self.nets[r.net].name(), self.arrays[r.array].label)
    }
}

/// One untraced operation: a fresh planner, one AccPar plan.
fn plan(
    net: &Network,
    array: &AcceleratorArray,
    threads: usize,
) -> Result<PlannedNetwork, AccParError> {
    Ok(Planner::builder(net, array)
        .threads(threads)
        .build()?
        .plan(Strategy::AccPar)?)
}

/// The plain planner the fast path must match bit for bit: serial, no
/// search memo, no iso collapse.
///
/// # Errors
///
/// Propagates planning errors.
pub fn plain(
    net: &Network,
    array: &AcceleratorArray,
    strategy: Strategy,
) -> Result<PlannedNetwork, AccParError> {
    Ok(Planner::builder(net, array)
        .threads(1)
        .caching(false)
        .iso(false)
        .build()?
        .plan(strategy)?)
}

/// Re-simulates a returned plan and compares with the step time it
/// was returned with.
///
/// # Errors
///
/// Propagates network, hardware and simulation errors.
pub fn resimulates(
    net: &Network,
    array: &AcceleratorArray,
    plan: &PlanTree,
    cost: f64,
) -> Result<bool, AccParError> {
    let view = net.train_view()?;
    let tree = GroupTree::bisect(array, plan.depth())?;
    let report =
        Simulator::new(SimConfig::cost_model_aligned()).simulate(&view, plan, &tree, None)?;
    Ok(same_bits(report.total_secs, cost))
}

/// One request's label and, from the plain planner, its AccPar/DP
/// ratio and AccPar plan (or the planning error).
pub type QualityRow = (String, Result<(f64, PlannedNetwork), String>);

/// Per-request plan quality: AccPar (from the plain planner, which the
/// checks tie to the fast path) over DP, in request order.
pub fn quality(inputs: &Inputs) -> Vec<QualityRow> {
    inputs
        .requests
        .iter()
        .map(|&r| {
            let (net, array) = (&inputs.nets[r.net], &inputs.arrays[r.array].array);
            let q = plain(net, array, Strategy::AccPar)
                .and_then(|acc| {
                    let dp = plain(net, array, Strategy::DataParallel)?;
                    Ok((acc.modeled_cost() / dp.modeled_cost(), acc))
                })
                .map_err(|e| e.to_string());
            (inputs.label(r), q)
        })
        .collect()
}

/// Runs the cold workload.
///
/// # Errors
///
/// Propagates input-generation errors; planning errors during the run
/// are counted as failed operations instead.
pub fn run(cfg: &RunConfig) -> Result<Outcome, AccParError> {
    let threads = crate::PLANNER_THREADS;
    let mut out = Outcome {
        threads: format!("1 client x {threads} planner thread of nproc {}", cfg.nproc),
        ..Outcome::default()
    };
    let mut inputs = None;
    while inputs.is_none() || cfg.scale.setup_again(&out.setup_s) {
        let t = Instant::now();
        let built = Inputs::new(&NETWORKS, cfg.seed, cfg.scale.cold_arrays, 2, 64)?;
        built.warm_up(threads)?;
        inputs = Some(built);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up repetition");
    out.requests = inputs.requests.iter().map(|&r| inputs.label(r)).collect();

    // Timed closed loop: whole passes over the requests until the time
    // is up. Requests are ranked by network and board count, and every
    // pass visits the ranks in a low-discrepancy order from a seeded
    // start, so any stretch of a few dozen requests, and so every block,
    // holds the same mix of cheap and costly requests. The traced run
    // follows each untraced request with its phase-by-phase replay.
    let n = inputs.requests.len();
    let mut first: Vec<Option<PlannedNetwork>> = vec![None; n];
    let mut log = PhaseLog::default();
    // Latencies of the CNN and the stack requests, reported apart so a
    // change meant for one family can show that the other did not move.
    let mut family_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rng = gen::rng(cfg.seed, 4);
    let mut by_cost: Vec<usize> = (0..n).collect();
    by_cost.sort_by_key(|&i| {
        let r = inputs.requests[i];
        (r.net, inputs.arrays[r.array].array.len(), r.array)
    });
    out.blocks = Blocks::new(cfg.seconds, TAIL_PCT);
    let window = Instant::now();
    'passes: loop {
        let order = gen::spread_order(n, rng.gen_range(0, n));
        for &i in order.iter().map(|&k| &by_cost[k]) {
            let at = window.elapsed();
            if at >= cfg.seconds {
                break 'passes;
            }
            let r = inputs.requests[i];
            let (net, array) = (&inputs.nets[r.net], &inputs.arrays[r.array].array);
            let (ms, result) = timed(|| plan(net, array, threads));
            out.attempted += 1;
            out.blocks.op(at, ms);
            family_ms[usize::from(r.net >= CNN_COUNT)].push(ms);
            let planned = match result {
                Ok(p) => p,
                Err(e) => {
                    out.errors += 1;
                    out.check_failures
                        .push(format!("{}: error: {e}", inputs.label(r)));
                    continue;
                }
            };
            if cfg.trace {
                match phases::run(net, array, threads, None) {
                    Ok(t)
                        if t.plan == *planned.plan()
                            && same_bits(t.cost, planned.modeled_cost()) =>
                    {
                        log.push(&t)
                    }
                    Ok(_) => out.check_failures.push(format!(
                        "{}: decomposed plan differs from Planner::plan",
                        inputs.label(r)
                    )),
                    Err(e) => out
                        .check_failures
                        .push(format!("{}: traced run: {e}", inputs.label(r))),
                }
            }
            match &first[i] {
                None => first[i] = Some(planned),
                Some(f) if !same_bits(f.modeled_cost(), planned.modeled_cost()) => {
                    out.check_failures.push(format!(
                        "{}: repeated request returned another plan",
                        inputs.label(r)
                    ))
                }
                Some(_) => {}
            }
        }
    }
    out.peak_rss_mb = peak_rss_mb();
    if family_ms.iter().all(|v| !v.is_empty()) {
        out.notes.push(format!(
            "p50 ms by family: cnns {:.4} stacks {:.4}",
            stats::median(&family_ms[0]),
            stats::median(&family_ms[1])
        ));
    }

    // Checks and quality, outside the timed loop, once per request.
    let mut ratios = Vec::with_capacity(n);
    let mut regrets = Vec::with_capacity(n);
    for ((label, q), (i, &r)) in quality(&inputs)
        .into_iter()
        .zip(inputs.requests.iter().enumerate())
    {
        let (ratio, acc) = match q {
            Ok(v) => v,
            Err(e) => {
                out.check_failures
                    .push(format!("{label}: plain planner: {e}"));
                continue;
            }
        };
        ratios.push(ratio);
        regrets.push(ratio.max(1.0));
        out.quality.push((label.clone(), ratio));
        if let Some(fast) = &first[i] {
            let (net, array) = (&inputs.nets[r.net], &inputs.arrays[r.array].array);
            if fast.plan() != acc.plan() || !same_bits(fast.modeled_cost(), acc.modeled_cost()) {
                out.check_failures
                    .push(format!("{label}: fast path differs from the plain planner"));
            }
            match resimulates(net, array, fast.plan(), fast.modeled_cost()) {
                Ok(true) => {}
                Ok(false) => out
                    .check_failures
                    .push(format!("{label}: plan does not re-simulate to its cost")),
                Err(e) => out
                    .check_failures
                    .push(format!("{label}: re-simulation: {e}")),
            }
        }
    }
    out.step_vs_dp = stats::geomean(&ratios);
    out.served_degradation = stats::geomean(&regrets);
    out.availability = (out.attempted - out.errors) as f64 / out.attempted.max(1) as f64;
    let loses = ratios.iter().filter(|&&r| r > 1.0).count() as u64;
    out.counts = vec![
        ("requests", n as u64),
        ("quality.accpar_loses_to_dp", loses),
    ];

    if cfg.trace {
        let untraced = out.blocks.p50();
        let mut layers = log.layers();
        layers.push(("core.cache.hit_ratio", None, "ratio"));
        layers.push(("core.cache.evictions", None, "count"));
        layers.push(("core.cache.persist_losses", None, "count"));
        layers.extend(crate::chaos::absent_layers());
        layers.push((
            "core.planner.unattributed_ms",
            Some(untraced - log.sum_of_medians()),
            "ms",
        ));
        layers.push(("quality.accpar_loses_to_dp", Some(loses as f64), "count"));
        layers.push((
            "trace_overhead_frac",
            Some(stats::median(&log.total_ms) / untraced - 1.0),
            "ratio",
        ));
        out.layers = layers;
    }
    Ok(out)
}
