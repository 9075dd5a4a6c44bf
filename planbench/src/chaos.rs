//! `supervise_chaos`: one client replays seeded health timelines through
//! a `Supervisor`; one operation is an `observe` or `settle` call that
//! appends a `Decision`.

use crate::cold::plain;
use crate::gen::{self, ArrayCase, Request};
use crate::phases::{self, default_levels};
use crate::{peak_rss_mb, same_bits, stats, timed, Blocks, Layer, Outcome, PhaseLog, RunConfig};
use accpar::core::supervise::Decision;
use accpar::prelude::*;
use std::time::Instant;

/// CNNs and a transformer under health events.
pub const NETS: [&str; 4] = ["alexnet", "vgg16", "resnet50", "bert_base"];

/// Percentile of `latency_tail_ms`: a block holds thousands of
/// decisions.
const TAIL_PCT: f64 = 99.0;

/// Supervised arrays stay small enough that a replay is a few hundred
/// decisions of a few milliseconds at most.
const MIN_BOARDS: usize = 4;
const MAX_BOARDS: usize = 16;

/// The supervisor per-layer metrics, absent from the other workloads.
#[must_use]
pub fn absent_layers() -> Vec<Layer> {
    vec![
        ("core.supervise.replan_decision_ms", None, "ms"),
        ("core.supervise.hold_decision_ms", None, "ms"),
        ("core.supervise.settle_ms", None, "ms"),
        ("core.supervise.replans", None, "count"),
        ("core.supervise.retries", None, "count"),
        ("core.supervise.fallbacks", None, "count"),
    ]
}

/// Generated inputs: one replay per (network, array) pair.
struct Inputs {
    nets: Vec<Network>,
    arrays: Vec<ArrayCase>,
    replays: Vec<(Request, HealthSchedule)>,
}

impl Inputs {
    fn label(&self, r: Request) -> String {
        format!("{}@{}", self.nets[r.net].name(), self.arrays[r.array].label)
    }
}

fn config(threads: usize) -> SuperviseConfig {
    SuperviseConfig {
        threads: Some(threads),
        ..SuperviseConfig::default()
    }
}

/// Builds the inputs and one supervisor per replay.
fn setup(cfg: &RunConfig) -> Result<(Inputs, Vec<Supervisor>), AccParError> {
    let nets = gen::networks(&NETS, crate::BATCH)?;
    let arrays = gen::arrays(cfg.seed, cfg.scale.chaos_arrays, MIN_BOARDS, MAX_BOARDS);
    let mut rng = gen::rng(cfg.seed, 5);
    let mut replays = Vec::new();
    let mut sups = Vec::new();
    for r in gen::cross(cfg.seed, nets.len(), arrays.len()) {
        let sup = Supervisor::new(
            &nets[r.net],
            &arrays[r.array].array,
            None,
            config(crate::PLANNER_THREADS),
        )?;
        let schedule = HealthSchedule::random(
            rng.next_u64(),
            sup.leaf_count(),
            sup.cut_count(),
            cfg.scale.chaos_events,
        )?;
        replays.push((r, schedule));
        sups.push(sup);
    }
    Ok((
        Inputs {
            nets,
            arrays,
            replays,
        },
        sups,
    ))
}

/// Time-weighted mean of `degradation` over the non-shed timeline; the
/// timeline starts healthy at t = 0.
fn weighted_degradation(decisions: &[Decision]) -> f64 {
    let (mut prev_at, mut prev, mut num, mut den) = (0.0, 1.0, 0.0, 0.0);
    for d in decisions {
        let span = (d.at - prev_at).max(0.0);
        if f64::is_finite(prev) {
            num += span * prev;
            den += span;
        }
        prev_at = d.at;
        prev = d.degradation;
    }
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

/// Decision-call samples of a traced replay.
#[derive(Default)]
struct DecisionLog {
    all: Vec<f64>,
    replan: Vec<f64>,
    hold: Vec<f64>,
    settle: Vec<f64>,
}

/// Runs `supervise_chaos`.
///
/// # Errors
///
/// Propagates input-generation errors; errors during the run are
/// counted as failed operations instead.
pub fn run(cfg: &RunConfig) -> Result<Outcome, AccParError> {
    let threads = crate::PLANNER_THREADS;
    let mut out = Outcome {
        threads: format!("1 client x {threads} search thread of nproc {}", cfg.nproc),
        ..Outcome::default()
    };
    let mut built = None;
    while built.is_none() || cfg.scale.setup_again(&out.setup_s) {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(cfg)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let (inputs, prebuilt) = built.expect("at least one set-up repetition");
    out.requests = inputs
        .replays
        .iter()
        .map(|(r, _)| inputs.label(*r))
        .collect();

    // Rounds over every replay until the time is up. A round after the
    // first builds its supervisors outside the timed calls. The traced
    // run alternates untraced and traced rounds.
    let n = inputs.replays.len();
    let mut first: Vec<Option<Vec<Decision>>> = vec![None; n];
    let mut prebuilt: Vec<Option<Supervisor>> = prebuilt.into_iter().map(Some).collect();
    let mut log = PhaseLog::default();
    let mut traced = DecisionLog::default();
    out.blocks = Blocks::new(cfg.seconds, TAIL_PCT);
    let window = Instant::now();
    'rounds: for round in 0.. {
        let tracing = cfg.trace && round % 2 == 1;
        for (j, (r, schedule)) in inputs.replays.iter().enumerate() {
            if window.elapsed() >= cfg.seconds {
                break 'rounds;
            }
            let (net, array) = (&inputs.nets[r.net], &inputs.arrays[r.array].array);
            let mut sup = match prebuilt[j].take() {
                Some(s) => s,
                None => match Supervisor::new(net, array, None, config(threads)) {
                    Ok(s) => s,
                    Err(e) => {
                        out.attempted += 1;
                        out.errors += 1;
                        out.check_failures
                            .push(format!("{}: error: {e}", inputs.label(*r)));
                        continue;
                    }
                },
            };
            if tracing {
                match phases::run(net, array, threads, None) {
                    Ok(t)
                        if t.plan == *sup.healthy_plan()
                            && same_bits(t.cost, sup.nominal_secs()) =>
                    {
                        log.push(&t)
                    }
                    Ok(_) => out.check_failures.push(format!(
                        "{}: decomposed plan differs from the supervisor's",
                        inputs.label(*r)
                    )),
                    Err(e) => out
                        .check_failures
                        .push(format!("{}: traced run: {e}", inputs.label(*r))),
                }
            }
            let calls = schedule
                .events()
                .iter()
                .map(Some)
                .chain(std::iter::once(None));
            let mut complete = true;
            for event in calls {
                let at = window.elapsed();
                if at >= cfg.seconds {
                    complete = false;
                    break;
                }
                let before = sup.decisions().len();
                let (ms, result) = timed(|| match event {
                    Some(e) => sup.observe(*e),
                    None => sup.settle(),
                });
                if let Err(e) = result {
                    out.attempted += 1;
                    out.errors += 1;
                    out.check_failures
                        .push(format!("{}: error: {e}", inputs.label(*r)));
                    complete = false;
                    break;
                }
                let Some(decision) = sup.decisions().get(before) else {
                    if !tracing {
                        out.blocks.idle(at, ms);
                    }
                    continue;
                };
                out.attempted += 1;
                if tracing {
                    traced.all.push(ms);
                    match (event, decision.replanned) {
                        (None, _) => traced.settle.push(ms),
                        (Some(_), true) => traced.replan.push(ms),
                        (Some(_), false) => traced.hold.push(ms),
                    }
                } else {
                    out.blocks.op(at, ms);
                }
            }
            if complete {
                match &first[j] {
                    None => first[j] = Some(sup.decisions().to_vec()),
                    Some(f) if f.as_slice() != sup.decisions() => out.check_failures.push(format!(
                        "{}: a repeated replay took other decisions",
                        inputs.label(*r)
                    )),
                    Some(_) => {}
                }
            }
        }
    }
    out.peak_rss_mb = peak_rss_mb();

    // Checks and deterministic metrics, once per distinct replay, from
    // a fresh replay outside the timed loop.
    let (mut avail, mut degr, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut replans, mut retries, mut fallbacks) = (0_u64, 0_u64, 0_u64);
    let mut shed = Vec::new();
    for (j, (r, schedule)) in inputs.replays.iter().enumerate() {
        let label = inputs.label(*r);
        let (net, array) = (&inputs.nets[r.net], &inputs.arrays[r.array].array);
        let checked = (|| -> Result<(), AccParError> {
            let mut sup = Supervisor::new(net, array, None, config(threads))?;
            let report = sup.run(schedule)?;
            if first[j].as_ref().is_some_and(|f| *f != report.decisions) {
                out.check_failures
                    .push(format!("{label}: the timed replay took other decisions"));
            }
            let terminal = schedule.fold_all(FaultModel::new())?;
            let view = net.train_view()?;
            let tree = GroupTree::bisect(array, default_levels(array))?;
            let direct = replan(
                &view,
                array,
                &tree,
                sup.healthy_plan(),
                &terminal,
                &ReplanConfig {
                    sensitivity: false,
                    threads: Some(1),
                    ..ReplanConfig::default()
                },
            );
            // Where the terminal fault set cannot be planned at all (a
            // failed leaf that covers part of a board), the settled
            // supervisor must be shedding too.
            match (&direct, sup.plan()) {
                (Ok(d), Some(p)) if d.plan == *p => {}
                (Err(e), None) => shed.push(format!("{label}: ends shed; direct replan: {e}")),
                _ => out.check_failures.push(format!(
                    "{label}: settled plan differs from a direct terminal replan"
                )),
            }
            let dp = plain(net, array, Strategy::DataParallel)?;
            let ratio = sup.nominal_secs() / dp.modeled_cost();
            out.quality.push((label.clone(), ratio));
            ratios.push(ratio);
            avail.push(report.availability);
            degr.push(weighted_degradation(&report.decisions));
            replans += report.replans as u64;
            retries += report.retries as u64;
            fallbacks += report
                .decisions
                .iter()
                .filter(|d| d.action == SuperviseAction::Fallback)
                .count() as u64;
            Ok(())
        })();
        if let Err(e) = checked {
            out.check_failures.push(format!("{label}: check: {e}"));
        }
    }
    for line in &shed {
        println!("{line}");
    }
    out.step_vs_dp = stats::geomean(&ratios);
    out.availability = avail.iter().sum::<f64>() / avail.len().max(1) as f64;
    out.served_degradation = stats::geomean(&degr);
    let loses = ratios.iter().filter(|&&r| r > 1.0).count() as u64;
    out.counts = vec![
        ("requests", n as u64),
        ("quality.accpar_loses_to_dp", loses),
        ("core.supervise.replans", replans),
        ("core.supervise.retries", retries),
        ("core.supervise.fallbacks", fallbacks),
        ("replays_ending_shed", shed.len() as u64),
    ];

    if cfg.trace {
        let untraced = out.blocks.p50();
        let traced_p50 = stats::median(&traced.all);
        let med = |v: &[f64]| (!v.is_empty()).then(|| stats::median(v));
        let mut layers = log.layers();
        layers.push(("core.cache.hit_ratio", None, "ratio"));
        layers.push(("core.cache.evictions", None, "count"));
        layers.push(("core.cache.persist_losses", None, "count"));
        layers.push((
            "core.supervise.replan_decision_ms",
            med(&traced.replan),
            "ms",
        ));
        layers.push(("core.supervise.hold_decision_ms", med(&traced.hold), "ms"));
        layers.push(("core.supervise.settle_ms", med(&traced.settle), "ms"));
        layers.push(("core.supervise.replans", Some(replans as f64), "count"));
        layers.push(("core.supervise.retries", Some(retries as f64), "count"));
        layers.push(("core.supervise.fallbacks", Some(fallbacks as f64), "count"));
        // A decision is one call: its only phase is the call itself.
        layers.push((
            "core.planner.unattributed_ms",
            Some(untraced - traced_p50),
            "ms",
        ));
        layers.push(("quality.accpar_loses_to_dp", Some(loses as f64), "count"));
        layers.push((
            "trace_overhead_frac",
            Some(traced_p50 / untraced - 1.0),
            "ratio",
        ));
        out.layers = layers;
    }
    Ok(out)
}
