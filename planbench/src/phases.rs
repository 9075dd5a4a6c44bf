//! The traced run's view of one plan request: the planner pipeline
//! re-run step by step through public functions, in the order
//! `Planner::plan` runs it, with a clock read around every call. The
//! program itself is not instrumented.

use accpar::core::hierarchy::plan_node_budgeted;
use accpar::core::{cache, CacheStats, PlanCache, PlanRecord, SearchCache, SearchConfig, Strategy};
use accpar::cost::{CostConfig, CostModel, RatioSolver};
use accpar::dnn::iso::IsoClasses;
use accpar::dnn::Network;
use accpar::hw::{AcceleratorArray, GroupTree};
use accpar::obs::Obs;
use accpar::partition::PlanTree;
use accpar::runtime::{Budget, Pool};
use accpar::sim::{SimConfig, Simulator};
use accpar::AccParError;
use std::path::Path;
use std::time::Instant;

/// Pipeline phases, in `Planner::plan` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `Network::train_view`.
    TrainView,
    /// `GroupTree::bisect`.
    Bisect,
    /// `cache::plan_key`.
    Fingerprint,
    /// `PlanCache::lookup`.
    Lookup,
    /// Validation of a cache hit (re-simulation unless memoized).
    Validate,
    /// `IsoClasses::of`.
    IsoClassify,
    /// `hierarchy::plan_node_budgeted` minus its own iso classification.
    Search,
    /// Post-plan `Simulator::simulate`.
    Evaluate,
    /// `PlanCache::insert_verified`.
    Insert,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 9] = [
        Phase::TrainView,
        Phase::Bisect,
        Phase::Fingerprint,
        Phase::Lookup,
        Phase::Validate,
        Phase::IsoClassify,
        Phase::Search,
        Phase::Evaluate,
        Phase::Insert,
    ];

    /// The per-layer metric this phase's median time reports under.
    #[must_use]
    pub const fn metric(self) -> &'static str {
        match self {
            Phase::TrainView => "dnn.train_view_ms",
            Phase::Bisect => "hw.bisect_ms",
            Phase::Fingerprint => "core.cache.fingerprint_ms",
            Phase::Lookup => "core.cache.lookup_ms",
            Phase::Validate => "core.cache.validate_ms",
            Phase::IsoClassify => "dnn.iso_classify_ms",
            Phase::Search => "core.search_ms",
            Phase::Evaluate => "sim.evaluate_ms",
            Phase::Insert => "core.cache.insert_ms",
        }
    }
}

/// One request run phase by phase.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The plan the pipeline produced.
    pub plan: PlanTree,
    /// Its simulated step time in seconds.
    pub cost: f64,
    /// Milliseconds per phase, indexed like [`Phase::ALL`]; `None` when
    /// the phase did not run for this request.
    pub phase_ms: [Option<f64>; 9],
    /// Wall time of the whole decomposed request.
    pub total_ms: f64,
    /// Search-memo counters of this request's fresh [`SearchCache`]
    /// (`None` on a plan-cache hit, which skips the search).
    pub memo: Option<CacheStats>,
    /// `IsoClasses::collapse_ratio` (`None` on a plan-cache hit).
    pub collapse_ratio: Option<f64>,
    /// Plan-cache provenance: `Some(true)` for a served hit.
    pub cache_hit: Option<bool>,
    /// Size of the cache snapshot after this request's insert.
    pub snapshot_bytes: Option<u64>,
}

/// The planner's default hierarchy depth: bisect down to single boards.
#[must_use]
pub fn default_levels(array: &AcceleratorArray) -> usize {
    let boards = array.len().max(1);
    (usize::BITS as usize - 1 - boards.leading_zeros() as usize).max(1)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Runs one AccPar request with default knobs phase by phase: what
/// `Planner::builder(net, array).threads(threads)` with an optional
/// `.plan_cache(..)` computes in `plan`, step for step. `plan_cache`
/// pairs the cache with the directory it persists to.
///
/// # Errors
///
/// Propagates network, hardware, planning and simulation errors.
pub fn run(
    network: &Network,
    array: &AcceleratorArray,
    threads: usize,
    plan_cache: Option<(&PlanCache, &Path)>,
) -> Result<Traced, AccParError> {
    let mut phase_ms = [None; 9];
    let sim = Simulator::new(SimConfig::cost_model_aligned());
    let start = Instant::now();

    let t = Instant::now();
    let view = network.train_view()?;
    phase_ms[Phase::TrainView as usize] = Some(ms(t));
    let levels = default_levels(array);
    let t = Instant::now();
    let tree = GroupTree::bisect(array, levels)?;
    phase_ms[Phase::Bisect as usize] = Some(ms(t));

    let mut cache_hit = None;
    let mut key = None;
    if let Some((cache, _)) = plan_cache {
        let t = Instant::now();
        let k = cache::plan_key(
            &view,
            array,
            Strategy::AccPar,
            levels,
            &CostConfig::default(),
            &RatioSolver::default(),
            &SimConfig::cost_model_aligned(),
            &Budget::unlimited(),
        );
        phase_ms[Phase::Fingerprint as usize] = Some(ms(t));
        let t = Instant::now();
        let found = cache.lookup(&k);
        phase_ms[Phase::Lookup as usize] = Some(ms(t));
        cache_hit = Some(false);
        key = Some(k);
        if let Some((record, verified)) = found {
            let t = Instant::now();
            let shape_ok = record.strategy == Strategy::AccPar
                && record.levels == levels
                && record.plan.depth() == levels
                && record.plan.plan().len() == view.weighted_len();
            let served = match (shape_ok, verified) {
                (false, _) => None,
                (true, Some(report)) => Some(report.total_secs),
                (true, None) => match sim.simulate(&view, &record.plan, &tree, None) {
                    Ok(report)
                        if (report.total_secs - record.cost).abs() <= cache::POISON_TOLERANCE =>
                    {
                        let secs = report.total_secs;
                        cache.mark_verified(&k, report);
                        Some(secs)
                    }
                    Ok(_) => {
                        cache.evict(&k);
                        None
                    }
                    Err(_) => None,
                },
            };
            phase_ms[Phase::Validate as usize] = Some(ms(t));
            if let Some(cost) = served {
                return Ok(Traced {
                    plan: record.plan,
                    cost,
                    phase_ms,
                    total_ms: ms(start),
                    memo: None,
                    collapse_ratio: None,
                    cache_hit: Some(true),
                    snapshot_bytes: None,
                });
            }
        }
    }

    let t = Instant::now();
    let iso = IsoClasses::of(&view);
    let iso_ms = ms(t);
    phase_ms[Phase::IsoClassify as usize] = Some(iso_ms);
    let memo = SearchCache::new();
    let config = SearchConfig::accpar_with(RatioSolver::default());
    let t = Instant::now();
    let (plan, _) = plan_node_budgeted(
        &view,
        tree.root(),
        &CostModel::new(CostConfig::default()),
        &config,
        None,
        Pool::new(threads),
        Some(&memo),
        &Obs::off(),
        None,
        &Budget::unlimited(),
    )?;
    // The search classifies the view itself; charge that to the iso
    // phase, which was timed on its own just above.
    phase_ms[Phase::Search as usize] = Some((ms(t) - iso_ms).max(0.0));
    let plan = plan.ok_or_else(|| {
        AccParError::Plan(accpar::core::PlanError::Mismatch(
            "the bisected tree has no levels to plan".into(),
        ))
    })?;
    let t = Instant::now();
    let report = sim.simulate(&view, &plan, &tree, None)?;
    phase_ms[Phase::Evaluate as usize] = Some(ms(t));
    let cost = report.total_secs;

    let mut snapshot_bytes = None;
    if let (Some((cache, dir)), Some(k)) = (plan_cache, key) {
        let t = Instant::now();
        cache.insert_verified(
            PlanRecord {
                key: k,
                strategy: Strategy::AccPar,
                levels,
                cost,
                plan: plan.clone(),
            },
            report,
        );
        phase_ms[Phase::Insert as usize] = Some(ms(t));
        snapshot_bytes = std::fs::metadata(dir.join("plans.jsonl"))
            .ok()
            .map(|m| m.len());
    }
    Ok(Traced {
        plan,
        cost,
        phase_ms,
        total_ms: ms(start),
        memo: Some(memo.stats()),
        collapse_ratio: Some(iso.collapse_ratio()),
        cache_hit,
        snapshot_bytes,
    })
}
