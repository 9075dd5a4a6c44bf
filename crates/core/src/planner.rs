use crate::baselines::{data_parallel_plan, hypar_plan, owt_plan};
use crate::cache::{self, CacheOutcome, PlanCache, PlanRecord};
use crate::error::PlanError;
use crate::hierarchy::{plan_node_budgeted, AnytimeReport};
use crate::memo::{CacheStats, SearchCache};
use crate::search::SearchConfig;
use accpar_cost::{CostConfig, CostModel, RatioSolver};
use accpar_dnn::{Network, TrainView};
use accpar_hw::{AcceleratorArray, GroupTree};
use accpar_obs::{Obs, Subscriber};
use accpar_partition::PlanTree;
use accpar_runtime::{Budget, CancelToken, Pool, StopReason};
use accpar_sim::{Optimizer, SimConfig, SimReport, Simulator};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The partitioning schemes compared in §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Plain data parallelism — the normalization baseline.
    DataParallel,
    /// "One Weird Trick" (Krizhevsky, 2014).
    Owt,
    /// HyPar (Song et al., HPCA 2019).
    HyPar,
    /// AccPar — this paper.
    AccPar,
}

impl Strategy {
    /// All four schemes in the paper's presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::DataParallel,
        Strategy::Owt,
        Strategy::HyPar,
        Strategy::AccPar,
    ];
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::DataParallel => "DP",
            Strategy::Owt => "OWT",
            Strategy::HyPar => "HyPar",
            Strategy::AccPar => "AccPar",
        };
        f.write_str(s)
    }
}

/// A plan produced by [`Planner::plan`], together with its modeled
/// performance.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedNetwork {
    strategy: Strategy,
    plan: PlanTree,
    report: SimReport,
}

impl PlannedNetwork {
    /// Which scheme produced the plan.
    #[must_use]
    pub const fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The hierarchical plan.
    #[must_use]
    pub const fn plan(&self) -> &PlanTree {
        &self.plan
    }

    /// The modeled step time in seconds (simulated with the
    /// cost-model-aligned configuration).
    #[must_use]
    pub fn modeled_cost(&self) -> f64 {
        self.report.total_secs
    }

    /// The full simulation report behind [`PlannedNetwork::modeled_cost`].
    #[must_use]
    pub const fn report(&self) -> &SimReport {
        &self.report
    }

    /// In-crate constructor for plans that did not come out of
    /// [`Planner::plan`] directly — validated cache hits and degraded
    /// (replanned) serving results.
    pub(crate) const fn from_parts(strategy: Strategy, plan: PlanTree, report: SimReport) -> Self {
        Self {
            strategy,
            plan,
            report,
        }
    }
}

impl fmt::Display for PlannedNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3} ms/step\n{}",
            self.strategy,
            self.modeled_cost() * 1e3,
            self.plan
        )
    }
}

/// A plan whose search a [`Budget`] stopped early.
///
/// Levels the walk solved keep their DP-optimal assignments; the rest
/// fell back to the per-layer data-parallel baseline. The plan carried
/// here is additionally **never worse than pure data parallelism**: the
/// planner simulates both and adopts whichever is cheaper (mirroring
/// the `replan` module's never-worse contract).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialPlan {
    planned: PlannedNetwork,
    reason: StopReason,
    solved_levels: usize,
    fallback_levels: usize,
    baseline_adopted: bool,
}

impl PartialPlan {
    /// The best feasible plan found within the budget.
    #[must_use]
    pub const fn planned(&self) -> &PlannedNetwork {
        &self.planned
    }

    /// Why the search stopped.
    #[must_use]
    pub const fn reason(&self) -> StopReason {
        self.reason
    }

    /// Bisection levels solved to DP optimality.
    #[must_use]
    pub const fn solved_levels(&self) -> usize {
        self.solved_levels
    }

    /// Levels that fell back to the data-parallel baseline.
    #[must_use]
    pub const fn fallback_levels(&self) -> usize {
        self.fallback_levels
    }

    /// Fraction of levels solved to DP optimality, in `[0, 1)` for a
    /// partial plan.
    #[must_use]
    pub fn completeness(&self) -> f64 {
        let total = self.solved_levels + self.fallback_levels;
        if total == 0 {
            1.0
        } else {
            self.solved_levels as f64 / total as f64
        }
    }

    /// Whether the pure data-parallel baseline simulated cheaper than
    /// the stitched partial plan and was adopted in its place.
    #[must_use]
    pub const fn baseline_adopted(&self) -> bool {
        self.baseline_adopted
    }
}

/// The result of a budgeted plan: complete, or the best feasible plan
/// the budget allowed.
///
/// With an unlimited budget the outcome is always
/// [`Complete`](PlanOutcome::Complete) and bit-identical to
/// [`Planner::plan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutcome {
    /// The search ran to completion; the plan is DP-optimal.
    Complete(PlannedNetwork),
    /// The budget stopped the search; the plan is feasible, stitched
    /// from solved levels plus the data-parallel fallback, and never
    /// worse than pure data parallelism.
    Partial(PartialPlan),
}

impl PlanOutcome {
    /// The planned network, complete or partial.
    #[must_use]
    pub const fn planned(&self) -> &PlannedNetwork {
        match self {
            PlanOutcome::Complete(p) => p,
            PlanOutcome::Partial(p) => p.planned(),
        }
    }

    /// Consumes the outcome, keeping the planned network.
    #[must_use]
    pub fn into_planned(self) -> PlannedNetwork {
        match self {
            PlanOutcome::Complete(p) => p,
            PlanOutcome::Partial(p) => p.planned,
        }
    }

    /// Whether the search ran to completion.
    #[must_use]
    pub const fn is_complete(&self) -> bool {
        matches!(self, PlanOutcome::Complete(_))
    }

    /// Fraction of levels solved to DP optimality (1.0 when complete).
    #[must_use]
    pub fn completeness(&self) -> f64 {
        match self {
            PlanOutcome::Complete(_) => 1.0,
            PlanOutcome::Partial(p) => p.completeness(),
        }
    }
}

/// Default hierarchy depth: bisect down to single boards.
fn default_levels(array: &AcceleratorArray) -> usize {
    let boards = array.len().max(1);
    (usize::BITS as usize - 1 - boards.leading_zeros() as usize).max(1)
}

/// Every knob a [`PlannerBuilder`] sets; the built [`Planner`] keeps it.
#[derive(Debug, Clone)]
struct Settings {
    levels: Option<usize>,
    cost_config: CostConfig,
    solver: RatioSolver,
    sim_config: SimConfig,
    threads: Option<usize>,
    caching: bool,
    iso: bool,
    /// Shared across planner clones so replans reuse the planning
    /// run's memo.
    cache: Arc<SearchCache>,
    /// Whole-plan serving cache (see [`crate::cache`]); absent by
    /// default.
    plan_cache: Option<Arc<PlanCache>>,
    obs: Obs,
    deadline: Option<Duration>,
    max_nodes: Option<u64>,
    cancel: Option<CancelToken>,
}

/// Configures and validates a [`Planner`] — the single way to build
/// one (see [`Planner::builder`]).
///
/// Every knob has a sensible default; [`build`](PlannerBuilder::build)
/// validates the whole configuration up front (thread budget, hierarchy
/// depth, array bisectability, network analyzability) so planning
/// itself cannot fail on configuration errors.
///
/// # Example
///
/// ```
/// use accpar_core::{Planner, Strategy};
/// use accpar_dnn::zoo;
/// use accpar_hw::AcceleratorArray;
///
/// let network = zoo::lenet(128)?;
/// let array = AcceleratorArray::heterogeneous_tpu(2, 2);
/// let planned = Planner::builder(&network, &array)
///     .levels(2)
///     .build()?
///     .plan(Strategy::Owt)?;
/// assert_eq!(planned.plan().depth(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PlannerBuilder<'a> {
    network: &'a Network,
    array: &'a AcceleratorArray,
    settings: Settings,
}

impl<'a> PlannerBuilder<'a> {
    /// Starts a builder over a network and an array with default knobs:
    /// bisection to single boards, default cost model and solver,
    /// cost-model-aligned simulator, environment-derived thread budget,
    /// caching on, unlimited budget, inert observability.
    #[must_use]
    pub fn new(network: &'a Network, array: &'a AcceleratorArray) -> Self {
        Self {
            network,
            array,
            settings: Settings {
                levels: None,
                cost_config: CostConfig::default(),
                solver: RatioSolver::default(),
                sim_config: SimConfig::cost_model_aligned(),
                threads: None,
                caching: true,
                iso: true,
                cache: Arc::default(),
                plan_cache: None,
                obs: Obs::off(),
                deadline: None,
                max_nodes: None,
                cancel: None,
            },
        }
    }

    /// Hierarchy depth (default: bisect down to single boards, i.e.
    /// `log2(#boards)`). Validated against the array at
    /// [`build`](PlannerBuilder::build).
    #[must_use]
    pub fn levels(mut self, levels: usize) -> Self {
        self.settings.levels = Some(levels);
        self
    }

    /// Cost-model configuration used by the AccPar search.
    #[must_use]
    pub fn cost_config(mut self, config: CostConfig) -> Self {
        self.settings.cost_config = config;
        self
    }

    /// Ratio solver used by the AccPar search.
    #[must_use]
    pub fn solver(mut self, solver: RatioSolver) -> Self {
        self.settings.solver = solver;
        self
    }

    /// Simulator configuration used to evaluate
    /// [`PlannedNetwork::modeled_cost`].
    #[must_use]
    pub fn sim_config(mut self, config: SimConfig) -> Self {
        self.settings.sim_config = config;
        self
    }

    /// Thread budget for planning (default: the `ACCPAR_THREADS`
    /// environment variable, falling back to the machine's available
    /// parallelism). Must be at least 1; plans are bit-identical at any
    /// budget.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.settings.threads = Some(threads);
        self
    }

    /// Enables or disables the shared search memo (default: enabled).
    /// Caching never changes results — only how often cost cells, block
    /// tables and whole levels are recomputed.
    #[must_use]
    pub fn caching(mut self, caching: bool) -> Self {
        self.settings.caching = caching;
        self
    }

    /// Shares a search memo with other planners — e.g. a zoo sweep over
    /// one accelerator array. Every memo key captures its full
    /// evaluation context, so sharing is always sound.
    #[must_use]
    pub fn cache(mut self, cache: Arc<SearchCache>) -> Self {
        self.settings.cache = cache;
        self
    }

    /// Enables or disables isomorphism collapse in the AccPar search
    /// (default: enabled). When on, structurally identical layers are
    /// grouped into equivalence classes and each DP cost-table row is
    /// computed once per class, then stamped onto every member —
    /// bit-identical to the uncollapsed search, since a row is a pure
    /// function of the class key. Disable (the `--no-iso` escape hatch)
    /// only to cross-check or to measure the collapse speedup itself.
    #[must_use]
    pub fn iso(mut self, on: bool) -> Self {
        self.settings.iso = on;
        self
    }

    /// Attaches a crash-safe [`PlanCache`]: whole finished plans are
    /// served from validated cache hits and admitted on cold misses.
    /// Every hit is re-validated before serving (shape match plus a BSP
    /// simulation cross-check), so attaching a cache never changes a
    /// served plan — a cold miss is bit-identical to the uncached
    /// planner, and a poisoned record is evicted and re-planned. See
    /// the [`cache`](crate::cache) module docs.
    #[must_use]
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.settings.plan_cache = Some(cache);
        self
    }

    /// Attaches a tracing [`Subscriber`] (with a fresh metrics
    /// registry). The planner then emits `plan` / `plan.level` spans,
    /// per-layer `plan.decision` events, cache statistics, and replan
    /// metrics. Instrumentation never changes plans.
    #[must_use]
    pub fn subscriber(mut self, subscriber: impl Subscriber + 'static) -> Self {
        self.settings.obs = Obs::new(subscriber);
        self
    }

    /// Attaches a pre-built observability handle (lets several planners
    /// share one subscriber and metrics registry). [`Obs::off`] detaches.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.settings.obs = obs;
        self
    }

    /// Bounds every AccPar search by a wall-clock deadline, measured
    /// from the start of each [`Planner::plan`] /
    /// [`Planner::plan_outcome`] call and of each strategy in
    /// [`Planner::plan_all`] (not from `build`). On expiry the planner
    /// returns the best-so-far anytime plan as
    /// [`PlanOutcome::Partial`].
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.settings.deadline = Some(deadline);
        self
    }

    /// Caps the number of budget nodes (DP layer rows) each AccPar
    /// search may expand — in [`Planner::plan`],
    /// [`Planner::plan_outcome`] and [`Planner::plan_all`] alike. A cap
    /// of 0 forces the pure data-parallel fallback — useful to bound
    /// worst-case latency deterministically.
    #[must_use]
    pub fn max_nodes(mut self, cap: u64) -> Self {
        self.settings.max_nodes = Some(cap);
        self
    }

    /// Attaches an external cancellation token checked throughout the
    /// search; cancel it from another thread to stop planning at the
    /// next layer row.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.settings.cancel = Some(token);
        self
    }

    /// Validates the configuration, lowers the network for training and
    /// bisects the array, and builds the [`Planner`], which keeps the
    /// lowered view and the group tree for every plan it makes.
    ///
    /// # Errors
    ///
    /// [`PlanError::Config`] when the thread budget or hierarchy depth
    /// is zero; [`PlanError::Hw`] when the array cannot be bisected to
    /// the requested depth; [`PlanError::Network`] when the network
    /// cannot be analyzed for training.
    pub fn build(self) -> Result<Planner<'a>, PlanError> {
        let settings = self.settings;
        if settings.threads == Some(0) {
            return Err(PlanError::Config("thread budget must be at least 1".into()));
        }
        if settings.levels == Some(0) {
            return Err(PlanError::Config(
                "hierarchy depth must be at least 1".into(),
            ));
        }
        let levels = settings
            .levels
            .unwrap_or_else(|| default_levels(self.array));
        let tree = GroupTree::bisect(self.array, levels)?;
        let view = self.network.train_view()?;
        Ok(Planner {
            network: self.network,
            array: self.array,
            settings,
            view,
            tree,
        })
    }
}

/// One-stop planning API: pairs a network with an accelerator array and
/// produces hierarchical partition plans under any of the four schemes.
///
/// Built via [`Planner::builder`], which validates the configuration,
/// lowers the network and bisects the array once. Every entry point —
/// [`plan`](Planner::plan), [`plan_outcome`](Planner::plan_outcome),
/// [`plan_with_budget_cached`](Planner::plan_with_budget_cached),
/// [`plan_within_memory`](Planner::plan_within_memory),
/// [`plan_all`](Planner::plan_all) and [`replan`](Planner::replan) —
/// reuses that lowered view and group tree.
///
/// # Example
///
/// ```
/// use accpar_core::{Planner, Strategy};
/// use accpar_dnn::zoo;
/// use accpar_hw::AcceleratorArray;
///
/// let network = zoo::lenet(128)?;
/// let array = AcceleratorArray::heterogeneous_tpu(2, 2);
/// let planner = Planner::builder(&network, &array).levels(2).build()?;
/// let planned = planner.plan(Strategy::Owt)?;
/// assert_eq!(planned.plan().depth(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Planner<'a> {
    network: &'a Network,
    array: &'a AcceleratorArray,
    settings: Settings,
    /// The network lowered for training, once, at build.
    view: TrainView,
    /// The array bisected to the planner's depth, once, at build.
    tree: GroupTree,
}

impl<'a> Planner<'a> {
    /// Starts building a planner over a network and an array — the
    /// entry point of the planning API. See [`PlannerBuilder`].
    #[must_use]
    pub fn builder(network: &'a Network, array: &'a AcceleratorArray) -> PlannerBuilder<'a> {
        PlannerBuilder::new(network, array)
    }

    /// The resolved thread budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.settings
            .threads
            .unwrap_or_else(|| Pool::from_env().threads())
    }

    /// Counters of the shared search memo (all zeros while caching is
    /// disabled or before the first AccPar plan).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.settings.cache.stats()
    }

    /// The observability handle the planner was built with (inert
    /// unless [`PlannerBuilder::subscriber`] or [`PlannerBuilder::obs`]
    /// attached one).
    #[must_use]
    pub const fn obs(&self) -> &Obs {
        &self.settings.obs
    }

    /// The hierarchy depth that will be used.
    #[must_use]
    pub const fn levels(&self) -> usize {
        self.tree.levels()
    }

    /// The network lowered at build.
    pub(crate) const fn view(&self) -> &TrainView {
        &self.view
    }

    /// Consumes the planner, keeping the lowered view and the group
    /// tree it planned over.
    pub(crate) fn into_lowered(self) -> (TrainView, GroupTree) {
        (self.view, self.tree)
    }

    /// A fresh [`Budget`] from the builder's `deadline` / `max_nodes` /
    /// `cancel` knobs. The deadline clock starts *now* — each plan call
    /// gets the full allowance.
    fn fresh_budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(deadline) = self.settings.deadline {
            budget = budget.deadline(deadline);
        }
        if let Some(cap) = self.settings.max_nodes {
            budget = budget.max_nodes(cap);
        }
        if let Some(token) = &self.settings.cancel {
            budget = budget.cancel_token(token);
        }
        budget
    }

    /// Plans the network under the given strategy and evaluates the plan
    /// with the simulator.
    ///
    /// When the builder configured a budget (`deadline` / `max_nodes` /
    /// `cancel`) and it expires mid-search, the anytime plan is
    /// returned; use [`Planner::plan_outcome`] to observe whether that
    /// happened.
    ///
    /// # Errors
    ///
    /// Propagates hierarchy-search and simulation errors.
    pub fn plan(&self, strategy: Strategy) -> Result<PlannedNetwork, PlanError> {
        self.plan_outcome(strategy).map(PlanOutcome::into_planned)
    }

    /// Plans under the builder-configured budget and reports whether
    /// the result is complete or the best-so-far anytime plan.
    ///
    /// # Errors
    ///
    /// See [`Planner::plan`]. A budget stop is not an error.
    pub fn plan_outcome(&self, strategy: Strategy) -> Result<PlanOutcome, PlanError> {
        self.plan_with_budget_cached(strategy, &self.fresh_budget())
            .map(|(outcome, _)| outcome)
    }

    /// Plans under an explicit [`Budget`] (overriding the builder
    /// knobs), additionally reporting how the attached [`PlanCache`]
    /// participated ([`CacheOutcome::Disabled`] when none is attached).
    /// The budget bounds the AccPar search — the three baseline
    /// strategies are closed-form (or search a space too small to
    /// matter) and always complete. The serving layer uses the
    /// provenance to demote hits when the request targets degraded
    /// hardware.
    ///
    /// # Errors
    ///
    /// See [`Planner::plan`]. A budget stop is not an error.
    pub fn plan_with_budget_cached(
        &self,
        strategy: Strategy,
        budget: &Budget,
    ) -> Result<(PlanOutcome, CacheOutcome), PlanError> {
        self.pipeline(strategy, Pool::new(self.threads()), budget)
    }

    /// Admission validation of a cached record before serving: shape /
    /// topology match on every hit, then a BSP simulation cross-check
    /// of the stored cost (which also proves feasibility against the
    /// *current* array — an infeasible plan fails to simulate). The
    /// cross-check is skipped when `verified` carries a report this
    /// record already earned in this process (see the
    /// [`cache`](crate::cache) module docs): the key is value-complete
    /// and the simulator pure, so the memoized report is the bit-exact
    /// value the re-simulation would recompute. Either way the returned
    /// report is identical to what a cold plan would produce for the
    /// same tree, so serving a validated hit is bit-identical to
    /// re-planning. The boolean reports whether a fresh simulation ran.
    fn validate_record(
        &self,
        record: &PlanRecord,
        verified: Option<SimReport>,
        strategy: Strategy,
    ) -> Result<(SimReport, bool), CacheOutcome> {
        let levels = self.levels();
        let shape_ok = record.strategy == strategy
            && record.levels == levels
            && record.plan.depth() == levels
            && record.plan.plan().len() == self.view.weighted_len();
        if !shape_ok {
            return Err(CacheOutcome::Invalid);
        }
        if let Some(report) = verified {
            return Ok((report, false));
        }
        let report = Simulator::new(self.settings.sim_config)
            .simulate(&self.view, &record.plan, &self.tree, None)
            .map_err(|_| CacheOutcome::Invalid)?;
        if (report.total_secs - record.cost).abs() > cache::POISON_TOLERANCE {
            return Err(CacheOutcome::Poisoned);
        }
        Ok((report, true))
    }

    /// The planning pipeline every entry point runs: plan-cache consult,
    /// the strategy's search over the lowered view and group tree, BSP
    /// evaluation, the anytime never-worse check, and cache admission.
    fn pipeline(
        &self,
        strategy: Strategy,
        pool: Pool,
        budget: &Budget,
    ) -> Result<(PlanOutcome, CacheOutcome), PlanError> {
        let started = Instant::now();
        let s = &self.settings;
        let view = &self.view;
        let tree = &self.tree;
        let levels = tree.levels();
        let obs = &s.obs;
        if s.caching {
            s.cache.observe(obs);
        }
        let span = obs.span(
            "plan",
            &[
                ("network", self.network.name().into()),
                ("strategy", strategy.to_string().into()),
                ("levels", levels.into()),
                ("layers", view.weighted_len().into()),
                ("threads", pool.threads().into()),
            ],
        );

        // Plan-cache consult: a validated hit short-circuits the whole
        // search; everything else falls through to the normal (cold,
        // bit-identical) path and admits the finished plan.
        let mut cache_outcome = CacheOutcome::Disabled;
        let cache_key = s.plan_cache.as_ref().map(|plan_cache| {
            let key = cache::plan_key(
                view,
                self.array,
                strategy,
                levels,
                &s.cost_config,
                &s.solver,
                &s.sim_config,
                budget,
            );
            (Arc::clone(plan_cache), key)
        });
        if let Some((plan_cache, key)) = &cache_key {
            cache_outcome = CacheOutcome::Miss;
            if let Some((record, verified)) = plan_cache.lookup(key) {
                let vspan = obs.span(
                    "cache.validate",
                    &[
                        ("key", key.to_hex().into()),
                        ("strategy", strategy.to_string().into()),
                        ("levels", levels.into()),
                    ],
                );
                match self.validate_record(&record, verified, strategy) {
                    Ok((report, fresh_sim)) => {
                        vspan.event(
                            "cache.validate.outcome",
                            &[
                                ("result", CacheOutcome::Hit.label().into()),
                                ("cost", report.total_secs.into()),
                                ("fresh_sim", fresh_sim.into()),
                            ],
                        );
                        if fresh_sim {
                            plan_cache.mark_verified(key, report.clone());
                        }
                        if obs.enabled() {
                            obs.counter("planner.plans").inc();
                            obs.histogram("planner.ttfp_ns").record(
                                started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                            );
                        }
                        let planned = PlannedNetwork::from_parts(strategy, record.plan, report);
                        return Ok((PlanOutcome::Complete(planned), CacheOutcome::Hit));
                    }
                    Err(outcome) => {
                        vspan.event(
                            "cache.validate.outcome",
                            &[("result", outcome.label().into())],
                        );
                        if outcome == CacheOutcome::Poisoned {
                            plan_cache.evict(key);
                        }
                        cache_outcome = outcome;
                    }
                }
            }
        }

        let complete = AnytimeReport {
            solved_levels: 0,
            fallback_levels: 0,
            stop: None,
        };
        let (plan, anytime) = match strategy {
            Strategy::DataParallel => (data_parallel_plan(view, levels), complete),
            Strategy::Owt => (owt_plan(view, levels), complete),
            Strategy::HyPar => (hypar_plan(view, tree)?, complete),
            Strategy::AccPar => {
                let model = CostModel::new(s.cost_config);
                let mut config = SearchConfig::accpar_with(s.solver);
                config.collapse = s.iso;
                if s.iso && obs.enabled() {
                    let iso = accpar_dnn::iso::IsoClasses::of(view);
                    let classes = iso.layer_classes();
                    obs.span_at(
                        "plan.iso",
                        span.id(),
                        &[
                            ("classes", classes.into()),
                            ("layers", view.weighted_len().into()),
                            ("collapse_ratio", iso.collapse_ratio().into()),
                        ],
                    );
                    obs.counter("iso.classes").add(classes as u64);
                    obs.gauge("iso.collapse_ratio").set(iso.collapse_ratio());
                }
                let cache = s.caching.then(|| &*s.cache);
                let (plan, anytime) = plan_node_budgeted(
                    view,
                    tree.root(),
                    &model,
                    &config,
                    None,
                    pool,
                    cache,
                    obs,
                    span.id(),
                    budget,
                )?;
                let plan = plan.ok_or_else(|| {
                    PlanError::Mismatch("the bisected tree has no levels to plan".into())
                })?;
                (plan, anytime)
            }
        };

        let report = Simulator::new(s.sim_config)
            .with_obs(obs.clone())
            .simulate(view, &plan, tree, None)?;
        let planned = PlannedNetwork {
            strategy,
            plan,
            report,
        };

        // Anytime contract: a partial plan is adopted only if it beats
        // the pure data-parallel baseline it would otherwise degrade to
        // (mirroring the replan module's never-worse rule).
        let outcome = if anytime.is_complete() {
            PlanOutcome::Complete(planned)
        } else {
            let reason = anytime
                .stop
                .expect("a fallback level implies a stop reason");
            let baseline_plan = data_parallel_plan(view, levels);
            let baseline_report = Simulator::new(s.sim_config)
                .with_obs(obs.clone())
                .simulate(view, &baseline_plan, tree, None)?;
            let baseline_adopted = baseline_report.total_secs < planned.report.total_secs;
            let planned = if baseline_adopted {
                PlannedNetwork {
                    strategy,
                    plan: baseline_plan,
                    report: baseline_report,
                }
            } else {
                planned
            };
            PlanOutcome::Partial(PartialPlan {
                planned,
                reason,
                solved_levels: anytime.solved_levels,
                fallback_levels: anytime.fallback_levels,
                baseline_adopted,
            })
        };

        // Only complete plans are admitted: a partial plan is an
        // artifact of this request's remaining budget, not of the
        // request content the key fingerprints.
        if let Some((plan_cache, key)) = &cache_key {
            if let PlanOutcome::Complete(planned) = &outcome {
                plan_cache.insert_verified(
                    PlanRecord {
                        key: *key,
                        strategy,
                        levels,
                        cost: planned.report.total_secs,
                        plan: planned.plan.clone(),
                    },
                    planned.report.clone(),
                );
            }
        }

        if obs.enabled() {
            obs.counter("planner.plans").inc();
            obs.histogram("planner.ttfp_ns")
                .record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            emit_decisions(obs, span.id(), view, outcome.planned().plan());
            if let PlanOutcome::Partial(partial) = &outcome {
                obs.counter("planner.partial_plans").inc();
                match partial.reason() {
                    StopReason::Deadline => obs.counter("planner.deadline_hits").inc(),
                    StopReason::NodeBudget => obs.counter("planner.node_budget_hits").inc(),
                    StopReason::Cancelled => obs.counter("planner.cancellations").inc(),
                }
                let fields = [
                    ("completeness", partial.completeness().into()),
                    ("reason", partial.reason().label().into()),
                    ("solved_levels", partial.solved_levels().into()),
                    ("fallback_levels", partial.fallback_levels().into()),
                    ("baseline_adopted", partial.baseline_adopted().into()),
                ];
                span.event("plan.partial", &fields);
                if partial.reason() == StopReason::Cancelled {
                    span.event("plan.cancelled", &fields);
                }
            }
            if s.caching {
                let stats = s.cache.stats();
                obs.gauge("planner.cache.hit_rate").set(stats.hit_rate());
                obs.gauge("planner.cache.lookup_hit_rate")
                    .set(stats.lookup_hit_rate());
                span.event(
                    "plan.cache_stats",
                    &[
                        ("layer_hits", stats.layer_hits.into()),
                        ("layer_misses", stats.layer_misses.into()),
                        ("block_hits", stats.block_hits.into()),
                        ("block_misses", stats.block_misses.into()),
                        ("level_hits", stats.level_hits.into()),
                        ("level_misses", stats.level_misses.into()),
                        ("cells_requested", stats.cells_requested.into()),
                        ("hit_rate", stats.hit_rate().into()),
                    ],
                );
            }
        }

        Ok((outcome, cache_outcome))
    }

    /// Plans under `strategy`, then repairs the plan for memory
    /// feasibility under the given optimizer (flipping the heaviest
    /// replicated layers to Type-II until every leaf's footprint fits its
    /// HBM) and re-evaluates it.
    ///
    /// # Errors
    ///
    /// [`PlanError::Infeasible`] when even a fully weight-sharded plan
    /// cannot fit; otherwise see [`Planner::plan`].
    pub fn plan_within_memory(
        &self,
        strategy: Strategy,
        optimizer: Optimizer,
    ) -> Result<PlannedNetwork, PlanError> {
        let planned = self.plan(strategy)?;
        let sim_config = self.settings.sim_config;
        let (plan, _report) = crate::feasible::fit_to_memory(
            &self.view,
            planned.plan(),
            &self.tree,
            &sim_config,
            optimizer,
        )?;
        let report = Simulator::new(sim_config)
            .with_obs(self.settings.obs.clone())
            .simulate(&self.view, &plan, &self.tree, None)?;
        Ok(PlannedNetwork {
            strategy,
            plan,
            report,
        })
    }

    /// Re-plans a previously planned network against a fault scenario:
    /// graceful degradation with this planner's cost model, solver and
    /// simulator configuration. See [`crate::replan::replan`].
    ///
    /// # Errors
    ///
    /// See [`crate::replan::replan`].
    pub fn replan(
        &self,
        planned: &PlannedNetwork,
        faults: &accpar_hw::FaultModel,
    ) -> Result<crate::replan::ReplanOutcome, PlanError> {
        let depth = planned.plan().depth();
        let rebisected;
        let tree = if depth == self.levels() {
            &self.tree
        } else {
            rebisected = GroupTree::bisect(self.array, depth)?;
            &rebisected
        };
        let s = &self.settings;
        let config = crate::replan::ReplanConfig {
            cost_config: s.cost_config,
            solver: s.solver,
            sim_config: s.sim_config,
            sensitivity: true,
            threads: Some(self.threads()),
            obs: s.obs.clone(),
            iso: s.iso,
            budget: Budget::unlimited(),
        };
        crate::replan::replan_with(
            &self.view,
            self.array,
            tree,
            planned.plan(),
            faults,
            &config,
            s.caching.then(|| &*s.cache),
        )
    }

    /// Plans all four schemes under the builder-configured budget and
    /// returns them in [`Strategy::ALL`] order — each entry equals
    /// [`Planner::plan`] of its strategy. With a thread budget above 1
    /// the strategies run concurrently, each on a slice of the budget;
    /// results are position-bound, so the output is identical to a
    /// serial run.
    ///
    /// # Errors
    ///
    /// See [`Planner::plan`].
    pub fn plan_all(&self) -> Result<Vec<PlannedNetwork>, PlanError> {
        let plan = |strategy: Strategy, pool: Pool| {
            self.pipeline(strategy, pool, &self.fresh_budget())
                .map(|(outcome, _)| outcome.into_planned())
        };
        let budget = self.threads();
        if budget <= 1 {
            return Strategy::ALL
                .iter()
                .map(|&s| plan(s, Pool::serial()))
                .collect();
        }
        let workers = budget.min(Strategy::ALL.len());
        let inner = Pool::new(budget / workers);
        Pool::new(workers)
            .par_map(&Strategy::ALL, |_, &s| plan(s, inner))
            .into_iter()
            .collect()
    }
}

/// Emits one `plan.decision` event per (plan-tree node, layer): the
/// partition type and ratio the DP chose, labeled with the layer's
/// name. Nodes are numbered pre-order, matching
/// [`PlanDelta::node`](crate::replan::PlanDelta).
fn emit_decisions(obs: &Obs, parent: Option<u64>, view: &TrainView, plan: &PlanTree) {
    let mut names = vec![""; view.weighted_len()];
    for layer in view.layers() {
        if let Some(slot) = names.get_mut(layer.index()) {
            *slot = layer.name();
        }
    }
    fn rec(obs: &Obs, parent: Option<u64>, names: &[&str], plan: &PlanTree, node: &mut usize) {
        let idx = *node;
        *node += 1;
        for (layer, entry) in plan.plan().layers().iter().enumerate() {
            obs.event_at(
                "plan.decision",
                parent,
                &[
                    ("node", idx.into()),
                    ("layer", layer.into()),
                    ("name", names.get(layer).copied().unwrap_or("").into()),
                    ("ptype", entry.ptype.to_string().into()),
                    ("ratio", entry.ratio.value().into()),
                ],
            );
        }
        if let Some((l, r)) = plan.children() {
            rec(obs, parent, names, l, node);
            rec(obs, parent, names, r, node);
        }
    }
    rec(obs, parent, &names, plan, &mut 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use accpar_dnn::zoo;
    use accpar_obs::Collector;
    use accpar_partition::PartitionType;

    fn planner<'a>(net: &'a Network, array: &'a AcceleratorArray) -> Planner<'a> {
        Planner::builder(net, array).build().unwrap()
    }

    #[test]
    fn default_levels_bisect_to_boards() {
        let net = zoo::lenet(32).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(4, 4);
        assert_eq!(planner(&net, &array).levels(), 3);
        let array1 = AcceleratorArray::homogeneous_tpu_v3(1);
        assert_eq!(planner(&net, &array1).levels(), 1);
    }

    #[test]
    fn all_strategies_produce_valid_plans() {
        let net = zoo::lenet(128).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let planner = Planner::builder(&net, &array).levels(2).build().unwrap();
        let all = planner.plan_all().unwrap();
        assert_eq!(all.len(), 4);
        for planned in &all {
            assert_eq!(planned.plan().depth(), 2);
            assert!(planned.modeled_cost() > 0.0);
        }
    }

    #[test]
    fn accpar_beats_or_ties_every_baseline_on_alexnet() {
        let net = zoo::alexnet(512).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(4, 4);
        let planner = Planner::builder(&net, &array).levels(3).build().unwrap();
        let all = planner.plan_all().unwrap();
        let accpar = all.last().unwrap().modeled_cost();
        for planned in &all {
            assert!(
                accpar <= planned.modeled_cost() * (1.0 + 1e-9),
                "AccPar {accpar} vs {} {}",
                planned.strategy(),
                planned.modeled_cost()
            );
        }
    }

    #[test]
    fn accpar_uses_unbalanced_ratios_on_heterogeneous_hardware() {
        let net = zoo::lenet(512).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let planned = Planner::builder(&net, &array)
            .levels(1)
            .build()
            .unwrap()
            .plan(Strategy::AccPar)
            .unwrap();
        // The top-level cut separates v2 from v3: ratios must tilt.
        assert!(planned
            .plan()
            .plan()
            .layers()
            .iter()
            .any(|l| !l.ratio.is_balanced()));
    }

    #[test]
    fn strategies_display_names() {
        let names: Vec<String> = Strategy::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ["DP", "OWT", "HyPar", "AccPar"]);
    }

    #[test]
    fn planned_network_exposes_plan_details() {
        let net = zoo::lenet(64).unwrap();
        let array = AcceleratorArray::homogeneous_tpu_v3(2);
        let planned = planner(&net, &array).plan(Strategy::DataParallel).unwrap();
        assert_eq!(planned.strategy(), Strategy::DataParallel);
        assert_eq!(planned.plan().count(PartitionType::TypeI), 5);
        assert!(planned.to_string().contains("DP"));
        assert!(planned.report().total_secs > 0.0);
    }

    #[test]
    fn builder_validates_up_front() {
        let net = zoo::lenet(32).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        assert!(matches!(
            Planner::builder(&net, &array).threads(0).build(),
            Err(PlanError::Config(_))
        ));
        assert!(matches!(
            Planner::builder(&net, &array).levels(0).build(),
            Err(PlanError::Config(_))
        ));
        // Depth 9 needs 512 boards; 4 cannot be bisected that far.
        assert!(matches!(
            Planner::builder(&net, &array).levels(9).build(),
            Err(PlanError::Hw(_))
        ));
    }

    #[test]
    fn tracing_emits_decisions_and_never_changes_the_plan() {
        let net = zoo::lenet(128).unwrap();
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let collector = Arc::new(Collector::new());
        let traced = Planner::builder(&net, &array)
            .levels(2)
            .subscriber(Arc::clone(&collector))
            .build()
            .unwrap()
            .plan(Strategy::AccPar)
            .unwrap();
        let plain = Planner::builder(&net, &array)
            .levels(2)
            .build()
            .unwrap()
            .plan(Strategy::AccPar)
            .unwrap();
        assert_eq!(traced.plan(), plain.plan());
        // One decision per (node, layer): 3 nodes x 3 weighted layers.
        let decisions = collector.events_named("plan.decision");
        assert_eq!(decisions.len(), 3 * traced.plan().plan().len());
        // Level spans nest under the plan span.
        let plan_span = collector.span_named("plan").unwrap();
        let level = collector.span_named("plan.level").unwrap();
        assert!(collector.nested_under(level.id, plan_span.id));
    }
}
