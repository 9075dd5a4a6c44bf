//! The layer-wise partition search of §5.1 (Eq. 9) with the multi-path
//! extension of §5.2.
//!
//! For one bisection level — a pair of accelerator groups described by a
//! [`PairEnv`] — the search assigns every weighted layer a basic
//! partition type `t ∈ 𝒯` and a partition ratio `α`, minimizing the
//! accumulated cost
//!
//! ```text
//! c(L_{i+1}, t) = min_{tt ∈ 𝒯} { c(L_i, tt) + E_cp(t) + E_cm(tt, t) }
//! ```
//!
//! by dynamic programming in `O(N·|𝒯|²)` instead of the brute-force
//! `O(|𝒯|^N)`. The brute-force enumeration is kept as
//! [`LevelSearcher::exhaustive`], the reference against which the DP's
//! optimality is certified in tests.
//!
//! **Multi-path blocks.** A ResNet residual block forks the trunk into
//! parallel branches that reconverge at an element-wise join. Following
//! Figure 4, the search enumerates the partition state on both sides of
//! the block and optimizes each branch independently between the two
//! states, summing branch costs (all branches must execute). The join
//! carries a *junction state*: a pseudo-layer of type `t` whose layout
//! semantics match a real type-`t` layer, so a single-branch block
//! degenerates exactly to the plain chain formula. Branch outputs are
//! re-laid-out into the junction state
//! ([`CostModel::relayout_cost`]); identity shortcuts pay the
//! fork-to-junction conversion.

use crate::error::PlanError;
use crate::memo::{BlockKey, BlockTransfer, SearchCache};
use accpar_cost::cache::{env_bits, scales_bits, FxHashMap, FxHasher};
use accpar_cost::{layer_ratio_cost, CostModel, PairEnv, RatioSolver};
use accpar_dnn::iso::IsoClasses;
use accpar_dnn::{TrainElem, TrainLayer, TrainView};
use accpar_partition::{LayerPlan, NetworkPlan, PartitionType, Ratio, ShardScales};
use accpar_runtime::{Budget, Pool, RetryPolicy, StopReason};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Packs a [`StopReason`] into an `AtomicU8` (0 = still running) so
/// parallel table-build workers can record the first reason they hit.
const fn stop_code(reason: StopReason) -> u8 {
    match reason {
        StopReason::Deadline => 1,
        StopReason::NodeBudget => 2,
        StopReason::Cancelled => 3,
    }
}

const fn decode_stop(code: u8) -> Option<StopReason> {
    match code {
        1 => Some(StopReason::Deadline),
        2 => Some(StopReason::NodeBudget),
        3 => Some(StopReason::Cancelled),
        _ => None,
    }
}

/// Configuration of a level search: the admissible partition types and
/// the ratio policy.
///
/// The type set is a [`Cow`] so the stock configurations
/// ([`accpar`](SearchConfig::accpar), [`hypar`](SearchConfig::hypar))
/// borrow `'static` slices — constructing one allocates nothing, which
/// matters on the replan and serve paths that build a fresh config per
/// request. Custom sets still work with `vec![...].into()`.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// The admissible types (the DP's state set).
    pub types: Cow<'static, [PartitionType]>,
    /// How per-layer ratios are chosen.
    pub solver: RatioSolver,
    /// Isomorphism collapse: group the level's layers into structural
    /// equivalence classes ([`accpar_dnn::iso::IsoClasses`] refined by
    /// shard-scale bits), compute one cost-table row per class and
    /// stamp it across members, and share block transfer tables between
    /// identical blocks within the level. A row is a pure function of
    /// (layer signature, scales, env, context), so collapsed plans are
    /// bit-identical to uncollapsed ones; only the work — and the
    /// budget charge, one node per *class* — shrinks. On by default;
    /// disable for A/B debugging (`--no-iso` on the CLI).
    pub collapse: bool,
}

/// The HyPar state set: data/model parallelism only.
const HYPAR_TYPES: &[PartitionType] = &[PartitionType::TypeI, PartitionType::TypeII];

impl SearchConfig {
    /// AccPar: the complete three-type space with the Eq. 10 ratio
    /// solver (in its exact-balance form; see [`RatioSolver`]).
    #[must_use]
    pub fn accpar() -> Self {
        Self::accpar_with(RatioSolver::default())
    }

    /// AccPar's complete type space under a specific ratio solver.
    #[must_use]
    pub fn accpar_with(solver: RatioSolver) -> Self {
        Self {
            types: Cow::Borrowed(PartitionType::ALL_SLICE),
            solver,
            collapse: true,
        }
    }

    /// HyPar: data/model parallelism only (Type-I / Type-II), equal
    /// partitioning. Pair with [`accpar_cost::CostConfig::hypar`] for the
    /// communication-amount objective.
    #[must_use]
    pub fn hypar() -> Self {
        Self {
            types: Cow::Borrowed(HYPAR_TYPES),
            solver: RatioSolver::Fixed(Ratio::EQUAL),
            collapse: true,
        }
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self::accpar()
    }
}

/// The level-scope collapse partition: [`IsoClasses`] layer classes
/// refined by shard-scale bits (layers whose enclosing levels sharded
/// them differently must not share a row). Returns one group id per
/// weighted layer, first-occurrence numbered in layer-index order.
/// `iso` is precomputed by the caller — classification is a pure
/// function of the view, so the hierarchy computes it once per plan
/// and shares it across every level.
pub(crate) fn collapse_groups(iso: &IsoClasses, scales: &[ShardScales]) -> Vec<usize> {
    // Uniform fast path: when every layer carries bitwise-equal scales
    // (always at the root; at any child whose parent assigned one
    // (type, ratio) across the level), the scale refinement is a no-op
    // and the groups are exactly the class ids — which are already
    // first-occurrence numbered in walk order.
    if let Some((&first, rest)) = scales.split_first() {
        let bits = scales_bits(first);
        if rest.iter().all(|&s| scales_bits(s) == bits) {
            return iso.layer_class_ids().to_vec();
        }
    }
    // Per-class linear intern: within one level the members of a class
    // rarely see more than a couple of distinct shard scales (siblings
    // shrink a class's members through near-identical plan entries), so
    // a short scan beats hashing the (class, bits) pair per layer. Ids
    // are first-occurrence numbered in layer-index order, exactly as a
    // global intern would assign them.
    let mut per_class: Vec<Vec<([u64; 4], usize)>> = vec![Vec::new(); iso.layer_classes()];
    let mut next = 0usize;
    scales
        .iter()
        .zip(iso.layer_class_ids())
        .map(|(&s, &class)| {
            let bits = scales_bits(s);
            let seen = &mut per_class[class];
            match seen.iter().find(|&&(b, _)| b == bits) {
                Some(&(_, gid)) => gid,
                None => {
                    let gid = next;
                    next += 1;
                    seen.push((bits, gid));
                    gid
                }
            }
        })
        .collect()
}

/// Number of collapse groups one level search would charge its budget:
/// the budget-class rule's charge for a level-memo hit must equal what
/// the cold build would have charged.
pub(crate) fn collapse_group_count(iso: &IsoClasses, scales: &[ShardScales]) -> u64 {
    let mut per_class: Vec<Vec<[u64; 4]>> = vec![Vec::new(); iso.layer_classes()];
    let mut count = 0u64;
    for (l, &s) in scales.iter().enumerate() {
        let bits = scales_bits(s);
        let seen = &mut per_class[iso.layer_class(l)];
        if !seen.contains(&bits) {
            seen.push(bits);
            count += 1;
        }
    }
    count
}

/// The value-complete per-layer equivalence-class key of one level, in
/// weighted-layer-index order: two layers get equal keys exactly when
/// the collapsed search would share a cost-table row between them at
/// this level — same structural class ([`IsoClasses`], which folds in
/// kind, shapes, meta-dims, attention stage and fan-in context), same
/// shard scales, same pair environment (so a fault-degraded group
/// splits every class of the levels it touches) and same search
/// context (cost config, solver, type set).
#[must_use]
pub fn level_class_keys(
    view: &TrainView,
    model: &CostModel,
    config: &SearchConfig,
    env: &PairEnv,
    scales: Option<&[ShardScales]>,
) -> Vec<u64> {
    use std::hash::{Hash, Hasher};
    let iso = IsoClasses::of(view);
    let env_b = env_bits(env);
    let ctx = crate::memo::context_hash(&model.config(), &config.solver, &config.types);
    let full;
    let scales = match scales {
        Some(s) => s,
        None => {
            full = vec![ShardScales::full(); view.weighted_len()];
            &full
        }
    };
    let mut layers: Vec<&TrainLayer> = view.layers().collect();
    layers.sort_by_key(|l| l.index());
    layers
        .iter()
        .map(|l| {
            let mut h = FxHasher::default();
            iso.layer_class(l.index()).hash(&mut h);
            accpar_cost::LayerSig::of(l, &model.config()).hash(&mut h);
            l.heads().hash(&mut h);
            scales_bits(scales[l.index()]).hash(&mut h);
            env_b.hash(&mut h);
            ctx.hash(&mut h);
            h.finish()
        })
        .collect()
}

/// The result of a level search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The chosen per-layer plan.
    pub plan: NetworkPlan,
    /// The accumulated objective value (seconds for the full model,
    /// elements for the communication-only proxy).
    pub cost: f64,
}

/// A layer state: its partition type and solved ratio.
pub(crate) type State = (PartitionType, Ratio);

/// Backpointer sentinel: "no predecessor" (the first trunk element, or
/// no finite transition). Backtracking leaves the state index unchanged
/// when it meets one, exactly like the old `Option::None`.
const NO_PREV: u32 = u32::MAX;

/// The chain DP of one branch up to (excluding) the junction re-layout:
/// per-type accumulated cost at the last layer plus the flat
/// backtracking table (`back[w * k + ti]` = the type index chosen at
/// window `w`'s first layer when its second is `ti`). Empty for
/// identity branches. Both vectors come from (and return to) the
/// searcher's [`Scratch`] pool.
struct BranchDp {
    cost: Vec<f64>,
    back: Vec<u32>,
}

/// Entry-independent tables of one branch, hoisted out of the per-entry
/// DP of a block transfer build (see
/// [`LevelSearcher::block_transfer`]). Flat, scratch-pooled layouts.
struct BranchPre {
    /// `trans[w*k*k + ti*k + tt]`: window `w`'s transition cost from its
    /// first layer at type index `tt` into its second at `ti`.
    trans: Vec<f64>,
    /// `exit_relay[e*k + ti]`: re-layout from the branch's last layer at
    /// type index `ti` into the junction state of exit index `e`.
    /// Empty for identity branches.
    exit_relay: Vec<f64>,
    /// The branch's (scaled) contribution to the join tensor.
    exit_elems: u64,
}

/// Backtracking record for one trunk element. Predecessor choices live
/// in the trunk's flat backpointer table (`back[step*k + ti]`, stride
/// `k`); a block's chosen branch assignments per exit state are
/// `(offset, len)` ranges into the flat assignment pool.
enum StepKind {
    /// A trunk layer.
    Layer { index: usize },
    /// A block: `ranges[range_base + ti]` locates exit state `ti`'s
    /// `(layer index, type index)` assignment list in the pool.
    Block { range_base: usize },
}

/// Reusable buffers behind every DP table the searcher builds: trunk
/// cost/state rows, flat backpointer tables, branch transition tables
/// and assignment pools. Buffers are taken out for the duration of one
/// table build and returned cleared, so repeated searches and
/// `evaluate_plan` sweeps on one searcher run allocation-free in steady
/// state. Interior mutability keeps the public `&self` search API; the
/// searcher is used from one thread at a time (the table *build* in
/// `with_budget_iso` parallelizes before `Self` exists).
#[derive(Debug, Default)]
struct Scratch {
    f64s: Vec<Vec<f64>>,
    u32s: Vec<Vec<u32>>,
    states: Vec<Vec<State>>,
    pairs: Vec<Vec<(u32, u32)>>,
}

/// The per-level searcher: precomputes per-(layer, type) ratios and
/// costs, then runs the DP (or the exhaustive reference).
///
/// # Example
///
/// ```
/// use accpar_core::{LevelSearcher, SearchConfig};
/// use accpar_cost::{CostConfig, CostModel, PairEnv};
/// use accpar_dnn::zoo;
/// use accpar_hw::{AcceleratorArray, GroupTree};
///
/// let net = zoo::alexnet(512)?;
/// let view = net.train_view()?;
/// let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(128, 128), 1)?;
/// let env = PairEnv::from_node(tree.root()).unwrap();
/// let model = CostModel::new(CostConfig::default());
/// let config = SearchConfig::accpar();
///
/// let searcher = LevelSearcher::new(&view, &model, &config, &env, None)?;
/// let outcome = searcher.search();
/// assert_eq!(outcome.plan.len(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct LevelSearcher<'a> {
    view: &'a TrainView,
    layers: Vec<&'a TrainLayer>,
    model: &'a CostModel,
    config: &'a SearchConfig,
    env: &'a PairEnv,
    scales: Cow<'a, [ShardScales]>,
    /// `group_of[layer]` → row group. Identity when collapse is off;
    /// under collapse, class members share their representative's group
    /// so stamping is an index lookup, not a row copy.
    group_of: Vec<usize>,
    /// `ratios[group][type index]` — read through [`Self::ratio_of`].
    ratios: Vec<Vec<Ratio>>,
    /// `layer_costs[group][type index]`, scalarized — read through
    /// [`Self::cost_of`].
    layer_costs: Vec<Vec<f64>>,
    /// Shared memo (block transfer tables); `None` disables memoization.
    cache: Option<&'a SearchCache>,
    /// Context hash for cache keys (cost config + solver + type set).
    ctx: u64,
    /// Pooled DP buffers (see [`Scratch`]).
    scratch: RefCell<Scratch>,
    /// Searcher-local block transfer memo for the collapse path when no
    /// shared [`SearchCache`] is attached: identical blocks within one
    /// level (the 48 q|k|v blocks of a deep stack) compute one table.
    /// With a shared cache the shared tier already dedupes.
    local_blocks: RefCell<FxHashMap<LocalBlockKey, std::sync::Arc<BlockTransfer>>>,
    /// Element index → interned block shape id (collapse path only;
    /// empty when collapse is off). Interned once at build so the DP
    /// hot path keys its block memo without re-walking the branches.
    block_shape: Vec<u32>,
    /// Memoized [`Self::consume_cost`] evaluations (collapse path
    /// only), keyed `(prev ratio bits, prev type | ti | group of to)`.
    trans_memo: RefCell<FxHashMap<(u64, u64), f64>>,
}

/// Key of the searcher-local block memo. Value-complete *within one
/// searcher*: env, ctx and the model config are constant across the
/// level, and a row-group id fixes both the member's layer class (which
/// pins its [`accpar_cost::LayerSig`]) and its shard-scale bits — so
/// branch structure over group ids plus entry states and fork size pin
/// the transfer table exactly as the shared cache's `BlockKey` would,
/// at a fraction of the build cost on the DP hot path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LocalBlockKey {
    /// Interned block shape id (see `LevelSearcher::block_shape`): two
    /// blocks share an id iff their branch-major row-group id sequences
    /// and branch delimitation are equal.
    shape: u32,
    /// Entry states as `(type, ratio bits)` per type index; `None` when
    /// the block opens the network.
    entries: Option<Vec<(PartitionType, u64)>>,
    fork_elems: u64,
}

impl<'a> LevelSearcher<'a> {
    /// Prepares a searcher. `scales` carries the per-layer shard scales
    /// from the enclosing hierarchy levels (defaults to the full tensor).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::EmptySearchSpace`] when the configuration
    /// admits no types, and [`PlanError::Mismatch`] when `scales` does
    /// not carry one entry per weighted layer.
    pub fn new(
        view: &'a TrainView,
        model: &'a CostModel,
        config: &'a SearchConfig,
        env: &'a PairEnv,
        scales: Option<&'a [ShardScales]>,
    ) -> Result<Self, PlanError> {
        Self::with_budget_iso(
            view,
            model,
            config,
            env,
            scales,
            Pool::serial(),
            None,
            &Budget::unlimited(),
            &accpar_obs::Obs::off(),
            None,
        )
    }

    /// Like [`LevelSearcher::new`], with a thread budget for the cost
    /// table construction, an optional shared [`SearchCache`], a
    /// cooperative [`Budget`] and an optionally precomputed isomorphism
    /// classification. With `Pool::serial()`, no cache and an unlimited
    /// budget this is exactly `new`: the two share one code path and
    /// produce bit-identical tables.
    ///
    /// The cost-table build charges one budget node per layer row,
    /// worker closures run panic-isolated (retried with seeded backoff,
    /// then degraded to the serial path), and every scalarized cost is
    /// checked finite before it can enter a DP `min`. Classification is
    /// a pure function of the view, so the hierarchy computes it once
    /// per plan and shares it across every level instead of re-deriving
    /// it per searcher.
    ///
    /// # Errors
    ///
    /// As [`LevelSearcher::new`], plus [`PlanError::Interrupted`] when
    /// the budget stops the build, [`PlanError::WorkerPanic`] when a
    /// row's closure panics through every retry *and* the serial
    /// fallback, and [`PlanError::NonFinite`] when a cost table entry
    /// is NaN or infinite.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_budget_iso(
        view: &'a TrainView,
        model: &'a CostModel,
        config: &'a SearchConfig,
        env: &'a PairEnv,
        scales: Option<&'a [ShardScales]>,
        pool: Pool,
        cache: Option<&'a SearchCache>,
        budget: &Budget,
        obs: &accpar_obs::Obs,
        iso: Option<&IsoClasses>,
    ) -> Result<Self, PlanError> {
        if config.types.is_empty() {
            return Err(PlanError::EmptySearchSpace);
        }
        let mut layers: Vec<&TrainLayer> = view.layers().collect();
        layers.sort_by_key(|l| l.index());
        let scales: Cow<'a, [ShardScales]> = match scales {
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(vec![ShardScales::full(); layers.len()]),
        };
        if scales.len() != layers.len() {
            return Err(PlanError::Mismatch(format!(
                "{} shard scales for {} weighted layers",
                scales.len(),
                layers.len()
            )));
        }
        // Isomorphism collapse: the units the table build iterates are
        // equivalence classes, not layers. A row is a pure function of
        // (LayerSig, scales, env, ctx), and two class members agree on
        // all four, so stamping the representative's row onto every
        // member is bitwise identical to recomputing it. Budget-class
        // rule: one node is charged per *class* (before its memo
        // consult), members stamp for free — so an armed budget travels
        // exactly as far through the level whether the memo is warm or
        // cold, but further than an uncollapsed build would.
        let owned_iso;
        let groups: Option<Vec<usize>> = if config.collapse {
            let iso = match iso {
                Some(shared) => shared,
                None => {
                    owned_iso = IsoClasses::of(view);
                    &owned_iso
                }
            };
            Some(collapse_groups(iso, &scales))
        } else {
            None
        };
        let units: Vec<usize> = match &groups {
            Some(g) => {
                let mut reps = Vec::new();
                for (l, &gid) in g.iter().enumerate() {
                    if gid == reps.len() {
                        reps.push(l);
                    }
                }
                reps
            }
            None => (0..layers.len()).collect(),
        };
        // One row per unit: solve the ratio and scalarize the cost for
        // every admissible type, through the shared memo when present.
        // The fallible map returns rows in unit order, so the tables
        // are identical to a serial build. Each row charges one budget
        // node *before* consulting the memo — budget semantics must not
        // depend on cache warmth.
        let stop = AtomicU8::new(0);
        let build_row = |l: usize, layer: &&'a TrainLayer| -> Option<(Vec<Ratio>, Vec<f64>)> {
            if stop.load(Ordering::Relaxed) != 0 {
                return None;
            }
            if let Err(reason) = budget.try_charge(1) {
                let _ = stop.compare_exchange(
                    0,
                    stop_code(reason),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                return None;
            }
            Some(match cache {
                Some(c) => match c.layer_row(
                    model,
                    &config.solver,
                    layer,
                    &config.types,
                    env,
                    scales[l],
                ) {
                    // A row hit is a stack copy — no heap traffic.
                    Some(row) => row[..config.types.len()].iter().copied().unzip(),
                    // Type sets wider than a row entry memoize per cell.
                    None => config
                        .types
                        .iter()
                        .map(|&t| c.layer_cell(model, &config.solver, layer, t, env, scales[l]))
                        .unzip(),
                },
                None => config
                    .types
                    .iter()
                    .map(|&t| layer_ratio_cost(model, &config.solver, layer, t, env, scales[l]))
                    .unzip(),
            })
        };
        let build_unit = |_u: usize, l: &usize| build_row(*l, &layers[*l]);
        let rows = match pool.try_par_map(&units, &RetryPolicy::default(), obs, build_unit) {
            Ok(rows) => rows,
            // A unit that panicked through every retry: degrade to the
            // serial path once before giving up with the typed error.
            Err(panic) => {
                if obs.enabled() {
                    obs.counter("pool.serial_degrades").inc();
                }
                match Pool::serial().try_par_map(&units, &RetryPolicy::none(), obs, build_unit) {
                    Ok(rows) => rows,
                    Err(_) => return Err(panic.into()),
                }
            }
        };
        if let Some(reason) = decode_stop(stop.load(Ordering::Relaxed)) {
            return Err(PlanError::Interrupted(reason));
        }
        let rows: Vec<(Vec<Ratio>, Vec<f64>)> = rows
            .into_iter()
            .map(|row| row.expect("no stop reason was recorded, so every row completed"))
            .collect();
        if let Some(c) = cache {
            c.note_cells((config.types.len() * units.len()) as u64);
        }
        // Stamp class rows across members by indirection: rows stay one
        // per group and `group_of` maps every member onto its
        // representative's row — bit-identical to a per-layer copy by
        // purity (see above), without the O(layers) clone traffic.
        let (ratios, layer_costs): (Vec<Vec<Ratio>>, Vec<Vec<f64>>) = rows.into_iter().unzip();
        let group_of: Vec<usize> = match groups {
            Some(g) => {
                let stamped = layers.len() - units.len();
                if stamped > 0 && obs.enabled() {
                    obs.counter("iso.stamped_rows").add(stamped as u64);
                }
                g
            }
            None => (0..layers.len()).collect(),
        };
        // Non-finite guard: a NaN would silently lose every `min`
        // comparison in the DP; reject it up front with a typed error.
        for (l, &gid) in group_of.iter().enumerate() {
            for (ti, &c) in layer_costs[gid].iter().enumerate() {
                if !c.is_finite() {
                    return Err(PlanError::NonFinite(format!(
                        "layer {} scalarized to {c} under {}",
                        layers[l].index(),
                        config.types[ti]
                    )));
                }
            }
        }
        // Intern each block element's branch-major group-id shape once:
        // two blocks share a shape id iff their branches list the same
        // row groups in the same arrangement, which (groups folding
        // class + scales, env/ctx constant per searcher) is exactly the
        // sharing condition of the shared cache's `BlockKey`.
        let block_shape: Vec<u32> = if config.collapse {
            let mut ids: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
            view.elems()
                .iter()
                .map(|elem| match elem {
                    TrainElem::Block { branches, .. } => {
                        let slots: usize = branches.iter().map(Vec::len).sum();
                        let mut shape = Vec::with_capacity(branches.len() + slots);
                        for b in branches {
                            shape.push(b.len() as u32);
                            shape.extend(b.iter().map(|l| group_of[l.index()] as u32));
                        }
                        let next = ids.len() as u32;
                        *ids.entry(shape).or_insert(next)
                    }
                    TrainElem::Layer(_) => 0,
                })
                .collect()
        } else {
            Vec::new()
        };
        let ctx = crate::memo::context_hash(&model.config(), &config.solver, &config.types);
        Ok(Self {
            view,
            layers,
            model,
            config,
            env,
            scales,
            group_of,
            ratios,
            layer_costs,
            cache,
            ctx,
            scratch: RefCell::new(Scratch::default()),
            local_blocks: RefCell::new(FxHashMap::default()),
            block_shape,
            trans_memo: RefCell::new(FxHashMap::default()),
        })
    }

    /// Solved ratio for layer `l` under type index `ti`, through the
    /// group indirection.
    #[inline]
    fn ratio_of(&self, l: usize, ti: usize) -> Ratio {
        self.ratios[self.group_of[l]][ti]
    }

    /// Scalarized cost for layer `l` under type index `ti`, through the
    /// group indirection.
    #[inline]
    fn cost_of(&self, l: usize, ti: usize) -> f64 {
        self.layer_costs[self.group_of[l]][ti]
    }

    /// Builds the searcher-local block memo key for the block at
    /// element index `e` (see [`LocalBlockKey`]).
    fn local_block_key(
        &self,
        e: usize,
        entries: Option<&[State]>,
        fork_elems: u64,
    ) -> LocalBlockKey {
        LocalBlockKey {
            shape: self.block_shape[e],
            entries: entries
                .map(|es| es.iter().map(|&(t, r)| (t, r.value().to_bits())).collect()),
            fork_elems,
        }
    }

    // Scratch-pool accessors. Each borrow is momentary (a pop or a
    // push), so table-building code can hold any number of taken
    // buffers without aliasing hazards.
    fn take_f64(&self) -> Vec<f64> {
        self.scratch.borrow_mut().f64s.pop().unwrap_or_default()
    }

    fn put_f64(&self, mut v: Vec<f64>) {
        v.clear();
        self.scratch.borrow_mut().f64s.push(v);
    }

    fn take_u32(&self) -> Vec<u32> {
        self.scratch.borrow_mut().u32s.pop().unwrap_or_default()
    }

    fn put_u32(&self, mut v: Vec<u32>) {
        v.clear();
        self.scratch.borrow_mut().u32s.push(v);
    }

    fn take_states(&self) -> Vec<State> {
        self.scratch.borrow_mut().states.pop().unwrap_or_default()
    }

    fn put_states(&self, mut v: Vec<State>) {
        v.clear();
        self.scratch.borrow_mut().states.push(v);
    }

    fn take_pairs(&self) -> Vec<(u32, u32)> {
        self.scratch.borrow_mut().pairs.pop().unwrap_or_default()
    }

    fn put_pairs(&self, mut v: Vec<(u32, u32)>) {
        v.clear();
        self.scratch.borrow_mut().pairs.push(v);
    }

    /// Returns a finished [`BranchDp`]'s buffers to the pool.
    fn recycle_dp(&self, dp: BranchDp) {
        self.put_f64(dp.cost);
        self.put_u32(dp.back);
    }

    /// Returns a finished [`BranchPre`]'s buffers to the pool.
    fn recycle_pre(&self, pre: BranchPre) {
        self.put_f64(pre.trans);
        self.put_f64(pre.exit_relay);
    }

    /// Number of admissible types.
    fn k(&self) -> usize {
        self.config.types.len()
    }

    /// The state of layer `l` under type index `ti`.
    fn state(&self, l: usize, ti: usize) -> State {
        (self.config.types[ti], self.ratio_of(l, ti))
    }

    /// Conversion cost from a producer state into layer `to` at type
    /// index `ti` (Table 5, consumer-boundary convention).
    ///
    /// Under collapse the result is memoized per
    /// `(prev state, row group of to, ti)`: the group pins the
    /// consumer's boundary (class fixes `in_fmap`, the group folds the
    /// scale bits) and its `(type, ratio)` row entry, and env/model are
    /// constant per searcher — so a memo hit returns the exact `f64` a
    /// fresh evaluation would. A deep stack's trunk repeats the same
    /// handful of transitions hundreds of times per level.
    fn consume_cost(&self, prev: State, to: usize, ti: usize) -> f64 {
        if self.config.collapse {
            let key = (
                prev.1.value().to_bits(),
                prev.0 as u64 | ((ti as u64) << 8) | ((self.group_of[to] as u64) << 32),
            );
            if let Some(&c) = self.trans_memo.borrow().get(&key) {
                return c;
            }
            let c = self.consume_cost_raw(prev, to, ti);
            self.trans_memo.borrow_mut().insert(key, c);
            return c;
        }
        self.consume_cost_raw(prev, to, ti)
    }

    /// The unmemoized [`Self::consume_cost`] evaluation.
    fn consume_cost_raw(&self, prev: State, to: usize, ti: usize) -> f64 {
        let boundary =
            (self.layers[to].in_fmap().size() as f64 * self.scales[to].f_in).round() as u64;
        let (t, r) = self.state(to, ti);
        self.model.scalarize(self.model.edge_cost(
            prev.0, prev.1, t, r, boundary, boundary, self.env,
        ))
    }

    /// Re-layout cost from a producer state into a junction state over a
    /// boundary of `elems` elements.
    fn relayout_cost(&self, from: State, to: State, elems: u64) -> f64 {
        self.model.scalarize(self.model.relayout_cost(
            from.0, from.1, to.0, to.1, elems, elems, self.env,
        ))
    }

    /// The junction state of a block for type index `ti`: the type plus
    /// the ratio solved for the block's representative layer (the last
    /// layer of its first non-empty branch).
    fn junction_state(&self, branches: &[Vec<TrainLayer>], ti: usize) -> State {
        let rep = branches
            .iter()
            .find_map(|b| b.last())
            .expect("a block has at least one weighted layer");
        self.state(rep.index(), ti)
    }

    /// The (scaled) element count a branch contributes to the block's
    /// join tensor: its own last layer's output (which equals the join
    /// tensor for element-wise `Add` joins, and the branch's channel
    /// slice for `Concat` joins). Identity branches carry the fork
    /// tensor through unchanged.
    fn branch_exit_elems(&self, branch: &[TrainLayer], fork_elems: u64) -> u64 {
        match branch.last() {
            Some(last) => {
                (last.out_fmap().size() as f64 * self.scales[last.index()].f_out).round() as u64
            }
            // Identity (or unweighted) shortcut: the fork tensor flows
            // through unchanged; `fork_elems` arrives pre-scaled.
            None => fork_elems,
        }
    }

    /// The fork tensor's element count scaled like the block's first
    /// weighted layer's input (the shard the ancestors left this pair).
    fn scaled_fork_elems(&self, branches: &[Vec<TrainLayer>], fork_size: u64) -> u64 {
        let rep = branches
            .iter()
            .find_map(|b| b.first())
            .expect("a block has at least one weighted layer");
        (fork_size as f64 * self.scales[rep.index()].f_in).round() as u64
    }

    /// Optimal cost and per-layer type choices for one branch between a
    /// (possibly absent) entry state and a junction exit state.
    fn branch_best(
        &self,
        branch: &[TrainLayer],
        entry: Option<State>,
        exit: State,
        exit_elems: u64,
    ) -> (f64, Vec<(usize, usize)>) {
        let dp = self.branch_dp(branch, entry);
        let result = self.branch_finish(branch, &dp, entry, exit, exit_elems);
        self.recycle_dp(dp);
        result
    }

    /// The entry-dependent part of [`branch_best`](Self::branch_best):
    /// the chain DP along the branch. Independent of the exit state, so
    /// one DP serves every junction exit of the block.
    #[allow(clippy::needless_range_loop)]
    fn branch_dp(&self, branch: &[TrainLayer], entry: Option<State>) -> BranchDp {
        let k = self.k();
        let mut cost = self.take_f64();
        let back = self.take_u32();
        let Some(first) = branch.first() else {
            return BranchDp { cost, back };
        };
        cost.extend((0..k).map(|ti| {
            let edge = entry.map_or(0.0, |e| self.consume_cost(e, first.index(), ti));
            edge + self.cost_of(first.index(), ti)
        }));
        let mut dp = BranchDp { cost, back };
        let mut next_cost = self.take_f64();
        for pair in branch.windows(2) {
            let cur = pair[1].index();
            let prev_layer = pair[0].index();
            next_cost.clear();
            next_cost.resize(k, f64::INFINITY);
            let row = dp.back.len();
            dp.back.resize(row + k, 0);
            for ti in 0..k {
                for tt in 0..k {
                    let c = dp.cost[tt]
                        + self.consume_cost(self.state(prev_layer, tt), cur, ti)
                        + self.cost_of(cur, ti);
                    if c < next_cost[ti] {
                        next_cost[ti] = c;
                        dp.back[row + ti] = tt as u32;
                    }
                }
            }
            std::mem::swap(&mut dp.cost, &mut next_cost);
        }
        self.put_f64(next_cost);
        dp
    }

    /// The exit-dependent part of [`branch_best`](Self::branch_best):
    /// re-layout into the junction state, min over the last layer's
    /// type and backtrack. Splitting the DP off changes no arithmetic —
    /// the exit only ever entered the final min loop.
    fn branch_finish(
        &self,
        branch: &[TrainLayer],
        dp: &BranchDp,
        entry: Option<State>,
        exit: State,
        exit_elems: u64,
    ) -> (f64, Vec<(usize, usize)>) {
        let k = self.k();
        if branch.is_empty() {
            // Identity shortcut: the fork tensor is re-laid-out into the
            // junction state (free when the entry already matches).
            let cost = entry.map_or(0.0, |e| self.relayout_cost(e, exit, exit_elems));
            return (cost, Vec::new());
        }
        // Exit re-layout from the branch's last layer.
        let last = branch.last().expect("non-empty").index();
        let (mut best, mut best_ti) = (f64::INFINITY, 0);
        for ti in 0..k {
            let c = dp.cost[ti] + self.relayout_cost(self.state(last, ti), exit, exit_elems);
            if c < best {
                best = c;
                best_ti = ti;
            }
        }
        // Backtrack type choices along the branch over the flat table.
        let assignment = self.backtrack_branch(branch, dp, best_ti);
        (best, assignment)
    }

    /// Walks a branch DP's flat backpointer table from the last layer's
    /// chosen type index back to the first, returning the per-layer
    /// `(layer index, type index)` assignment in forward order.
    fn backtrack_branch(
        &self,
        branch: &[TrainLayer],
        dp: &BranchDp,
        best_ti: usize,
    ) -> Vec<(usize, usize)> {
        let k = self.k();
        let windows = dp.back.len() / k.max(1);
        let mut assignment = vec![(0usize, 0usize); branch.len()];
        let mut ti = best_ti;
        assignment[branch.len() - 1] = (branch[branch.len() - 1].index(), ti);
        for w in (0..windows).rev() {
            ti = dp.back[w * k + ti] as usize;
            assignment[w] = (branch[w].index(), ti);
        }
        assignment
    }

    /// The full block transfer table: `table[entry][exit]` (one pseudo
    /// entry when the block opens the network) with assignments recorded
    /// as branch-major *slots*, position-independent for the memo. Each
    /// branch's chain DP runs once per entry and is reused across exits;
    /// the arithmetic per cell is identical to `branch_best`.
    fn block_transfer(
        &self,
        branches: &[Vec<TrainLayer>],
        entries: Option<&[State]>,
        fork_elems: u64,
    ) -> BlockTransfer {
        let k = self.k();
        let entry_list: Vec<Option<State>> = match entries {
            None => vec![None],
            Some(es) => es.iter().map(|&e| Some(e)).collect(),
        };
        // Everything entry-independent is computed once per block, not
        // once per entry: the interior chain transitions, the exit
        // re-layouts of each branch's last layer and the junction
        // states. The per-entry DP then runs over pure floats. Each
        // sum below is assembled in the exact order `branch_best`
        // would produce, so the table stays bitwise identical.
        let exits: Vec<State> = (0..k).map(|ti| self.junction_state(branches, ti)).collect();
        let pres: Vec<BranchPre> = branches
            .iter()
            .map(|b| self.branch_pre(b, &exits, fork_elems))
            .collect();
        let table = entry_list
            .iter()
            .map(|&entry| {
                let dps: Vec<BranchDp> = branches
                    .iter()
                    .zip(&pres)
                    .map(|(b, pre)| self.branch_dp_pre(b, pre, entry))
                    .collect();
                let row = (0..k)
                    .map(|ti| {
                        let mut total = 0.0;
                        let mut slots: Vec<(usize, usize)> = Vec::new();
                        let mut slot_base = 0;
                        for ((dp, branch), pre) in dps.iter().zip(branches).zip(&pres) {
                            let (c, a) =
                                self.branch_finish_pre(branch, pre, dp, entry, exits[ti], ti);
                            total += c;
                            slots.extend(
                                a.iter()
                                    .enumerate()
                                    .map(|(p, &(_, t))| (slot_base + p, t)),
                            );
                            slot_base += branch.len();
                        }
                        (total, slots)
                    })
                    .collect();
                for dp in dps {
                    self.recycle_dp(dp);
                }
                row
            })
            .collect();
        for pre in pres {
            self.recycle_pre(pre);
        }
        table
    }

    /// Entry-independent tables of one branch: interior transition
    /// costs, exit re-layout costs and the branch's exit element count.
    fn branch_pre(&self, branch: &[TrainLayer], exits: &[State], fork_elems: u64) -> BranchPre {
        let k = self.k();
        let exit_elems = self.branch_exit_elems(branch, fork_elems);
        // trans[w*k*k + ti*k + tt]: from window w's first layer at type
        // tt into its second at type ti (the order `branch_dp`'s loops
        // visit).
        let mut trans = self.take_f64();
        for pair in branch.windows(2) {
            let cur = pair[1].index();
            let prev_layer = pair[0].index();
            for ti in 0..k {
                for tt in 0..k {
                    trans.push(self.consume_cost(self.state(prev_layer, tt), cur, ti));
                }
            }
        }
        // exit_relay[e*k + ti]: from the branch's last layer at type ti
        // into the junction state `exits[e]`. Empty for identity
        // branches, whose re-layout starts at the (entry-dependent)
        // fork state instead.
        let mut exit_relay = self.take_f64();
        if let Some(last) = branch.last() {
            for &exit in exits {
                for ti in 0..k {
                    exit_relay
                        .push(self.relayout_cost(self.state(last.index(), ti), exit, exit_elems));
                }
            }
        }
        BranchPre {
            trans,
            exit_relay,
            exit_elems,
        }
    }

    /// [`branch_dp`](Self::branch_dp) over precomputed transitions —
    /// identical arithmetic, no `edge_cost` evaluations in the loop.
    #[allow(clippy::needless_range_loop)]
    fn branch_dp_pre(
        &self,
        branch: &[TrainLayer],
        pre: &BranchPre,
        entry: Option<State>,
    ) -> BranchDp {
        let k = self.k();
        let mut cost = self.take_f64();
        let back = self.take_u32();
        let Some(first) = branch.first() else {
            return BranchDp { cost, back };
        };
        cost.extend((0..k).map(|ti| {
            let edge = entry.map_or(0.0, |e| self.consume_cost(e, first.index(), ti));
            edge + self.cost_of(first.index(), ti)
        }));
        let mut dp = BranchDp { cost, back };
        let mut next_cost = self.take_f64();
        for (w, pair) in branch.windows(2).enumerate() {
            let cur = pair[1].index();
            next_cost.clear();
            next_cost.resize(k, f64::INFINITY);
            let row = dp.back.len();
            dp.back.resize(row + k, 0);
            for ti in 0..k {
                for tt in 0..k {
                    let c =
                        dp.cost[tt] + pre.trans[(w * k + ti) * k + tt] + self.cost_of(cur, ti);
                    if c < next_cost[ti] {
                        next_cost[ti] = c;
                        dp.back[row + ti] = tt as u32;
                    }
                }
            }
            std::mem::swap(&mut dp.cost, &mut next_cost);
        }
        self.put_f64(next_cost);
        dp
    }

    /// [`branch_finish`](Self::branch_finish) over the precomputed exit
    /// re-layout row — identical arithmetic.
    fn branch_finish_pre(
        &self,
        branch: &[TrainLayer],
        pre: &BranchPre,
        dp: &BranchDp,
        entry: Option<State>,
        exit: State,
        exit_ti: usize,
    ) -> (f64, Vec<(usize, usize)>) {
        let k = self.k();
        if branch.is_empty() {
            // Identity shortcut: re-layout from the (entry-dependent)
            // fork state into the junction state.
            let cost = entry.map_or(0.0, |e| self.relayout_cost(e, exit, pre.exit_elems));
            return (cost, Vec::new());
        }
        let (mut best, mut best_ti) = (f64::INFINITY, 0);
        for ti in 0..k {
            let c = dp.cost[ti] + pre.exit_relay[exit_ti * k + ti];
            if c < best {
                best = c;
                best_ti = ti;
            }
        }
        let assignment = self.backtrack_branch(branch, dp, best_ti);
        (best, assignment)
    }

    /// Block cost between an entry state and a junction exit state: the
    /// sum over branches of each branch's optimal internal path (§5.2).
    fn block_cost(
        &self,
        branches: &[Vec<TrainLayer>],
        entry: Option<State>,
        exit: State,
        fork_elems: u64,
        forced: Option<&[usize]>,
    ) -> (f64, Vec<(usize, usize)>) {
        let mut total = 0.0;
        let mut assignment = Vec::new();
        for branch in branches {
            let exit_elems = self.branch_exit_elems(branch, fork_elems);
            let (c, a) = match forced {
                None => self.branch_best(branch, entry, exit, exit_elems),
                Some(f) => {
                    if branch.is_empty() {
                        self.branch_best(branch, entry, exit, exit_elems)
                    } else {
                        let types: Vec<usize> =
                            branch.iter().map(|l| f[l.index()]).collect();
                        let cost =
                            self.branch_cost_fixed(branch, &types, entry, exit, exit_elems);
                        let assignment = branch
                            .iter()
                            .zip(&types)
                            .map(|(l, &ti)| (l.index(), ti))
                            .collect();
                        (cost, assignment)
                    }
                }
            };
            total += c;
            assignment.extend(a);
        }
        (total, assignment)
    }

    /// Runs the dynamic program (Eq. 9) and returns the optimal plan for
    /// this level.
    #[must_use]
    pub fn search(&self) -> SearchOutcome {
        match self.search_constrained(None, &Budget::unlimited()) {
            Ok(outcome) => outcome,
            Err(_) => unreachable!("an unlimited budget never stops the DP"),
        }
    }

    /// [`search`](LevelSearcher::search) under a cooperative budget:
    /// the trunk scan checks for cancellation and deadline expiry at
    /// every element (the per-row node charges were already paid while
    /// the cost tables were built).
    ///
    /// # Errors
    ///
    /// The [`StopReason`] when the budget stops the scan; the level is
    /// then all-or-nothing — callers fall back to the data-parallel
    /// baseline for the whole level.
    pub fn search_budgeted(&self, budget: &Budget) -> Result<SearchOutcome, StopReason> {
        self.search_constrained(None, budget)
    }

    /// Evaluates a *fixed* per-layer type assignment under the search's
    /// objective: every layer's type is forced to `plan`'s choice (the
    /// ratio is re-solved — ratios are a function of the type under this
    /// searcher's solver), and only the blocks' internal junction states
    /// remain free. By construction
    /// `search().cost <= evaluate_plan(p)` for every plan `p`, which the
    /// random-plan property tests assert.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Mismatch`] if `plan` has the wrong number of
    /// layers or uses a type outside this searcher's configured space.
    pub fn evaluate_plan(&self, plan: &NetworkPlan) -> Result<f64, PlanError> {
        if plan.len() != self.layers.len() {
            return Err(PlanError::Mismatch(format!(
                "plan has {} entries for {} weighted layers",
                plan.len(),
                self.layers.len()
            )));
        }
        let forced: Vec<usize> = plan
            .layers()
            .iter()
            .map(|entry| {
                self.config
                    .types
                    .iter()
                    .position(|&t| t == entry.ptype)
                    .ok_or_else(|| {
                        PlanError::Mismatch(format!(
                            "plan type {:?} is outside the configured search space",
                            entry.ptype
                        ))
                    })
            })
            .collect::<Result<_, _>>()?;
        match self.search_constrained(Some(&forced), &Budget::unlimited()) {
            Ok(outcome) => Ok(outcome.cost),
            Err(_) => unreachable!("an unlimited budget never stops the DP"),
        }
    }

    /// The DP with an optional per-layer forced type assignment, under
    /// a cooperative budget (checked once per trunk element).
    ///
    /// Every table is flat and scratch-pooled: the cost and
    /// producer-state rows ping-pong between two `k`-wide buffers, the
    /// backpointers live in one step-major `u32` table
    /// ([`NO_PREV`]-sentinelled), and block assignments are
    /// `(offset, len)` ranges into a shared pool — repeated searches on
    /// one searcher allocate nothing new in steady state, with arithmetic
    /// and comparison order identical to the nested-`Vec` formulation.
    fn search_constrained(
        &self,
        forced: Option<&[usize]>,
        budget: &Budget,
    ) -> Result<SearchOutcome, StopReason> {
        let k = self.k();
        let allowed = |l: usize, ti: usize| forced.is_none_or(|f| f[l] == ti);
        let mut cur = self.take_f64();
        let mut next = self.take_f64();
        let mut cur_info = self.take_states();
        let mut next_info = self.take_states();
        let mut back = self.take_u32();
        let mut ranges = self.take_pairs();
        let mut assign_pool = self.take_pairs();
        let mut slot_layers = self.take_u32();
        let mut steps: Vec<StepKind> = Vec::with_capacity(self.view.elems().len());
        // Whether no element has been processed yet (the old
        // `Option<Vec<f64>>` None state).
        let mut first = true;

        for (e, elem) in self.view.elems().iter().enumerate() {
            // A budget stop abandons the taken buffers to the allocator
            // (not the pool) — correct, merely unthrifty on a path that
            // ends the whole level search anyway.
            budget.check()?;
            next.clear();
            next.resize(k, f64::INFINITY);
            let row = back.len();
            back.resize(row + k, NO_PREV);
            match elem {
                TrainElem::Layer(layer) => {
                    let l = layer.index();
                    for ti in 0..k {
                        if !allowed(l, ti) {
                            continue;
                        }
                        if first {
                            next[ti] = self.cost_of(l, ti);
                        } else {
                            for tt in 0..k {
                                if cur[tt].is_infinite() {
                                    continue;
                                }
                                let v = cur[tt]
                                    + self.consume_cost(cur_info[tt], l, ti)
                                    + self.cost_of(l, ti);
                                if v < next[ti] {
                                    next[ti] = v;
                                    back[row + ti] = tt as u32;
                                }
                            }
                        }
                    }
                    steps.push(StepKind::Layer { index: l });
                    next_info.clear();
                    next_info.extend((0..k).map(|ti| self.state(l, ti)));
                }
                TrainElem::Block { branches, fork, .. } => {
                    let fork_elems = self.scaled_fork_elems(branches, fork.size());
                    let range_base = ranges.len();
                    ranges.resize(range_base + k, (0, 0));
                    // The memoized path is only taken for free searches:
                    // a forced assignment changes branch costs without
                    // entering the key, so it always recomputes.
                    let table = match (self.cache, forced) {
                        (Some(cache), None) => {
                            let entries = (!first).then_some(cur_info.as_slice());
                            let key = BlockKey::new(
                                branches,
                                &self.scales,
                                entries,
                                fork_elems,
                                self.env,
                                self.ctx,
                                &self.model.config(),
                            );
                            Some(cache.block_lookup(&key).unwrap_or_else(|| {
                                cache.block_insert(
                                    key,
                                    self.block_transfer(branches, entries, fork_elems),
                                )
                            }))
                        }
                        // Collapse without a shared cache: identical
                        // blocks within this level share one table via
                        // the searcher-local memo (same value-complete
                        // key, same table build — bit-identical to both
                        // the shared-cache and the direct path).
                        (None, None) if self.config.collapse => {
                            let entries = (!first).then_some(cur_info.as_slice());
                            let key = self.local_block_key(e, entries, fork_elems);
                            let hit = self.local_blocks.borrow().get(&key).cloned();
                            Some(hit.unwrap_or_else(|| {
                                let table = std::sync::Arc::new(self.block_transfer(
                                    branches, entries, fork_elems,
                                ));
                                self.local_blocks
                                    .borrow_mut()
                                    .insert(key, std::sync::Arc::clone(&table));
                                table
                            }))
                        }
                        _ => None,
                    };
                    // Slot → weighted-layer-index map for memoized
                    // assignments (branch-major, matching the table).
                    slot_layers.clear();
                    if table.is_some() {
                        slot_layers
                            .extend(branches.iter().flatten().map(|l| l.index() as u32));
                    }
                    // Records exit state `ti`'s winning assignment as a
                    // fresh pool range; superseded candidates leave dead
                    // entries behind (bounded by k·k per block).
                    let mut record =
                        |pool: &mut Vec<(u32, u32)>, ti: usize, a: &[(usize, usize)], remap: bool| {
                            let off = pool.len() as u32;
                            pool.extend(a.iter().map(|&(s, t)| {
                                let layer = if remap { slot_layers[s] } else { s as u32 };
                                (layer, t as u32)
                            }));
                            ranges[range_base + ti] = (off, a.len() as u32);
                        };
                    for ti in 0..k {
                        if first {
                            match &table {
                                Some(t) => {
                                    let (c, a) = &t[0][ti];
                                    next[ti] = *c;
                                    record(&mut assign_pool, ti, a, true);
                                }
                                None => {
                                    let exit = self.junction_state(branches, ti);
                                    let (c, a) =
                                        self.block_cost(branches, None, exit, fork_elems, forced);
                                    next[ti] = c;
                                    record(&mut assign_pool, ti, &a, false);
                                }
                            }
                        } else {
                            for tt in 0..k {
                                if cur[tt].is_infinite() {
                                    continue;
                                }
                                match &table {
                                    Some(t) => {
                                        let (c, a) = &t[tt][ti];
                                        let v = cur[tt] + c;
                                        if v < next[ti] {
                                            next[ti] = v;
                                            back[row + ti] = tt as u32;
                                            record(&mut assign_pool, ti, a, true);
                                        }
                                    }
                                    None => {
                                        let exit = self.junction_state(branches, ti);
                                        let (c, a) = self.block_cost(
                                            branches,
                                            Some(cur_info[tt]),
                                            exit,
                                            fork_elems,
                                            forced,
                                        );
                                        let v = cur[tt] + c;
                                        if v < next[ti] {
                                            next[ti] = v;
                                            back[row + ti] = tt as u32;
                                            record(&mut assign_pool, ti, &a, false);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    steps.push(StepKind::Block { range_base });
                    next_info.clear();
                    next_info.extend((0..k).map(|ti| self.junction_state(branches, ti)));
                }
            }
            std::mem::swap(&mut cur, &mut next);
            std::mem::swap(&mut cur_info, &mut next_info);
            first = false;
        }

        assert!(!first, "a train view has at least one element");
        // `total_cmp` orders identically to `partial_cmp` on the finite
        // values the constructor guarantees, and cannot panic if a NaN
        // ever slipped through (it sorts last instead of losing `min`).
        let (mut ti, best) = cur
            .iter()
            .enumerate()
            .map(|(i, &c)| (i, c))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one state");

        // Backtrack over the flat tables.
        let n_layers = self.layers.len();
        let mut plan = vec![LayerPlan::data_parallel(); n_layers];
        for (s, step) in steps.iter().enumerate().rev() {
            match step {
                StepKind::Layer { index } => {
                    plan[*index] = LayerPlan::new(self.config.types[ti], self.ratio_of(*index, ti));
                }
                StepKind::Block { range_base } => {
                    let (off, len) = ranges[range_base + ti];
                    for &(layer_idx, a_ti) in
                        &assign_pool[off as usize..(off + len) as usize]
                    {
                        let (layer_idx, a_ti) = (layer_idx as usize, a_ti as usize);
                        plan[layer_idx] =
                            LayerPlan::new(self.config.types[a_ti], self.ratio_of(layer_idx, a_ti));
                    }
                }
            }
            let p = back[s * k + ti];
            if p != NO_PREV {
                ti = p as usize;
            }
        }

        self.put_f64(cur);
        self.put_f64(next);
        self.put_states(cur_info);
        self.put_states(next_info);
        self.put_u32(back);
        self.put_u32(slot_layers);
        self.put_pairs(ranges);
        self.put_pairs(assign_pool);
        Ok(SearchOutcome {
            plan: NetworkPlan::new(plan),
            cost: best,
        })
    }

    /// Brute-force reference: enumerates every combination of trunk
    /// states and block-internal types and returns the best. Exponential —
    /// use only on small networks (tests and sanity checks).
    #[must_use]
    pub fn exhaustive(&self) -> SearchOutcome {
        let k = self.k();
        let elems = self.view.elems();
        let mut best_cost = f64::INFINITY;
        let mut best_plan: Vec<LayerPlan> = Vec::new();

        // Recursively enumerate per-elem exit states and block internals.
        #[allow(clippy::too_many_arguments)]
        fn recurse(
            s: &LevelSearcher<'_>,
            elems: &[TrainElem],
            entry: Option<State>,
            acc: f64,
            plan: &mut Vec<LayerPlan>,
            best_cost: &mut f64,
            best_plan: &mut Vec<LayerPlan>,
            k: usize,
        ) {
            let Some((elem, rest)) = elems.split_first() else {
                if acc < *best_cost {
                    *best_cost = acc;
                    *best_plan = plan.clone();
                }
                return;
            };
            match elem {
                TrainElem::Layer(layer) => {
                    let l = layer.index();
                    for ti in 0..k {
                        let edge = entry.map_or(0.0, |e| s.consume_cost(e, l, ti));
                        let c = acc + edge + s.cost_of(l, ti);
                        plan[l] = LayerPlan::new(s.config.types[ti], s.ratio_of(l, ti));
                        recurse(s, rest, Some(s.state(l, ti)), c, plan, best_cost, best_plan, k);
                    }
                }
                TrainElem::Block { branches, fork, .. } => {
                    let fork_elems = s.scaled_fork_elems(branches, fork.size());
                    for ti in 0..k {
                        let exit = s.junction_state(branches, ti);
                        // Enumerate every branch-internal assignment.
                        enumerate_branches(
                            s, branches, 0, entry, exit, fork_elems, acc, plan, best_cost,
                            best_plan, rest, k,
                        );
                    }
                }
            }
        }

        /// Enumerates internal type assignments branch by branch, then
        /// continues with the remaining trunk.
        #[allow(clippy::too_many_arguments)]
        fn enumerate_branches(
            s: &LevelSearcher<'_>,
            branches: &[Vec<TrainLayer>],
            b: usize,
            entry: Option<State>,
            exit: State,
            fork_elems: u64,
            acc: f64,
            plan: &mut Vec<LayerPlan>,
            best_cost: &mut f64,
            best_plan: &mut Vec<LayerPlan>,
            rest: &[TrainElem],
            k: usize,
        ) {
            if b == branches.len() {
                recurse(s, rest, Some(exit), acc, plan, best_cost, best_plan, k);
                return;
            }
            let branch = &branches[b];
            let exit_elems = s.branch_exit_elems(branch, fork_elems);
            if branch.is_empty() {
                let c = entry.map_or(0.0, |e| s.relayout_cost(e, exit, exit_elems));
                enumerate_branches(
                    s, branches, b + 1, entry, exit, fork_elems, acc + c, plan, best_cost,
                    best_plan, rest, k,
                );
                return;
            }
            // Enumerate this branch's type vector.
            let mut assignment = vec![0usize; branch.len()];
            loop {
                let c = s.branch_cost_fixed(branch, &assignment, entry, exit, exit_elems);
                for (layer, &ti) in branch.iter().zip(&assignment) {
                    plan[layer.index()] =
                        LayerPlan::new(s.config.types[ti], s.ratio_of(layer.index(), ti));
                }
                enumerate_branches(
                    s, branches, b + 1, entry, exit, fork_elems, acc + c, plan, best_cost,
                    best_plan, rest, k,
                );
                // Next assignment (odometer).
                let mut pos = 0;
                loop {
                    if pos == assignment.len() {
                        return;
                    }
                    assignment[pos] += 1;
                    if assignment[pos] < k {
                        break;
                    }
                    assignment[pos] = 0;
                    pos += 1;
                }
            }
        }

        let n_layers = self.layers.len();
        let mut plan = vec![LayerPlan::data_parallel(); n_layers];
        recurse(
            self,
            elems,
            None,
            0.0,
            &mut plan,
            &mut best_cost,
            &mut best_plan,
            k,
        );
        SearchOutcome {
            plan: NetworkPlan::new(best_plan),
            cost: best_cost,
        }
    }

    /// Cost of one branch under a fixed internal type assignment.
    fn branch_cost_fixed(
        &self,
        branch: &[TrainLayer],
        assignment: &[usize],
        entry: Option<State>,
        exit: State,
        exit_elems: u64,
    ) -> f64 {
        let mut cost = 0.0;
        let first = &branch[0];
        if let Some(e) = entry {
            cost += self.consume_cost(e, first.index(), assignment[0]);
        }
        cost += self.cost_of(first.index(), assignment[0]);
        for (i, pair) in branch.windows(2).enumerate() {
            let prev = self.state(pair[0].index(), assignment[i]);
            cost += self.consume_cost(prev, pair[1].index(), assignment[i + 1]);
            cost += self.cost_of(pair[1].index(), assignment[i + 1]);
        }
        let last = branch.last().expect("non-empty");
        let last_state = self.state(last.index(), assignment[assignment.len() - 1]);
        cost + self.relayout_cost(last_state, exit, exit_elems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accpar_cost::CostConfig;
    use accpar_dnn::{Layer, NetworkBuilder};
    use accpar_hw::{AcceleratorArray, GroupTree};
    use accpar_tensor::{ConvGeometry, FeatureShape};

    fn hetero_env() -> PairEnv {
        let tree =
            GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(4, 4), 1).unwrap();
        PairEnv::from_node(tree.root()).unwrap()
    }

    fn fc_view(batch: usize, dims: &[usize]) -> TrainView {
        let mut b = NetworkBuilder::new("t", FeatureShape::fc(batch, dims[0]));
        for (i, pair) in dims.windows(2).enumerate() {
            b = b.linear(format!("fc{i}"), pair[0], pair[1]);
        }
        b.build().unwrap().train_view().unwrap()
    }

    fn res_view() -> TrainView {
        NetworkBuilder::new("r", FeatureShape::conv(16, 8, 8, 8))
            .conv2d("stem", 8, 8, ConvGeometry::same(3))
            .residual(
                vec![
                    Layer::conv2d("b1", 8, 8, ConvGeometry::same(3)),
                    Layer::conv2d("b2", 8, 8, ConvGeometry::same(3)),
                ],
                vec![],
            )
            .residual(vec![Layer::conv2d("c1", 8, 8, ConvGeometry::same(3))], vec![])
            .flatten("f")
            .linear("fc", 8 * 64, 10)
            .build()
            .unwrap()
            .train_view()
            .unwrap()
    }

    #[test]
    fn dp_matches_exhaustive_on_chains() {
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        for dims in [
            vec![64, 32, 16],
            vec![100, 200, 50, 25],
            vec![32, 32, 32, 32, 32],
        ] {
            let view = fc_view(64, &dims);
            let s = LevelSearcher::new(&view, &model, &config, &env, None).unwrap();
            let dp = s.search();
            let brute = s.exhaustive();
            assert!(
                (dp.cost - brute.cost).abs() / brute.cost < 1e-12,
                "dims {dims:?}: dp {} vs brute {}",
                dp.cost,
                brute.cost
            );
            assert_eq!(dp.plan, brute.plan, "dims {dims:?}");
        }
    }

    #[test]
    fn dp_matches_exhaustive_with_blocks() {
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        let view = res_view();
        let s = LevelSearcher::new(&view, &model, &config, &env, None).unwrap();
        let dp = s.search();
        let brute = s.exhaustive();
        assert!(
            (dp.cost - brute.cost).abs() / brute.cost < 1e-12,
            "dp {} vs brute {}",
            dp.cost,
            brute.cost
        );
    }

    #[test]
    fn dp_matches_exhaustive_on_lowered_attention() {
        // An encoder block lowers to a q|k|v block plus the o projection
        // and FFN pair — the same multi-path machinery exercised by
        // residual networks, now with attention-stage terms in the layer
        // costs. DP must still agree with brute force over the full
        // 3^layers space.
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        let view = NetworkBuilder::new("enc", FeatureShape::seq(4, 16, 32))
            .multi_head_attention("attn", 4, 32, 8)
            .linear("ffn_up", 32, 128)
            .relu("gelu")
            .linear("ffn_down", 128, 32)
            .build()
            .unwrap()
            .train_view()
            .unwrap();
        let s = LevelSearcher::new(&view, &model, &config, &env, None).unwrap();
        let dp = s.search();
        let brute = s.exhaustive();
        assert!(
            (dp.cost - brute.cost).abs() / brute.cost < 1e-12,
            "dp {} vs brute {}",
            dp.cost,
            brute.cost
        );
        assert_eq!(dp.plan, brute.plan);
        assert_eq!(dp.plan.len(), 6);
    }

    #[test]
    fn dp_matches_exhaustive_under_hypar_config() {
        let env = hetero_env();
        let model = CostModel::new(CostConfig::hypar());
        let config = SearchConfig::hypar();
        let view = fc_view(128, &[256, 512, 128, 64]);
        let s = LevelSearcher::new(&view, &model, &config, &env, None).unwrap();
        let dp = s.search();
        let brute = s.exhaustive();
        assert!((dp.cost - brute.cost).abs() <= 1e-9 * brute.cost.max(1.0));
        // HyPar plans only use Types I and II.
        assert_eq!(dp.plan.count(PartitionType::TypeIII), 0);
    }

    #[test]
    fn search_beats_static_data_parallelism() {
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        // An MLP with huge weights: model partitioning must win somewhere.
        let view = fc_view(64, &[4096, 4096, 4096]);
        let s = LevelSearcher::new(&view, &model, &config, &env, None).unwrap();
        let found = s.search();

        // Evaluate all-Type-I-at-equal-ratio with the same cost tables.
        let dp_types = [0usize; 2];
        let mut dp_cost = 0.0;
        let equal_config = SearchConfig {
            types: vec![PartitionType::TypeI].into(),
            solver: RatioSolver::Fixed(Ratio::EQUAL),
            collapse: true,
        };
        let dp_search = LevelSearcher::new(&view, &model, &equal_config, &env, None).unwrap();
        for (l, &ti) in dp_types.iter().enumerate() {
            dp_cost += dp_search.cost_of(l, ti);
            if l > 0 {
                dp_cost += dp_search.consume_cost(dp_search.state(l - 1, ti), l, ti);
            }
        }
        assert!(found.cost < dp_cost, "{} vs {}", found.cost, dp_cost);
    }

    #[test]
    fn empty_search_space_is_rejected() {
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig {
            types: Vec::new().into(),
            solver: RatioSolver::PaperLinear,
            collapse: true,
        };
        let view = fc_view(8, &[4, 4]);
        let err = LevelSearcher::new(&view, &model, &config, &env, None).unwrap_err();
        assert_eq!(err, PlanError::EmptySearchSpace);
    }

    #[test]
    fn restricting_the_space_never_helps() {
        // AccPar's complete space must be at least as good as any subset
        // (§3.5's argument against HyPar's incompleteness).
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let view = fc_view(128, &[512, 1024, 256]);
        let full = SearchConfig::accpar();
        let full_cost = LevelSearcher::new(&view, &model, &full, &env, None)
            .unwrap()
            .search()
            .cost;
        for subset in [
            vec![PartitionType::TypeI],
            vec![PartitionType::TypeI, PartitionType::TypeII],
            vec![PartitionType::TypeII, PartitionType::TypeIII],
        ] {
            let config = SearchConfig {
                types: subset.clone().into(),
                solver: RatioSolver::PaperLinear,
                collapse: true,
            };
            let cost = LevelSearcher::new(&view, &model, &config, &env, None)
                .unwrap()
                .search()
                .cost;
            assert!(full_cost <= cost * (1.0 + 1e-12), "subset {subset:?}");
        }
    }

    #[test]
    fn plans_cover_every_weighted_layer() {
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        let view = res_view();
        let s = LevelSearcher::new(&view, &model, &config, &env, None).unwrap();
        let outcome = s.search();
        assert_eq!(outcome.plan.len(), view.weighted_len());
    }

    #[test]
    fn evaluate_plan_matches_search_on_its_own_result() {
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        for view in [fc_view(64, &[100, 200, 50]), res_view()] {
            let s = LevelSearcher::new(&view, &model, &config, &env, None).unwrap();
            let outcome = s.search();
            let evaluated = s.evaluate_plan(&outcome.plan).unwrap();
            assert!(
                (evaluated - outcome.cost).abs() <= 1e-12 * outcome.cost,
                "search {} vs evaluate {}",
                outcome.cost,
                evaluated
            );
        }
    }

    #[test]
    fn search_is_no_worse_than_any_random_plan() {
        use accpar_partition::NetworkPlan;
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        for view in [fc_view(128, &[512, 256, 384, 128]), res_view()] {
            let s = LevelSearcher::new(&view, &model, &config, &env, None).unwrap();
            let best = s.search().cost;
            // A deterministic pseudo-random sweep over assignments.
            let n = view.weighted_len();
            for seed in 0..81usize {
                let plan: NetworkPlan = (0..n)
                    .map(|l| {
                        let t = PartitionType::ALL[(seed / 3usize.pow((l % 4) as u32)) % 3];
                        LayerPlan::new(t, Ratio::EQUAL)
                    })
                    .collect();
                let cost = s.evaluate_plan(&plan).unwrap();
                assert!(
                    best <= cost * (1.0 + 1e-12),
                    "seed {seed}: search {best} vs plan {cost}"
                );
            }
        }
    }

    #[test]
    fn evaluate_plan_rejects_types_outside_the_space() {
        let env = hetero_env();
        let model = CostModel::new(CostConfig::hypar());
        let config = SearchConfig::hypar(); // no Type-III
        let view = fc_view(8, &[4, 4]);
        let s = LevelSearcher::new(&view, &model, &config, &env, None).unwrap();
        let plan = NetworkPlan::uniform(1, LayerPlan::new(PartitionType::TypeIII, Ratio::EQUAL));
        let err = s.evaluate_plan(&plan).unwrap_err();
        assert!(matches!(err, PlanError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("search space"), "{err}");
    }

    #[test]
    fn evaluate_plan_rejects_wrong_layer_counts_and_bad_scales() {
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        let view = fc_view(8, &[4, 4, 4]);
        let s = LevelSearcher::new(&view, &model, &config, &env, None).unwrap();
        let short = NetworkPlan::uniform(1, LayerPlan::data_parallel());
        let err = s.evaluate_plan(&short).unwrap_err();
        assert!(matches!(err, PlanError::Mismatch(_)), "{err}");

        let bad_scales = vec![ShardScales::full(); 1];
        let err =
            LevelSearcher::new(&view, &model, &config, &env, Some(&bad_scales)).unwrap_err();
        assert!(matches!(err, PlanError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("shard scales"), "{err}");
    }

    #[test]
    fn scaled_search_costs_shrink() {
        let env = hetero_env();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        let view = fc_view(128, &[512, 512, 512]);
        let full = LevelSearcher::new(&view, &model, &config, &env, None)
            .unwrap()
            .search()
            .cost;
        let quarter = vec![
            ShardScales {
                f_in: 0.25,
                f_out: 0.25,
                weight: 0.25,
                flops: 0.25
            };
            view.weighted_len()
        ];
        let scaled = LevelSearcher::new(&view, &model, &config, &env, Some(&quarter))
            .unwrap()
            .search()
            .cost;
        assert!(scaled < full);
    }
}
