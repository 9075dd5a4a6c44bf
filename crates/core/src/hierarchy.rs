//! Recursive hierarchical planning (§5.1): apply the layer-wise search
//! once per bisection level, shrinking the tensors by each level's chosen
//! shares on the way down.
//!
//! On a heterogeneous array the two halves of a cut differ, so the
//! sub-searches may select different plans inside each half — the result
//! is therefore a [`PlanTree`], not a flat per-level plan.

use crate::error::PlanError;
use crate::memo::{self, SearchCache};
use crate::search::{LevelSearcher, SearchConfig};
use accpar_cost::{CostModel, PairEnv};
use accpar_dnn::TrainView;
use accpar_hw::GroupNode;
use accpar_obs::Obs;
use accpar_partition::{LayerPlan, NetworkPlan, PlanTree, ShardScales};
use accpar_runtime::{Budget, Pool, StopReason};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// How much of a budgeted hierarchy walk was actually solved.
///
/// Levels are all-or-nothing: a level whose search the budget stopped
/// falls back — together with its entire subtree — to the data-parallel
/// baseline, so a partial plan is always feasible end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnytimeReport {
    /// Bisection levels solved to DP optimality.
    pub solved_levels: usize,
    /// Levels that fell back to the data-parallel baseline.
    pub fallback_levels: usize,
    /// Why the walk stopped early, if it did.
    pub stop: Option<StopReason>,
}

impl AnytimeReport {
    /// All levels the walk visited.
    #[must_use]
    pub const fn total_levels(&self) -> usize {
        self.solved_levels + self.fallback_levels
    }

    /// Fraction of levels solved to DP optimality (1.0 when there was
    /// nothing to solve).
    #[must_use]
    pub fn completeness(&self) -> f64 {
        if self.total_levels() == 0 {
            1.0
        } else {
            self.solved_levels as f64 / self.total_levels() as f64
        }
    }

    /// Whether every level was solved (no budget stop, no fallback).
    #[must_use]
    pub const fn is_complete(&self) -> bool {
        self.fallback_levels == 0 && self.stop.is_none()
    }
}

/// Shared mutable progress state for one budgeted walk: sibling levels
/// may run in parallel, so the counters are atomics. The stop reason is
/// first-writer-wins and, once set, makes every remaining level fall
/// back without touching the budget again.
#[derive(Debug, Default)]
struct Progress {
    solved: AtomicUsize,
    fallback: AtomicUsize,
    stop: AtomicU8,
}

impl Progress {
    fn note_stop(&self, reason: StopReason) {
        let code = match reason {
            StopReason::Deadline => 1,
            StopReason::NodeBudget => 2,
            StopReason::Cancelled => 3,
        };
        let _ = self
            .stop
            .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
    }

    fn stopped(&self) -> Option<StopReason> {
        match self.stop.load(Ordering::Relaxed) {
            1 => Some(StopReason::Deadline),
            2 => Some(StopReason::NodeBudget),
            3 => Some(StopReason::Cancelled),
            _ => None,
        }
    }

    fn report(&self) -> AnytimeReport {
        AnytimeReport {
            solved_levels: self.solved.load(Ordering::Relaxed),
            fallback_levels: self.fallback.load(Ordering::Relaxed),
            stop: self.stopped(),
        }
    }
}

/// Recursively plans every bisection level below `node`, serially,
/// without a memo or a budget.
///
/// Returns `None` when `node` is a leaf (nothing to bisect). The
/// `scales` argument carries the per-layer shard scales accumulated from
/// the ancestors; pass `None` at the root.
///
/// # Errors
///
/// Propagates [`PlanError::EmptySearchSpace`] from the level searcher.
pub fn plan_node(
    view: &TrainView,
    node: &GroupNode,
    model: &CostModel,
    config: &SearchConfig,
    scales: Option<&[ShardScales]>,
) -> Result<Option<PlanTree>, PlanError> {
    plan_node_budgeted(
        view,
        node,
        model,
        config,
        scales,
        Pool::serial(),
        None,
        &Obs::off(),
        None,
        &Budget::unlimited(),
    )
    .map(|(tree, _)| tree)
}

/// Like [`plan_node`], with a thread budget for the independent
/// left/right child recursions (split between them), an optional shared
/// [`SearchCache`] memoizing cost cells, block transfer tables and whole
/// level outcomes across the tree, one `plan.level` span per bisection
/// level (nested under `parent`, feeding the `planner.level_search_ns`
/// histogram on every level that actually searches), and a cooperative
/// [`Budget`].
///
/// With a serial pool, no cache and an unlimited budget this is exactly
/// [`plan_node`]; with either the pool or the cache enabled the
/// resulting [`PlanTree`] is bit-identical — the cache keys canonicalize
/// every `f64` input and the recursion order does not influence any
/// level's search. A disabled [`Obs`] changes nothing: instrumentation
/// never influences the plan.
///
/// Every level charges one budget node per layer row (memo hits charge
/// the same amount, so budget semantics are cache-independent). When
/// the budget stops a level's search, that level and its whole subtree
/// fall back to the per-layer data-parallel baseline and planning of
/// the remaining tree continues without further budget charges — the
/// returned [`AnytimeReport`] says how many levels kept their
/// DP-optimal assignment and why the walk stopped.
///
/// Under a serial pool the solved set is deterministic: levels are
/// visited in pre-order, so a given budget always solves the same
/// prefix. Under a parallel pool sibling subtrees race for the shared
/// budget; the result is always feasible but which levels solved may
/// vary run to run.
///
/// # Errors
///
/// Propagates [`PlanError::EmptySearchSpace`],
/// [`PlanError::WorkerPanic`] and [`PlanError::NonFinite`] from the
/// level searcher. A budget stop is *not* an error — it is reported via
/// the [`AnytimeReport`].
#[allow(clippy::too_many_arguments)]
pub fn plan_node_budgeted(
    view: &TrainView,
    node: &GroupNode,
    model: &CostModel,
    config: &SearchConfig,
    scales: Option<&[ShardScales]>,
    pool: Pool,
    cache: Option<&SearchCache>,
    obs: &Obs,
    parent: Option<u64>,
    budget: &Budget,
) -> Result<(Option<PlanTree>, AnytimeReport), PlanError> {
    let progress = Progress::default();
    let ctx = Ctx {
        view,
        model,
        config,
        cache,
        obs,
        budget,
        progress: &progress,
        // Classification is a pure function of the view: compute it
        // once here and share it across every level of the tree.
        iso: config
            .collapse
            .then(|| accpar_dnn::iso::IsoClasses::of(view)),
        // The fingerprint only ever enters cache keys; without a cache
        // the whole walk is skipped.
        fp: match cache {
            Some(_) => {
                memo::view_fingerprint(view, &model.config())
                    ^ memo::context_hash(&model.config(), &config.solver, &config.types)
            }
            None => 0,
        },
    };
    let full;
    let scales = match scales {
        Some(s) => s,
        None => {
            full = vec![ShardScales::full(); view.weighted_len()];
            &full
        }
    };
    let tree = plan_rec(&ctx, node, scales, pool, parent, 0)?;
    Ok((tree, progress.report()))
}

/// Per-plan invariants threaded through the recursion.
struct Ctx<'a> {
    view: &'a TrainView,
    model: &'a CostModel,
    config: &'a SearchConfig,
    cache: Option<&'a SearchCache>,
    obs: &'a Obs,
    budget: &'a Budget,
    progress: &'a Progress,
    /// The per-plan isomorphism classification (`Some` iff
    /// [`SearchConfig::collapse`] is on), shared by every level.
    iso: Option<accpar_dnn::iso::IsoClasses>,
    /// View fingerprint ⊕ context hash — constant across the tree, so a
    /// level memo key only adds the (env, scales) bits that vary.
    fp: u64,
}

/// The per-level data-parallel baseline: Type-I, equal ratio, every
/// layer — always feasible, and exactly what `core::baselines` builds.
fn fallback_level(ctx: &Ctx<'_>) -> NetworkPlan {
    NetworkPlan::uniform(ctx.view.weighted_len(), LayerPlan::data_parallel())
}

/// Builds the data-parallel subtree for `node` (mirroring its shape)
/// and counts every level it covers as a fallback level.
fn fallback_rec(ctx: &Ctx<'_>, node: &GroupNode) -> Option<PlanTree> {
    node.children()?;
    ctx.progress.fallback.fetch_add(1, Ordering::Relaxed);
    let level = fallback_level(ctx);
    let (child_a, child_b) = node.children().expect("checked above");
    Some(match (fallback_rec(ctx, child_a), fallback_rec(ctx, child_b)) {
        (Some(l), Some(r)) => PlanTree::branch(level, l, r),
        _ => PlanTree::leaf(level),
    })
}

fn plan_rec(
    ctx: &Ctx<'_>,
    node: &GroupNode,
    scales: &[ShardScales],
    pool: Pool,
    parent: Option<u64>,
    depth: usize,
) -> Result<Option<PlanTree>, PlanError> {
    let Some(env) = PairEnv::from_node(node) else {
        return Ok(None);
    };
    // The span covers the level's search *and* its subtree, so nesting
    // in the trace mirrors the bisection hierarchy.
    let span = ctx.obs.span_at(
        "plan.level",
        parent,
        &[("depth", depth.into()), ("layers", scales.len().into())],
    );
    // Tier-1 memo: a whole level search. Symmetric sibling subtrees (a
    // homogeneous half split evenly) produce bitwise-equal keys. The key
    // is built once and reused for the miss-path insert.
    let key = ctx
        .cache
        .map(|_| memo::LevelKey::new(ctx.fp, &env, scales));
    let cached = match (ctx.cache, &key) {
        (Some(c), Some(k)) => c.level_lookup(k),
        _ => None,
    };
    let cached_hit = cached.is_some();
    // A level is all-or-nothing under the budget: either its search
    // completes and keeps the DP-optimal assignment, or the level (and
    // its whole subtree) falls back to the data-parallel baseline. Once
    // any level stops, the rest of the walk falls back without touching
    // the budget again, so a zero budget deterministically yields the
    // pure data-parallel plan.
    let searched: Result<_, StopReason> = if let Some(reason) = ctx.progress.stopped() {
        Err(reason)
    } else {
        match cached {
            Some(outcome) => {
                // The level's cost table was served wholesale from the
                // memo. Charge the same rows a cold build would have:
                // budget semantics must not depend on cache warmth.
                // Under isomorphism collapse a cold build charges one
                // node per equivalence class, so the hit does too.
                let rows = match &ctx.iso {
                    Some(iso) => crate::search::collapse_group_count(iso, scales),
                    None => scales.len() as u64,
                };
                ctx.budget
                    .try_charge(rows)
                    .map(|()| {
                        if let Some(c) = ctx.cache {
                            c.note_cells(ctx.config.types.len() as u64 * rows);
                        }
                        outcome
                    })
            }
            None => {
                let timer = ctx.obs.timer("planner.level_search_ns");
                let result = LevelSearcher::with_budget_iso(
                    ctx.view,
                    ctx.model,
                    ctx.config,
                    &env,
                    Some(scales),
                    pool,
                    ctx.cache,
                    ctx.budget,
                    ctx.obs,
                    ctx.iso.as_ref(),
                )
                .and_then(|searcher| {
                    searcher
                        .search_budgeted(ctx.budget)
                        .map_err(PlanError::Interrupted)
                });
                drop(timer);
                match result {
                    Ok(outcome) => {
                        if let (Some(c), Some(k)) = (ctx.cache, key) {
                            c.level_insert(k, outcome.clone());
                        }
                        Ok(outcome)
                    }
                    Err(PlanError::Interrupted(reason)) => Err(reason),
                    // Real failures (empty space, worker panic,
                    // non-finite costs) are not budget stops.
                    Err(other) => return Err(other),
                }
            }
        }
    };
    let outcome = match searched {
        Ok(outcome) => {
            ctx.progress.solved.fetch_add(1, Ordering::Relaxed);
            outcome
        }
        Err(reason) => {
            ctx.progress.note_stop(reason);
            span.event(
                "plan.level_fallback",
                &[("depth", depth.into()), ("reason", reason.label().into())],
            );
            // The fallback covers this level and its entire subtree.
            return Ok(fallback_rec(ctx, node));
        }
    };
    span.event(
        "plan.level_done",
        &[
            ("depth", depth.into()),
            ("memo_hit", cached_hit.into()),
            ("cost", outcome.cost.into()),
        ],
    );

    let (child_a, child_b) = node.children().expect("env implies children");
    let scales_a: Vec<ShardScales> = scales
        .iter()
        .zip(outcome.plan.layers())
        .map(|(s, entry)| s.shrink(entry.ptype, entry.ratio.value()))
        .collect();
    let scales_b: Vec<ShardScales> = scales
        .iter()
        .zip(outcome.plan.layers())
        .map(|(s, entry)| s.shrink(entry.ptype, entry.ratio.complement().value()))
        .collect();

    let child_parent = span.id();
    let (left, right) = if pool.is_serial() {
        (
            plan_rec(ctx, child_a, &scales_a, pool, child_parent, depth + 1)?,
            plan_rec(ctx, child_b, &scales_b, pool, child_parent, depth + 1)?,
        )
    } else {
        // The two children are independent: split the budget and run
        // them concurrently. Results are position-bound, so ordering
        // (and thus the plan) is unaffected.
        let (pool_a, pool_b) = pool.split();
        let (l, r) = pool.par_join(
            || plan_rec(ctx, child_a, &scales_a, pool_a, child_parent, depth + 1),
            || plan_rec(ctx, child_b, &scales_b, pool_b, child_parent, depth + 1),
        );
        (l?, r?)
    };
    Ok(Some(match (left, right) {
        (Some(l), Some(r)) => PlanTree::branch(outcome.plan, l, r),
        _ => PlanTree::leaf(outcome.plan),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accpar_cost::CostConfig;
    use accpar_dnn::NetworkBuilder;
    use accpar_hw::{AcceleratorArray, GroupTree};
    use accpar_tensor::FeatureShape;

    fn view() -> TrainView {
        NetworkBuilder::new("t", FeatureShape::fc(128, 512))
            .linear("fc1", 512, 1024)
            .linear("fc2", 1024, 256)
            .build()
            .unwrap()
            .train_view()
            .unwrap()
    }

    #[test]
    fn plan_tree_matches_group_tree_depth() {
        let view = view();
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(4, 4), 3).unwrap();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        let plan = plan_node(&view, tree.root(), &model, &config, None)
            .unwrap()
            .unwrap();
        assert_eq!(plan.depth(), 3);
        assert_eq!(plan.plan().len(), 2);
    }

    #[test]
    fn leaf_node_yields_no_plan() {
        let view = view();
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(2), 1).unwrap();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        let (leaf, _) = tree.root().children().unwrap();
        assert!(plan_node(&view, leaf, &model, &config, None)
            .unwrap()
            .is_none());
    }

    #[test]
    fn heterogeneous_halves_may_differ() {
        // Not a strict requirement, but the machinery must at least
        // produce independent children structures.
        let view = view();
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(2, 2), 2).unwrap();
        let model = CostModel::new(CostConfig::default());
        let config = SearchConfig::accpar();
        let plan = plan_node(&view, tree.root(), &model, &config, None)
            .unwrap()
            .unwrap();
        let (l, r) = plan.children().unwrap();
        assert_eq!(l.depth(), 1);
        assert_eq!(r.depth(), 1);
    }
}
