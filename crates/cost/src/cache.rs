//! Memoized per-layer ratio/cost rows.
//!
//! Networks repeat themselves: VGG nets stack shape-identical conv
//! layers, ResNets stack identical bottleneck blocks, and the
//! hierarchical planner revisits the *same* layer under the same shard
//! scales across sibling subtrees and replan candidates. The ratio
//! solve (Eq. 10) and the scalarized layer cost (Eq. 7 + Eq. 8) are
//! pure functions of the layer's geometry and the evaluation context,
//! so [`CostCache`] memoizes them, one *row* per layer — every
//! admissible type's `(ratio, cost)` cell at once — under a **canonical
//! key**:
//!
//! * [`LayerSig`] — the layer's geometry (kind/window, `D_i`, `D_o`,
//!   feature-map and kernel shapes) plus whether the model skips this
//!   layer's backward phase. The layer's *position* in the network is
//!   deliberately **not** part of the signature (shape-identical layers
//!   must share one entry); the one position-dependent cost rule —
//!   [`CostConfig::skip_first_backward`] applies only to layer 0 — is
//!   folded into the `skip_backward` bit instead.
//! * the admissible [`PartitionType`]s, in evaluation order (at most
//!   [`ROW_WIDTH`]: the full AccPar space, each type once);
//! * [`ShardScales`] and [`PairEnv`], canonicalized via [`f64::to_bits`]
//!   (bit-exact: two environments hash alike iff every capability and
//!   link bandwidth is bitwise identical — a `FaultModel`-degraded tree
//!   therefore never aliases a healthy one);
//! * the [`CostConfig`] and [`RatioSolver`] in effect.
//!
//! Because every input is captured bit-exactly, a cache hit returns the
//! exact `f64`s a fresh computation would — callers stay bit-identical
//! with and without the cache.

use crate::model::{CostConfig, CostModel, Objective, PairEnv};
use crate::ratio::RatioSolver;
use accpar_dnn::{AttnStage, TrainLayer, WeightedKind};
use accpar_partition::{PartitionType, Ratio, ShardScales};
use accpar_tensor::{FeatureShape, KernelShape};
use accpar_obs::{Counter, Histo, Obs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

// The memo maps' hasher lives in `accpar-tensor` (the workspace's
// lowest layer) so structural passes in `accpar-dnn` can share it;
// re-exported here because every cache key in this module hashes
// through it and downstream crates import it from this path.
pub use accpar_tensor::hash::{FxBuildHasher, FxHashMap, FxHasher};

/// The canonical, position-independent signature of a weighted layer
/// (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerSig {
    kind: WeightedKind,
    d_in: usize,
    d_out: usize,
    in_fmap: FeatureShape,
    out_fmap: FeatureShape,
    weight: KernelShape,
    /// The attention stage carried by a lowered `o` projection, if any —
    /// it adds stage FLOPs and K/V exchange, so a plain FC layer of the
    /// same geometry must not alias it.
    attn: Option<AttnStage>,
    /// Whether the model skips this layer's backward phase
    /// ([`CostConfig::skip_first_backward`] on the first weighted layer).
    skip_backward: bool,
}

impl LayerSig {
    /// The signature of `layer` under `config`'s cost rules.
    #[must_use]
    pub fn of(layer: &TrainLayer, config: &CostConfig) -> Self {
        Self {
            kind: layer.kind(),
            d_in: layer.d_in(),
            d_out: layer.d_out(),
            in_fmap: layer.in_fmap(),
            out_fmap: layer.out_fmap(),
            weight: layer.weight(),
            attn: layer.attn(),
            skip_backward: config.skip_first_backward && layer.index() == 0,
        }
    }
}

/// [`PairEnv`] canonicalized to its bit pattern.
#[must_use]
pub fn env_bits(env: &PairEnv) -> [u64; 10] {
    [
        env.caps_a.flops.to_bits(),
        env.caps_a.mem_bw.to_bits(),
        env.caps_a.net_bw.to_bits(),
        env.caps_a.hbm_bytes.to_bits(),
        env.caps_b.flops.to_bits(),
        env.caps_b.mem_bw.to_bits(),
        env.caps_b.net_bw.to_bits(),
        env.caps_b.hbm_bytes.to_bits(),
        env.link_a.to_bits(),
        env.link_b.to_bits(),
    ]
}

/// [`ShardScales`] canonicalized to its bit pattern.
#[must_use]
pub fn scales_bits(scales: ShardScales) -> [u64; 4] {
    [
        scales.f_in.to_bits(),
        scales.f_out.to_bits(),
        scales.weight.to_bits(),
        scales.flops.to_bits(),
    ]
}

/// The evaluation-context part of a key: cost configuration and ratio
/// policy, canonicalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CtxKey {
    format: accpar_tensor::DataFormat,
    comm_only: bool,
    roofline: bool,
    solver_tag: u8,
    solver_ratio: u64,
}

impl CtxKey {
    fn of(config: &CostConfig, solver: &RatioSolver) -> Self {
        let (solver_tag, solver_ratio) = match solver {
            RatioSolver::PaperLinear => (0u8, 0u64),
            RatioSolver::BalancedExact => (1, 0),
            RatioSolver::Fixed(r) => (2, r.value().to_bits()),
        };
        Self {
            format: config.format,
            comm_only: config.objective == Objective::CommOnly,
            roofline: config.roofline,
            solver_tag,
            solver_ratio,
        }
    }
}

/// Full key of one memoized layer *row*: every admissible type's cell at
/// once. Rows are keyed and locked once per layer instead of once per
/// cell, which matters when the cells themselves are sub-microsecond.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RowKey {
    sig: LayerSig,
    /// The admissible types, in evaluation order (padded; [`ROW_WIDTH`]
    /// bounds the arity).
    types: [Option<PartitionType>; ROW_WIDTH],
    scales: [u64; 4],
    env: [u64; 10],
    ctx: CtxKey,
}

/// Maximum number of admissible partition types a row memoizes — the
/// full AccPar space is `{TypeI, TypeII, TypeIII}`.
pub const ROW_WIDTH: usize = 3;

/// One memoized row: the first `n` cells hold the (ratio, cost) per
/// requested type, in request order; the rest is padding. `Copy`, so a
/// row hit moves no heap memory.
pub type Row = [(Ratio, f64); ROW_WIDTH];

/// Solves the ratio and scalarized cost of one (layer, type) table cell
/// — the uncached computation [`CostCache`] memoizes.
#[must_use]
pub fn layer_ratio_cost(
    model: &CostModel,
    solver: &RatioSolver,
    layer: &TrainLayer,
    ptype: PartitionType,
    env: &PairEnv,
    scales: ShardScales,
) -> (Ratio, f64) {
    let ratio = solver.solve(model, layer, ptype, env, scales);
    let cost = model.scalarize(model.layer_cost(layer, ptype, ratio, env, scales));
    (ratio, cost)
}

/// A concurrent memo of layer rows: (layer, type set) → one (ratio,
/// scalar cost) cell per type (see the [module docs](self)).
///
/// Thread-safe: lookups take a [`Mutex`]; the computation itself runs
/// outside the lock, so concurrent misses of the same key may compute
/// twice but insert identical values (every input is captured
/// bit-exactly in the key).
#[derive(Debug, Default)]
pub struct CostCache {
    rows: Mutex<FxHashMap<RowKey, Row>>,
    hits: AtomicU64,
    misses: AtomicU64,
    obs: OnceLock<CacheObs>,
}

/// Pre-registered metric handles the cache updates on its hot path —
/// obtained once at [`CostCache::observe`] so lookups never touch the
/// registry locks.
#[derive(Debug)]
struct CacheObs {
    hits: Counter,
    misses: Counter,
    /// One eval counter per partition type, indexed in
    /// [`PartitionType::ALL`] order.
    evals: [Counter; ROW_WIDTH],
    solve_ns: Histo,
}

impl CacheObs {
    fn of(obs: &Obs) -> Self {
        CacheObs {
            hits: obs.counter("cost.cache.hits"),
            misses: obs.counter("cost.cache.misses"),
            evals: [
                obs.counter("cost.evals.type_i"),
                obs.counter("cost.evals.type_ii"),
                obs.counter("cost.evals.type_iii"),
            ],
            solve_ns: obs.histogram("cost.solve_ns"),
        }
    }

    fn eval(&self, ptype: PartitionType) -> &Counter {
        let i = PartitionType::ALL
            .iter()
            .position(|&t| t == ptype)
            .unwrap_or(0);
        &self.evals[i]
    }
}

impl CostCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an observability handle: registers hit/miss counters,
    /// per-partition-type eval counters, and a solve-time histogram
    /// under `cost.*`, updated on every subsequent lookup. A no-op for
    /// a disabled handle; the first enabled handle wins.
    pub fn observe(&self, obs: &Obs) {
        if obs.enabled() {
            let _ = self.obs.set(CacheObs::of(obs));
        }
    }

    /// The memoized version of [`layer_ratio_cost`] for one layer's
    /// whole row: all of `types`' cells under a single key build and a
    /// single map access. The first `types.len()` cells of the returned
    /// [`Row`] hold one `(ratio, cost)` per type, in `types` order,
    /// bitwise identical to [`layer_ratio_cost`]; the rest is padding.
    /// Hit/miss counters advance by the number of cells served. The
    /// `skip_backward` position rule is resolved through
    /// [`LayerSig::of`], so the first layer under
    /// [`CostConfig::skip_first_backward`] gets its own entry while
    /// shape-identical interior layers share one.
    ///
    /// # Panics
    ///
    /// When `types` holds more than [`ROW_WIDTH`] types — more than the
    /// full AccPar space, which only a duplicate type can cause (the
    /// level searcher rejects those up front).
    #[must_use]
    pub fn layer_row(
        &self,
        model: &CostModel,
        solver: &RatioSolver,
        layer: &TrainLayer,
        types: &[PartitionType],
        env: &PairEnv,
        scales: ShardScales,
    ) -> Row {
        assert!(
            types.len() <= ROW_WIDTH,
            "{} types do not fit a {ROW_WIDTH}-wide row",
            types.len()
        );
        let config = model.config();
        let mut padded = [None; ROW_WIDTH];
        for (slot, &t) in padded.iter_mut().zip(types) {
            *slot = Some(t);
        }
        let key = RowKey {
            sig: LayerSig::of(layer, &config),
            types: padded,
            scales: scales_bits(scales),
            env: env_bits(env),
            ctx: CtxKey::of(&config, solver),
        };
        let cached = self.lock().get(&key).copied();
        if let Some(row) = cached {
            self.hits.fetch_add(types.len() as u64, Ordering::Relaxed);
            if let Some(o) = self.obs.get() {
                o.hits.add(types.len() as u64);
            }
            return row;
        }
        let mut row: Row = [(Ratio::EQUAL, 0.0); ROW_WIDTH];
        for (cell, &t) in row.iter_mut().zip(types) {
            let _t = self.obs.get().map(|o| o.solve_ns.timer());
            *cell = layer_ratio_cost(model, solver, layer, t, env, scales);
        }
        self.lock().insert(key, row);
        self.misses.fetch_add(types.len() as u64, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.misses.add(types.len() as u64);
            for &t in types {
                o.eval(t).inc();
            }
        }
        row
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FxHashMap<RowKey, Row>> {
        self.rows.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of lookups answered from the memo.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct rows currently memoized.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// `hits / (hits + misses)`, or 0 before the first lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accpar_dnn::NetworkBuilder;
    use accpar_hw::{AcceleratorArray, GroupTree};
    use accpar_tensor::{ConvGeometry, FeatureShape};

    fn hetero_env() -> PairEnv {
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(4, 4), 1).unwrap();
        PairEnv::from_node(tree.root()).unwrap()
    }

    /// Two shape-identical convs at different positions plus one that
    /// differs.
    fn layers() -> Vec<TrainLayer> {
        NetworkBuilder::new("t", FeatureShape::conv(8, 16, 14, 14))
            .conv2d("c1", 16, 16, ConvGeometry::same(3))
            .conv2d("c2", 16, 16, ConvGeometry::same(3))
            .conv2d("c3", 16, 32, ConvGeometry::same(3))
            .build()
            .unwrap()
            .train_view()
            .unwrap()
            .layers()
            .cloned()
            .collect()
    }

    /// One cell through the row memo: `t`'s `(ratio, cost)` from a
    /// single-type row.
    fn cell(
        cache: &CostCache,
        model: &CostModel,
        solver: &RatioSolver,
        layer: &TrainLayer,
        t: PartitionType,
        env: &PairEnv,
        scales: ShardScales,
    ) -> (Ratio, f64) {
        cache.layer_row(model, solver, layer, &[t], env, scales)[0]
    }

    #[test]
    fn cached_values_match_the_uncached_computation_bitwise() {
        let model = CostModel::new(CostConfig::default());
        let solver = RatioSolver::default();
        let env = hetero_env();
        let cache = CostCache::new();
        for layer in &layers() {
            // Twice: the miss computes, the hit replays the stored row.
            for _ in 0..2 {
                let row = cache.layer_row(
                    &model,
                    &solver,
                    layer,
                    &PartitionType::ALL,
                    &env,
                    ShardScales::full(),
                );
                for (t, cached) in PartitionType::ALL.into_iter().zip(row) {
                    let fresh =
                        layer_ratio_cost(&model, &solver, layer, t, &env, ShardScales::full());
                    assert_eq!(fresh.0.value().to_bits(), cached.0.value().to_bits());
                    assert_eq!(fresh.1.to_bits(), cached.1.to_bits());
                }
            }
        }
    }

    #[test]
    fn shape_identical_layers_share_an_entry() {
        let model = CostModel::new(CostConfig::default());
        let solver = RatioSolver::default();
        let env = hetero_env();
        let cache = CostCache::new();
        let layers = layers();
        for layer in &layers {
            let _ = cache.layer_row(
                &model,
                &solver,
                layer,
                &PartitionType::ALL,
                &env,
                ShardScales::full(),
            );
        }
        // c1 and c2 share signatures; c3 differs: 2 rows of 3 cells.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 6);
        assert_eq!(cache.hits(), 3);
        assert!((cache.hit_rate() - 3.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn rows_wider_than_the_type_space_are_refused() {
        let model = CostModel::new(CostConfig::default());
        let t = PartitionType::TypeI;
        let _ = CostCache::new().layer_row(
            &model,
            &RatioSolver::default(),
            &layers()[0],
            &[t, t, t, t],
            &hetero_env(),
            ShardScales::full(),
        );
    }

    #[test]
    fn skip_first_backward_splits_the_first_layer_off() {
        let config = CostConfig {
            skip_first_backward: true,
            ..CostConfig::default()
        };
        let model = CostModel::new(config);
        let solver = RatioSolver::default();
        let env = hetero_env();
        let cache = CostCache::new();
        // Two shape-identical compute-heavy FC layers, so the skipped
        // backward phase actually moves the makespan.
        let layers: Vec<TrainLayer> = NetworkBuilder::new("t", FeatureShape::fc(4096, 1024))
            .linear("fc1", 1024, 1024)
            .linear("fc2", 1024, 1024)
            .build()
            .unwrap()
            .train_view()
            .unwrap()
            .layers()
            .cloned()
            .collect();
        // fc1 (index 0, backward skipped) must not alias fc2.
        let t = PartitionType::TypeI;
        let c1 = cell(&cache, &model, &solver, &layers[0], t, &env, ShardScales::full());
        let c2 = cell(&cache, &model, &solver, &layers[1], t, &env, ShardScales::full());
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        assert!(c1.1 <= c2.1, "skipping a phase can never cost more");
        // The makespan may be communication-bound (identical for both),
        // but the compute-bearing side must strictly shrink.
        let pc1 = model.layer_cost(&layers[0], t, c1.0, &env, ShardScales::full());
        let pc2 = model.layer_cost(&layers[1], t, c2.0, &env, ShardScales::full());
        assert!(
            pc1.b < pc2.b,
            "skipping the backward phase must cut compute: {pc1} vs {pc2}"
        );
    }

    #[test]
    fn distinct_scales_envs_and_contexts_get_distinct_entries() {
        let model = CostModel::new(CostConfig::default());
        let env = hetero_env();
        let degraded = PairEnv {
            caps_a: accpar_hw::GroupCaps {
                flops: env.caps_a.flops * 0.5,
                ..env.caps_a
            },
            ..env
        };
        let cache = CostCache::new();
        let layer = &layers()[0];
        let t = PartitionType::TypeII;
        let half = ShardScales {
            f_in: 0.5,
            f_out: 0.5,
            weight: 0.5,
            flops: 0.5,
        };
        let solver = RatioSolver::default();
        let full = ShardScales::full();
        let _ = cell(&cache, &model, &solver, layer, t, &env, full);
        let _ = cell(&cache, &model, &solver, layer, t, &env, half);
        let _ = cell(&cache, &model, &solver, layer, t, &degraded, full);
        let _ = cell(&cache, &model, &solver, layer, t, &env, full);
        let fixed = RatioSolver::Fixed(Ratio::EQUAL);
        let _ = cell(&cache, &model, &fixed, layer, t, &env, full);
        assert_eq!(cache.misses(), 4, "scales, env and solver all key");
        assert_eq!(cache.hits(), 1);
    }
}
