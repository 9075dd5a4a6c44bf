//! Cross-level memoization for the hierarchical planner.
//!
//! One [`SearchCache`] is shared across every level of a hierarchical
//! plan (and across replan candidates) and memoizes three tiers of the
//! search, coarsest first:
//!
//! 1. **Level outcomes** — a whole [`LevelSearcher`] run, keyed by the
//!    view's structural fingerprint, the level's [`PairEnv`] bits and
//!    the per-layer [`ShardScales`] bits. On a homogeneous half split
//!    exactly in two, both children see bitwise-identical environments
//!    and scales, so entire sibling subtrees resolve from the memo.
//! 2. **Block transfer tables** — the §5.2 multi-path optimization of
//!    one residual block between every (entry state, junction exit)
//!    pair, keyed by the branches' layer signatures/scales, the entry
//!    states, the fork size and the environment. Repeated ResNet
//!    blocks within one level hit this tier, and so do the unchanged
//!    blocks of a replan.
//! 3. **Layer rows** — one layer's ratio/cost solves for every
//!    admissible type at once, one row map delegated to
//!    [`accpar_cost::CostCache`]. Shape-identical VGG conv layers hit
//!    this tier.
//!
//! Block tables have a second memo: a searcher without a shared cache
//! keeps its own under isomorphism collapse (see
//! [`LevelSearcher`]), keyed by row-group ids rather than layer
//! signatures. Both stay because each pays where the other is absent.
//! On a 2-vCPU host, replacing the shared tier by a value-complete
//! per-searcher memo lowered planbench's `supervise_chaos` throughput
//! by 6% (median of 6 paired 12-s runs, lower in 4 of them): the loss
//! is the tier's hits across replans. Dropping the per-searcher memo
//! took the cache-less collapsed search of the 96-block encoder stack
//! from 1.41 to 4.38 ms (medians of 10 runs).
//!
//! Every key canonicalizes `f64`s via [`f64::to_bits`], so a
//! `FaultModel`-degraded tree — whose group capabilities differ from the
//! healthy tree's in at least one bit — can never alias a healthy
//! entry, and cached values are bitwise identical to what a fresh
//! computation would produce. Lookups never iterate the maps, so
//! `HashMap`'s iteration order cannot leak into results.
//!
//! [`LevelSearcher`]: crate::search::LevelSearcher

use crate::search::SearchOutcome;
use accpar_cost::cache::{env_bits, scales_bits, FxHashMap, FxHasher, Row};
use accpar_cost::{CostCache, CostConfig, CostModel, LayerSig, Objective, PairEnv, RatioSolver};
use accpar_dnn::{TrainElem, TrainLayer, TrainView};
use accpar_partition::{PartitionType, Ratio, ShardScales};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A memoized block optimization: `table[entry][exit]` holds the summed
/// branch cost plus the per-slot type choices, where *slot* numbers the
/// block's branch layers branch-major (position-independent, so
/// shape-identical blocks elsewhere in the network can reuse the entry).
pub(crate) type BlockTransfer = Vec<Vec<(f64, Vec<(usize, usize)>)>>;

/// Canonical key of one block transfer table (tier 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct BlockKey {
    /// Every branch layer's signature and shard-scale bits,
    /// branch-major; `branch_lens` delimits the branches (flattened to
    /// keep the key a two-allocation build on the search's hot path).
    layers: Vec<(LayerSig, [u64; 4])>,
    branch_lens: Vec<u32>,
    /// The DP's predecessor states (`None` when the block opens the
    /// network): partition type and ratio bits per type index.
    entries: Option<Vec<(PartitionType, u64)>>,
    fork_elems: u64,
    env: [u64; 10],
    ctx: u64,
}

impl BlockKey {
    /// Builds the canonical key for a block at the given entry states.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        branches: &[Vec<TrainLayer>],
        scales: &[ShardScales],
        entries: Option<&[(PartitionType, Ratio)]>,
        fork_elems: u64,
        env: &PairEnv,
        ctx: u64,
        config: &CostConfig,
    ) -> Self {
        let mut layers = Vec::with_capacity(branches.iter().map(Vec::len).sum());
        let mut branch_lens = Vec::with_capacity(branches.len());
        for b in branches {
            branch_lens.push(b.len() as u32);
            layers.extend(
                b.iter()
                    .map(|l| (LayerSig::of(l, config), scales_bits(scales[l.index()]))),
            );
        }
        Self {
            layers,
            branch_lens,
            entries: entries.map(|es| {
                es.iter()
                    .map(|&(t, r)| (t, r.value().to_bits()))
                    .collect()
            }),
            fork_elems,
            env: env_bits(env),
            ctx,
        }
    }
}

/// Canonical key of one whole-level search (tier 1). Built once per
/// level request and reused for the miss-path insert.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct LevelKey {
    /// View fingerprint xor context hash (both constant per plan run).
    fp: u64,
    env: [u64; 10],
    scales: Vec<[u64; 4]>,
}

impl LevelKey {
    /// Builds the canonical key of one level search.
    pub(crate) fn new(fp: u64, env: &PairEnv, scales: &[ShardScales]) -> Self {
        Self {
            fp,
            env: env_bits(env),
            scales: scales.iter().map(|&s| scales_bits(s)).collect(),
        }
    }
}

/// Hit/miss counters of a [`SearchCache`], by tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Layer-table cells answered from the memo.
    pub layer_hits: u64,
    /// Layer-table cells that had to compute.
    pub layer_misses: u64,
    /// Block transfer tables answered from the memo.
    pub block_hits: u64,
    /// Block transfer tables that had to compute.
    pub block_misses: u64,
    /// Whole-level searches answered from the memo.
    pub level_hits: u64,
    /// Whole-level searches that had to run.
    pub level_misses: u64,
    /// Layer-table cells the planner *asked for* (`k · N` per level
    /// request, whether the level hit or missed).
    pub cells_requested: u64,
}

impl CacheStats {
    /// Fraction of requested layer-table cells served without
    /// recomputation: `1 − computed / requested`. A level-memo hit
    /// serves its whole table from cache, so this is the end-to-end
    /// service rate of the cost tables, not just the innermost map's
    /// lookup ratio.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.cells_requested == 0 {
            return 0.0;
        }
        let computed = self.layer_misses.min(self.cells_requested) as f64;
        1.0 - computed / self.cells_requested as f64
    }

    /// Plain lookup hit ratio across all three tiers.
    #[must_use]
    pub fn lookup_hit_rate(&self) -> f64 {
        let hits = self.layer_hits + self.block_hits + self.level_hits;
        let total = hits + self.layer_misses + self.block_misses + self.level_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layers {}/{} blocks {}/{} levels {}/{} (cell service rate {:.1}%)",
            self.layer_hits,
            self.layer_hits + self.layer_misses,
            self.block_hits,
            self.block_hits + self.block_misses,
            self.level_hits,
            self.level_hits + self.level_misses,
            self.hit_rate() * 100.0
        )
    }
}

/// The three-tier search memo (see the module docs above): level
/// outcomes, block transfer tables and one layer-row map.
///
/// Thread-safe and shared by reference across the planner's workers.
/// Reuse across *different* networks or cost configurations is safe —
/// the view fingerprint and context hash key every tier — but pointless;
/// the intended scope is one [`Planner`](crate::Planner) (plans,
/// replans and candidate evaluations of one network).
#[derive(Default)]
pub struct SearchCache {
    layers: CostCache,
    blocks: Mutex<FxHashMap<BlockKey, Arc<BlockTransfer>>>,
    levels: Mutex<FxHashMap<LevelKey, SearchOutcome>>,
    block_hits: AtomicU64,
    block_misses: AtomicU64,
    level_hits: AtomicU64,
    level_misses: AtomicU64,
    cells_requested: AtomicU64,
}

impl SearchCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes the layer-row tier's hit/miss/per-type counters and
    /// solve timings to `obs` (see
    /// [`CostCache::observe`](accpar_cost::CostCache::observe)). A
    /// no-op when `obs` is disabled; the first enabled registration
    /// wins for the cache's lifetime.
    pub fn observe(&self, obs: &accpar_obs::Obs) {
        self.layers.observe(obs);
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            layer_hits: self.layers.hits(),
            layer_misses: self.layers.misses(),
            block_hits: self.block_hits.load(Ordering::Relaxed),
            block_misses: self.block_misses.load(Ordering::Relaxed),
            level_hits: self.level_hits.load(Ordering::Relaxed),
            level_misses: self.level_misses.load(Ordering::Relaxed),
            cells_requested: self.cells_requested.load(Ordering::Relaxed),
        }
    }

    /// Tier-3 lookup: one layer's full row of (type → ratio/cost)
    /// cells, the first `types.len()` of them in `types` order. The
    /// searcher rejects duplicate types, so every type set it passes
    /// fits one [`Row`].
    pub(crate) fn layer_row(
        &self,
        model: &CostModel,
        solver: &RatioSolver,
        layer: &TrainLayer,
        types: &[PartitionType],
        env: &PairEnv,
        scales: ShardScales,
    ) -> Row {
        self.layers
            .layer_row(model, solver, layer, types, env, scales)
    }

    /// Records that a level request asked for `n` layer-table cells
    /// (whether they were then served from the level memo or computed).
    pub(crate) fn note_cells(&self, n: u64) {
        self.cells_requested.fetch_add(n, Ordering::Relaxed);
    }

    /// Tier-2 lookup.
    pub(crate) fn block_lookup(&self, key: &BlockKey) -> Option<Arc<BlockTransfer>> {
        let hit = lock(&self.blocks).get(key).cloned();
        match &hit {
            Some(_) => self.block_hits.fetch_add(1, Ordering::Relaxed),
            None => self.block_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Tier-2 insert; returns the stored table.
    pub(crate) fn block_insert(&self, key: BlockKey, table: BlockTransfer) -> Arc<BlockTransfer> {
        let table = Arc::new(table);
        lock(&self.blocks).insert(key, Arc::clone(&table));
        table
    }

    /// Tier-1 lookup.
    pub(crate) fn level_lookup(&self, key: &LevelKey) -> Option<SearchOutcome> {
        let hit = lock(&self.levels).get(key).cloned();
        match &hit {
            Some(_) => self.level_hits.fetch_add(1, Ordering::Relaxed),
            None => self.level_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Tier-1 insert.
    pub(crate) fn level_insert(&self, key: LevelKey, outcome: SearchOutcome) {
        lock(&self.levels).insert(key, outcome);
    }
}

impl fmt::Debug for SearchCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SearchCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic hash of everything that parameterizes the search
/// besides the layer/env/scale inputs: cost configuration, ratio policy
/// and the admissible type set.
pub(crate) fn context_hash(
    config: &CostConfig,
    solver: &RatioSolver,
    types: &[PartitionType],
) -> u64 {
    let mut h = FxHasher::default();
    config.format.hash(&mut h);
    (config.objective == Objective::CommOnly).hash(&mut h);
    config.roofline.hash(&mut h);
    config.skip_first_backward.hash(&mut h);
    match solver {
        RatioSolver::PaperLinear => 0u8.hash(&mut h),
        RatioSolver::BalancedExact => 1u8.hash(&mut h),
        RatioSolver::Fixed(r) => {
            2u8.hash(&mut h);
            r.value().to_bits().hash(&mut h);
        }
    }
    types.hash(&mut h);
    h.finish()
}

/// Deterministic structural fingerprint of a train view: element kinds,
/// layer signatures and indices, fork shapes and branch arrangements.
pub(crate) fn view_fingerprint(view: &TrainView, config: &CostConfig) -> u64 {
    let mut h = FxHasher::default();
    let iso = accpar_dnn::iso::IsoClasses::of(view);
    hash_view(&mut h, view, &iso, config);
    h.finish()
}

/// Feeds the canonical view structure into an arbitrary hasher state.
/// Shared between the single-lane [`view_fingerprint`] above and the
/// plan cache's two-lane content key, which primes each lane with a
/// different seed before hashing the same byte stream. Classification
/// is the expensive half of the fingerprint, so callers hashing more
/// than one lane pass the same [`IsoClasses`] to each.
///
/// The structure lane is the *canonical class multiset* of the view:
/// the element walk as a sequence of [`IsoClasses`] element class ids,
/// then each class's full content exactly once (via its representative
/// element). Raw layer indices never enter — they are determined by
/// walk order anyway — so the collapsed and uncollapsed planning paths
/// hash bit-identically by construction: the hash is a function of the
/// view alone, never of how the search will traverse it. A cache entry
/// written by either path therefore validates and hits from the other.
///
/// [`IsoClasses`]: accpar_dnn::iso::IsoClasses
pub(crate) fn hash_view(
    h: &mut impl std::hash::Hasher,
    view: &TrainView,
    iso: &accpar_dnn::iso::IsoClasses,
    config: &CostConfig,
) {
    let mut h = h;
    // The walk, collapsed to class ids (order-preserving).
    view.elems().len().hash(&mut h);
    for id in iso.elem_class_ids() {
        id.hash(&mut h);
    }
    // Each class's value-complete content, once, in class-id order.
    for class in 0..iso.elem_classes() {
        match &view.elems()[iso.elem_rep(class)] {
            TrainElem::Layer(l) => {
                0u8.hash(&mut h);
                LayerSig::of(l, config).hash(&mut h);
                l.heads().hash(&mut h);
            }
            TrainElem::Block { branches, fork, .. } => {
                1u8.hash(&mut h);
                fork.hash(&mut h);
                branches.len().hash(&mut h);
                for b in branches {
                    b.len().hash(&mut h);
                    for l in b {
                        LayerSig::of(l, config).hash(&mut h);
                        l.heads().hash(&mut h);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::CacheStats;

    #[test]
    fn empty_cache_rates_are_zero_not_nan() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.lookup_hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
        assert!(stats.lookup_hit_rate().is_finite());
    }

    #[test]
    fn rates_behave_once_lookups_arrive() {
        let stats = CacheStats {
            layer_hits: 3,
            layer_misses: 1,
            cells_requested: 4,
            ..CacheStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert!((stats.lookup_hit_rate() - 0.75).abs() < 1e-12);
    }
}
