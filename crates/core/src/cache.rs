//! Crash-safe, self-healing plan-serving cache (ROADMAP item 1).
//!
//! Planning the same (network, hardware, budget class) request twice is
//! pure waste — the DP is deterministic — but a cache that serves a
//! stale or corrupted plan silently violates the optimality contract of
//! PAPER.md §4, which is worse than no cache at all. This module
//! therefore treats every stored byte as hostile until proven
//! otherwise:
//!
//! * **Fingerprinting** — [`plan_key`] canonicalizes the layer DAG
//!   (topological element walk, interned layer signatures), the
//!   accelerator array, the strategy/levels/cost/solver/simulator
//!   configuration and the [`Budget`] *class* into a two-lane 128-bit
//!   content hash ([`PlanKey`]). Both lanes hash the same value-complete
//!   byte stream through differently-seeded `FxHasher`s, so an
//!   accidental single-lane collision cannot alias two requests.
//! * **Durability** — a sharded in-memory LRU backed by an append-only
//!   JSON-lines log. Each record is sealed into one line (with an
//!   FNV-1a checksum over its serialized prefix) exactly once, at
//!   insert, and that line is appended; a poisoning [`PlanCache::evict`]
//!   appends a sealed tombstone. After `cap` appends the log compacts:
//!   the resident records' stored lines are rewritten under a fresh
//!   generation header through a temp file plus atomic rename. The
//!   file therefore holds at most about twice the resident set, and a
//!   crash leaves at worst one torn line at the tail.
//! * **Self-healing** — warm load replays the log in order (records
//!   insert, tombstones remove, the LRU cap applies as it goes), verifies
//!   each line's checksum and shape, and quarantines corrupt or
//!   truncated lines into a `.quarantine` sidecar (for postmortems)
//!   instead of failing startup. It always ends with a compaction, so
//!   the bad bytes never resurface.
//! * **Degraded modes** — any persistence I/O error flips the cache to
//!   memory-only serving with a `cache.degraded` event; it never
//!   panics and never fails a plan.
//!
//! Admission validation (shape/topology match, feasibility against the
//! *current* array, a BSP simulation cross-check against the stored
//! cost) lives in the planner, which owns the view and group tree; the
//! cache only stores and retrieves candidate records. A record whose
//! simulated cost disagrees with its stored cost beyond
//! [`POISON_TOLERANCE`] is *poisoned* — the planner evicts it via
//! [`PlanCache::evict`] and re-plans.
//!
//! The cross-check is kept cheap by memoizing its result: the key is
//! value-complete (nothing outside it can change the plan) and the BSP
//! simulator is a pure function, so once a record has reproduced its
//! stored cost in this process, re-running the identical simulation on
//! every subsequent hit would recompute a proven constant. Disk bytes
//! are never trusted this way — the memo lives only in memory
//! ([`PlanCache::mark_verified`]), so every record loaded or re-loaded
//! from the file pays the full re-simulation on its first serve, and
//! the shape/topology admission check still runs on *every* hit.

use crate::memo::{context_hash, hash_view};
use crate::planner::Strategy;
use accpar_cost::cache::{FxHashMap, FxHasher};
use accpar_cost::{CostConfig, RatioSolver};
use accpar_dnn::TrainView;
use accpar_hw::AcceleratorArray;
use accpar_obs::json::Json;
use accpar_obs::Obs;
use accpar_partition::{LayerPlan, NetworkPlan, PartitionType, PlanTree, Ratio};
use accpar_runtime::{lock_unpoisoned, Budget};
use accpar_sim::{MemModel, Optimizer, SimConfig, SimReport};
use std::fmt;
use std::hash::Hasher;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::{fs, io};

/// A stored cost and a freshly simulated cost may differ by at most
/// this much before the record is declared poisoned. The simulator is
/// deterministic, so any honest record reproduces its cost bit-exactly;
/// the tolerance only forgives benign last-ulp drift.
pub const POISON_TOLERANCE: f64 = 1e-9;

/// Number of LRU shards; must be a power of two.
const SHARDS: usize = 8;

/// File-format version of the persistence layer; bumped on any change
/// to the record schema so older binaries quarantine newer files
/// instead of misreading them. Version 2 is the append-only log: a
/// version-1 reader would skip its tombstones and resurrect evicted
/// records.
const FORMAT_VERSION: u64 = 2;

/// Seeds priming the two hash lanes of a [`PlanKey`]. Arbitrary odd
/// constants; all that matters is that they differ, so the two lanes
/// walk different hash trajectories over the same byte stream.
const LANE_SEEDS: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f];

/// A two-lane 128-bit content fingerprint of a plan request — the cache
/// key. See [`plan_key`] for what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    hi: u64,
    lo: u64,
}

impl PlanKey {
    /// The key as 32 lowercase hex digits (`hi` then `lo`).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`PlanKey::to_hex`] form back.
    fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Self { hi, lo })
    }
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Hashes everything that determines a plan into one lane.
#[allow(clippy::too_many_arguments)]
fn lane(
    seed: u64,
    view: &TrainView,
    iso: &accpar_dnn::iso::IsoClasses,
    array: &AcceleratorArray,
    strategy: Strategy,
    levels: usize,
    cost_config: &CostConfig,
    solver: &RatioSolver,
    sim_config: &SimConfig,
    budget: &Budget,
) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    // Layer DAG: the canonical class multiset (classified once by the
    // caller — it prices both lanes).
    hash_view(&mut h, view, iso, cost_config);
    // Hardware: every board's full capability vector, in array order.
    h.write_usize(array.len());
    for board in array.boards() {
        h.write(board.name().as_bytes());
        h.write_u64(board.peak_flops().to_bits());
        h.write_u64(board.hbm_bytes());
        h.write_u64(board.mem_bw().to_bits());
        h.write_u64(board.net_bw().to_bits());
        h.write_usize(board.cores());
        h.write_u64(board.ici_bw().to_bits());
    }
    h.write_u8(match strategy {
        Strategy::DataParallel => 0,
        Strategy::Owt => 1,
        Strategy::HyPar => 2,
        Strategy::AccPar => 3,
    });
    h.write_usize(levels);
    // Search context: cost config, ratio policy, admissible types.
    h.write_u64(context_hash(cost_config, solver, &PartitionType::ALL));
    // Simulator configuration (no Hash derive on MemModel — encoded
    // manually, field by field).
    h.write_u8(sim_config.format as u8);
    h.write_u8(match sim_config.mem_model {
        MemModel::Roofline => 0,
        MemModel::Serial => 1,
        MemModel::ComputeOnly => 2,
    });
    h.write_u8(u8::from(sim_config.interlayer));
    h.write_u8(u8::from(sim_config.skip_first_backward));
    h.write_u8(match sim_config.update {
        None => 0,
        Some(Optimizer::Sgd) => 1,
        Some(Optimizer::Momentum) => 2,
        Some(Optimizer::Adam) => 3,
    });
    h.write_u64(budget.class_bits());
    h.finish()
}

/// The content fingerprint of one plan request: layer DAG + hardware +
/// strategy + hierarchy depth + cost/solver/simulator configuration +
/// [`Budget::class_bits`]. Two requests with equal keys are planned
/// identically by the deterministic DP; nothing outside the key (thread
/// budget, observability, caching knobs) can change the plan.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn plan_key(
    view: &TrainView,
    array: &AcceleratorArray,
    strategy: Strategy,
    levels: usize,
    cost_config: &CostConfig,
    solver: &RatioSolver,
    sim_config: &SimConfig,
    budget: &Budget,
) -> PlanKey {
    let iso = accpar_dnn::iso::IsoClasses::of(view);
    let h = |seed| {
        lane(
            seed, view, &iso, array, strategy, levels, cost_config, solver, sim_config, budget,
        )
    };
    PlanKey {
        hi: h(LANE_SEEDS[0]),
        lo: h(LANE_SEEDS[1]),
    }
}

/// One durable cache record: the plan plus enough context to
/// cross-check it before serving.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRecord {
    /// The request fingerprint the record answers.
    pub key: PlanKey,
    /// The strategy that produced the plan.
    pub strategy: Strategy,
    /// Hierarchy depth the plan was searched at.
    pub levels: usize,
    /// Modeled step time (seconds) at admission — the BSP cross-check
    /// re-simulates and compares against this, bit-for-bit modulo
    /// [`POISON_TOLERANCE`].
    pub cost: f64,
    /// The hierarchical plan itself.
    pub plan: PlanTree,
}

/// How the plan cache participated in one planning call (provenance
/// for the serving layer, which demotes hits when hardware degraded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache was attached to the planner.
    Disabled,
    /// A record passed admission validation and was served.
    Hit,
    /// No record existed; the plan was computed (and admitted).
    Miss,
    /// A record failed the shape/feasibility checks; the plan was
    /// recomputed and the record replaced.
    Invalid,
    /// A record's stored cost disagreed with the BSP cross-check beyond
    /// [`POISON_TOLERANCE`]; it was evicted and the plan recomputed.
    Poisoned,
}

impl CacheOutcome {
    /// Stable label for traces and events.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            CacheOutcome::Disabled => "disabled",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Invalid => "invalid",
            CacheOutcome::Poisoned => "poisoned",
        }
    }
}

// --- JSON codec -------------------------------------------------------

fn strategy_label(s: Strategy) -> &'static str {
    match s {
        Strategy::DataParallel => "DP",
        Strategy::Owt => "OWT",
        Strategy::HyPar => "HyPar",
        Strategy::AccPar => "AccPar",
    }
}

fn strategy_from_label(s: &str) -> Option<Strategy> {
    match s {
        "DP" => Some(Strategy::DataParallel),
        "OWT" => Some(Strategy::Owt),
        "HyPar" => Some(Strategy::HyPar),
        "AccPar" => Some(Strategy::AccPar),
        _ => None,
    }
}

fn ptype_code(t: PartitionType) -> f64 {
    match t {
        PartitionType::TypeI => 1.0,
        PartitionType::TypeII => 2.0,
        PartitionType::TypeIII => 3.0,
    }
}

fn ptype_from_code(c: f64) -> Option<PartitionType> {
    match c as i64 {
        1 => Some(PartitionType::TypeI),
        2 => Some(PartitionType::TypeII),
        3 => Some(PartitionType::TypeIII),
        _ => None,
    }
}

/// Ratios round-trip as hex-encoded IEEE-754 bits: a decimal rendering
/// would lose ulps and break the bit-identical-serving guarantee.
fn f64_bits_hex(v: f64) -> Json {
    Json::Str(format!("{:016x}", v.to_bits()))
}

fn f64_from_bits_hex(j: &Json) -> Option<f64> {
    let s = j.as_str()?;
    if s.len() != 16 {
        return None;
    }
    Some(f64::from_bits(u64::from_str_radix(s, 16).ok()?))
}

fn plan_to_json(tree: &PlanTree) -> Json {
    let layers: Vec<Json> = tree
        .plan()
        .layers()
        .iter()
        .map(|l| Json::Arr(vec![Json::Num(ptype_code(l.ptype)), f64_bits_hex(l.ratio.value())]))
        .collect();
    let mut fields = vec![("layers", Json::Arr(layers))];
    if let Some((l, r)) = tree.children() {
        fields.push(("children", Json::Arr(vec![plan_to_json(l), plan_to_json(r)])));
    }
    Json::obj(fields)
}

fn plan_from_json(j: &Json) -> Option<PlanTree> {
    let Json::Arr(layers) = j.get("layers")? else {
        return None;
    };
    let mut entries = Vec::with_capacity(layers.len());
    for layer in layers {
        let Json::Arr(pair) = layer else { return None };
        let [code, ratio_bits] = pair.as_slice() else {
            return None;
        };
        let ptype = ptype_from_code(code.as_f64()?)?;
        let ratio = Ratio::new(f64_from_bits_hex(ratio_bits)?).ok()?;
        entries.push(LayerPlan::new(ptype, ratio));
    }
    if entries.is_empty() {
        return None;
    }
    let plan = NetworkPlan::new(entries);
    match j.get("children") {
        None => Some(PlanTree::leaf(plan)),
        Some(Json::Arr(kids)) => {
            let [l, r] = kids.as_slice() else { return None };
            Some(PlanTree::branch(plan, plan_from_json(l)?, plan_from_json(r)?))
        }
        Some(_) => None,
    }
}

/// FNV-1a 64 over raw bytes — the per-record checksum. Deliberately a
/// *different* hash family than the FxHash key lanes, so a corruption
/// that happened to preserve one cannot be masked by the other.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders `value` (an object without a `crc` field) as one JSONL line
/// with the checksum over everything before `,"crc"` appended as the
/// final field.
fn seal_line(value: &Json) -> String {
    let body = value.compact();
    // `body` is `{...}`; splice the crc in before the closing brace.
    let prefix = &body[..body.len() - 1];
    format!("{prefix},\"crc\":\"{:016x}\"}}", fnv1a(prefix.as_bytes()))
}

/// Verifies and strips a sealed line's checksum, returning the parsed
/// object on success.
fn open_line(line: &str) -> Option<Json> {
    let at = line.rfind(",\"crc\":\"")?;
    let prefix = &line[..at];
    let rest = &line[at + ",\"crc\":\"".len()..];
    let hex = rest.strip_suffix("\"}")?;
    if hex.len() != 16 {
        return None;
    }
    let stored = u64::from_str_radix(hex, 16).ok()?;
    if fnv1a(prefix.as_bytes()) != stored {
        return None;
    }
    Json::parse(line).ok()
}

fn record_to_line(record: &PlanRecord) -> String {
    seal_line(&Json::obj(vec![
        ("key", Json::str(record.key.to_hex())),
        ("strategy", Json::str(strategy_label(record.strategy))),
        ("levels", Json::Num(record.levels as f64)),
        ("cost", f64_bits_hex(record.cost)),
        ("plan", plan_to_json(&record.plan)),
    ]))
}

/// The tombstone a poisoning eviction appends: replaying it removes
/// `key`, so an evicted record never comes back after a restart.
fn tombstone_line(key: PlanKey) -> String {
    seal_line(&Json::obj(vec![("evict", Json::str(key.to_hex()))]))
}

/// One verified line of the log body.
#[derive(Debug, PartialEq)]
enum LogLine {
    Record(PlanRecord),
    Tombstone(PlanKey),
}

fn parse_log_line(line: &str) -> Option<LogLine> {
    let j = open_line(line)?;
    if let Some(key) = j.get("evict") {
        return PlanKey::from_hex(key.as_str()?).map(LogLine::Tombstone);
    }
    Some(LogLine::Record(PlanRecord {
        key: PlanKey::from_hex(j.get("key")?.as_str()?)?,
        strategy: strategy_from_label(j.get("strategy")?.as_str()?)?,
        levels: j.get("levels")?.as_f64()? as usize,
        cost: f64_from_bits_hex(j.get("cost")?)?,
        plan: plan_from_json(j.get("plan")?)?,
    }))
}

/// A sealed line as the log stores it: newline-terminated and shared,
/// so compaction copies bytes instead of re-serializing.
fn log_line(sealed: String) -> Arc<str> {
    let mut line = sealed;
    line.push('\n');
    Arc::from(line)
}

fn header_line(generation: u64) -> String {
    seal_line(&Json::obj(vec![
        ("magic", Json::str("accpar-plan-cache")),
        ("version", Json::Num(FORMAT_VERSION as f64)),
        ("generation", Json::Num(generation as f64)),
    ]))
}

/// Parses and verifies a header line, returning its generation.
fn header_generation(line: &str) -> Option<u64> {
    let j = open_line(line)?;
    if j.get("magic")?.as_str()? != "accpar-plan-cache" {
        return None;
    }
    if j.get("version")?.as_f64()? as u64 != FORMAT_VERSION {
        return None;
    }
    Some(j.get("generation")?.as_f64()? as u64)
}

// --- the cache --------------------------------------------------------

/// Counter snapshot of a [`PlanCache`]; every field is cumulative since
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache (before admission validation).
    pub hits: u64,
    /// Lookups with no record.
    pub misses: u64,
    /// Records removed by LRU pressure or explicit eviction.
    pub evictions: u64,
    /// Persisted lines quarantined at warm load.
    pub quarantined: u64,
    /// Records whose stored cost disagreed with a fresh simulation
    /// (evicted via [`PlanCache::evict`] by the planner).
    pub poisoned: u64,
    /// Validated hits demoted to replan warm-starts (counted by the
    /// serving layer via [`PlanCache::note_demotion`]).
    pub demotions: u64,
    /// Persistence I/O errors absorbed (each one degrades the cache to
    /// memory-only serving).
    pub io_errors: u64,
}

#[derive(Debug)]
struct Entry {
    record: PlanRecord,
    tick: u64,
    /// The BSP cross-check report, memoized after the record first
    /// passes validation in this process. The key is value-complete and
    /// the simulator is pure, so a record proven once cannot go stale in
    /// memory — only disk bytes are hostile. Never persisted: every
    /// record loaded from disk starts unverified and pays the full
    /// cross-check on its first serve.
    verified: Option<SimReport>,
    /// The record's sealed log line, rendered once when it was inserted
    /// (or read at warm load) and copied verbatim by every compaction.
    /// `None` in a memory-only cache.
    line: Option<Arc<str>>,
}

#[derive(Debug, Default)]
struct Shard {
    map: FxHashMap<PlanKey, Entry>,
}

/// The append side of the persistence log. Lock order: the log lock
/// first, then shard locks — never the log lock while a shard lock is
/// held.
#[derive(Debug, Default)]
struct Log {
    /// Append handle on the live file; `None` until the warm load's
    /// compaction opens it, and again after an I/O degrade.
    handle: Option<fs::File>,
    /// Lines appended since the last compaction.
    appended: usize,
}

/// What a warm load found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Records verified and admitted to memory.
    pub loaded: usize,
    /// Lines (or whole files) moved to the `.quarantine` sidecar.
    pub quarantined: usize,
}

/// The persistent, crash-safe plan-serving cache. See the
/// [module docs](self) for the design; thread-safe behind internal
/// sharded locks, shared via `Arc`.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    cap: usize,
    clock: AtomicU64,
    generation: AtomicU64,
    /// Persistence target; `None` for a memory-only cache.
    file: Option<PathBuf>,
    log: Mutex<Log>,
    /// Cleared on the first I/O error: the cache keeps serving from
    /// memory and stops touching the disk.
    persist_ok: AtomicBool,
    load_report: LoadReport,
    obs: Obs,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
    poisoned: AtomicU64,
    demotions: AtomicU64,
    io_errors: AtomicU64,
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.len())
            .field("cap", &self.cap)
            .field("file", &self.file)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl PlanCache {
    /// A memory-only cache holding at most `cap` plans (minimum 1).
    #[must_use]
    pub fn memory(cap: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            cap: cap.max(1),
            clock: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            file: None,
            log: Mutex::new(Log::default()),
            persist_ok: AtomicBool::new(true),
            load_report: LoadReport::default(),
            obs: Obs::off(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// Opens (or creates) a persistent cache under `dir`, warm-loading
    /// `plans.jsonl` with per-record verification. Never fails: corrupt
    /// records are quarantined, I/O errors degrade to memory-only
    /// serving — both observable via [`PlanCache::load_report`] /
    /// [`PlanCache::stats`] and the attached [`Obs`].
    #[must_use]
    pub fn open(dir: &Path, cap: usize, obs: Obs) -> Self {
        let mut cache = Self::memory(cap);
        cache.obs = obs;
        cache.file = Some(dir.join("plans.jsonl"));
        if let Err(e) = fs::create_dir_all(dir) {
            cache.degrade("create cache dir", &e);
            return cache;
        }
        cache.warm_load();
        cache
    }

    /// Attaches an observability handle after construction (counters
    /// `cache.hit` / `cache.miss` / `cache.evict` / `cache.quarantine` /
    /// `cache.demote` / `cache.poisoned` / `cache.degraded` /
    /// `cache.compact` and the degrade/quarantine/compact events).
    /// [`PlanCache::open`] takes the handle directly; this serves
    /// memory-only caches.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// What the warm load found (all zeros for a memory-only cache).
    #[must_use]
    pub const fn load_report(&self) -> LoadReport {
        self.load_report
    }

    /// The persistence generation: how many times the log has been
    /// compacted over its lifetime, warm loads included (carried across
    /// restarts by the file header).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Whether the cache is still writing through to disk (`false` for
    /// memory-only caches and after an I/O degrade).
    #[must_use]
    pub fn persistent(&self) -> bool {
        self.file.is_some() && self.persist_ok.load(Ordering::Relaxed)
    }

    /// Records currently held in memory.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_unpoisoned(s).map.len()).sum()
    }

    /// Whether the cache holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }

    fn shard(&self, key: &PlanKey) -> &Mutex<Shard> {
        &self.shards[(key.hi as usize) & (SHARDS - 1)]
    }

    /// Looks a key up, counting hit/miss and touching the LRU clock.
    /// The returned record is a *candidate* — the caller must validate
    /// it before serving (see the [module docs](self)). The second slot
    /// carries the memoized cross-check report when the record already
    /// passed validation in this process ([`PlanCache::mark_verified`]).
    #[must_use]
    pub fn lookup(&self, key: &PlanKey) -> Option<(PlanRecord, Option<SimReport>)> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = lock_unpoisoned(self.shard(key));
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                if self.obs.enabled() {
                    self.obs.counter("cache.hit").inc();
                }
                Some((entry.record.clone(), entry.verified.clone()))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if self.obs.enabled() {
                    self.obs.counter("cache.miss").inc();
                }
                None
            }
        }
    }

    /// Looks a key up without counting or touching the LRU clock —
    /// used by probes that must not skew the hit rate.
    #[must_use]
    pub fn peek(&self, key: &PlanKey) -> Option<PlanRecord> {
        lock_unpoisoned(self.shard(key))
            .map
            .get(key)
            .map(|e| e.record.clone())
    }

    /// A snapshot of every record currently held, in no particular
    /// order (diagnostics, tests, CLI inspection).
    #[must_use]
    pub fn records(&self) -> Vec<PlanRecord> {
        self.shards
            .iter()
            .flat_map(|s| {
                lock_unpoisoned(s)
                    .map
                    .values()
                    .map(|e| e.record.clone())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Inserts (or replaces) a record and appends its sealed line to the
    /// log when persistence is healthy. LRU pressure evicts the stalest
    /// entry of the record's shard once the shard exceeds its slice of
    /// the cap.
    /// The record starts *unverified*: its first serve pays the full
    /// BSP cross-check ([`PlanCache::insert_verified`] skips that for
    /// records whose report the caller just computed).
    pub fn insert(&self, record: PlanRecord) {
        self.insert_entry(record, None);
    }

    /// [`PlanCache::insert`] for a record admitted straight from a
    /// fresh plan: the caller's own simulation report is memoized, so
    /// the record's first serve validates without re-simulating.
    pub fn insert_verified(&self, record: PlanRecord, report: SimReport) {
        self.insert_entry(record, Some(report));
    }

    /// Memoizes a passed cross-check for a resident record (no-op if it
    /// was evicted meanwhile). Subsequent [`PlanCache::lookup`] hits
    /// carry the report and skip the re-simulation.
    pub fn mark_verified(&self, key: &PlanKey, report: SimReport) {
        if let Some(entry) = lock_unpoisoned(self.shard(key)).map.get_mut(key) {
            entry.verified = Some(report);
        }
    }

    fn insert_entry(&self, record: PlanRecord, verified: Option<SimReport>) {
        // Serialization happens here, outside every lock, and only when
        // the line has somewhere to go.
        let line = self.persistent().then(|| log_line(record_to_line(&record)));
        let evicted = match &line {
            Some(line) => {
                // The tick is drawn under the log lock so that append
                // order is LRU order: replaying the log rebuilds the
                // same resident set.
                let mut log = lock_unpoisoned(&self.log);
                let evicted = self.admit(record, verified, Some(Arc::clone(line)));
                self.append(&mut log, line);
                evicted
            }
            None => self.admit(record, verified, None),
        };
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if self.obs.enabled() {
                self.obs.counter("cache.evict").add(evicted);
            }
        }
    }

    /// Puts a record into its shard with a fresh LRU tick and evicts the
    /// shard's stalest entries beyond its slice of the cap. Returns how
    /// many were evicted.
    fn admit(
        &self,
        record: PlanRecord,
        verified: Option<SimReport>,
        line: Option<Arc<str>>,
    ) -> u64 {
        let shard_cap = self.cap.div_ceil(SHARDS).max(1);
        let mut shard = lock_unpoisoned(self.shard(&record.key));
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        shard.map.insert(
            record.key,
            Entry {
                record,
                tick,
                verified,
                line,
            },
        );
        let mut evicted = 0;
        while shard.map.len() > shard_cap {
            let stalest = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
                .expect("non-empty shard has a minimum");
            shard.map.remove(&stalest);
            evicted += 1;
        }
        evicted
    }

    /// Removes a record (poisoning eviction) and appends a tombstone so
    /// the record stays gone after a restart. Returns whether it was
    /// present.
    pub fn evict(&self, key: &PlanKey) -> bool {
        let remove = || lock_unpoisoned(self.shard(key)).map.remove(key).is_some();
        let removed = if self.persistent() {
            let tombstone = log_line(tombstone_line(*key));
            let mut log = lock_unpoisoned(&self.log);
            let removed = remove();
            if removed {
                self.append(&mut log, &tombstone);
            }
            removed
        } else {
            remove()
        };
        if removed {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            if self.obs.enabled() {
                self.obs.counter("cache.evict").inc();
                self.obs.counter("cache.poisoned").inc();
            }
        }
        removed
    }

    /// Counts a validated hit that was demoted to a replan warm-start
    /// (stale-hardware serving; the record itself stays cached for
    /// healthy requests).
    pub fn note_demotion(&self) {
        self.demotions.fetch_add(1, Ordering::Relaxed);
        if self.obs.enabled() {
            self.obs.counter("cache.demote").inc();
        }
    }

    // --- persistence --------------------------------------------------

    fn degrade(&self, what: &str, err: &io::Error) {
        // First error wins; later ones are already degraded.
        let first = self.persist_ok.swap(false, Ordering::Relaxed);
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        if first && self.obs.enabled() {
            self.obs.counter("cache.degraded").inc();
            self.obs.event(
                "cache.degraded",
                &[
                    ("op", what.to_owned().into()),
                    ("error", err.to_string().into()),
                ],
            );
        }
    }

    fn quarantine_line(&self, sidecar: &Path, line: &str, reason: &str) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        if self.obs.enabled() {
            self.obs.counter("cache.quarantine").inc();
            self.obs.event(
                "cache.quarantine",
                &[
                    ("reason", reason.to_owned().into()),
                    ("bytes", line.len().into()),
                ],
            );
        }
        // Best-effort: losing the postmortem copy must not fail the
        // load (the bad line is dropped from the rewrite either way).
        let _ = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(sidecar)
            .and_then(|mut f| writeln!(f, "{line}"));
    }

    fn warm_load(&mut self) {
        let Some(file) = self.file.clone() else {
            return;
        };
        let sidecar = file.with_extension("jsonl.quarantine");
        let text = match fs::read_to_string(&file) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => {
                self.degrade("read cache file", &e);
                return;
            }
        };
        let mut quarantined = 0usize;
        let mut lines = text.split_inclusive('\n');
        if let Some(header) = lines.next() {
            match header.strip_suffix('\n').and_then(header_generation) {
                Some(generation) => {
                    self.generation.store(generation, Ordering::Relaxed);
                    for raw in lines {
                        let Some(line) = raw.strip_suffix('\n') else {
                            // Truncated tail: the crash interrupted this
                            // append mid-line.
                            self.quarantine_line(&sidecar, raw, "truncated-tail");
                            quarantined += 1;
                            continue;
                        };
                        if line.is_empty() {
                            continue;
                        }
                        // Replay in log order: later lines win, and each
                        // shard's LRU cap applies as it goes.
                        match parse_log_line(line) {
                            Some(LogLine::Record(record)) => {
                                self.admit(record, None, Some(Arc::from(raw)));
                            }
                            Some(LogLine::Tombstone(key)) => {
                                lock_unpoisoned(self.shard(&key)).map.remove(&key);
                            }
                            None => {
                                self.quarantine_line(&sidecar, line, "checksum-or-schema");
                                quarantined += 1;
                            }
                        }
                    }
                }
                None => {
                    // The header itself is unreadable: nothing below it
                    // can be trusted — quarantine the whole file.
                    self.quarantine_line(&sidecar, text.trim_end_matches('\n'), "bad-header");
                    quarantined += 1;
                }
            }
        }
        self.load_report = LoadReport {
            loaded: self.len(),
            quarantined,
        };
        // Rewriting the replayed set drops torn tails, tombstones and
        // superseded lines, and opens the append handle.
        self.compact(&mut lock_unpoisoned(&self.log));
    }

    /// Appends one sealed line; compacts once `cap` lines have been
    /// appended since the last compaction. Called with the log lock
    /// held and no shard lock.
    fn append(&self, log: &mut Log, line: &str) {
        let Some(handle) = log.handle.as_mut() else {
            return;
        };
        if let Err(e) = handle.write_all(line.as_bytes()) {
            log.handle = None;
            self.degrade("append cache log", &e);
            return;
        }
        log.appended += 1;
        if log.appended >= self.cap {
            self.compact(log);
        }
    }

    /// Rewrites the log as a fresh generation header plus the resident
    /// records' stored lines in LRU order, through temp file plus
    /// atomic rename; the temp file's handle becomes the append handle.
    /// Nothing is re-serialized. Called with the log lock held and no
    /// shard lock, so no append can interleave: a crash leaves either
    /// the old log or the new one.
    fn compact(&self, log: &mut Log) {
        log.handle = None;
        let Some(file) = &self.file else { return };
        if !self.persist_ok.load(Ordering::Relaxed) {
            return;
        }
        let mut resident: Vec<(u64, Arc<str>)> = Vec::new();
        for shard in &self.shards {
            resident.extend(
                lock_unpoisoned(shard)
                    .map
                    .values()
                    .filter_map(|e| Some((e.tick, Arc::clone(e.line.as_ref()?)))),
            );
        }
        resident.sort_unstable_by_key(|&(tick, _)| tick);
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        let mut header = header_line(generation);
        header.push('\n');
        let bytes = header.len() + resident.iter().map(|(_, line)| line.len()).sum::<usize>();
        let tmp = file.with_extension("jsonl.tmp");
        let result = fs::File::create(&tmp).and_then(|handle| {
            let mut out = io::BufWriter::new(handle);
            out.write_all(header.as_bytes())?;
            for (_, line) in &resident {
                out.write_all(line.as_bytes())?;
            }
            let handle = out.into_inner().map_err(io::IntoInnerError::into_error)?;
            fs::rename(&tmp, file)?;
            Ok(handle)
        });
        match result {
            Ok(handle) => {
                log.handle = Some(handle);
                log.appended = 0;
                self.generation.store(generation, Ordering::Relaxed);
                if self.obs.enabled() {
                    self.obs.counter("cache.compact").inc();
                    self.obs.event(
                        "cache.compact",
                        &[("records", resident.len().into()), ("bytes", bytes.into())],
                    );
                }
            }
            Err(e) => self.degrade("compact cache log", &e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(hi: u64, cost: f64) -> PlanRecord {
        PlanRecord {
            key: PlanKey { hi, lo: hi ^ 0xabcd },
            strategy: Strategy::AccPar,
            levels: 2,
            cost,
            plan: PlanTree::uniform(&vec![
                NetworkPlan::uniform(
                    3,
                    LayerPlan::new(PartitionType::TypeII, Ratio::clamped(0.375)),
                );
                2
            ]),
        }
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let r = record(7, 1.234e-3_f64 + f64::EPSILON);
        let line = record_to_line(&r);
        assert!(!line.contains('\n'));
        let Some(LogLine::Record(back)) = parse_log_line(&line) else {
            panic!("a sealed record parses back as a record");
        };
        assert_eq!(back, r);
        assert_eq!(back.cost.to_bits(), r.cost.to_bits());
        let tombstone = tombstone_line(r.key);
        assert_eq!(parse_log_line(&tombstone), Some(LogLine::Tombstone(r.key)));
    }

    #[test]
    fn any_tampered_byte_is_rejected() {
        let r = record(9, 0.5);
        for (line, truth) in [
            (record_to_line(&r), LogLine::Record(r.clone())),
            (tombstone_line(r.key), LogLine::Tombstone(r.key)),
        ] {
            for i in 0..line.len() {
                let mut bytes = line.clone().into_bytes();
                bytes[i] ^= 0x01;
                let Ok(s) = String::from_utf8(bytes) else {
                    continue;
                };
                if s == line {
                    continue;
                }
                // Either the checksum rejects the line, or (for a flip
                // inside the stored crc that still mismatches) it parses
                // to nothing — never to a *different* record or key.
                if let Some(parsed) = parse_log_line(&s) {
                    assert_eq!(parsed, truth, "flip at byte {i} changed the line");
                }
            }
        }
    }

    #[test]
    fn header_round_trips_and_rejects_wrong_version() {
        let line = header_line(17);
        assert_eq!(header_generation(&line), Some(17));
        let forged = line.replace("\"version\":2", "\"version\":1");
        assert_eq!(header_generation(&forged), None);
    }

    #[test]
    fn lru_evicts_the_stalest_entry_of_a_full_shard() {
        let cache = PlanCache::memory(SHARDS); // one slot per shard
        let a = record(0, 0.1); // shard 0
        let b = record(SHARDS as u64, 0.2); // also shard 0
        cache.insert(a.clone());
        cache.insert(b.clone());
        assert!(cache.peek(&a.key).is_none());
        assert_eq!(cache.peek(&b.key).unwrap(), b);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lookup_counts_and_peek_does_not() {
        let cache = PlanCache::memory(4);
        let r = record(3, 0.3);
        cache.insert(r.clone());
        assert!(cache.peek(&r.key).is_some());
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
        assert!(cache.lookup(&r.key).is_some());
        assert!(cache.lookup(&record(4, 0.0).key).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn verification_memo_is_in_memory_only() {
        let dummy_report = || SimReport {
            total_secs: 0.5,
            compute_secs: 0.5,
            psum_secs: 0.0,
            conversion_secs: 0.0,
            update_secs: 0.0,
            per_layer: Vec::new(),
            leaf_busy_secs: Vec::new(),
        };
        let dir = std::env::temp_dir().join(format!(
            "accpar-cache-memo-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cache = PlanCache::open(&dir, 16, Obs::off());
        // Plain insert starts unverified; mark_verified memoizes.
        let r = record(1, 0.5);
        cache.insert(r.clone());
        assert!(cache.lookup(&r.key).unwrap().1.is_none());
        cache.mark_verified(&r.key, dummy_report());
        assert!(cache.lookup(&r.key).unwrap().1.is_some());
        // insert_verified memoizes up front; replacing resets it.
        let s = record(2, 0.25);
        cache.insert_verified(s.clone(), dummy_report());
        assert!(cache.lookup(&s.key).unwrap().1.is_some());
        cache.insert(s.clone());
        assert!(cache.lookup(&s.key).unwrap().1.is_none());
        drop(cache);
        // Nothing verified survives the disk round-trip: reloaded
        // records must re-earn their cross-check.
        let reloaded = PlanCache::open(&dir, 16, Obs::off());
        assert!(reloaded.lookup(&r.key).unwrap().1.is_none());
        assert!(reloaded.lookup(&s.key).unwrap().1.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_and_warm_load_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "accpar-cache-rt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cache = PlanCache::open(&dir, 16, Obs::off());
        cache.insert(record(1, 0.25));
        cache.insert(record(2, 0.5));
        drop(cache);
        let reloaded = PlanCache::open(&dir, 16, Obs::off());
        assert_eq!(reloaded.load_report(), LoadReport { loaded: 2, quarantined: 0 });
        assert_eq!(reloaded.peek(&record(1, 0.25).key).unwrap(), record(1, 0.25));
        assert!(reloaded.generation() >= 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_degrades_to_memory_only() {
        let cache = PlanCache::open(Path::new("/proc/definitely/not/writable"), 4, Obs::off());
        assert!(!cache.persistent());
        cache.insert(record(5, 0.1));
        assert!(cache.peek(&record(5, 0.1).key).is_some());
        assert!(cache.stats().io_errors >= 1);
        // With nowhere to write, nothing is serialized.
        let shard = lock_unpoisoned(cache.shard(&record(5, 0.1).key));
        assert!(shard.map.values().all(|e| e.line.is_none()));
    }
}
