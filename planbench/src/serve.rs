//! `serve_mix`: `nproc` clients share one persistent `PlanCache` and
//! request a Zipf-skewed mix over more keys than the cache holds.

use crate::cold::{self, Inputs};
use crate::gen::{self, Zipf};
use crate::phases;
use crate::{peak_rss_mb, same_bits, stats, timed, Blocks, Outcome, PhaseLog, RunConfig};
use accpar::obs::Obs;
use accpar::partition::PlanTree;
use accpar::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// CNNs and small transformers: hits and misses of both kinds.
pub const NETS: [&str; 8] = [
    "alexnet",
    "vgg16",
    "resnet18",
    "resnet50",
    "googlenet",
    "bert_base",
    "gpt2_small",
    "vit_b16",
];

/// Percentile of `latency_tail_ms`: a block holds several hundred
/// operations, so p95 keeps dozens of samples beyond it, all misses.
const TAIL_PCT: f64 = 95.0;

/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.0;

/// Smallest and largest generated array. Up to 32 boards, misses stay a
/// few milliseconds of search, so the snapshot rewrite is a visible
/// share of a miss.
const MIN_BOARDS: usize = 2;
const MAX_BOARDS: usize = 32;

/// A cache directory under the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory unique to this process and call.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be made.
    pub fn new() -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(".planbench").join(format!("{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only if no other run still uses it.
        let _ = std::fs::remove_dir(".planbench");
    }
}

/// Cache counters summed over every instance a run used.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    hits: u64,
    misses: u64,
    evictions: u64,
    io_errors: u64,
    quarantined: u64,
}

impl Totals {
    fn add(mut self, s: accpar::core::PlanCacheStats) -> Self {
        self.hits += s.hits;
        self.misses += s.misses;
        self.evictions += s.evictions;
        self.io_errors += s.io_errors;
        self.quarantined += s.quarantined;
        self
    }
}

/// The clients' shared persistent plan cache, re-opened from its
/// directory whenever it stops persisting.
///
/// Concurrent misses persist concurrently and every persist writes the
/// same temp file, so one `rename` can fail, after which the cache stays
/// memory-only. The benchmark re-opens it, as a restarted server would,
/// and counts the re-opens: the workload keeps measuring a persistent
/// cache, and the defect stays visible as a count. A re-open is not a
/// failed operation, since every request still got a correct plan; every
/// run records the count in its metadata line (`observed`).
struct SharedCache {
    current: RwLock<Arc<PlanCache>>,
    /// Counters of the instances re-opens retired.
    retired: Mutex<Totals>,
    reopens: AtomicU64,
    capacity: usize,
    dir: ScratchDir,
}

impl SharedCache {
    fn open(capacity: usize) -> std::io::Result<Self> {
        let dir = ScratchDir::new()?;
        Ok(Self {
            current: RwLock::new(Arc::new(PlanCache::open(dir.path(), capacity, Obs::off()))),
            retired: Mutex::new(Totals::default()),
            reopens: AtomicU64::new(0),
            capacity,
            dir,
        })
    }

    fn get(&self) -> Arc<PlanCache> {
        Arc::clone(
            &self
                .current
                .read()
                .expect("no client panics holding the cache lock"),
        )
    }

    /// Re-opens the cache if `used`, the instance a client just used,
    /// stopped persisting and is still the current one.
    fn heal(&self, used: &Arc<PlanCache>) {
        if used.persistent() {
            return;
        }
        let mut current = self
            .current
            .write()
            .expect("no client panics holding the cache lock");
        if Arc::ptr_eq(&current, used) {
            let mut retired = self
                .retired
                .lock()
                .expect("no client panics holding the totals lock");
            *retired = retired.add(used.stats());
            *current = Arc::new(PlanCache::open(self.dir.path(), self.capacity, Obs::off()));
            self.reopens.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn totals(&self) -> Totals {
        let retired = *self
            .retired
            .lock()
            .expect("no client panics holding the totals lock");
        retired.add(self.get().stats())
    }
}

/// Arrays per size group of the popularity order.
const GROUP: usize = 3;

/// Keys from most to least popular, stratified so that every seed's
/// most popular keys hold the same mix of networks and array sizes: the
/// arrays, sorted by board count, form groups of [`GROUP`]; pass `p`
/// takes member `p` of every group (groups in a seeded order), and each
/// array is paired with every network before the next array comes.
/// What is resident, and so how large every snapshot rewrite is, then
/// changes little from seed to seed.
fn popularity(inputs: &Inputs, seed: u64) -> Vec<usize> {
    let mut rng = gen::rng(seed, 3);
    let mut by_size: Vec<usize> = (0..inputs.arrays.len()).collect();
    by_size.sort_by_key(|&a| (inputs.arrays[a].array.len(), a));
    let mut groups: Vec<Vec<usize>> = by_size.chunks(GROUP).map(<[usize]>::to_vec).collect();
    for g in &mut groups {
        gen::shuffle(&mut rng, g);
    }
    let mut nets: Vec<usize> = (0..inputs.nets.len()).collect();
    gen::shuffle(&mut rng, &mut nets);
    let mut order = Vec::with_capacity(inputs.requests.len());
    for pass in 0..GROUP {
        gen::shuffle(&mut rng, &mut groups);
        for g in groups.iter().filter(|g| pass < g.len()) {
            for &net in &nets {
                let key = inputs
                    .requests
                    .iter()
                    .position(|r| r.net == net && r.array == g[pass])
                    .expect("every (network, array) pair is a key");
                order.push(key);
            }
        }
    }
    order
}

/// One untraced operation: a fresh single-thread planner on the shared
/// cache. Returns the plan and whether it was a served hit.
fn plan(
    net: &Network,
    array: &AcceleratorArray,
    cache: &Arc<PlanCache>,
) -> Result<(PlannedNetwork, bool), AccParError> {
    let planner = Planner::builder(net, array)
        .threads(1)
        .plan_cache(Arc::clone(cache))
        .build()?;
    let (outcome, provenance) =
        planner.plan_with_budget_cached(Strategy::AccPar, &Budget::unlimited())?;
    Ok((outcome.into_planned(), provenance == CacheOutcome::Hit))
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    blocks: Blocks,
    attempted: u64,
    errors: Vec<String>,
    hits: u64,
    /// Per (key, traced): the first plan served and its step time.
    first: HashMap<(usize, bool), (PlanTree, f64)>,
    /// Per key: every served step time.
    costs: HashMap<usize, Vec<u64>>,
    traced: PhaseLog,
}

/// Runs `clients` closed-loop clients for `seconds`; returns their logs
/// and the window's wall time.
fn clients(
    inputs: &Inputs,
    zipf: &Zipf,
    shared: &SharedCache,
    cfg: &RunConfig,
    seconds: Duration,
    stream: u64,
    traced: bool,
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.nproc as u64)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = gen::rng(cfg.seed, stream + c);
                    let mut log = ClientLog {
                        blocks: Blocks::new(seconds, TAIL_PCT),
                        ..ClientLog::default()
                    };
                    loop {
                        let at = start.elapsed();
                        if at >= seconds {
                            break;
                        }
                        let key = zipf.sample(&mut rng);
                        let r = inputs.requests[key];
                        let (net, array) = (&inputs.nets[r.net], &inputs.arrays[r.array].array);
                        log.attempted += 1;
                        let cache = shared.get();
                        let result = if traced {
                            match phases::run(
                                net,
                                array,
                                1,
                                Some((cache.as_ref(), shared.dir.path())),
                            ) {
                                Ok(t) => {
                                    log.traced.push(&t);
                                    Ok((t.plan, t.cost, t.cache_hit == Some(true)))
                                }
                                Err(e) => Err(e.to_string()),
                            }
                        } else {
                            let (ms, r) = timed(|| plan(net, array, &cache));
                            log.blocks.op(at, ms);
                            r.map(|(p, hit)| (p.plan().clone(), p.modeled_cost(), hit))
                        };
                        shared.heal(&cache);
                        match result {
                            Ok((plan, cost, hit)) => {
                                log.hits += u64::from(hit);
                                log.costs.entry(key).or_default().push(cost.to_bits());
                                log.first.entry((key, traced)).or_insert((plan, cost));
                            }
                            Err(e) => log.errors.push(format!("{}: error: {e}", inputs.label(r))),
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads catch planner panics"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// Runs `serve_mix`.
///
/// # Errors
///
/// Propagates input-generation and cache-directory errors; planning
/// errors during the run are counted as failed operations instead.
pub fn run(cfg: &RunConfig) -> Result<Outcome, AccParError> {
    let mut out = Outcome {
        threads: format!("{} clients x 1 planner thread", cfg.nproc),
        ..Outcome::default()
    };
    let capacity = cfg.scale.serve_capacity;
    let mut state = None;
    while state.is_none() || cfg.scale.setup_again(&out.setup_s) {
        drop(state.take());
        let t = Instant::now();
        let inputs = Inputs::new(
            &NETS,
            cfg.seed,
            cfg.scale.serve_arrays,
            MIN_BOARDS,
            MAX_BOARDS,
        )?;
        let zipf = Zipf::new(popularity(&inputs, cfg.seed), ZIPF_S);
        let shared = SharedCache::open(capacity).map_err(|e| {
            AccParError::Plan(accpar::core::PlanError::Config(format!(
                "cache directory: {e}"
            )))
        })?;
        // Pre-fill with the most popular keys, one cold plan each.
        for rank in 0..capacity.min(inputs.requests.len()) {
            let r = inputs.requests[zipf.key_at_rank(rank)];
            let cache = shared.get();
            let planner = Planner::builder(&inputs.nets[r.net], &inputs.arrays[r.array].array)
                .threads(crate::PLANNER_THREADS)
                .plan_cache(Arc::clone(&cache))
                .build()?;
            planner.plan(Strategy::AccPar)?;
            shared.heal(&cache);
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
        state = Some((inputs, zipf, shared));
    }
    let (inputs, zipf, shared) = state.expect("at least one set-up repetition");
    out.requests = inputs.requests.iter().map(|&r| inputs.label(r)).collect();

    // The traced run splits the window: untraced first, then traced on
    // the same (by then warm) cache.
    let untraced_secs = if cfg.trace {
        cfg.seconds / 2
    } else {
        cfg.seconds
    };
    let (mut logs, window) = clients(&inputs, &zipf, &shared, cfg, untraced_secs, 10, false);
    out.blocks = Blocks::new(untraced_secs, TAIL_PCT);
    out.peak_rss_mb = peak_rss_mb();
    let mut traced_stats = None;
    if cfg.trace {
        let before = shared.totals();
        let (traced, _) = clients(
            &inputs,
            &zipf,
            &shared,
            cfg,
            cfg.seconds - untraced_secs,
            20,
            true,
        );
        let after = shared.totals();
        traced_stats = Some((before, after));
        logs.extend(traced);
    }

    let mut first: HashMap<(usize, bool), (PlanTree, f64)> = HashMap::new();
    let mut costs: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut log = PhaseLog::default();
    let mut hits = 0;
    for l in logs {
        out.blocks.merge(&l.blocks);
        out.attempted += l.attempted;
        out.errors += l.errors.len() as u64;
        out.check_failures.extend(l.errors);
        hits += l.hits;
        for (k, p) in l.first {
            first.entry(k).or_insert(p);
        }
        for (k, v) in l.costs {
            costs.entry(k).or_default().extend(v);
        }
        log.merge(l.traced);
    }

    out.blocks.use_wall_time(window);

    // Checks, once per distinct key: every plan served for it (hit or
    // miss, untraced or traced) is the plain planner's cold plan.
    let mut ratios = Vec::new();
    let mut regrets = Vec::new();
    for ((label, q), (i, &r)) in cold::quality(&inputs)
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
        if let Some(served) = costs.get(&i) {
            if served.iter().any(|&c| c != acc.modeled_cost().to_bits()) {
                out.check_failures.push(format!(
                    "{label}: a served plan's cost differs from the cold plan"
                ));
            }
        }
        for traced in [false, true] {
            let Some((plan, cost)) = first.get(&(i, traced)) else {
                continue;
            };
            let how = if traced { "decomposed" } else { "served" };
            if plan != acc.plan() || !same_bits(*cost, acc.modeled_cost()) {
                out.check_failures
                    .push(format!("{label}: {how} plan differs from the cold plan"));
            }
            let (net, array) = (&inputs.nets[r.net], &inputs.arrays[r.array].array);
            match cold::resimulates(net, array, plan, *cost) {
                Ok(true) => {}
                Ok(false) => out.check_failures.push(format!(
                    "{label}: {how} plan does not re-simulate to its cost"
                )),
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
        ("requests", inputs.requests.len() as u64),
        ("quality.accpar_loses_to_dp", loses),
    ];
    let totals = shared.totals();
    let reopens = shared.reopens.load(Ordering::Relaxed);
    out.observed = vec![
        ("core.cache.persist_losses", reopens),
        ("core.cache.io_errors", totals.io_errors),
        ("core.cache.quarantined", totals.quarantined),
    ];
    println!(
        "serve_mix: {hits} hits over {} operations; the cache stopped persisting and was re-opened {reopens} times ({} I/O errors, {} records quarantined on re-open)",
        out.attempted, totals.io_errors, totals.quarantined
    );

    if let Some((before, after)) = traced_stats {
        let untraced = out.blocks.p50();
        let lookups = (after.hits - before.hits) + (after.misses - before.misses);
        let mut layers = log.layers();
        layers.push((
            "core.cache.hit_ratio",
            Some((after.hits - before.hits) as f64 / lookups.max(1) as f64),
            "ratio",
        ));
        layers.push((
            "core.cache.evictions",
            Some((after.evictions - before.evictions) as f64),
            "count",
        ));
        layers.push(("core.cache.persist_losses", Some(reopens as f64), "count"));
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
