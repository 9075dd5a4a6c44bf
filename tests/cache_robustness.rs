//! Robustness battery for the crash-safe plan cache: corruption is
//! detected or harmless (never a wrong plan), a crash mid-write
//! recovers by quarantining the torn tail, degraded hardware demotes
//! hits to replans, and persistence I/O failure degrades to
//! memory-only serving — never a panic, never a startup failure. The
//! append-only log replays tombstones, survives a torn append at any
//! byte, stays bounded by compaction, and takes concurrent inserts.

use accpar::prelude::*;
use accpar_core::cache::{plan_key, POISON_TOLERANCE};
use accpar_core::{LoadReport, PlanCache, PlanRecord};
use accpar_obs::Value;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

mod common;

fn setup() -> (Network, AcceleratorArray) {
    let network = zoo::lenet(128).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    (network, array)
}

/// A fresh per-test cache directory (std-only; no tempdir crate).
fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "accpar-cache-test-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// `n` records with distinct keys — fingerprints of LeNet at hierarchy
/// depths `0..n` — for driving the log directly, without planning.
/// Record `i` stores cost `i`.
fn distinct_records(n: usize) -> Vec<PlanRecord> {
    let (network, array) = setup();
    let view = network.train_view().expect("lenet lowers");
    let plan = PlanTree::uniform(&[NetworkPlan::uniform(
        3,
        LayerPlan::new(PartitionType::TypeII, Ratio::clamped(0.375)),
    )]);
    (0..n)
        .map(|i| PlanRecord {
            key: plan_key(
                &view,
                &array,
                Strategy::AccPar,
                i,
                &CostConfig::default(),
                &RatioSolver::default(),
                &SimConfig::default(),
                &Budget::unlimited(),
            ),
            strategy: Strategy::AccPar,
            levels: 1,
            cost: i as f64,
            plan: plan.clone(),
        })
        .collect()
}

/// The resident key set, as sortable hex strings.
fn key_set(cache: &PlanCache) -> BTreeSet<String> {
    cache.records().iter().map(|r| r.key.to_hex()).collect()
}

fn log_lines(dir: &Path) -> usize {
    fs::read_to_string(dir.join("plans.jsonl"))
        .expect("log file exists")
        .lines()
        .count()
}

fn serve_with_cache(
    network: &Network,
    array: &AcceleratorArray,
    cache: &Arc<PlanCache>,
) -> PlannedNetwork {
    let config = ServeConfig {
        cache: Some(Arc::clone(cache)),
        ..ServeConfig::default()
    };
    let requests = vec![PlanRequest::new(network, array).levels(2)];
    plan_many(&requests, &config)
        .remove(0)
        .expect("request plans")
        .into_planned()
}

#[test]
fn cache_hit_serves_the_bit_identical_plan() {
    let (network, array) = setup();
    let dir = cache_dir("hit");
    let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    let cold = serve_with_cache(&network, &array, &cache);
    assert_eq!(cache.stats().misses, 1);
    let warm = serve_with_cache(&network, &array, &cache);
    assert_eq!(cache.stats().hits, 1, "{:?}", cache.stats());
    assert_eq!(cold.plan(), warm.plan());
    assert_eq!(
        cold.modeled_cost().to_bits(),
        warm.modeled_cost().to_bits(),
        "validated hits must serve bit-identical costs"
    );
    // And the cold path itself matches a cache-free planner bit for bit.
    let uncached = Planner::builder(&network, &array)
        .levels(2)
        .build()
        .unwrap()
        .plan(Strategy::AccPar)
        .unwrap();
    assert_eq!(uncached.plan(), cold.plan());
    assert_eq!(uncached.modeled_cost().to_bits(), cold.modeled_cost().to_bits());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cache_survives_restart_and_serves_from_disk() {
    let (network, array) = setup();
    let dir = cache_dir("restart");
    {
        let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
        serve_with_cache(&network, &array, &cache);
        assert_eq!(cache.len(), 1);
    }
    let reborn = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    assert_eq!(reborn.load_report().loaded, 1);
    serve_with_cache(&network, &array, &reborn);
    assert_eq!(reborn.stats().hits, 1, "warm load must serve the hit");
    let _ = fs::remove_dir_all(&dir);
}

/// Property test: ANY single bit-flip in the persisted file is either
/// detected (the record is quarantined and re-planned) or harmless —
/// the served plan never differs from a fresh plan. Deterministic
/// seeded sampling of flip positions keeps the runtime bounded.
#[test]
fn any_bit_flip_is_detected_or_harmless() {
    let (network, array) = setup();
    let dir = cache_dir("bitflip");
    let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    let truth = serve_with_cache(&network, &array, &cache);
    drop(cache);
    let file = dir.join("plans.jsonl");
    let pristine = fs::read(&file).expect("cache file exists");

    let mut gen = common::Gen(0x5eed);
    for _ in 0..200 {
        let bit = gen.range(0, pristine.len() * 8);
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        fs::write(&file, &bytes).unwrap();
        let _ = fs::remove_file(dir.join("plans.jsonl.quarantine"));

        let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
        let served = serve_with_cache(&network, &array, &cache);
        assert_eq!(
            served.plan(),
            truth.plan(),
            "bit {bit}: corrupted cache served a different plan"
        );
        assert_eq!(
            served.modeled_cost().to_bits(),
            truth.modeled_cost().to_bits(),
            "bit {bit}: corrupted cache served a different cost"
        );
        // Detected corruption must leave a postmortem trail.
        if cache.load_report().quarantined > 0 {
            assert!(
                dir.join("plans.jsonl.quarantine").exists(),
                "bit {bit}: quarantined line missing from sidecar"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_write_truncation_recovers_with_quarantine() {
    let (network, array) = setup();
    let alexnet = zoo::alexnet(128).unwrap();
    let dir = cache_dir("truncate");
    {
        let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
        serve_with_cache(&network, &array, &cache);
        serve_with_cache(&alexnet, &array, &cache);
        assert_eq!(cache.len(), 2);
    }
    let file = dir.join("plans.jsonl");
    let text = fs::read_to_string(&file).unwrap();
    // Simulate a crash mid-write: the tail record loses its second half
    // (including the newline).
    let keep = text.len() - text.lines().last().unwrap().len() / 2 - 1;
    fs::write(&file, &text.as_bytes()[..keep]).unwrap();

    let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    let report = cache.load_report();
    assert_eq!(
        (report.loaded, report.quarantined),
        (1, 1),
        "one record survives, the torn tail is quarantined"
    );
    assert!(dir.join("plans.jsonl.quarantine").exists());
    // Re-planning the lost request is bit-identical to an uncached run.
    let served = serve_with_cache(&alexnet, &array, &cache);
    let fresh = Planner::builder(&alexnet, &array)
        .levels(2)
        .build()
        .unwrap()
        .plan(Strategy::AccPar)
        .unwrap();
    assert_eq!(served.plan(), fresh.plan());
    assert_eq!(served.modeled_cost().to_bits(), fresh.modeled_cost().to_bits());
    // The rewrite healed the file: a third open sees only clean records.
    let healed = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    assert_eq!(healed.load_report().quarantined, 0);
    assert_eq!(healed.load_report().loaded, 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn degraded_array_demotes_the_hit_to_a_never_worse_replan() {
    let (network, array) = setup();
    let dir = cache_dir("demote");
    let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    let healthy = serve_with_cache(&network, &array, &cache);

    let faults = FaultModel::new()
        .slow_leaf(0, 0.5)
        .unwrap()
        .degrade_cut(1, 0.25)
        .unwrap();
    let config = ServeConfig {
        cache: Some(Arc::clone(&cache)),
        ..ServeConfig::default()
    };
    let requests = vec![PlanRequest::new(&network, &array).levels(2).faults(&faults)];
    let degraded = plan_many(&requests, &config)
        .remove(0)
        .expect("faulted request plans")
        .into_planned();

    assert_eq!(cache.stats().demotions, 1, "{:?}", cache.stats());
    // Never-worse: the demoted plan on degraded hardware is at most the
    // stale healthy plan's degraded step time.
    let view = network.train_view().unwrap();
    let tree = GroupTree::bisect(&array, 2).unwrap();
    let stale = Simulator::new(SimConfig::cost_model_aligned())
        .simulate(&view, healthy.plan(), &tree, Some(&faults))
        .unwrap();
    assert!(
        degraded.modeled_cost() <= stale.total_secs * (1.0 + 1e-9),
        "demoted plan {} must not be worse than the stale plan {}",
        degraded.modeled_cost(),
        stale.total_secs
    );
    // The healthy record stays cached for healthy requests.
    serve_with_cache(&network, &array, &cache);
    assert!(cache.stats().hits >= 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_record_is_evicted_and_replanned() {
    let (network, array) = setup();
    let dir = cache_dir("poison");
    let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    let truth = serve_with_cache(&network, &array, &cache);

    // Semantic corruption with a valid checksum: re-admit the record
    // with a cost the simulator cannot reproduce. The per-record
    // checksum passes (the record is honestly persisted), so only the
    // BSP simulation cross-check can catch it.
    let stored: PlanRecord = {
        let records = cache.records();
        assert_eq!(records.len(), 1);
        records.into_iter().next().unwrap()
    };
    let mut poisoned = stored.clone();
    poisoned.cost = stored.cost * 2.0 + 1.0;
    cache.insert(poisoned);
    drop(cache);
    let key = stored.key;

    let reopened = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
    assert!(reopened.peek(&key).is_some(), "poisoned record persisted");
    let served = serve_with_cache(&network, &array, &reopened);
    let stats = reopened.stats();
    assert_eq!(stats.poisoned, 1, "{stats:?}");
    assert_eq!(served.plan(), truth.plan(), "poisoning must not change the served plan");
    assert_eq!(served.modeled_cost().to_bits(), truth.modeled_cost().to_bits());
    // The poisoned record was evicted and replaced by the fresh plan.
    let healed = reopened.peek(&key).expect("re-admitted after replan");
    assert!((healed.cost - truth.modeled_cost()).abs() <= POISON_TOLERANCE);
    let _ = fs::remove_dir_all(&dir);
}

/// Cross-path round trip: the fingerprint's structure lane hashes the
/// *canonical class multiset* of the view — never the traversal the
/// search will use — so a record written by the uncollapsed planner
/// validates and hits from the collapsed planner, and vice versa. A
/// repeated-block transformer maximizes the difference between the two
/// paths' internal traversals.
#[test]
fn cache_entries_round_trip_across_collapse_paths() {
    let network = zoo::bert_base(4, 32).expect("zoo network");
    let array = AcceleratorArray::heterogeneous_tpu(2, 2);
    let dir = cache_dir("crosspath");
    for (writer_iso, reader_iso) in [(false, true), (true, false)] {
        let _ = fs::remove_dir_all(&dir);
        let cache = Arc::new(PlanCache::open(&dir, 64, Obs::off()));
        let plan_with = |iso: bool| {
            Planner::builder(&network, &array)
                .levels(2)
                .iso(iso)
                .plan_cache(Arc::clone(&cache))
                .build()
                .expect("planner builds")
                .plan_with_budget_cached(Strategy::AccPar, &Budget::unlimited())
                .expect("network plans")
        };
        let (cold, cold_outcome) = plan_with(writer_iso);
        assert_eq!(cold_outcome, CacheOutcome::Miss);
        let (warm, warm_outcome) = plan_with(reader_iso);
        assert_eq!(
            warm_outcome,
            CacheOutcome::Hit,
            "record written with iso={writer_iso} must hit from iso={reader_iso}"
        );
        assert_eq!(cold.planned().plan(), warm.planned().plan());
        assert_eq!(
            cold.planned().modeled_cost().to_bits(),
            warm.planned().modeled_cost().to_bits(),
            "the cross-path hit must serve a bit-identical cost"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn io_failure_degrades_to_memory_only_serving() {
    let (network, array) = setup();
    // /proc is not writable: open degrades instead of panicking.
    let cache = Arc::new(PlanCache::open(
        std::path::Path::new("/proc/accpar-no-such-dir/cache"),
        16,
        Obs::off(),
    ));
    assert!(!cache.persistent());
    let first = serve_with_cache(&network, &array, &cache);
    let second = serve_with_cache(&network, &array, &cache);
    assert_eq!(cache.stats().hits, 1, "memory-only serving still caches");
    assert!(cache.stats().io_errors >= 1);
    assert_eq!(first.plan(), second.plan());
}

/// Concurrent misses used to race on one shared temp file, and a lost
/// `rename` silently turned the cache memory-only. Appends serialize on
/// the log lock instead, and the replayed log rebuilds exactly the
/// resident set.
#[test]
fn concurrent_inserts_stay_persistent_and_replay_exactly() {
    let dir = cache_dir("concurrent");
    let records = distinct_records(800);
    let cache = PlanCache::open(&dir, 16, Obs::off());
    let barrier = Barrier::new(4);
    std::thread::scope(|s| {
        for chunk in records.chunks(200) {
            let (cache, barrier) = (&cache, &barrier);
            s.spawn(move || {
                barrier.wait();
                for record in chunk {
                    cache.insert(record.clone());
                }
            });
        }
    });
    assert!(cache.persistent());
    assert_eq!(cache.stats().io_errors, 0);
    let resident = key_set(&cache);
    drop(cache);
    let reopened = PlanCache::open(&dir, 16, Obs::off());
    assert_eq!(reopened.load_report().quarantined, 0);
    assert_eq!(key_set(&reopened), resident);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn evicted_record_stays_gone_after_restart() {
    let dir = cache_dir("tombstone");
    let records = distinct_records(3);
    {
        let cache = PlanCache::open(&dir, 64, Obs::off());
        for record in &records {
            cache.insert(record.clone());
        }
        assert!(cache.evict(&records[1].key));
        // Header, three records and the tombstone: nothing compacted.
        assert_eq!(log_lines(&dir), 5);
    }
    let reopened = PlanCache::open(&dir, 64, Obs::off());
    assert_eq!(reopened.load_report(), LoadReport { loaded: 2, quarantined: 0 });
    assert!(reopened.peek(&records[1].key).is_none(), "tombstone replayed");
    assert_eq!(reopened.peek(&records[2].key).as_ref(), Some(&records[2]));
    let _ = fs::remove_dir_all(&dir);
}

/// A crash can tear only the line being appended: cut the log at every
/// byte inside its last line and every earlier record still loads.
#[test]
fn torn_append_at_any_byte_loses_only_that_line() {
    let dir = cache_dir("torn");
    let records = distinct_records(4);
    {
        let cache = PlanCache::open(&dir, 64, Obs::off());
        for record in &records {
            cache.insert(record.clone());
        }
    }
    let file = dir.join("plans.jsonl");
    let pristine = fs::read(&file).expect("log file exists");
    let last_start = pristine[..pristine.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("a header precedes the records")
        + 1;
    // From one byte of the last line up to all of it but its newline.
    for cut in last_start + 1..pristine.len() {
        fs::write(&file, &pristine[..cut]).unwrap();
        let torn = PlanCache::open(&dir, 64, Obs::off());
        assert_eq!(
            torn.load_report(),
            LoadReport { loaded: 3, quarantined: 1 },
            "cut at byte {cut}"
        );
        for record in &records[..3] {
            assert_eq!(torn.peek(&record.key).as_ref(), Some(record), "cut at byte {cut}");
        }
        drop(torn);
        let healed = PlanCache::open(&dir, 64, Obs::off());
        assert_eq!(
            healed.load_report(),
            LoadReport { loaded: 3, quarantined: 0 },
            "cut at byte {cut}: the warm load's compaction heals the file"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_bounds_the_log_and_keeps_the_newest_records() {
    let cap = 16;
    let dir = cache_dir("compact");
    let records = distinct_records(10 * cap);
    let cache = PlanCache::open(&dir, cap, Obs::off());
    let mut longest = 0;
    for record in &records {
        cache.insert(record.clone());
        longest = longest.max(log_lines(&dir));
    }
    assert!(longest <= 2 * cap + 1, "log grew to {longest} lines");
    assert!(cache.generation() >= 10, "compacted {} times", cache.generation());
    let resident = key_set(&cache);
    drop(cache);
    let reopened = PlanCache::open(&dir, cap, Obs::off());
    assert!(reopened.len() <= cap);
    assert_eq!(key_set(&reopened), resident, "replay keeps the LRU's choice");
    let newest = records.last().expect("records inserted");
    assert_eq!(reopened.peek(&newest.key).as_ref(), Some(newest));
    for stale in &records[..2 * cap] {
        assert!(reopened.peek(&stale.key).is_none(), "an old record came back");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every compaction reports what it wrote: a `cache.compact` counter
/// and an event whose integer `records` and `bytes` describe the new
/// log.
#[test]
fn compaction_is_counted_and_described() {
    let cap = 4;
    let dir = cache_dir("compact-obs");
    let collector = Arc::new(Collector::new());
    let obs = Obs::new(Arc::clone(&collector));
    let cache = PlanCache::open(&dir, cap, obs.clone());
    for record in distinct_records(cap) {
        cache.insert(record);
    }
    // One compaction closes the warm load, one follows `cap` appends.
    let events = collector.events_named("cache.compact");
    assert_eq!(events.len(), 2);
    let field = |name: &str| {
        events[1].fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v.clone())
    };
    let bytes = fs::metadata(dir.join("plans.jsonl")).expect("log file exists").len();
    assert_eq!(field("records"), Some(Value::U64(cache.len() as u64)));
    assert_eq!(field("bytes"), Some(Value::U64(bytes)));
    let metrics = obs.metrics().expect("an active handle records metrics");
    assert_eq!(metrics.snapshot().counter("cache.compact"), 2);
    let _ = fs::remove_dir_all(&dir);
}
