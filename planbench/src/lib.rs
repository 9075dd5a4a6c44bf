//! End-to-end and per-phase benchmark of the AccPar planner.
//!
//! Three closed-loop workloads drive the planner through its public API
//! only (see `README.md` in this directory for why each exists). The
//! untraced run times whole operations; the traced run (`--trace 1`)
//! re-runs the pipeline phase by phase from this crate's own calls and
//! reports per-layer metrics.

pub mod chaos;
pub mod cold;
pub mod gen;
pub mod phases;
pub mod serve;
pub mod stats;

use phases::{Phase, Traced};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Batch size of every generated network.
pub const BATCH: usize = 256;

/// Planner threads per request in the single-client workloads
/// (`cold`, `supervise_chaos`). One, not `nproc`: the planner's pool
/// spawns scoped threads on every call, so with two threads a request
/// waits on whichever vCPU the host stalls, and on a 2-vCPU host the
/// median over the paper's CNNs then swung by 1.6x between runs. A
/// single-thread planner also had the lower median (0.54 ms against
/// 2.05 ms).
pub const PLANNER_THREADS: usize = 1;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["cold", "serve_mix", "supervise_chaos"];

/// How much input a run generates. [`Scale::FULL`] is the benchmark;
/// [`Scale::TINY`] keeps the crate's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Generated arrays for the cold workload (two presets are added).
    pub cold_arrays: usize,
    /// Generated arrays for `serve_mix` (two presets are added).
    pub serve_arrays: usize,
    /// Plan-cache capacity for `serve_mix`.
    pub serve_capacity: usize,
    /// Generated arrays for `supervise_chaos` (two presets are added).
    pub chaos_arrays: usize,
    /// Health events per `supervise_chaos` replay.
    pub chaos_events: usize,
    /// Least and most set-up repetitions; set-up repeats until it has
    /// run at least [`SETUP_MIN_SECS`] or the most. `setup_s` is the
    /// median.
    pub setup_reps: (usize, usize),
}

impl Scale {
    /// The benchmark's inputs.
    pub const FULL: Scale = Scale {
        cold_arrays: 62,
        serve_arrays: 22,
        serve_capacity: 64,
        chaos_arrays: 30,
        chaos_events: 30,
        setup_reps: (3, 400),
    };

    /// A tiny mix for tests.
    pub const TINY: Scale = Scale {
        cold_arrays: 2,
        serve_arrays: 2,
        serve_capacity: 8,
        chaos_arrays: 1,
        chaos_events: 8,
        setup_reps: (1, 1),
    };
}

/// Set-up time a run gathers before it stops repeating set-up.
pub const SETUP_MIN_SECS: f64 = 1.0;

impl Scale {
    /// Whether set-up should run again after `done` (seconds per
    /// repetition so far).
    #[must_use]
    pub fn setup_again(&self, done: &[f64]) -> bool {
        let (least, most) = self.setup_reps;
        done.len() < least || (done.len() < most && done.iter().sum::<f64>() < SETUP_MIN_SECS)
    }
}

/// What one run asks for.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Cores the benchmark may use.
    pub nproc: usize,
}

/// A per-layer metric: name, value (`None` where the layer does not run
/// in this workload) and unit.
pub type Layer = (&'static str, Option<f64>, &'static str);

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Threads and clients, for the run metadata.
    pub threads: String,
    /// Labels of the distinct requests (or replays), in generation order.
    pub requests: Vec<String>,
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Untraced timed operations, by block of the measured window.
    pub blocks: Blocks,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that returned an error or panicked (each also has a
    /// line in `check_failures`).
    pub errors: u64,
    /// Failed operations and correctness checks, one line each.
    pub check_failures: Vec<String>,
    /// `VmHWM` right after the timed window, in MB.
    pub peak_rss_mb: f64,
    /// Geometric mean of AccPar/DP simulated step time.
    pub step_vs_dp: f64,
    /// Fraction of the time (or of operations) a plan was served.
    pub availability: f64,
    /// Served step time over its reference, as a geometric mean.
    pub served_degradation: f64,
    /// Per-request AccPar/DP ratios.
    pub quality: Vec<(String, f64)>,
    /// Deterministic counts (same seed, same counts).
    pub counts: Vec<(&'static str, u64)>,
    /// Counts that depend on thread timing, recorded in every run.
    pub observed: Vec<(&'static str, u64)>,
    /// Per-layer metrics; filled by the traced run only.
    pub layers: Vec<Layer>,
    /// Extra report lines, not part of the result line.
    pub notes: Vec<String>,
}

/// Blocks a measured window is cut into. Each end-to-end timing is the
/// median over blocks of that block's statistic, so a burst of host
/// contention (CPU steal arrives in bursts of a second or two) that
/// covers fewer than half the blocks does not move it.
pub const BLOCKS: usize = 10;

/// Timed samples of one measured window, bucketed into [`BLOCKS`]
/// equal blocks by when each operation started.
#[derive(Debug, Clone, Default)]
pub struct Blocks {
    len: f64,
    tail_pct: f64,
    latency_ms: Vec<Vec<f64>>,
    timed_s: Vec<f64>,
}

impl Blocks {
    /// Empty blocks over a window of `seconds`, whose tail latency is
    /// taken at percentile `tail_pct` (see [`Blocks::tail`]).
    #[must_use]
    pub fn new(seconds: Duration, tail_pct: f64) -> Self {
        Self {
            len: seconds.as_secs_f64() / BLOCKS as f64,
            tail_pct,
            latency_ms: vec![Vec::new(); BLOCKS],
            timed_s: vec![0.0; BLOCKS],
        }
    }

    fn block(&self, at: Duration) -> usize {
        ((at.as_secs_f64() / self.len) as usize).min(BLOCKS - 1)
    }

    /// Records an operation that started `at` into the window and took
    /// `ms`.
    pub fn op(&mut self, at: Duration, ms: f64) {
        let b = self.block(at);
        self.latency_ms[b].push(ms);
        self.timed_s[b] += ms / 1e3;
    }

    /// Records timed work that is not an operation (a call that
    /// appended no decision).
    pub fn idle(&mut self, at: Duration, ms: f64) {
        let b = self.block(at);
        self.timed_s[b] += ms / 1e3;
    }

    /// Appends another client's samples of the same window.
    pub fn merge(&mut self, other: &Blocks) {
        for (mine, theirs) in self.latency_ms.iter_mut().zip(&other.latency_ms) {
            mine.extend(theirs);
        }
    }

    /// Replaces the timed seconds of each block by its wall length, for
    /// concurrent clients whose busy times overlap: the window lasted
    /// `window` seconds.
    pub fn use_wall_time(&mut self, window: f64) {
        for (b, t) in self.timed_s.iter_mut().enumerate() {
            *t = (window - b as f64 * self.len).clamp(0.0, self.len);
        }
        if let Some(last) = self.timed_s.last_mut() {
            *last = (window - (BLOCKS - 1) as f64 * self.len).max(0.0);
        }
    }

    /// Every latency sample, in block order.
    #[must_use]
    pub fn all(&self) -> Vec<f64> {
        self.latency_ms.iter().flatten().copied().collect()
    }

    /// Operations recorded.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.latency_ms.iter().map(Vec::len).sum()
    }

    fn nonempty(&self) -> impl Iterator<Item = (&Vec<f64>, f64)> {
        self.latency_ms
            .iter()
            .zip(self.timed_s.iter().copied())
            .filter(|(v, t)| !v.is_empty() && *t > 0.0)
    }

    /// Each non-empty block's median latency, in time order.
    #[must_use]
    pub fn block_p50s(&self) -> Vec<f64> {
        self.nonempty().map(|(v, _)| stats::median(v)).collect()
    }

    /// Median over blocks of the block's median latency.
    #[must_use]
    pub fn p50(&self) -> f64 {
        stats::median(&self.block_p50s())
    }

    /// Median over blocks of the block's tail latency, at the
    /// workload's tail percentile, or the highest lower one with at least
    /// ten samples beyond it in every non-empty block: `(percentile,
    /// value, samples beyond it in the smallest block)`. The percentile
    /// is fixed per workload so that the figure stays comparable when a
    /// change makes more or fewer operations fit into a run.
    #[must_use]
    pub fn tail(&self) -> (f64, f64, usize) {
        let smallest = self.nonempty().map(|(v, _)| v.len()).min().unwrap_or(0);
        let pct = stats::tail_percentile(smallest, self.tail_pct);
        let per: Vec<f64> = self
            .nonempty()
            .map(|(v, _)| {
                let mut v = v.clone();
                v.sort_by(f64::total_cmp);
                stats::quantile(&v, pct / 100.0)
            })
            .collect();
        (pct, stats::median(&per), stats::beyond(smallest, pct))
    }

    /// Each non-empty block's operations per timed second, in time
    /// order.
    #[must_use]
    pub fn block_ops_per_s(&self) -> Vec<f64> {
        self.nonempty().map(|(v, t)| v.len() as f64 / t).collect()
    }

    /// Median over blocks of operations per timed second.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        stats::median(&self.block_ops_per_s())
    }
}

/// Runs `f` with panics caught, returning its wall time in ms and its
/// result (an error or panic becomes `Err` with a message).
pub fn timed<T, E: std::fmt::Display>(
    f: impl FnOnce() -> Result<T, E>,
) -> (f64, Result<T, String>) {
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let r = match r {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("panicked".to_string()),
    };
    (ms, r)
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bit-level equality of two step times.
#[must_use]
pub fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Per-phase samples of a traced run.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Per phase, the ms of every request in which it ran.
    ran: [Vec<f64>; 9],
    /// Per phase, the ms of every request (0 where it did not run).
    all: [Vec<f64>; 9],
    /// Whole decomposed requests, ms.
    pub total_ms: Vec<f64>,
    memo: [u64; 7],
    searches: u64,
    collapse: Vec<f64>,
    snapshot_bytes: Vec<f64>,
}

impl PhaseLog {
    /// Records one decomposed request.
    pub fn push(&mut self, t: &Traced) {
        for (i, v) in t.phase_ms.iter().enumerate() {
            if let Some(ms) = *v {
                self.ran[i].push(ms);
            }
            self.all[i].push(v.unwrap_or(0.0));
        }
        self.total_ms.push(t.total_ms);
        if let Some(m) = &t.memo {
            let add = [
                m.layer_hits,
                m.layer_misses,
                m.block_hits,
                m.block_misses,
                m.level_hits,
                m.level_misses,
                m.cells_requested,
            ];
            for (acc, v) in self.memo.iter_mut().zip(add) {
                *acc += v;
            }
            self.searches += 1;
        }
        if let Some(r) = t.collapse_ratio {
            self.collapse.push(r);
        }
        if let Some(b) = t.snapshot_bytes {
            self.snapshot_bytes.push(b as f64);
        }
    }

    /// Appends another log's samples.
    pub fn merge(&mut self, other: PhaseLog) {
        for i in 0..9 {
            self.ran[i].extend(&other.ran[i]);
            self.all[i].extend(&other.all[i]);
        }
        self.total_ms.extend(other.total_ms);
        for (acc, v) in self.memo.iter_mut().zip(other.memo) {
            *acc += v;
        }
        self.searches += other.searches;
        self.collapse.extend(other.collapse);
        self.snapshot_bytes.extend(other.snapshot_bytes);
    }

    /// Median ms of `phase` over the requests in which it ran.
    #[must_use]
    pub fn median(&self, phase: Phase) -> Option<f64> {
        let v = &self.ran[phase as usize];
        (!v.is_empty()).then(|| stats::median(v))
    }

    /// Sum over phases of each phase's median over all requests.
    #[must_use]
    pub fn sum_of_medians(&self) -> f64 {
        self.all
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
            .sum()
    }

    /// The per-layer metrics this log yields: phase medians, iso
    /// collapse, memo ratios, cells and snapshot size.
    #[must_use]
    pub fn layers(&self) -> Vec<Layer> {
        let ratio = |hits: u64, misses: u64| {
            (self.searches > 0).then(|| {
                if hits + misses == 0 {
                    0.0
                } else {
                    hits as f64 / (hits + misses) as f64
                }
            })
        };
        let mut out: Vec<Layer> = Phase::ALL
            .iter()
            .map(|&p| (p.metric(), self.median(p), "ms"))
            .collect();
        let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
        out.push(("dnn.iso_collapse_ratio", mean(&self.collapse), "ratio"));
        out.push((
            "core.memo.layer_hit_ratio",
            ratio(self.memo[0], self.memo[1]),
            "ratio",
        ));
        out.push((
            "core.memo.block_hit_ratio",
            ratio(self.memo[2], self.memo[3]),
            "ratio",
        ));
        out.push((
            "core.memo.level_hit_ratio",
            ratio(self.memo[4], self.memo[5]),
            "ratio",
        ));
        out.push((
            "cost.cells_requested",
            (self.searches > 0).then(|| self.memo[6] as f64 / self.searches as f64),
            "count",
        ));
        out.push((
            "core.cache.snapshot_bytes_per_insert",
            mean(&self.snapshot_bytes),
            "bytes",
        ));
        out
    }
}

/// The end-to-end metrics of [`Outcome`], with units and whether they
/// go into the result line. `failed_frac` is printed but left out of
/// the result line: it is 0 in every healthy run, and the line already
/// carries `attempted` and `failed`.
#[must_use]
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str, bool)> {
    let (_, tail, _) = o.blocks.tail();
    let failed = failed(o);
    vec![
        ("setup_s", stats::median(&o.setup_s), "s", true),
        ("latency_p50_ms", o.blocks.p50(), "ms", true),
        ("latency_tail_ms", tail, "ms", true),
        ("ops_per_s", o.blocks.ops_per_s(), "1/s", true),
        (
            "failed_frac",
            failed as f64 / o.attempted.max(1) as f64,
            "ratio",
            false,
        ),
        ("peak_rss_mb", o.peak_rss_mb, "MB", true),
        ("step_vs_dp", o.step_vs_dp, "ratio", true),
        ("availability", o.availability, "ratio", true),
        ("served_degradation", o.served_degradation, "ratio", true),
    ]
}

/// The per-layer metrics of the traced run's result line, with units,
/// in `BENCHMARK.json` order. A layer that does not run in a workload
/// (the plan cache in a cold workload, the supervisor outside
/// `supervise_chaos`) still has its entry, because the result line
/// carries every per-layer metric: its value is 0 and its name is listed
/// under `not_run` in the metadata line.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("dnn.train_view_ms", "ms"),
    ("dnn.iso_classify_ms", "ms"),
    ("dnn.iso_collapse_ratio", "ratio"),
    ("hw.bisect_ms", "ms"),
    ("core.cache.fingerprint_ms", "ms"),
    ("core.cache.lookup_ms", "ms"),
    ("core.cache.validate_ms", "ms"),
    ("core.cache.insert_ms", "ms"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.evictions", "count"),
    ("core.cache.snapshot_bytes_per_insert", "bytes"),
    ("core.cache.persist_losses", "count"),
    ("core.search_ms", "ms"),
    ("core.memo.level_hit_ratio", "ratio"),
    ("core.memo.layer_hit_ratio", "ratio"),
    ("core.memo.block_hit_ratio", "ratio"),
    ("cost.cells_requested", "count"),
    ("sim.evaluate_ms", "ms"),
    ("core.supervise.replan_decision_ms", "ms"),
    ("core.supervise.hold_decision_ms", "ms"),
    ("core.supervise.settle_ms", "ms"),
    ("core.supervise.replans", "count"),
    ("core.supervise.retries", "count"),
    ("core.supervise.fallbacks", "count"),
    ("core.planner.unattributed_ms", "ms"),
    ("quality.accpar_loses_to_dp", "count"),
    ("trace_overhead_frac", "ratio"),
];

/// The value of per-layer metric `name` in `o`, `None` where its layer
/// did not run.
#[must_use]
pub fn layer(o: &Outcome, name: &str) -> Option<f64> {
    o.layers
        .iter()
        .find(|(n, _, _)| *n == name)
        .and_then(|(_, v, _)| *v)
}

/// Failed operations: errors plus failed checks, capped at attempted.
#[must_use]
pub fn failed(o: &Outcome) -> u64 {
    (o.check_failures.len() as u64).min(o.attempted.max(1))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The human-readable report plus the metadata line and, last, the
/// one-line JSON result. Returns the text and whether every check passed.
#[must_use]
pub fn render(
    workload: &str,
    cfg: &RunConfig,
    o: &Outcome,
    rustc: &str,
    commit: &str,
) -> (String, bool) {
    let mut s = String::new();
    let (pct, _, beyond) = o.blocks.tail();
    let _ = writeln!(
        s,
        "planbench {workload}: seed {} seconds {} trace {} | nproc {} | {} | rustc {rustc} | commit {commit}",
        cfg.seed,
        cfg.seconds.as_secs_f64(),
        u8::from(cfg.trace),
        cfg.nproc,
        o.threads
    );
    let _ = writeln!(s, "distinct requests: {}", o.requests.len());
    for note in &o.notes {
        let _ = writeln!(s, "{note}");
    }
    for (label, ratio) in &o.quality {
        let _ = writeln!(
            s,
            "quality {label} accpar/dp {ratio:.4}{}",
            if *ratio > 1.0 { " LOSES" } else { "" }
        );
    }
    for line in &o.check_failures {
        let _ = writeln!(s, "CHECK FAILED: {line}");
    }
    let show = |v: Vec<f64>| {
        v.iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(s, "block p50 ms: {}", show(o.blocks.block_p50s()));
    let _ = writeln!(s, "block ops/s: {}", show(o.blocks.block_ops_per_s()));
    let e2e = end_to_end(o);
    for (name, v, unit, _) in &e2e {
        let extra = if *name == "latency_tail_ms" {
            format!(
                "  (p{pct}, median over {BLOCKS} blocks; {beyond} samples beyond it in the smallest block, {} samples in all)",
                o.blocks.ops()
            )
        } else {
            String::new()
        };
        let _ = writeln!(s, "metric {name} {v:.6} {unit}{extra}");
    }
    for (name, v, unit) in &o.layers {
        match v {
            Some(v) => {
                let _ = writeln!(s, "layer {name} {v:.6} {unit}");
            }
            None => {
                let _ = writeln!(s, "layer {name} n/a");
            }
        }
    }

    let lat = stats::Quartiles::of(&o.blocks.all());
    let setup = stats::Quartiles::of(&o.setup_s);
    let mut meta = format!(
        "{{\"meta\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\"rustc\":{},\"commit\":{},\"setup_reps\":{},\"ops\":{},\"distinct_requests\":{}}},\"spread\":{{",
        json_str(workload),
        cfg.seed,
        json_num(cfg.seconds.as_secs_f64()),
        u8::from(cfg.trace),
        cfg.nproc,
        json_str(&o.threads),
        json_str(rustc),
        json_str(commit),
        o.setup_s.len(),
        o.blocks.ops(),
        o.requests.len(),
    );
    let _ = write!(
        meta,
        "\"latency_ms\":{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}},\"setup_s\":{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}}}},\"counts\":{{",
        lat.n,
        json_num(lat.q1),
        json_num(lat.median),
        json_num(lat.q3),
        setup.n,
        json_num(setup.q1),
        json_num(setup.median),
        json_num(setup.q3)
    );
    let counts = |c: &[(&str, u64)]| {
        c.iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let not_run: Vec<String> = if cfg.trace {
        PER_LAYER
            .iter()
            .filter(|(name, _)| layer(o, name).is_none())
            .map(|(name, _)| json_str(name))
            .collect()
    } else {
        Vec::new()
    };
    let _ = write!(
        meta,
        "{}}},\"observed\":{{{}}},\"not_run\":[{}]}}",
        counts(&o.counts),
        counts(&o.observed),
        not_run.join(",")
    );
    let _ = writeln!(s, "{meta}");

    let metrics: Vec<String> = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(layer(o, name).unwrap_or(0.0)),
                    json_str(unit)
                )
            })
            .collect()
    } else {
        e2e.iter()
            .filter(|m| m.3)
            .map(|(name, v, unit, _)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )
            })
            .collect()
    };
    let correct = o.check_failures.is_empty() && o.blocks.ops() > 0;
    let _ = writeln!(
        s,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted.max(1),
        failed(o),
        metrics.join(",")
    );
    (s, correct)
}
