//! Seeded inputs: accelerator arrays, networks and request lists.
//!
//! Everything here is a pure function of the seed. Board counts are
//! stratified on a log scale so that every seed covers small, medium and
//! large arrays in the same proportions: different seeds then give
//! different inputs with similar cost distributions, which is what keeps
//! run-to-run spread small without hiding any array size.

use accpar::hw::rng::StdRng;
use accpar::prelude::*;

/// A generator for `stream` under `seed`; distinct streams of one seed
/// are independent.
#[must_use]
pub fn rng(seed: u64, stream: u64) -> StdRng {
    let mut rng = StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    rng.next_u64();
    rng
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0, i + 1));
    }
}

/// One generated accelerator array and a short label for reports.
#[derive(Debug, Clone)]
pub struct ArrayCase {
    /// Label such as `gen17b3t` (17 boards, 3 spec types) or `tpu4+4`.
    pub label: String,
    /// The array.
    pub array: AcceleratorArray,
}

/// How far a generated board's rates stray from its TPU preset: each
/// rate is scaled by a log-uniform factor in `[1/SCATTER, SCATTER]`.
const SCATTER: f64 = 1.15;

/// A board type with rates scattered around TPU-v2 (`v3 == false`) or
/// TPU-v3.
fn scattered_spec(rng: &mut StdRng, index: usize, v3: bool) -> AcceleratorSpec {
    let base = if v3 {
        AcceleratorSpec::tpu_v3()
    } else {
        AcceleratorSpec::tpu_v2()
    };
    let mut scale = || rng.gen_range_f64(-SCATTER.ln(), SCATTER.ln()).exp();
    AcceleratorSpec::new(
        format!("gen{index}"),
        base.peak_flops() * scale(),
        base.hbm_bytes(),
        base.mem_bw() * scale(),
        base.net_bw() * scale(),
        base.cores(),
        base.ici_bw() * scale(),
    )
    .expect("scaled preset rates stay positive and finite")
}

/// `generated` arrays of 1–3 spec types with board counts stratified
/// log-uniformly over `[min_boards, max_boards]`, followed by the two
/// Table-7 presets at small seeded sizes: `heterogeneous_tpu(v2, v3)`
/// with 2–4 TPU-v2 and as many or one more TPU-v3 boards, and
/// `homogeneous_tpu_v3` over an odd count of 3–7 boards.
#[must_use]
pub fn arrays(seed: u64, generated: usize, min_boards: usize, max_boards: usize) -> Vec<ArrayCase> {
    let mut rng = rng(seed, 1);
    let (lo, hi) = ((min_boards as f64).ln(), (max_boards as f64).ln());
    let mut out = Vec::with_capacity(generated + 2);
    for i in 0..generated {
        let a = lo + (hi - lo) * i as f64 / generated as f64;
        let b = lo + (hi - lo) * (i + 1) as f64 / generated as f64;
        let boards = (rng.gen_range_f64(a, b).exp().round() as usize).clamp(min_boards, max_boards);
        // Spec-type counts cycle 1, 2, 3 across strata so every seed
        // has the same mix of homogeneous and heterogeneous arrays.
        let types = (1 + i % 3).min(boards);
        // A near-even split; a seeded type takes the remainder.
        let mut counts = vec![boards / types; types];
        let extra = rng.gen_range(0, types);
        for k in 0..boards % types {
            counts[(extra + k) % types] += 1;
        }
        let mut specs = Vec::with_capacity(boards);
        for (t, &n) in counts.iter().enumerate() {
            let spec = scattered_spec(&mut rng, i * 3 + t, (i + t) % 2 == 1);
            specs.extend(std::iter::repeat_n(spec, n));
        }
        out.push(ArrayCase {
            label: format!("gen{boards}b{types}t"),
            array: AcceleratorArray::new(specs),
        });
    }
    let v2 = 2 + rng.gen_range(0, 3);
    let v3 = v2 + rng.gen_range(0, 2);
    out.push(ArrayCase {
        label: format!("tpu{v2}+{v3}"),
        array: AcceleratorArray::heterogeneous_tpu(v2, v3),
    });
    let n = 2 * (1 + rng.gen_range(0, 3)) + 1;
    out.push(ArrayCase {
        label: format!("v3x{n}"),
        array: AcceleratorArray::homogeneous_tpu_v3(n),
    });
    out
}

/// Builds zoo networks by name at one batch size.
///
/// # Errors
///
/// Propagates zoo construction errors.
pub fn networks(names: &[&str], batch: usize) -> Result<Vec<Network>, AccParError> {
    names
        .iter()
        .map(|name| zoo::by_name(name, batch).map_err(AccParError::from))
        .collect()
}

/// One distinct plan request: indices into the network and array lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Index into the workload's networks.
    pub net: usize,
    /// Index into the workload's arrays.
    pub array: usize,
}

/// Every (network, array) pair, in a seeded order.
#[must_use]
pub fn cross(seed: u64, n_nets: usize, n_arrays: usize) -> Vec<Request> {
    let mut out: Vec<Request> = (0..n_arrays)
        .flat_map(|array| (0..n_nets).map(move |net| Request { net, array }))
        .collect();
    shuffle(&mut rng(seed, 2), &mut out);
    out
}

/// A low-discrepancy visiting order of `0..n` starting at `start`:
/// steps of about `n / φ` (golden ratio), made coprime with `n`, so any
/// run of consecutive positions samples `0..n` nearly evenly.
#[must_use]
pub fn spread_order(n: usize, start: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut step = ((n as f64 / 1.618_033_988_749_895).round() as usize).max(1);
    while gcd(step, n) != 1 {
        step += 1;
    }
    (0..n).map(|k| (start + k * step) % n).collect()
}

/// A Zipf-like sampler: the key at popularity rank `r` has weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    key_of_rank: Vec<usize>,
}

impl Zipf {
    /// A sampler over `key_of_rank` (most popular first), exponent `s`.
    #[must_use]
    pub fn new(key_of_rank: Vec<usize>, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..key_of_rank.len())
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf, key_of_rank }
    }

    /// The key at popularity rank `rank` (0 = most popular).
    #[must_use]
    pub fn key_at_rank(&self, rank: usize) -> usize {
        self.key_of_rank[rank]
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen_unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.key_of_rank[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_cover_the_board_range_and_repeat_per_seed() {
        let a = arrays(7, 8, 2, 64);
        let b = arrays(7, 8, 2, 64);
        let labels = |v: &[ArrayCase]| v.iter().map(|c| c.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&a), labels(&b));
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|c| (2..=64).contains(&c.array.len())));
        assert!(a[0].array.len() <= 3 && a[7].array.len() >= 40);
    }

    #[test]
    fn spread_order_visits_everything_once_and_evenly() {
        for n in [1, 2, 10, 384, 640] {
            let mut order = spread_order(n, 3 % n);
            // Any window of a tenth of the order hits every tenth of the range.
            if n >= 100 {
                let w = n / 10;
                for window in order.windows(w).step_by(7) {
                    let mut deciles = [false; 10];
                    for &k in window {
                        deciles[k * 10 / n] = true;
                    }
                    assert!(deciles.iter().filter(|&&d| d).count() >= 9, "n = {n}");
                }
            }
            order.sort_unstable();
            assert_eq!(order, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new((0..50).rev().collect(), 1.0);
        let mut rng = rng(1, 9);
        let top = z.key_at_rank(0);
        assert_eq!(top, 49);
        let hits = (0..2000).filter(|_| z.sample(&mut rng) == top).count();
        assert!(hits > 200, "top key drawn {hits} times");
    }
}
