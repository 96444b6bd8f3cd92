//! Order statistics, the seeded generator and the zipf sampler.
//!
//! The generator is the harness's own (SplitMix64) rather than the
//! repository's vendored `rand`: the inputs a seed produces are part of
//! the benchmark's definition and must not move when the repository does.

/// The value of sorted samples at quantile `q` (nearest rank on `n - 1`,
/// the convention `bench_serve` uses). Empty input reads 0.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Median with the midpoint rule for even counts. Empty input reads 0.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => samples[n / 2],
        _ => 0.5 * (samples[n / 2 - 1] + samples[n / 2]),
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses and the driver applies.
pub fn quartiles(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n < 2 {
        let v = samples.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        samples[j - 1] + delta * (samples[j] - samples[j - 1])
    };
    (at(1), at(3))
}

/// Geometric mean of positive values; 0 when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// SplitMix64: every random choice of the benchmark flows from one of
/// these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) of the same seed.
    pub fn fork(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Inverse-CDF zipfian sampler over `n` ranks with exponent 1.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (1..=n.max(1))
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        let u = rng.unit() * total;
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 0.5), 51.0);
        assert_eq!(percentile_sorted(&v, 0.99), 100.0);
        assert_eq!(percentile_sorted(&v, 1.0), 101.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&mut v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&mut [2.0, 1.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12, "{q1} {q3}");
    }

    #[test]
    fn geomean_skips_non_positive() {
        assert!((geomean([4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean([0.0, -1.0]), 0.0);
    }

    #[test]
    fn rng_repeats_per_seed_and_forks_differ() {
        let a: Vec<u64> =
            (0..4).map(|_| 0).scan(Rng::fork(7, 0), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> =
            (0..4).map(|_| 0).scan(Rng::fork(7, 0), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, 1).next_u64(), Rng::fork(7, 2).next_u64());
        let mut r = Rng::fork(1, 0);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }

    #[test]
    fn zipf_follows_one_over_rank() {
        let zipf = Zipf::new(26);
        let mut rng = Rng::fork(42, 0);
        let mut hits = [0usize; 26];
        let draws = 200_000;
        for _ in 0..draws {
            hits[zipf.sample(&mut rng)] += 1;
        }
        let h26: f64 = (1..=26).map(|r| 1.0 / r as f64).sum();
        for rank in [0usize, 1, 4, 25] {
            let expect = draws as f64 / ((rank + 1) as f64 * h26);
            let got = hits[rank] as f64;
            assert!((got - expect).abs() < 0.05 * expect + 50.0, "rank {rank}: {got} vs {expect}");
        }
        assert!(hits.windows(2).all(|w| w[0] as f64 > 0.8 * w[1] as f64));
    }
}
