//! Order statistics over latency samples.

/// Quantile of a non-empty ascending slice (`q` in `[0, 1]`), linearly
/// interpolated between the two nearest ranks, so the median of an even
/// count is the mean of the middle two. A TPC-H pass has 22 statements:
/// the nearest-rank median would sit exactly on the gap between the 11th
/// and 12th query and jump across it from run to run.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// The tail percentile a sample supports.
pub struct Tail {
    pub label: &'static str,
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest of p99.9, p99 and p90, up to `max_q`, with at least ten
/// samples beyond it (falling back to p50 when even p90 has fewer). The
/// cap keeps the metric's meaning fixed when a faster program completes
/// more statements in the same time.
pub fn tail(sorted: &[f64], max_q: f64) -> Tail {
    let pick = |label, q| {
        let value = quantile(sorted, q);
        Tail {
            label,
            value,
            beyond: sorted.iter().filter(|&&v| v > value).count(),
        }
    };
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)]
        .into_iter()
        .filter(|&(_, q)| q <= max_q)
        .map(|(l, q)| pick(l, q))
        .find(|t| t.beyond >= 10)
        .unwrap_or_else(|| pick("p50", 0.5))
}

/// A small seeded generator (SplitMix64): the benchmark's only source of
/// randomness, so one seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!((t.label, t.beyond), ("p90", 10));
        assert!((t.value - 90.1).abs() < 1e-9);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.999).label, "p99");
        assert_eq!(tail(&v, 0.9).label, "p90");
        assert_eq!(tail(&v[..50], 0.999).label, "p50");
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
