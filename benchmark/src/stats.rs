//! Order statistics for the reported numbers: medians, quartiles, and
//! the tail percentile a sample count can support.

/// A metric's reported value with its spread: the median of the
/// samples, their first and third quartile, how many there were, and
/// their median absolute deviation from the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    pub mad: f64,
}

impl Summary {
    /// A value measured once per process (peak RSS, every per-layer
    /// metric): no spread to report.
    pub fn single(value: f64) -> Self {
        Summary { value, q1: value, q3: value, n: 1, mad: 0.0 }
    }

    /// Median, quartiles and MAD of `samples`.
    pub fn of(samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        let value = median(samples);
        let deviations: Vec<f64> = samples.iter().map(|x| (x - value).abs()).collect();
        Summary { value, q1, q3, n: samples.len(), mad: median(&deviations) }
    }

    /// Twice the MAD as a share of the median: the interquartile range
    /// of a symmetric distribution with this MAD, so it reads like
    /// IQR/median — but a slow spell of the host that hits up to half
    /// of the repetitions leaves it (like the median itself) alone,
    /// where a quarter is enough to blow up the IQR.
    pub fn relative_spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            2.0 * self.mad / self.value.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses — the reader of these
/// numbers compares them with spreads computed that way.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, clamped into the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// Nearest-rank percentile `p` (0–100) of `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles a report may quote, in rising order.
const TAILS: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest of [`TAILS`] with at least ten of `n` samples beyond it;
/// `None` when even the median has fewer (`n < 20`).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().rfind(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_follows_the_sample_count() {
        assert_eq!(supported_tail(9), None);
        assert_eq!(supported_tail(30), Some(50.0));
        // 210 samples: 10.5 beyond p95, 2.1 beyond p99.
        assert_eq!(supported_tail(210), Some(95.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; ours
        // clamps into the data, which is all a two-sample spread can say.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        let s = Summary::of(&v);
        assert_eq!((s.value, s.n, s.mad), (5.5, 10, 2.5));
        assert!((s.relative_spread() - 5.0 / 5.5).abs() < 1e-12);
        // Three of ten repetitions 20 % slow: the IQR sees them, the
        // MAD-based spread does not.
        let spell = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 80.0, 81.0, 79.0];
        let s = Summary::of(&spell);
        assert!((s.q3 - s.q1) / s.value > 0.10 && s.relative_spread() < 0.03);
    }
}
