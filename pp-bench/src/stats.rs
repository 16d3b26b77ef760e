//! Estimators.
//!
//! Noise on a shared guest is one-sided and bursty: interference only
//! ever slows a round down. Over back-to-back runs of identical code the
//! median round moved by 10 % while the 10th-percentile round moved by
//! 1.5 % (BENCHMARK.md), so every time this benchmark gates on starts
//! from a **quiet floor** — the 10th-percentile round of one instance of
//! the workload — and the median and tail are printed beside it as
//! dispersion only. A run reports the median floor of its instances.

/// The percentile every gated timing is read at.
pub const QUIET_FLOOR: f64 = 0.10;

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `q` is clamped to (0, 1].
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One timing's distribution over the rounds of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// The quiet floor (gated).
    pub p10: f64,
    /// Median (dispersion, ungated).
    pub p50: f64,
    /// 90th percentile (dispersion, ungated).
    pub p90: f64,
    /// 99th percentile (dispersion, ungated).
    pub p99: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p10: quantile(&sorted, QUIET_FLOOR),
            p50: quantile(&sorted, 0.50),
            p90: quantile(&sorted, 0.90),
            p99: quantile(&sorted, 0.99),
        }
    }
}

/// The quiet floor of `samples`.
pub fn floor(samples: &[f64]) -> f64 {
    Summary::of(samples).p10
}

/// The arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the acceptance rule is stated in
/// those terms, so `repeat` must compute the same numbers.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let pos = i * (len + 1);
        let j = (pos / 4).clamp(1, len - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.10), 1.0);
        assert_eq!(quantile(&v, 0.11), 2.0);
        assert_eq!(quantile(&v, 0.50), 5.0);
        assert_eq!(quantile(&v, 0.90), 9.0);
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.10), 7.0);
    }

    #[test]
    fn quiet_floor_ignores_one_sided_noise() {
        // 600 rounds at 500 ns; a burst slows a third of them by 40 %.
        let mut rounds = vec![500.0; 600];
        for r in rounds.iter_mut().skip(100).take(200) {
            *r = 700.0;
        }
        let s = Summary::of(&rounds);
        assert_eq!(s.n, 600);
        assert_eq!(s.p10, 500.0);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p90, 700.0);
        // Sixty samples lie at or below the floor of 600 rounds.
        let sorted: Vec<f64> = (0..600).map(f64::from).collect();
        assert_eq!(quantile(&sorted, QUIET_FLOOR), 59.0);
        assert_eq!(floor(&rounds), 500.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]), (15.0, 45.0));
    }
}
