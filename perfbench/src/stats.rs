//! Small statistics helpers: means, medians and the tail-percentile rule.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub(crate) const TAIL_MIN_BEYOND: usize = 10;

/// The percentile the benchmark may report as a tail for `n` samples: the
/// highest of p99 or below that leaves at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, never below the median. `None` without samples.
pub(crate) fn tail_quantile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    let q = 1.0 - TAIL_MIN_BEYOND as f64 / n as f64;
    Some(q.clamp(0.5, 0.99))
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    // The epsilon keeps float error in `q * n` from rounding a whole rank up.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (upper median for even counts).
pub(crate) fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Mean of the samples (0 without samples).
pub(crate) fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Smallest of the samples: the fastest of repeated identical runs.
/// Neighbours on a shared host slow whole stretches of runs by up to 2x;
/// the fastest repetition is the statistic that stays put between runs.
pub(crate) fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A latency summary: median, tail at the percentile [`tail_quantile`]
/// allows, and the sample count both were taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (0.99 with at least 1000 samples).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

/// Summarizes samples by the percentile rule. `None` without samples.
pub(crate) fn summarize(samples: &[f64]) -> Option<Summary> {
    let tail_q = tail_quantile(samples.len())?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Summary {
        count: v.len(),
        p50: quantile_sorted(&v, 0.5),
        tail_q,
        tail: quantile_sorted(&v, tail_q),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(5000), Some(0.99));
        // 500 samples: p98 leaves exactly 10 beyond.
        assert!((tail_quantile(500).unwrap() - 0.98).abs() < 1e-12);
        // Too few samples for any tail beyond the median.
        assert_eq!(tail_quantile(12), Some(0.5));
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn reported_tail_leaves_ten_samples_beyond() {
        for n in [20usize, 37, 200, 999, 1000, 4321] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = summarize(&v).unwrap();
            let beyond = v.iter().filter(|&&x| x > s.tail).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond");
            // And it is the highest such percentile, up to p99.
            if s.tail_q < 0.99 {
                assert!(beyond <= TAIL_MIN_BEYOND + 1, "n={n}: {beyond} beyond");
            }
        }
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    }
}
